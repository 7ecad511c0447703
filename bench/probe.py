"""Set-up probe: a fresh interpreter runs one sweep up to its first trial.

    python3 bench/probe.py SRC_DIR CONFIG OUT

It imports ``rrtls`` from SRC_DIR and calls ``rrtls.cli.main`` on the sweep
config, so config parsing and the model and spec construction run as they
do for a user.  The first request for a trial prints the ``time.monotonic``
reading (a clock shared by all processes on the host) and stops the sweep.
"""

import sys
import time

src, config, out = sys.argv[1:4]
sys.path.insert(0, src)

import rrtls.cli  # noqa: E402
import rrtls.harness  # noqa: E402


class FirstTrial(BaseException):
    """Raised at the first trial; not an Exception, so no handler in the
    program swallows it."""


def first_trial(*args, **kwargs):
    raise FirstTrial(time.monotonic())


rrtls.harness.sample_ls = rrtls.harness.sample_tls = first_trial
try:
    rc = rrtls.cli.main(["sweep", "--config", config, "--out", out])
except FirstTrial as reached:
    print(repr(reached.args[0]))
else:
    sys.exit(f"sweep returned {rc} without drawing a trial")
