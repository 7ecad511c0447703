"""Benchmark of ``rrtls sweep``, the entry point that produces the paper's
Monte Carlo evidence.

    python3 bench/run.py --workload ls-ref --seed 1 --seconds 20 --trace 0

Run it from the repository root.  It imports ``rrtls`` from ``src/`` and
calls ``rrtls.cli.main(["sweep", ...])`` in process on a strict-JSON config
generated from ``--seed``, in a closed loop with one client: each sweep
starts when the previous one returns, with the CLI defaults (one thread,
BLAS at its default thread count).  Every sweep's artifact is checked.

``--trace 0`` measures the end-to-end metrics over ``--seconds`` of sweeps:
trials/s and CPU seconds per 1000 trials, set-up time from a fresh
interpreter to the first trial (over several probe processes) and peak
resident memory.  ``--trace 1`` alternates untraced and traced sweeps for
``--seconds`` and reports per-layer self times and counts per sweep plus
the tracing overhead.  Every timed sample is divided by the host's speed
factor at the moment it was taken (see ``yardstick.py``); timed figures are
medians of those samples.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` (counted in
sweeps) and ``metrics``.  See ``bench/README.md`` for why the workloads are
what they are.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PROBE = os.path.join(ROOT, "bench", "probe.py")
WORK = os.path.join(ROOT, ".bench_run")

SIGMA2 = 0.25
THETA_REF = [1.0, -0.5, 0.25, 2.0]
GRID = [0.0, 0.5, 1.0, 2.0, 3.0, 5.0, 10.0, 30.0]

# One timed sweep runs ``trials`` trials (about a quarter of a second on
# a quiet 2-vCPU Xeon VM at the commit that added this benchmark); the
# replay check re-derives a separate sweep of ``replay`` trials through the
# public per-trial functions.  ``yardstick`` is (trials of the stand-in,
# its time in seconds at the reference speed: about the fastest of 300 runs
# on that VM).
WORKLOADS = {
    "ls-ref": {"family": "rrls", "N": 16, "p": 4, "format": "csv",
               "trials": 2048, "replay": 256, "yardstick": (384, 0.0100)},
    "tls-wide": {"family": "rrtls", "N": 256, "p": 32, "theta_norm2": 4.0,
                 "format": "csv", "trials": 256, "replay": 48,
                 "yardstick": (24, 0.0117)},
    "tls-grid": {"family": "rrtls", "N": 16, "p": 4, "grid": GRID,
                 "format": "json", "trials": 512, "replay": 256,
                 "yardstick": (64, 0.0073)},
}

MIN_SWEEPS = 3
SETUP_PROBES = 15
PROBE_TIMEOUT_S = 60
ACCOUNTING_RTOL = 0.01


def make_config(wl: dict, seed: int, trials: int) -> dict:
    if "theta_norm2" in wl:
        import numpy as np

        g = np.random.default_rng([seed, wl["p"]]).standard_normal(wl["p"])
        theta = (np.sqrt(wl["theta_norm2"]) * g / np.linalg.norm(g)).tolist()
    else:
        theta = THETA_REF
    cfg = {
        "family": wl["family"],
        "trials": trials,
        "seed": seed,
        "model": {"kind": "gaussian", "N": wl["N"], "p": wl["p"],
                  "theta": theta, "sigma2": SIGMA2},
        "rank_policy": "auto",
        "format": wl["format"],
    }
    if "grid" in wl:
        cfg["grid"] = wl["grid"]
    elif wl["family"] in ("tls", "rrtls"):
        cfg["tls_mode"] = {"mode": "oracle"}
    return cfg


class Sweep:
    """One generated config and the artifact paths its sweeps write."""

    def __init__(self, workdir: str, name: str, cfg: dict):
        self.cfg = cfg
        self.config_path = os.path.join(workdir, name + ".json")
        ext = "." + cfg["format"]
        self.out = os.path.join(workdir, name + ".out" + ext)
        self.sidecar = os.path.join(workdir, name + ".out.scores.json")
        with open(self.config_path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        self.argv = ["sweep", "--config", self.config_path, "--out", self.out]

    def call(self, cli, span=None):
        """Run the sweep once; returns (ok, wall_s, cpu_s, artifact bytes)."""
        for path in (self.out, self.sidecar):
            if os.path.exists(path):
                os.remove(path)
        rc, error = None, None
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            if span is None:
                rc = cli.main(self.argv)
            else:
                with span():
                    rc = cli.main(self.argv)
        except Exception:  # a crashing sweep is a counted failure, not a crash
            error = traceback.format_exc()
        wall = time.perf_counter() - t0
        cpu = time.process_time() - c0
        if error is None and rc != 0:
            error = f"sweep returned exit code {rc}"
        if error is not None:
            print(f"sweep failed: {error}", file=sys.stderr)
            return False, wall, cpu, None
        with open(self.out, "rb") as fh:
            return True, wall, cpu, fh.read()

    def sidecar_text(self) -> str:
        with open(self.sidecar, encoding="utf-8") as fh:
            return fh.read()


def check_artifact(checks, sweep: Sweep, data: bytes, replay=False):
    """Invariant checks, then the replay if asked for; returns (problems,
    completed trials or None).  An artifact the checks cannot read is a
    problem, not a crash."""
    try:
        text = data.decode("utf-8")
        if "grid" in sweep.cfg:
            problems, completed = checks.check_grid(sweep.cfg, text), None
        else:
            problems, completed = checks.check_table(sweep.cfg, text, sweep.sidecar_text())
        if replay and not problems:
            replay_fn = checks.replay_grid if "grid" in sweep.cfg else checks.replay_table
            problems = replay_fn(sweep.cfg, text)
        return problems, completed
    except Exception:  # malformed output fails the check; keep measuring
        return ["unreadable artifact: " + traceback.format_exc()], None


class Tally:
    """Sweeps attempted and failed, with the reasons for failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, ok: bool, problems=()) -> bool:
        self.attempted += 1
        for problem in problems:
            print(f"output check: {problem}", file=sys.stderr)
        good = ok and not problems
        self.failed += 0 if good else 1
        return good


def blas_info():
    """(OpenBLAS configuration, thread count) of the library numpy loaded,
    read from this process's own memory map; (None, None) if not found."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None, None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if get_threads is None or get_config is None:
                    continue
                get_threads.restype = ctypes.c_int
                get_threads.argtypes = []
                get_config.restype = ctypes.c_char_p
                get_config.argtypes = []
                return get_config().decode().strip(), int(get_threads())
    return None, None


def environment(seed: int) -> dict:
    import numpy as np

    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "rrtls")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=30)
            commit = proc.stdout.strip() or None
        except OSError:
            pass
    openblas, blas_threads = blas_info()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": openblas,
        "blas_threads": blas_threads,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def setup_time(sweep: Sweep, workdir: str) -> float:
    """Seconds from starting a fresh interpreter to the sweep's first trial."""
    out = os.path.join(workdir, "probe.out." + sweep.cfg["format"])
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, PROBE, SRC, sweep.config_path, out],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip()) - t0


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def make_yardstick(wl: dict):
    from yardstick import Yardstick

    reps, reference_s = wl["yardstick"]
    # A grid report evaluates both q rules at every grid value per trial.
    objectives = 2 * len(wl["grid"]) if "grid" in wl else 1
    return Yardstick(wl["N"], wl["p"], wl["family"] in ("tls", "rrtls"), objectives,
                     reps, reference_s)


def median_metric(samples, unit):
    return (statistics.median(samples), unit, samples)


def measure_end_to_end(cli, checks, sweep, reference, tally, seconds, workdir, wl):
    """Per-sweep rate and CPU cost, and set-up time, each at the reference
    host speed (time divided by the yardstick's factor); medians."""
    rates, cpu_per_k, setup, raw_rates = [], [], [], []
    trials = sweep.cfg["trials"]
    setup_time(sweep, workdir)  # warms the file cache; not counted
    stick = make_yardstick(wl)

    def probe():
        seconds_to_trial, factor = stick.around(lambda: setup_time(sweep, workdir))
        setup.append(seconds_to_trial / factor)

    start = time.perf_counter()
    deadline = start + seconds
    while len(rates) < MIN_SWEEPS or time.perf_counter() < deadline:
        (ok, wall, cpu, data), factor = stick.around(lambda: sweep.call(cli))
        problems = []
        if ok and data != reference:
            problems = ["artifact differs from the first sweep of this run"]
            problems += check_artifact(checks, sweep, data)[0]
        if tally.record(ok, problems):
            rates.append(trials * factor / wall)
            cpu_per_k.append(cpu / factor / (trials / 1000.0))
            raw_rates.append(trials / wall)
        # Probes are spread over the run, between sweeps, so that one burst
        # of contention cannot cover all of them.
        if time.perf_counter() - start >= len(setup) * seconds / SETUP_PROBES:
            probe()
    while len(setup) < SETUP_PROBES:
        probe()
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "trials_per_s": median_metric(rates, "trials/s"),
        "cpu_s_per_ktrial": median_metric(cpu_per_k, "cpu_s/ktrial"),
        "setup_s": median_metric(setup, "s"),
        "peak_rss_mb": (peak_mib, "MiB", [peak_mib]),
    }
    print(f"wall-clock trials/s, not normalized: median {statistics.median(raw_rates):.6g}, "
          f"best {max(raw_rates):.6g}; last host speed factor {stick.last / stick.reference_s:.3f}")
    return metrics, []


def measure_layers(cli, checks, sweep, reference, completed, tally, seconds, wl):
    """Per-layer self times per sweep at the reference host speed (medians
    over the traced sweeps), layer counts, and the tracing overhead."""
    from tracer import LAYERS, Tracer

    tracer = Tracer()
    stick = make_yardstick(wl)
    untraced, traced, layer_self, problems = [], [], {}, []
    counts = None
    trials = sweep.cfg["trials"]
    deadline = time.perf_counter() + seconds
    pair = 0
    while pair < MIN_SWEEPS or time.perf_counter() < deadline:
        # Alternate which side of the pair goes first, so drift in the
        # host's speed falls on both sides alike.
        for traced_turn in ((False, True) if pair % 2 == 0 else (True, False)):
            if not traced_turn:
                (ok, wall, _, data), factor = stick.around(lambda: sweep.call(cli))
                sweep_problems = [] if not ok or data == reference else [
                    "untraced artifact differs from the first sweep of this run"]
                if tally.record(ok, sweep_problems):
                    untraced.append(wall / factor)
                continue
            tracer.reset()
            tracer.install()
            try:
                (ok, wall, _, data), factor = stick.around(
                    lambda: sweep.call(cli, span=tracer.root))
            finally:
                tracer.uninstall()
            sweep_problems = []
            if ok and data != reference:
                sweep_problems.append("traced artifact differs from the untraced one")
            accounted = sum(tracer.self_s.values())
            if not tracer.balanced or abs(accounted - wall) > ACCOUNTING_RTOL * wall:
                sweep_problems.append(
                    f"layer self times add up to {accounted!r} s of a {wall!r} s sweep")
            sweep_counts = {f"{layer}.calls": tracer.calls[layer] for layer in LAYERS}
            sweep_counts.update(tracer.counts)
            if counts is None:
                counts = sweep_counts
            elif sweep_counts != counts:
                sweep_problems.append("layer counts differ between sweeps of one seed")
            if tally.record(ok, sweep_problems):
                traced.append(wall / factor)
                for layer in LAYERS:
                    layer_self.setdefault(layer, []).append(tracer.self_s[layer] / factor)
        pair += 1
    if counts is None or not traced or not untraced:
        return {}, ["no traced sweep completed"]
    rejected = counts.get("tls.solve.rejected", 0)
    if completed is not None and completed + rejected != trials:
        problems.append(f"completed {completed} + rejected {rejected} != {trials} trials")

    def count(name, unit="count"):
        value = counts.get(name, 0)
        return (value, unit, [value])

    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = median_metric(layer_self[layer], "s")
        if layer not in ("cli", "harness"):
            metrics[f"{layer}.calls"] = count(f"{layer}.calls")
    for name in ("svdtools.svd.bytes_computed", "textio.emit.bytes"):
        metrics[name] = count(name, "bytes")
    from rrtls.errors import DegenerateSolutionError, NonUniqueTlsError

    metrics["tls.solve.rejected"] = count("tls.solve.rejected")
    for code in (NonUniqueTlsError.code, DegenerateSolutionError.code):
        metrics[f"tls.solve.rejected.{code}"] = count(f"tls.solve.rejected.{code}")
    metrics["trace.wall_s"] = median_metric(traced, "s")
    overhead = statistics.median(traced) - statistics.median(untraced)
    metrics["trace.overhead_s"] = (overhead, "s", [overhead])
    return metrics, problems


def print_metrics(metrics: dict) -> None:
    for name, (value, unit, samples) in metrics.items():
        line = f"{name:<40} {value:>14.6g} {unit}"
        if len(samples) > 1:
            lo, hi = quartiles(samples)
            line += f"  (median of {len(samples)}; quartiles {lo:.6g} .. {hi:.6g})"
        print(line)


def print_shares(metrics: dict) -> None:
    wall = metrics["trace.wall_s"][0]
    shares = sorted(
        ((value / wall, name[: -len(".self_s")])
         for name, (value, _, _) in metrics.items() if name.endswith(".self_s")),
        reverse=True,
    )
    print("layer shares of traced wall: " + ", ".join(
        f"{layer} {100 * share:.1f}%" for share, layer in shares))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    # On SIGTERM, unwind: a running probe is killed and waited for, and the
    # scratch directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(SRC, "rrtls", "__init__.py")):
        print(f"error: no rrtls sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import rrtls
    from rrtls import cli

    if os.path.dirname(os.path.abspath(rrtls.__file__)) != os.path.join(SRC, "rrtls"):
        print(f"error: imported rrtls from {rrtls.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import checks

    wl = WORKLOADS[args.workload]
    print(f"workload {args.workload}: {wl['trials']} trials per sweep, "
          f"seed {args.seed}, trace {args.trace}")
    env = environment(args.seed)
    workdir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    tally = Tally()
    try:
        # Replay check on a short sweep of its own.
        short = Sweep(workdir, "replay", make_config(wl, args.seed, wl["replay"]))
        ok, _, _, data = short.call(cli)
        problems = check_artifact(checks, short, data, replay=True)[0] if ok else []
        tally.record(ok, problems)

        # The first full sweep warms up and fixes the reference artifact
        # every later sweep of this run must reproduce byte for byte.
        sweep = Sweep(workdir, "sweep", make_config(wl, args.seed, wl["trials"]))
        ok, _, _, reference = sweep.call(cli)
        completed = None
        problems = []
        if ok:
            problems, completed = check_artifact(checks, sweep, reference)
        if not tally.record(ok, problems):
            reference = None

        if reference is None:
            metrics, problems = {}, ["the first full sweep failed; nothing measured"]
        elif args.trace:
            metrics, problems = measure_layers(
                cli, checks, sweep, reference, completed, tally, args.seconds, wl)
        else:
            metrics, problems = measure_end_to_end(
                cli, checks, sweep, reference, tally, args.seconds, workdir, wl)
        for problem in problems:
            print(f"check: {problem}", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not os.listdir(WORK):
            os.rmdir(WORK)

    env["loadavg_end"] = os.getloadavg()
    correct = tally.failed == 0 and not problems and reference is not None
    print("env " + json.dumps(env))
    if reference is not None:
        print(f"artifact_sha256 {hashlib.sha256(reference).hexdigest()}"
              + (" (identical traced and untraced)" if args.trace and correct else ""))
    print_metrics(metrics)
    if args.trace and metrics:
        print_shares(metrics)
    print(f"{'op_error_rate':<40} {tally.failed / tally.attempted:>14.6g} failed/attempted"
          f"  ({tally.failed} of {tally.attempted} sweeps)")
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
