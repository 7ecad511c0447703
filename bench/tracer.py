"""Layer tracing from outside the program.

A :class:`Tracer` replaces the public names that ``rrtls.cli``,
``rrtls.harness`` and ``rrtls.tls`` call with wrappers that open a span per
call, and puts the original objects back on :meth:`Tracer.uninstall`.  Spans
nest on a stack (the benchmark drives one thread), so a span's self time is
its duration minus the durations of its direct children; the self times of
all spans, the root ``cli`` span included, add up to the traced wall time.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from rrtls import cli, harness, tls
from rrtls.errors import RrtlsError


def _svd_bytes(counts, args):
    n, k = np.shape(args[0])
    counts["svdtools.svd.bytes_computed"] += 8 * n * k


def _emitted_bytes(counts, args):
    counts["textio.emit.bytes"] += len(args[1].encode("utf-8"))


# (owner, attribute, layer, counter hook).  The names are the ones each
# module looks up at call time, so wrapping them traces every call the
# sweep makes through them.
TARGETS = [
    (cli, "run", "harness", None),
    (cli, "compare_selection_rules", "harness", None),
    (cli, "svd", "svdtools.svd", _svd_bytes),
    (cli, "order_by_scores", "svdtools.order", None),
    (cli, "csv_text", "textio.emit", None),
    (cli, "json_text", "textio.emit", None),
    (cli, "write_text", "textio.emit", _emitted_bytes),
    (harness, "sample_ls", "model.sample", None),
    (harness, "sample_tls", "model.sample", None),
    (harness, "svd", "svdtools.svd", _svd_bytes),
    (harness, "order_by_scores", "svdtools.order", None),
    (harness, "select_rank_ls", "ls.select", None),
    (harness, "tls_solve", "tls.solve", None),
    (harness, "augmented_scores", "tls.select", None),
    (harness, "q_objective", "tls.select", None),
    (harness, "q_objective_bias_recipe", "tls.select", None),
    (harness.VecStats, "add", "harness.aggregate", None),
    (harness.VecStats, "merge", "harness.aggregate", None),
    (tls, "svd", "svdtools.svd", _svd_bytes),
]

ROOT_LAYER = "cli"
LAYERS = sorted({layer for _, _, layer, _ in TARGETS} | {ROOT_LAYER})


class Tracer:
    """Per-layer self time, call counts and work counters of traced calls."""

    def __init__(self):
        self._saved = []
        self.reset()

    def reset(self) -> None:
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self._stack = []

    def _enter(self, layer: str) -> None:
        # [layer, start, time covered by direct children]
        self._stack.append([layer, perf_counter(), 0.0])

    def _exit(self) -> None:
        end = perf_counter()
        layer, start, children = self._stack.pop()
        duration = end - start
        self.self_s[layer] += duration - children
        self.calls[layer] += 1
        if self._stack:
            self._stack[-1][2] += duration

    def _wrap(self, fn, layer, hook):
        def traced(*args, **kwargs):
            self._enter(layer)
            try:
                if hook is not None:
                    hook(self.counts, args)
                return fn(*args, **kwargs)
            except RrtlsError as err:
                if layer == "tls.solve":
                    self.counts["tls.solve.rejected"] += 1
                    self.counts["tls.solve.rejected." + err.code] += 1
                raise
            finally:
                self._exit()

        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for owner, name, layer, hook in TARGETS:
            original = vars(owner)[name]
            self._saved.append((owner, name, original))
            setattr(owner, name, self._wrap(original, layer, hook))

    def uninstall(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    @contextmanager
    def root(self):
        """Root span around one CLI call."""
        self._enter(ROOT_LAYER)
        try:
            yield
        finally:
            self._exit()

    @property
    def balanced(self) -> bool:
        return not self._stack
