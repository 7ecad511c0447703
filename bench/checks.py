"""Output checks for the sweep artifacts the benchmark produces.

Two kinds of check, each returning a list of problems (empty when the
output is correct):

* invariants that hold for any seed and any trial count, checked on every
  artifact: the counts add up, selection frequencies sum to one, mean
  squared errors are finite and nonnegative, and on least-squares sweeps
  the full-rank law ``mse_emp[p] = p * sigma2`` holds within 5 standard
  errors;
* a replay of a short sweep through the public per-trial functions
  (``sample_*``, ``tls_solve``, ``order_by_scores``, ``ls_reduced`` /
  ``tls_reduced``, ``select_rank_ls``, ``q_objective``).  Selection counts
  and failure counts must match exactly, mean squared errors and their
  theory column to ``RTOL``.  The replay never looks at how the sweep
  loops over trials, so it stays valid for any trial engine.
"""

from __future__ import annotations

import csv
import io
import json
import math
from collections import Counter

import numpy as np

import rrtls
from rrtls.errors import RrtlsError

HEADER = ["family", "r", "trials", "mse_emp", "mse_se", "mse_theory", "rstar_freq", "pass"]
RTOL = 1e-9
FREQ_ATOL = 1e-9
LAW_SE = 5.0
TLS_FAMILIES = ("tls", "rrtls")


def build_model(cfg):
    m = cfg["model"]
    return rrtls.gaussian_model(
        N=m["N"], p=m["p"], theta=m["theta"], sigma2=m["sigma2"], seed=cfg["seed"]
    )


def _close(a, b, rtol=RTOL) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b)) + 1e-300


def _tails(v):
    """_tails(v)[i] = sum of v[i+1:]."""
    suffix = np.cumsum(np.asarray(v, dtype=float)[::-1])[::-1]
    return np.append(suffix[1:], 0.0)


def _check_freqs(label, freqs, completed, problems) -> None:
    freqs = np.asarray(freqs, dtype=float)
    if not np.all((freqs >= 0) & (freqs <= 1)):
        problems.append(f"{label}: frequencies outside [0, 1]")
    if abs(float(freqs.sum()) - 1.0) > FREQ_ATOL:
        problems.append(f"{label}: frequencies sum to {freqs.sum()!r}, not 1")
    counts = freqs * completed
    if np.max(np.abs(counts - np.round(counts))) > 1e-6:
        problems.append(f"{label}: frequencies are not counts over {completed} trials")


# ---------------------------------------------------------------------------
# Per-rank tables (csv)
# ---------------------------------------------------------------------------

def parse_table(text):
    rows = [row for row in csv.reader(io.StringIO(text)) if row]
    return rows[0], rows[1:]


def check_table(cfg, text: str, sidecar_text: str):
    """Invariants of a per-rank csv table and its scores sidecar.

    Returns (problems, completed).  The csv carries no failure counts, so
    ``completed <= trials`` is all it can show; traced runs check
    ``completed + rejected == trials`` against the counted rejections.
    """
    problems = []
    p = cfg["model"]["p"]
    sigma2 = cfg["model"]["sigma2"]
    header, rows = parse_table(text)
    if header != HEADER:
        return [f"table header is {header}"], 0
    if len(rows) != p or any(len(row) != len(HEADER) for row in rows):
        return [f"table has {len(rows)} rows, expected {p} of {len(HEADER)} fields"], 0
    if [row[0] for row in rows] != [cfg["family"]] * p:
        problems.append("family column does not match the config")
    if [row[1] for row in rows] != [str(r) for r in range(1, p + 1)]:
        problems.append("rank column is not 1..p")
    completed = int(rows[0][2])
    if any(int(row[2]) != completed for row in rows) or not 1 <= completed <= cfg["trials"]:
        problems.append(f"completed count {completed} is inconsistent with {cfg['trials']} trials")
    cols = np.array([[float(v) for v in row[3:7]] for row in rows])
    mse, se, theory, freq = cols.T
    for label, col in (("mse_emp", mse), ("mse_se", se), ("mse_theory", theory)):
        if not np.all(np.isfinite(col) & (col >= 0)):
            problems.append(f"{label} is not finite and nonnegative")
    _check_freqs("rstar_freq", freq, completed, problems)
    if any(row[7] not in ("true", "false") for row in rows):
        problems.append("pass column is not boolean")
    if cfg["family"] not in TLS_FAMILIES:
        target = p * sigma2
        if not _close(theory[-1], target, 1e-12):
            problems.append(f"full-rank theory {theory[-1]!r} is not p*sigma2 = {target!r}")
        if not abs(mse[-1] - target) <= LAW_SE * se[-1]:
            problems.append(
                f"full-rank law: mse {mse[-1]!r} is more than {LAW_SE} SE "
                f"({se[-1]!r}) from p*sigma2 = {target!r}"
            )
    sidecar = json.loads(sidecar_text)
    if sidecar.get("family") != cfg["family"] or sidecar.get("sigma2") != sigma2:
        problems.append("scores sidecar does not match the config")
    if sidecar.get("mse_theory") != theory.tolist():
        problems.append("scores sidecar theory column differs from the table")
    return problems, completed


def _tls_trial(model, seed, trial):
    real = rrtls.sample_tls(model, seed, trial)
    est = rrtls.tls_solve(real.H_tilde, real.y)
    basis = rrtls.order_by_scores(est.retained_columns, real.y)
    scores = rrtls.augmented_scores(basis, est.discarded_column, real.y)
    return real, est, basis, scores


def replay_table(cfg, text: str):
    """Re-derive a short per-rank sweep trial by trial."""
    model = build_model(cfg)
    p, sigma2, seed, x = model.p, model.sigma2, cfg["seed"], model.x
    ranks = np.arange(1, p + 1)
    tls = cfg["family"] in TLS_FAMILIES
    U = rrtls.svd(model.H).U
    counts = np.zeros(p, dtype=np.int64)
    sq, theory = [], []
    for t in range(cfg["trials"]):
        if tls:
            try:
                real, est, basis, scores = _tls_trial(model, seed, t)
            except RrtlsError:
                continue
            q = rrtls.q_objective(scores, sigma2, p, model.theta_norm2, "oracle").q_star
            estimate = rrtls.tls_reduced
            d = np.append(basis.columns.T @ x, est.discarded_column @ x)
            theory.append(_tails(d * d)[:p] + ranks * sigma2)
        else:
            real = rrtls.sample_ls(model, seed, t)
            basis = rrtls.order_by_scores(U, real.y)
            q = rrtls.select_rank_ls(basis, sigma2, p).r_star
            estimate = rrtls.ls_reduced
        counts[q - 1] += 1
        errs = [estimate(basis, real.y, r) - x for r in ranks]
        sq.append([float(e @ e) for e in errs])
    sq = np.array(sq)
    completed = sq.shape[0]
    if tls:
        theory = np.mean(theory, axis=0)
    else:
        theory = _tails(rrtls.order_by_scores(U, x).scores) + ranks * sigma2
    expected = {
        "mse_emp": sq.mean(axis=0),
        "mse_se": sq.std(axis=0, ddof=1) / math.sqrt(completed),
        "mse_theory": theory,
    }
    _, rows = parse_table(text)
    problems = []
    if int(rows[0][2]) != completed:
        problems.append(f"replay completed {completed} trials, sweep reports {rows[0][2]}")
        return problems
    for i, row in enumerate(rows):
        if float(row[6]) != counts[i] / completed:
            problems.append(f"rank {i + 1}: selection count differs from replay")
        for j, name in enumerate(("mse_emp", "mse_se", "mse_theory")):
            if not _close(float(row[3 + j]), float(expected[name][i])):
                problems.append(
                    f"rank {i + 1}: {name} {row[3 + j]} differs from replay "
                    f"{expected[name][i]!r}"
                )
    return problems


# ---------------------------------------------------------------------------
# Selection-rule grid reports (json)
# ---------------------------------------------------------------------------

def _grid_selection(scores, sigma2, p, grid):
    q = [rrtls.q_objective(scores, sigma2, p, g, "oracle").q_star for g in grid]
    alt = [int(np.argmin(rrtls.q_objective_bias_recipe(scores, sigma2, p, g))) + 1 for g in grid]
    return q, alt


def check_grid(cfg, text: str):
    """Invariants of a selection-rule grid report; the witness trial, if
    any, is replayed on its own."""
    doc = json.loads(text)
    p = cfg["model"]["p"]
    grid = cfg["grid"]
    problems = []
    if (doc.get("family"), doc.get("trials"), doc.get("seed")) != (
        cfg["family"], cfg["trials"], cfg["seed"]
    ):
        problems.append("report header does not match the config")
    completed = doc["completed"]
    failures = doc["failures"]
    if not all(isinstance(v, int) and v > 0 for v in failures.values()):
        problems.append(f"failure counts are not positive integers: {failures}")
    if completed + sum(failures.values()) != cfg["trials"] or completed < 1:
        problems.append(
            f"completed {completed} + rejected {failures} != {cfg['trials']} trials"
        )
    if doc["grid"] != grid:
        problems.append("report grid differs from the config")
    for key in ("q_star_freq", "q_star_freq_bias_recipe"):
        freqs = np.asarray(doc[key], dtype=float)
        if freqs.shape != (len(grid), p):
            problems.append(f"{key} has shape {freqs.shape}")
            continue
        for g, row in zip(grid, freqs):
            _check_freqs(f"{key}[t={g}]", row, completed, problems)
    witness = doc["witness"]
    if doc["theta_dependent"] != (witness is not None):
        problems.append("theta_dependent disagrees with the witness")
    if witness is not None:
        model = build_model(cfg)
        _, _, _, scores = _tls_trial(model, cfg["seed"], witness["trial"])
        q, _ = _grid_selection(scores, model.sigma2, p, [witness["t1"], witness["t2"]])
        if (
            witness["t1"] != grid[0]
            or witness["t2"] not in grid
            or q != [witness["q1"], witness["q2"]]
            or q[0] == q[1]
        ):
            problems.append(f"witness {witness} does not replay (selected ranks {q})")
    return problems


def replay_grid(cfg, text: str):
    """Re-derive a short selection-rule grid report trial by trial."""
    doc = json.loads(text)
    model = build_model(cfg)
    p, sigma2, grid = model.p, model.sigma2, cfg["grid"]
    counts = np.zeros((len(grid), p), dtype=np.int64)
    counts_alt = np.zeros_like(counts)
    failures = Counter()
    witness = None
    for t in range(cfg["trials"]):
        try:
            _, _, _, scores = _tls_trial(model, cfg["seed"], t)
        except RrtlsError as err:
            failures[err.code] += 1
            continue
        q, alt = _grid_selection(scores, sigma2, p, grid)
        for i in range(len(grid)):
            counts[i, q[i] - 1] += 1
            counts_alt[i, alt[i] - 1] += 1
        moved = [i for i in range(len(grid)) if q[i] != q[0]]
        if witness is None and moved:
            i = moved[0]
            witness = {"trial": t, "t1": grid[0], "t2": grid[i], "q1": q[0], "q2": q[i]}
    completed = cfg["trials"] - sum(failures.values())
    problems = []
    if doc["completed"] != completed or doc["failures"] != dict(failures):
        problems.append(
            f"replay completed {completed} with failures {dict(failures)}, report says "
            f"{doc['completed']} with {doc['failures']}"
        )
        return problems
    if doc["q_star_freq"] != (counts / completed).tolist():
        problems.append("q_star_freq differs from replay")
    if doc["q_star_freq_bias_recipe"] != (counts_alt / completed).tolist():
        problems.append("q_star_freq_bias_recipe differs from replay")
    if doc["witness"] != witness:
        problems.append(f"witness {doc['witness']} differs from replay {witness}")
    return problems
