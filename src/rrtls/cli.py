"""Batch command-line interface.

Subcommands
-----------
estimate
    Single-shot estimation over data files (observation vector plus design
    matrix); prints the parameter estimate, the signal estimate, the
    selected rank and the per-rank objective table.
sweep
    Monte Carlo rank sweep driven by a JSON config, parsed into an
    ``ExperimentSpec`` whose rules check the family, trial count and TLS
    mode; emits one row per rank with the columns family, r, trials,
    mse_emp, mse_se, mse_theory, rstar_freq, pass.  The family label picks
    the observation model (additive for ls/rrls, errors-in-variables for
    tls/rrtls); trials run in order, so a seed fixes the output bytes.  A
    config with a ``grid`` entry (and no ``tls_mode``) instead emits the
    JSON selection-rule comparison report (norm-dependence flag included).
    The output goes to stdout, or to ``--out``, beside which a rank sweep
    adds the ``.scores.json`` sidecar.
verify
    Runs the built-in acceptance suite and prints one pass/fail line per
    criterion; exit status 0 only if every criterion passed.

Configs are strict JSON: any unrecognized key is an error.  Exit codes:
0 success, 2 configuration/parse error, 3 estimator error (the short error
name is printed).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

import numpy as np

from . import acceptance
from .errors import ConfigError, RrtlsError
from .harness import ADDITIVE, ExperimentSpec, compare_selection_rules, run
from .ls import ls_full, select_rank_ls
from .model import MeasurementModel, gaussian_model, spectrum_model
from .svdtools import order_by_scores, svd
from .textio import (
    csv_text,
    format_float,
    json_text,
    read_matrix,
    read_vector,
    write_text,
)
from .tls import augmented_scores, q_objective, tls_solve


# ---------------------------------------------------------------------------
# Strict config parsing
# ---------------------------------------------------------------------------

def _reject_constant(name: str):
    # Python's json accepts NaN/Infinity/-Infinity; strict JSON does not.
    raise ConfigError(f"{name} is not a JSON number")


def _load_config(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, parse_constant=_reject_constant)
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    except json.JSONDecodeError as err:
        raise ConfigError(f"config {path} is not valid JSON: {err}") from err


def _check_keys(d, allowed, required, context: str) -> None:
    if not isinstance(d, dict):
        raise ConfigError(f"{context} must be a JSON object")
    unknown = sorted(set(d) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown key(s) in {context}: {', '.join(unknown)}")
    missing = sorted(set(required) - set(d))
    if missing:
        raise ConfigError(f"missing key(s) in {context}: {', '.join(missing)}")


def _number(cfg, key, context: str, minimum=None) -> float:
    v = cfg[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{context}.{key} must be a number")
    v = float(v)
    if not math.isfinite(v):
        raise ConfigError(f"{context}.{key} must be finite, got {v}")
    if minimum is not None and v < minimum:
        raise ConfigError(f"{context}.{key} must be >= {minimum}")
    return v


def _integer(cfg: dict, key: str, context: str, minimum=None) -> int:
    v = cfg[key]
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{context}.{key} must be an integer")
    if minimum is not None and v < minimum:
        raise ConfigError(f"{context}.{key} must be >= {minimum}")
    return v


def _seed_arg(text: str) -> int:
    # argparse type of --seed; a rejection exits with status 2
    try:
        seed = int(text)
        if seed >= 0:
            return seed
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"seed must be a non-negative integer, got {text!r}")


def _numbers(values: list, context: str, minimum=None) -> np.ndarray:
    return np.array([_number(values, i, context, minimum) for i in range(len(values))])


def _path(cfg: dict, key: str, context: str) -> str:
    # a data-file path; anything else would reach open() (0 is stdin)
    v = cfg[key]
    if not isinstance(v, str):
        raise ConfigError(f"{context}.{key} must be a file path")
    return v


def _theta(value, context: str) -> np.ndarray:
    if isinstance(value, str):
        return read_vector(value)
    if isinstance(value, list):
        return _numbers(value, f"{context}.theta")
    raise ConfigError(f"{context}.theta must be a list of numbers or a file path")


def _build_model(cfg: dict, seed: int) -> MeasurementModel:
    _check_keys(
        cfg,
        allowed={"kind", "H", "N", "p", "spectrum", "theta", "sigma2"},
        required={"kind", "theta", "sigma2"},
        context="model",
    )
    kind = cfg["kind"]
    theta = _theta(cfg["theta"], "model")
    sigma2 = _number(cfg, "sigma2", "model", minimum=0.0)

    def check_theta(p: int) -> None:
        if theta.shape[0] != p:
            raise ConfigError(f"model.theta has length {theta.shape[0]}, expected p={p}")

    if kind == "explicit":
        _check_keys(cfg, {"kind", "H", "theta", "sigma2"}, {"H"}, "model(explicit)")
        H = read_matrix(_path(cfg, "H", "model"))
        check_theta(H.shape[1])
        return MeasurementModel(H=H, theta=theta, sigma2=sigma2)
    if kind == "gaussian":
        _check_keys(cfg, {"kind", "N", "p", "theta", "sigma2"}, {"N", "p"}, "model(gaussian)")
        N = _integer(cfg, "N", "model", minimum=1)
        p = _integer(cfg, "p", "model", minimum=1)
        check_theta(p)
        return gaussian_model(N=N, p=p, theta=theta, sigma2=sigma2, seed=seed)
    if kind == "spectrum":
        _check_keys(cfg, {"kind", "N", "spectrum", "theta", "sigma2"}, {"N", "spectrum"}, "model(spectrum)")
        N = _integer(cfg, "N", "model", minimum=1)
        spectrum = cfg["spectrum"]
        if not isinstance(spectrum, list) or not spectrum:
            raise ConfigError("model.spectrum must be a non-empty list of numbers")
        spectrum = _numbers(spectrum, "model.spectrum")
        check_theta(spectrum.shape[0])
        return spectrum_model(N=N, spectrum=spectrum, theta=theta, sigma2=sigma2, seed=seed)
    raise ConfigError(f"model.kind must be explicit, gaussian or spectrum, got {kind!r}")


# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------

def _vector_line(label: str, v: np.ndarray) -> str:
    return f"{label}: " + " ".join(format_float(x) for x in v)


def cmd_estimate(args) -> int:
    cfg = _load_config(args.config)
    _check_keys(
        cfg,
        allowed={"family", "y", "H", "sigma2", "bound"},
        required={"family", "y", "H", "sigma2"},
        context="config",
    )
    family = cfg["family"]
    if family not in ("ls", "tls"):
        raise ConfigError(f"estimate family must be 'ls' or 'tls', got {family!r}")
    if family == "ls" and "bound" in cfg:
        raise ConfigError("'bound' is only valid for family 'tls'")
    if family == "tls" and "bound" not in cfg:
        raise ConfigError("family 'tls' requires 'bound' (the parameter-norm bound)")
    sigma2 = _number(cfg, "sigma2", "config", minimum=0.0)
    H = read_matrix(_path(cfg, "H", "config"))
    y = read_vector(_path(cfg, "y", "config"))
    p = H.shape[1]

    if family == "ls":
        est = ls_full(H, y)
        basis = order_by_scores(svd(H).U, y)
        selection = select_rank_ls(basis, sigma2, p)
        objective = selection.objective
        selected = selection.r_star
    else:
        est = tls_solve(H, y)
        basis = order_by_scores(est.retained_columns, y)
        scores = augmented_scores(basis, est.discarded_column, y)
        qobj = q_objective(scores, sigma2, p, _number(cfg, "bound", "config", minimum=0.0), "bound")
        objective = qobj.values
        selected = qobj.q_star

    lines = [
        f"family: {family}",
        _vector_line("theta_hat", est.theta_hat),
        _vector_line("x_hat", est.x_hat),
        f"selected_rank: {selected}",
        "objective:",
        "rank value",
    ]
    for i, v in enumerate(objective, start=1):
        lines.append(f"{i} {format_float(v)}")
    report = "\n".join(lines) + "\n"
    sys.stdout.write(report)
    if args.out:
        write_text(args.out, report)
    return 0


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def _result_json(res) -> dict:
    rows = [
        dict(zip(acceptance.SWEEP_HEADER, row)) for row in acceptance.sweep_rows(res)
    ]
    return {
        "family": res.family,
        "trials": res.trials,
        "completed": res.completed,
        "seed": res.seed,
        "failures": res.failures,
        "rows": rows,
        "auto_mse": res.auto_mse,
        "auto_se": res.auto_se,
        "sel_freq": res.sel_freq,
        "tls_full_formula_mean": res.tls_full_formula_mean,
        "moments": None if res.moments is None else dataclasses.asdict(res.moments),
    }


def _scores_sidecar(spec: ExperimentSpec, res) -> dict:
    scores = None
    if spec.observation == ADDITIVE:
        scores = order_by_scores(svd(spec.model.H).U, spec.model.x).scores
    return {
        "family": res.family,
        "sigma2": spec.model.sigma2,
        "mse_theory": res.mse_theory,
        "oracle_scores": scores,
    }


def cmd_sweep(args) -> int:
    cfg = _load_config(args.config)
    _check_keys(
        cfg,
        allowed={
            "family", "trials", "seed", "model", "rank_policy", "tls_mode",
            "grid", "out", "format",
        },
        required={"family", "trials", "seed", "model"},
        context="config",
    )
    seed = args.seed if args.seed is not None else _integer(cfg, "seed", "config", minimum=0)
    fmt = args.format or cfg.get("format", "csv")
    if fmt not in ("csv", "json"):
        raise ConfigError(f"format must be csv or json, got {fmt!r}")
    out = args.out or cfg.get("out")
    # Every rank arm is reported, with the data-driven selection beside it;
    # the key is accepted for configs that state that explicitly.
    if cfg.get("rank_policy", "auto") != "auto":
        raise ConfigError("config.rank_policy must be 'auto'")
    # Shape and types only: the mode and bound rules are ExperimentSpec's.
    tls_mode = cfg.get("tls_mode", {"mode": "oracle"})
    _check_keys(tls_mode, {"mode", "bound"}, {"mode"}, "tls_mode")
    bound = _number(tls_mode, "bound", "tls_mode") if "bound" in tls_mode else None

    model = _build_model(cfg["model"], seed)
    try:
        spec = ExperimentSpec(
            model=model,
            family=cfg["family"],
            trials=cfg["trials"],
            seed=seed,
            tls_mode=tls_mode["mode"],
            bound=bound,
        )
    except ValueError as err:
        raise ConfigError(str(err)) from err
    if "tls_mode" in cfg and spec.observation == ADDITIVE:
        raise ConfigError("'tls_mode' is only valid for families tls/rrtls")

    if "grid" in cfg:
        if spec.family != "rrtls":
            raise ConfigError("'grid' requires family 'rrtls'")
        if fmt != "json":
            raise ConfigError("grid comparison reports are emitted as json only")
        if "tls_mode" in cfg:
            raise ConfigError("'tls_mode' does not apply beside 'grid': the grid gives the norms")
        grid = cfg["grid"]
        if not isinstance(grid, list) or not grid:
            raise ConfigError("config.grid must be a non-empty list of numbers")
        comp = compare_selection_rules(spec, _numbers(grid, "config.grid", minimum=0.0))
        text = json_text({
            "family": spec.family,
            "trials": spec.trials,
            "completed": comp.completed,
            "seed": seed,
            "failures": comp.failures,
            "grid": comp.grid,
            "q_star_freq": comp.q_star_freq,
            "q_star_freq_bias_recipe": comp.q_star_freq,
            "theta_dependent": comp.theta_dependent,
            "witness": comp.witness,
        })
    else:
        res = run(spec)
        if fmt == "csv":
            text = csv_text(acceptance.SWEEP_HEADER, acceptance.sweep_rows(res))
        else:
            text = json_text(_result_json(res))

    if not out:
        sys.stdout.write(text)
        return 0
    write_text(out, text)
    if "grid" not in cfg:
        stem, _ = os.path.splitext(out)
        write_text(stem + ".scores.json", json_text(_scores_sidecar(spec, res)))
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(args) -> int:
    seed = args.seed if args.seed is not None else acceptance.DEFAULT_SEED
    report = acceptance.run_all(seed=seed)
    for result in report.results:
        print(result.line())
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        files = dict(report.artifacts)
        files.update(acceptance.summary_files(report))
        for name, text in sorted(files.items()):
            write_text(os.path.join(args.out, name), text)
        print(f"wrote {len(files)} files to {args.out}")
    return 0 if report.all_passed else 1


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rrtls",
        description="Reduced-rank least-squares / total-least-squares estimation tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="single-shot estimation over data files")
    est.add_argument("--config", required=True)
    est.add_argument("--out", default=None)
    est.set_defaults(func=cmd_estimate)

    swp = sub.add_parser("sweep", help="Monte Carlo rank sweep / selection-rule grid")
    swp.add_argument("--config", required=True)
    swp.add_argument("--seed", type=_seed_arg, default=None)
    swp.add_argument("--out", default=None)
    swp.add_argument("--format", choices=("csv", "json"), default=None)
    swp.set_defaults(func=cmd_sweep)

    ver = sub.add_parser("verify", help="run the acceptance suite")
    ver.add_argument("--seed", type=_seed_arg, default=None)
    ver.add_argument("--out", default=None)
    ver.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return int(err.code) if err.code else 0
    try:
        return args.func(args)
    except ConfigError as err:
        print(f"error: {err.code}: {err}", file=sys.stderr)
        return 2
    except RrtlsError as err:
        print(f"error: {err.code}: {err}", file=sys.stderr)
        return 3
    except ValueError as err:
        print(f"error: invalid-input: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
