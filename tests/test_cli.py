import json

import numpy as np
import pytest

import rrtls.acceptance
import rrtls.cli
from rrtls import gaussian_model, ExperimentSpec, run
from rrtls.cli import main
from rrtls.textio import parse_csv, read_matrix, write_matrix, write_text


def write_config(path, cfg) -> str:
    write_text(path, json.dumps(cfg))
    return str(path)


@pytest.fixture
def identity_fixture(tmp_path):
    write_matrix(tmp_path / "H.txt", np.eye(2))
    write_matrix(tmp_path / "y.txt", np.array([1.0, 2.0]))
    cfg = write_config(
        tmp_path / "cfg.json",
        {
            "family": "ls",
            "H": str(tmp_path / "H.txt"),
            "y": str(tmp_path / "y.txt"),
            "sigma2": 0.1,
        },
    )
    return cfg


def test_estimate_identity(identity_fixture, capsys):
    assert main(["estimate", "--config", identity_fixture]) == 0
    out = capsys.readouterr().out
    assert "theta_hat: 1 2" in out
    assert "selected_rank: 2" in out
    assert "objective:" in out


def test_estimate_writes_report(identity_fixture, tmp_path, capsys):
    out_path = tmp_path / "report.txt"
    assert main(["estimate", "--config", identity_fixture, "--out", str(out_path)]) == 0
    assert out_path.read_text() == capsys.readouterr().out


def test_estimate_singular_design_exits_3(tmp_path, capsys):
    write_matrix(tmp_path / "H.txt", np.column_stack([np.ones(4), np.ones(4)]))
    write_matrix(tmp_path / "y.txt", np.ones(4))
    cfg = write_config(
        tmp_path / "cfg.json",
        {
            "family": "ls",
            "H": str(tmp_path / "H.txt"),
            "y": str(tmp_path / "y.txt"),
            "sigma2": 0.5,
        },
    )
    assert main(["estimate", "--config", cfg]) == 3
    assert "singular-model" in capsys.readouterr().err


def test_estimate_noiseless_tls(tmp_path, capsys):
    rng = np.random.default_rng(7)
    H = rng.standard_normal((6, 2))
    theta = np.array([1.5, -2.0])
    write_matrix(tmp_path / "H.txt", H)
    write_matrix(tmp_path / "y.txt", H @ theta)
    cfg = write_config(
        tmp_path / "cfg.json",
        {
            "family": "tls",
            "H": str(tmp_path / "H.txt"),
            "y": str(tmp_path / "y.txt"),
            "sigma2": 0.01,
            "bound": 10.0,
        },
    )
    assert main(["estimate", "--config", cfg]) == 0
    out = capsys.readouterr().out
    line = next(ln for ln in out.splitlines() if ln.startswith("theta_hat:"))
    values = np.array([float(tok) for tok in line.split()[1:]])
    assert np.linalg.norm(values - theta) <= 1e-10 * np.linalg.norm(theta)


def test_estimate_strict_keys(tmp_path, capsys):
    cfg = write_config(
        tmp_path / "cfg.json",
        {"family": "ls", "H": "h", "y": "y", "sigma2": 0.1, "extra": 1},
    )
    assert main(["estimate", "--config", cfg]) == 2
    assert "unknown key" in capsys.readouterr().err


@pytest.mark.parametrize("rank", ["auto", 1])
def test_estimate_rejects_a_rank_key(identity_fixture, capsys, rank):
    # the selected rank is always the rule's count: a fixed "rank" only
    # relabelled it while theta_hat and x_hat stayed full-rank
    with open(identity_fixture) as f:
        cfg = {**json.load(f), "rank": rank}
    assert main(["estimate", "--config", write_config(identity_fixture, cfg)]) == 2
    assert "unknown key" in capsys.readouterr().err


def test_estimate_bound_only_for_tls(tmp_path, capsys):
    write_matrix(tmp_path / "H.txt", np.eye(2))
    write_matrix(tmp_path / "y.txt", np.ones(2))
    cfg = write_config(
        tmp_path / "cfg.json",
        {
            "family": "ls",
            "H": str(tmp_path / "H.txt"),
            "y": str(tmp_path / "y.txt"),
            "sigma2": 0.1,
            "bound": 2.0,
        },
    )
    assert main(["estimate", "--config", cfg]) == 2


def test_estimate_missing_file_exits_2(tmp_path, capsys):
    cfg = write_config(
        tmp_path / "cfg.json",
        {"family": "ls", "H": str(tmp_path / "nope.txt"), "y": str(tmp_path / "nope.txt"), "sigma2": 0.1},
    )
    assert main(["estimate", "--config", cfg]) == 2


def test_estimate_malformed_matrix_exits_2(tmp_path):
    write_text(tmp_path / "H.txt", "2 2\n1 0\n0\n")  # wrong entry count
    write_matrix(tmp_path / "y.txt", np.ones(2))
    cfg = write_config(
        tmp_path / "cfg.json",
        {"family": "ls", "H": str(tmp_path / "H.txt"), "y": str(tmp_path / "y.txt"), "sigma2": 0.1},
    )
    assert main(["estimate", "--config", cfg]) == 2


def sweep_config(tmp_path, **overrides):
    cfg = {
        "family": "rrls",
        "trials": 200,
        "seed": 515,
        "model": {
            "kind": "gaussian",
            "N": 16,
            "p": 4,
            "theta": [1.0, -0.5, 0.25, 2.0],
            "sigma2": 0.25,
        },
    }
    cfg.update(overrides)
    return write_config(tmp_path / "sweep.json", cfg)


def test_sweep_smoke_single_trial(tmp_path):
    cfg = sweep_config(tmp_path, trials=1)
    out = tmp_path / "table.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    header, rows = parse_csv(out.read_text())
    assert header == ["family", "r", "trials", "mse_emp", "mse_se", "mse_theory", "rstar_freq", "pass"]
    assert len(rows) == 4
    assert [row[1] for row in rows] == ["1", "2", "3", "4"]


def test_sweep_csv_round_trip_and_theory_recompute(tmp_path):
    cfg = sweep_config(tmp_path)
    out = tmp_path / "table.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    header, rows = parse_csv(out.read_text())

    # round-trip: parsed values match an in-memory rerun exactly
    model = gaussian_model(N=16, p=4, theta=[1.0, -0.5, 0.25, 2.0], sigma2=0.25, seed=515)
    res = run(ExperimentSpec(model=model, family="rrls", trials=200, seed=515))
    for i, row in enumerate(rows):
        assert float(row[3]) == res.mse_emp[i]
        assert float(row[4]) == res.mse_se[i]
        assert float(row[5]) == res.mse_theory[i]

    # emitted scores sidecar lets the theory column be recomputed by hand
    sidecar = json.loads((tmp_path / "table.scores.json").read_text())
    scores = sidecar["oracle_scores"]
    sigma2 = sidecar["sigma2"]
    for i, row in enumerate(rows):
        r = i + 1
        expected = sum(scores[r:]) + r * sigma2
        assert float(row[5]) == pytest.approx(expected, rel=1e-12)


def test_sweep_seed_override_and_determinism(tmp_path):
    cfg = sweep_config(tmp_path)
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    out3 = tmp_path / "c.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["sweep", "--config", cfg, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert main(["sweep", "--config", cfg, "--out", str(out3), "--seed", "9999"]) == 0
    assert out1.read_bytes() != out3.read_bytes()


def test_sweep_json_format(tmp_path):
    cfg = sweep_config(tmp_path, format="json")
    out = tmp_path / "table.json"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["family"] == "rrls"
    assert len(doc["rows"]) == 4
    assert doc["completed"] == 200
    assert doc["moments"]["dof"] == 4


def test_sweep_strict_keys(tmp_path, capsys):
    cfg = sweep_config(tmp_path, bogus=1)
    assert main(["sweep", "--config", cfg]) == 2
    assert "unknown key" in capsys.readouterr().err


def test_sweep_model_strict_keys(tmp_path):
    cfg = sweep_config(
        tmp_path,
        model={
            "kind": "gaussian",
            "N": 16,
            "p": 4,
            "theta": [1.0, 0.0, 0.0, 1.0],
            "sigma2": 0.25,
            "oops": True,
        },
    )
    assert main(["sweep", "--config", cfg]) == 2


def test_sweep_explicit_model_from_file(tmp_path):
    rng = np.random.default_rng(3)
    H = rng.standard_normal((10, 3))
    write_matrix(tmp_path / "H.txt", H)
    cfg = sweep_config(
        tmp_path,
        family="ls",
        trials=50,
        model={
            "kind": "explicit",
            "H": str(tmp_path / "H.txt"),
            "theta": [1.0, 2.0, -1.0],
            "sigma2": 0.1,
        },
    )
    out = tmp_path / "table.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    header, rows = parse_csv(out.read_text())
    assert len(rows) == 3


def test_matrix_file_round_trip(tmp_path):
    rng = np.random.default_rng(11)
    M = rng.standard_normal((5, 3))
    write_matrix(tmp_path / "m.txt", M)
    back = read_matrix(tmp_path / "m.txt")
    assert np.array_equal(back, M)
    first_line = (tmp_path / "m.txt").read_text().splitlines()[0]
    assert first_line == "5 3"


def test_sweep_grid_report(tmp_path):
    cfg = sweep_config(
        tmp_path,
        family="rrtls",
        trials=100,
        format="json",
        model={
            "kind": "gaussian",
            "N": 16,
            "p": 4,
            "theta": [0.6, -0.3, 0.2, 0.5],
            "sigma2": 0.25,
        },
        grid=[0.0, 30.0],
    )
    out = tmp_path / "grid.json"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert "theta_dependent" in doc
    assert doc["grid"] == [0.0, 30.0]
    assert len(doc["q_star_freq"]) == 2
    if doc["theta_dependent"]:
        assert doc["witness"]["q1"] != doc["witness"]["q2"]


def test_sweep_grid_requires_json(tmp_path):
    cfg = sweep_config(
        tmp_path,
        family="rrtls",
        trials=10,
        model={
            "kind": "gaussian",
            "N": 16,
            "p": 4,
            "theta": [0.6, -0.3, 0.2, 0.5],
            "sigma2": 0.25,
        },
        grid=[0.0, 1.0],
        format="csv",
    )
    assert main(["sweep", "--config", cfg]) == 2


def test_sweep_grid_requires_rrtls(tmp_path):
    cfg = sweep_config(tmp_path, grid=[0.0, 1.0], format="json")
    assert main(["sweep", "--config", cfg]) == 2


@pytest.mark.parametrize("tls_mode", [{"mode": "bound", "bound": 2.0}, {"mode": "oracle"}],
                         ids=["bound", "oracle"])
def test_sweep_grid_takes_no_tls_mode(tmp_path, capsys, no_draws, tls_mode):
    # the grid report evaluates the oracle rule at every grid value, so a
    # bound beside a grid would be silently ignored
    cfg = write_config(tmp_path / "sweep.json", {"trials": 20, "seed": 3, **TLS_SWEEP,
                                                 "format": "json", "grid": [0.0, 1.0],
                                                 "tls_mode": tls_mode})
    assert main(["sweep", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "error: config:" in err and "tls_mode" in err


@pytest.mark.parametrize(
    "overrides",
    [
        {"rank_policy": 1},
        {"rank_policy": 3},
        {"rank_policy": "fixed"},
        {"family": "rrtls", "format": "json", "grid": ["0", True, "3"]},
    ],
    ids=["rank-policy-1", "rank-policy-3", "rank-policy-str", "grid-non-numbers"],
)
def test_sweep_rejects_invalid_config_values(tmp_path, capsys, overrides):
    cfg = sweep_config(tmp_path, **overrides)
    assert main(["sweep", "--config", cfg]) == 2
    assert "error: config:" in capsys.readouterr().err


def test_sweep_byte_identical_across_processes(tmp_path):
    # separate interpreter processes (fresh hash seeds) must emit the same
    # bytes as an in-process run with the same seed
    import os
    import subprocess
    import sys

    cfg = sweep_config(tmp_path, trials=300)
    out_proc = tmp_path / "proc.csv"
    cmd = [sys.executable, "-m", "rrtls.cli", "sweep", "--config", cfg, "--out", str(out_proc)]
    env = {**os.environ, "PYTHONHASHSEED": "12345"}
    assert subprocess.run(cmd, env=env, capture_output=True).returncode == 0
    out_local = tmp_path / "local.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out_local)]) == 0
    assert out_proc.read_bytes() == out_local.read_bytes()
    assert (tmp_path / "proc.scores.json").read_bytes() == (
        tmp_path / "local.scores.json"
    ).read_bytes()


@pytest.mark.parametrize(
    "overrides",
    [
        {},
        {"family": "rrtls", "format": "json", "grid": [0.0, 30.0],
         "model": {"kind": "gaussian", "N": 16, "p": 4, "theta": [0.6, -0.3, 0.2, 0.5],
                   "sigma2": 0.25}},
    ],
    ids=["run", "grid"],
)
def test_sweep_out_file_matches_stdout(tmp_path, capsys, overrides):
    # one output tail: --out receives the bytes stdout would, and only a
    # rank sweep adds the scores sidecar
    cfg = sweep_config(tmp_path, trials=100, **overrides)
    assert main(["sweep", "--config", cfg]) == 0
    stdout = capsys.readouterr().out
    out = tmp_path / "table.out"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_bytes() == stdout.encode("utf-8")
    assert (tmp_path / "table.scores.json").exists() == ("grid" not in overrides)


def test_float_formatting_round_trips():
    from rrtls.textio import format_float

    rng = np.random.default_rng(99)
    samples = np.concatenate([
        rng.standard_normal(500) * 10.0 ** rng.integers(-300, 300, 500),
        [0.0, 1.0, -1.0, np.pi, 2.0 ** -1074, 1.7976931348623157e308],
    ])
    for x in samples:
        assert float(format_float(float(x))) == float(x)


def test_verify_wiring(tmp_path, monkeypatch, capsys):
    calls = {}

    def fake_run_all(seed):
        calls["seed"] = seed
        result = rrtls.acceptance.CriterionResult(
            number=1, name="stub", passed=True, observed="x", required="y", data={"k": 1}
        )
        return rrtls.acceptance.AcceptanceReport(
            seed=seed, results=[result], artifacts={"stub.json": "{}\n"}
        )

    monkeypatch.setattr(rrtls.acceptance, "run_all", fake_run_all)
    out_dir = tmp_path / "verify"
    assert main(["verify", "--seed", "42", "--out", str(out_dir)]) == 0
    assert calls == {"seed": 42}
    out = capsys.readouterr().out
    assert "criterion 01 stub: PASS" in out
    assert (out_dir / "stub.json").exists()
    assert (out_dir / "acceptance.csv").exists()
    assert (out_dir / "acceptance.json").exists()


def test_verify_failing_criterion_exits_1(monkeypatch):
    def fake_run_all(seed):
        result = rrtls.acceptance.CriterionResult(
            number=5, name="stub", passed=False, observed="o", required="r", data={}
        )
        return rrtls.acceptance.AcceptanceReport(seed=seed, results=[result], artifacts={})

    monkeypatch.setattr(rrtls.acceptance, "run_all", fake_run_all)
    assert main(["verify"]) == 1


# ---------------------------------------------------------------------------
# non-finite numbers and non-numeric entries fail before the first trial
# ---------------------------------------------------------------------------

TLS_SWEEP = {
    "family": "rrtls",
    "model": {"kind": "gaussian", "N": 16, "p": 4, "theta": [0.6, -0.3, 0.2, 0.5], "sigma2": 0.25},
}


@pytest.mark.parametrize(
    "cfg, literal, message",
    [
        ({"model": {**TLS_SWEEP["model"], "sigma2": "@"}, "family": "rrls"}, "NaN",
         "NaN is not a JSON number"),
        ({"model": {**TLS_SWEEP["model"], "theta": [0.6, "@", 0.2, 0.5]}, "family": "rrls"},
         "Infinity", "Infinity is not a JSON number"),
        ({**TLS_SWEEP, "tls_mode": {"mode": "bound", "bound": "@"}}, "-Infinity",
         "-Infinity is not a JSON number"),
        ({"model": {**TLS_SWEEP["model"], "sigma2": "@"}, "family": "rrls"}, "1e999",
         "model.sigma2 must be finite"),
        ({"model": {**TLS_SWEEP["model"], "theta": [0.6, 0.3, "@", 0.5]}, "family": "rrls"},
         "-1e999", "model.theta.2 must be finite"),
        ({**TLS_SWEEP, "tls_mode": {"mode": "bound", "bound": "@"}}, "1e999",
         "tls_mode.bound must be finite"),
        ({**TLS_SWEEP, "format": "json", "grid": [0.0, "@"]}, "1e999",
         "config.grid.1 must be finite"),
    ],
    ids=["nan-literal", "infinity-literal", "minus-infinity-literal", "overflow-sigma2",
         "overflow-theta", "overflow-bound", "overflow-grid"],
)
def test_sweep_rejects_non_finite_numbers(tmp_path, capsys, no_draws, cfg, literal, message):
    text = json.dumps({"trials": 20, "seed": 3, **cfg}).replace('"@"', literal)
    write_text(tmp_path / "sweep.json", text)
    assert main(["sweep", "--config", str(tmp_path / "sweep.json")]) == 2
    err = capsys.readouterr().err
    assert "error: config:" in err and message in err


@pytest.mark.parametrize(
    "model, message",
    [
        ({"kind": "gaussian", "N": 16, "p": 4, "theta": ["1", True, 0.25, 2.0], "sigma2": 0.25},
         "model.theta.0 must be a number"),
        ({"kind": "gaussian", "N": 16, "p": 4, "theta": [1.0, True, 0.25, 2.0], "sigma2": 0.25},
         "model.theta.1 must be a number"),
        ({"kind": "spectrum", "N": 16, "spectrum": ["2", True, 1.5, 1],
          "theta": [1.0, -0.5, 0.25, 2.0], "sigma2": 0.25},
         "model.spectrum.0 must be a number"),
        ({"kind": "spectrum", "N": 16, "spectrum": [2, True, 1.5, 1],
          "theta": [1.0, -0.5, 0.25, 2.0], "sigma2": 0.25},
         "model.spectrum.1 must be a number"),
    ],
    ids=["theta-string", "theta-bool", "spectrum-string", "spectrum-bool"],
)
def test_sweep_rejects_non_numeric_model_entries(tmp_path, capsys, no_draws, model, message):
    cfg = sweep_config(tmp_path, model=model)
    assert main(["sweep", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "error: config:" in err and message in err


def test_sweep_accepts_numeric_spectrum(tmp_path):
    model = {"kind": "spectrum", "N": 16, "spectrum": [2, 1.5, 1.25, 1],
             "theta": [1.0, -0.5, 0.25, 2.0], "sigma2": 0.25}
    cfg = sweep_config(tmp_path, model=model, trials=20)
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "t.csv")]) == 0


# ---------------------------------------------------------------------------
# seeds and errors-in-variables shapes are checked before the first trial
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", ["-1", "1.5", "x"])
def test_sweep_rejects_invalid_seed(tmp_path, capsys, no_draws, seed):
    cfg = write_config(tmp_path / "sweep.json", {"trials": 20, "seed": 3, **TLS_SWEEP})
    assert main(["sweep", "--config", cfg, "--seed", seed]) == 2
    assert "seed must be a non-negative integer" in capsys.readouterr().err


def test_verify_rejects_negative_seed(monkeypatch, capsys):
    def refuse(seed):
        raise AssertionError("the acceptance suite ran")

    monkeypatch.setattr(rrtls.acceptance, "run_all", refuse)
    assert main(["verify", "--seed", "-1"]) == 2
    assert "seed must be a non-negative integer" in capsys.readouterr().err


@pytest.mark.parametrize("extra", [{}, {"format": "json", "grid": [0.0, 1.0]}],
                         ids=["run", "grid"])
def test_sweep_rejects_errors_in_variables_without_spare_row(tmp_path, capsys, no_draws, extra):
    model = {"kind": "gaussian", "N": 4, "p": 4, "theta": [0.6, -0.3, 0.2, 0.5], "sigma2": 0.25}
    cfg = write_config(tmp_path / "sweep.json",
                       {"family": "rrtls", "trials": 20, "seed": 3, "model": model, **extra})
    assert main(["sweep", "--config", cfg]) == 2
    assert "needs N >= p + 1 rows" in capsys.readouterr().err


def test_sweep_rejects_more_singular_values_than_rows(tmp_path, capsys, no_draws):
    model = {"kind": "spectrum", "N": 3, "spectrum": [2, 1.5, 1.25, 1],
             "theta": [1.0, -0.5, 0.25, 2.0], "sigma2": 0.25}
    cfg = sweep_config(tmp_path, model=model)
    assert main(["sweep", "--config", cfg]) == 3
    assert "error: model-invalid: need 1 <= p <= N, got N=3, p=4" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["gaussian", "spectrum", "explicit"])
def test_sweep_rejects_theta_of_the_wrong_length(tmp_path, capsys, no_draws, kind):
    write_matrix(tmp_path / "H.txt", np.random.default_rng(4).standard_normal((16, 4)))
    model = {"gaussian": {"kind": "gaussian", "N": 16, "p": 4},
             "spectrum": {"kind": "spectrum", "N": 16, "spectrum": [2, 1.5, 1.25, 1]},
             "explicit": {"kind": "explicit", "H": str(tmp_path / "H.txt")}}[kind]
    cfg = sweep_config(tmp_path, model={**model, "theta": [1.0, -0.5, 0.25], "sigma2": 0.25})
    assert main(["sweep", "--config", cfg]) == 2
    assert "error: config: model.theta has length 3, expected p=4" in capsys.readouterr().err


@pytest.mark.parametrize("H", [[[1, 0], [0, 1], [1, 1]], 0, None, True],
                         ids=["nested-list", "zero", "null", "bool"])
def test_sweep_requires_a_path_for_the_explicit_design(tmp_path, capsys, monkeypatch, no_draws, H):
    # checked before any read: open(0) would read standard input
    def refuse(path):
        raise AssertionError("a matrix file was read")

    monkeypatch.setattr(rrtls.cli, "read_matrix", refuse)
    cfg = sweep_config(tmp_path, model={"kind": "explicit", "H": H, "theta": [1.0, 2.0],
                                        "sigma2": 0.25})
    assert main(["sweep", "--config", cfg]) == 2
    assert "error: config: model.H must be a file path" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["H", "y"])
def test_estimate_requires_paths_for_its_data(tmp_path, capsys, identity_fixture, key):
    cfg = json.loads((tmp_path / "cfg.json").read_text())
    cfg[key] = 0
    write_config(tmp_path / "cfg.json", cfg)
    assert main(["estimate", "--config", identity_fixture]) == 2
    assert f"error: config: config.{key} must be a file path" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# sub-configs must be objects, and the TLS-mode rules are ExperimentSpec's
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "cfg, message",
    [
        ([TLS_SWEEP], "config must be a JSON object"),
        ({**TLS_SWEEP, "model": 5}, "model must be a JSON object"),
        ({**TLS_SWEEP, "tls_mode": 5}, "tls_mode must be a JSON object"),
        ({**TLS_SWEEP, "tls_mode": "oracle"}, "tls_mode must be a JSON object"),
        ({**TLS_SWEEP, "family": ["rrtls"], "tls_mode": {"mode": "oracle"}},
         "family must be one of"),
    ],
    ids=["config-list", "model-int", "tls-mode-int", "tls-mode-str", "family-list"],
)
def test_sweep_rejects_non_object_configs(tmp_path, capsys, no_draws, cfg, message):
    if isinstance(cfg, dict):
        cfg = {"trials": 20, "seed": 3, **cfg}
    assert main(["sweep", "--config", write_config(tmp_path / "sweep.json", cfg)]) == 2
    err = capsys.readouterr().err
    assert "error: config:" in err and message in err


@pytest.mark.parametrize(
    "cfg, message",
    [
        ({**TLS_SWEEP, "tls_mode": {"mode": "exact"}}, "tls_mode must be one of"),
        ({**TLS_SWEEP, "tls_mode": {"mode": ["bound"]}}, "tls_mode must be one of"),
        ({**TLS_SWEEP, "tls_mode": {"mode": "oracle", "bound": 4.0}},
         "bound is only used in bound mode"),
        ({**TLS_SWEEP, "tls_mode": {"mode": "bound"}}, "bound mode requires a nonnegative bound"),
        ({**TLS_SWEEP, "tls_mode": {"mode": "bound", "bound": -1.0}},
         "bound must be finite and >= 0, got -1.0"),
        ({**TLS_SWEEP, "family": "rrls", "tls_mode": {"mode": "oracle"}},
         "'tls_mode' is only valid for families tls/rrtls"),
        ({**TLS_SWEEP, "family": "rrls", "tls_mode": {"mode": "bound", "bound": 4.0}},
         "tls_mode must be 'oracle'"),
    ],
    ids=["mode-unknown", "mode-list", "oracle-with-bound", "bound-missing", "bound-negative",
         "rrls-oracle", "rrls-bound"],
)
def test_sweep_applies_spec_tls_mode_rules(tmp_path, capsys, no_draws, cfg, message):
    cfg = write_config(tmp_path / "sweep.json", {"trials": 20, "seed": 3, **cfg})
    assert main(["sweep", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "error: config:" in err and message in err
