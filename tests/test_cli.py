"""Config handling, artifact files, exit codes, and byte-level determinism."""

import csv
import json

import numpy as np
import pytest

from dcflow import cli
from dcflow.cli import (
    EXIT_CHECK_FAILED,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_RUNTIME,
    ConfigError,
    load_config,
    main,
    run_experiment,
)

QUAD = {"name": "quadratic", "params": {"a": [[2, 0], [0, 2]], "b": [[1, 0], [0, 1]]}}
DW = {"name": "double_well", "params": {"q": [1, 1]}}


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def base_config(**overrides):
    cfg = {
        "schema_version": 1,
        "problem": QUAD,
        "experiment": "RunScheme",
        "seed": 11,
        "scheme": {"eta": 0.5, "max_iter": 200, "stop_grad_tol": 1e-9},
    }
    cfg.update(overrides)
    return cfg


# ---------------------------------------------------------------------------
# config validation


def test_malformed_json_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{ not json")
    assert main(["run", str(path)]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_missing_schema_version_rejected(tmp_path):
    path = write_config(tmp_path, {"problem": QUAD, "experiment": "RunScheme"})
    with pytest.raises(ConfigError):
        load_config(path)


def test_unknown_experiment_rejected(tmp_path):
    cfg = base_config(experiment="Nope")
    path = write_config(tmp_path, cfg)
    with pytest.raises(ConfigError):
        load_config(path)


def test_unknown_problem_exits_2(tmp_path):
    cfg = base_config(problem={"name": "nope"})
    path = write_config(tmp_path, cfg)
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG


def test_bad_numeric_range_exits_2(tmp_path):
    cfg = base_config(scheme={"eta": 2.0})
    path = write_config(tmp_path, cfg)
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG


@pytest.mark.parametrize(
    "overrides, message",
    [
        (dict(experiment="Linearize", problem=DW, x_star=[0.5, 0.5]), "not critical"),
        (dict(experiment="EtaSweep", problem=DW, x0=[0.6, 0.8], etas=[0.5, 1.5]), "eta"),
        (
            dict(
                experiment="RefinementStudy",
                problem=DW,
                x0=[0.6, 0.8],
                etas=[0.05, 0.1],
                flow={"t_end": 0.2, "record_stride": 0.05},
            ),
            "strictly decreasing",
        ),
    ],
    ids=["linearize_noncritical", "eta_sweep_eta_above_one", "refinement_increasing_etas"],
)
def test_argument_check_in_experiment_exits_2(tmp_path, capsys, overrides, message):
    path = write_config(tmp_path, base_config(**overrides))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err and message in err


def test_run_experiment_rejects_unknown_name(tmp_path):
    with pytest.raises(ConfigError, match="'RunFlw'"):
        run_experiment(base_config(experiment="RunFlw"), tmp_path / "out")


def test_linear_algebra_failure_exits_3(tmp_path, capsys, monkeypatch):
    # numpy's LinAlgError subclasses ValueError but is a numerical failure.
    def singular(*args):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setitem(cli._EXPERIMENTS, "RunScheme", singular)
    path = write_config(tmp_path, base_config())
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == EXIT_RUNTIME
    assert "Singular matrix" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# experiments end to end


def test_run_scheme_writes_trace_and_report(tmp_path):
    code, report = run_experiment(base_config(x0=[1.5, -0.8]), tmp_path / "out")
    assert code == EXIT_OK
    assert (tmp_path / "out" / "scheme_trace.csv").exists()
    assert (tmp_path / "out" / "report.json").exists()
    names = {c["name"] for c in report["checks"]}
    assert names == {
        "descent_certificate",
        "strong_descent",
        "gradient_difference_identity",
    }
    assert all(c["passed"] for c in report["checks"])


def test_trace_csv_schema(tmp_path):
    run_experiment(base_config(x0=[1.5, -0.8]), tmp_path / "out")
    with open(tmp_path / "out" / "scheme_trace.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["k", "x_0", "x_1", "f", "grad_norm", "step_norm", "bregman_step"]
    assert rows[1][0] == "0"
    assert rows[1][5] == "nan"  # no step into the first iterate
    # 17 significant digits round-trip exactly
    assert float(rows[2][1]) == 1.5 * 0.75


def test_eta_sweep_report(tmp_path):
    cfg = base_config(
        experiment="EtaSweep",
        x0=[1.5, -0.8],
        etas=[0.1, 0.3, 0.5, 0.7, 0.9],
        scheme={"max_iter": 300, "stop_grad_tol": 1e-9},
    )
    code, report = run_experiment(cfg, tmp_path / "out")
    assert code == EXIT_OK
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name["contraction_bound"]["passed"]
    assert by_name["contraction_bound_argmin_half"]["passed"]
    assert by_name["local_factor_decreasing"]["passed"]
    table = report["results"]["table"]
    assert len(table) == 5
    factors = [row["measured_local_factor"] for row in table]
    assert all(a > b for a, b in zip(factors, factors[1:]))


def test_run_flow_double_well_leaves_diagonal(tmp_path):
    cfg = base_config(
        experiment="RunFlow",
        problem={"name": "double_well", "params": {"q": [1, 4]}},
        x0=[0.5, 0.5],
        flow={"t_end": 0.5, "record_stride": 0.01},
    )
    code, report = run_experiment(cfg, tmp_path / "out")
    assert code == EXIT_OK
    with open(tmp_path / "out" / "flow_trace.csv") as fh:
        rows = list(csv.DictReader(fh))
    first = rows[1]
    assert abs(float(first["x_0"]) - float(first["x_1"])) > 0.0


def test_rate_certify_quadratic(tmp_path):
    cfg = base_config(
        experiment="RateCertify",
        x0=[0.8, -0.6],
        scheme={"eta": 0.5, "max_iter": 300, "stop_grad_tol": 1e-9},
        flow={"t_end": 6.0, "record_stride": 0.05, "rel_tol": 1e-9, "abs_tol": 1e-12},
    )
    code, report = run_experiment(cfg, tmp_path / "out")
    assert code == EXIT_OK
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name["metric_pl_envelope"]["passed"]
    assert by_name["local_exp_bound"]["lambda"] == pytest.approx(0.5)
    assert report["results"]["sigma_source"] == "analytic"


def test_decomposition_compare_fails_certify_when_dynamics_agree(tmp_path):
    cfg = base_config(
        experiment="DecompositionCompare",
        problem=DW,
        x0=[0.5, 0.5],
        alt={"q": [1, 1]},
        flow={"t_end": 0.5, "record_stride": 0.05},
    )
    code, _ = run_experiment(cfg, tmp_path / "a", certify=True)
    assert code == EXIT_CHECK_FAILED
    code, _ = run_experiment(cfg, tmp_path / "b", certify=False)
    assert code == EXIT_OK


def test_rate_certify_double_well_uses_empirical_sigma(tmp_path):
    # No analytic metric PL constant here: the envelope check must run in
    # report-only mode on a locally estimated constant.
    cfg = base_config(
        experiment="RateCertify",
        problem=DW,
        x0=[0.6, 0.8],
        scheme={"eta": 0.5, "max_iter": 300, "stop_grad_tol": 1e-9},
        flow={"t_end": 4.0, "record_stride": 0.05},
    )
    code, report = run_experiment(cfg, tmp_path / "out")
    assert code == EXIT_OK
    assert report["results"]["sigma_source"] == "empirical"
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name["metric_pl_envelope"]["passed"] is None
    assert by_name["contraction_bound"]["passed"] is None
    assert by_name["local_exp_bound"]["passed"]


def test_eta_sweep_double_well(tmp_path):
    cfg = base_config(
        experiment="EtaSweep",
        problem=DW,
        x0=[0.6, 0.8],
        etas=[0.25, 0.5, 1.0],
        scheme={"max_iter": 300, "stop_grad_tol": 1e-9},
    )
    code, report = run_experiment(cfg, tmp_path / "out")
    assert code == EXIT_OK
    factors = [r["measured_local_factor"] for r in report["results"]["table"]]
    assert factors == sorted(factors, reverse=True)
    assert (tmp_path / "out" / "eta_1.000_trace.csv").exists()


def test_convergence_failure_exits_3(tmp_path, capsys):
    cfg = base_config(
        problem=DW,
        x0=[1.9, -1.7],
        scheme={"eta": 0.5, "newton": {"tol_grad": 1e-15, "max_iter": 1}},
    )
    path = write_config(tmp_path, cfg)
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == EXIT_RUNTIME
    assert "runtime error" in capsys.readouterr().err


def test_cli_summary_lines(tmp_path, capsys):
    path = write_config(tmp_path, base_config(x0=[1.0, 1.0]))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == EXIT_OK
    out = capsys.readouterr().out
    assert "[PASS] descent_certificate" in out


# ---------------------------------------------------------------------------
# determinism


def test_repeated_runs_byte_identical(tmp_path):
    cfg = base_config(
        experiment="EtaSweep",
        etas=[0.3, 0.5],
        scheme={"max_iter": 150, "stop_grad_tol": 1e-9},
    )  # x0 drawn from the seeded generator
    run_experiment(cfg, tmp_path / "r1")
    run_experiment(cfg, tmp_path / "r2")
    for name in ("eta_0.300_trace.csv", "eta_0.500_trace.csv"):
        b1 = (tmp_path / "r1" / name).read_bytes()
        b2 = (tmp_path / "r2" / name).read_bytes()
        assert b1 == b2
    reports = []
    for d in ("r1", "r2"):
        rep = json.loads((tmp_path / d / "report.json").read_text())
        rep.pop("generated_at")
        reports.append(rep)
    assert reports[0] == reports[1]


def test_seed_changes_random_start(tmp_path):
    cfg = base_config()
    _, r1 = run_experiment(cfg, tmp_path / "s1", seed=1)
    _, r2 = run_experiment(cfg, tmp_path / "s2", seed=2)
    assert r1["results"]["x0"] != r2["results"]["x0"]


def test_report_json_readable(tmp_path):
    run_experiment(base_config(x0=[1.5, -0.8]), tmp_path / "out")
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["schema_version"] == 1
    assert report["experiment"] == "RunScheme"


def test_module_entry_point(tmp_path):
    import os
    import subprocess
    import sys
    from pathlib import Path

    import dcflow

    # The child must import the same package as this process, installed or not.
    src = str(Path(dcflow.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    path = write_config(tmp_path, base_config(x0=[1.0, 1.0]))
    proc = subprocess.run(
        [sys.executable, "-m", "dcflow", "run", str(path), "--out", str(tmp_path / "out")],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == EXIT_OK
    assert "[PASS]" in proc.stdout


def test_main_flag_combinations(tmp_path):
    cfg = base_config(
        experiment="DecompositionCompare",
        problem=DW,
        x0=[0.5, 0.5],
        alt={"q": [1, 1]},
        flow={"t_end": 0.3, "record_stride": 0.05},
    )
    path = write_config(tmp_path, cfg)
    args = ["run", str(path), "--out", str(tmp_path / "o1"), "--invariance", "fail"]
    assert main(args) == EXIT_CHECK_FAILED
    args = ["run", str(path), "--out", str(tmp_path / "o2"), "--report-only"]
    assert main(args) == EXIT_OK
