"""Config handling, artifact files, exit codes, and byte-level determinism."""

import csv
import dataclasses
import io
import json
import math
import os

import numpy as np
import pytest

from dcflow import analysis, cli, core, problems
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


@pytest.mark.parametrize(
    "overrides",
    [
        dict(scheme={"eta": 2.0}),
        dict(scheme={"newton": {"armijo_c": 1e-4}}),
        dict(scheme={"newton": {"armijo_shrink": 0.5}}),
        dict(experiment="RunFlow", flow={"t_end": 0.2, "step_init": 1e-2}),
        dict(scheme={"newton": {"tol_grad": 1e-10}}),
        dict(experiment="RunFlow", flow={"t_end": 0.2, "newton": {"max_iter": 100}}),
    ],
    ids=[
        "scheme.eta",
        "scheme.newton.armijo_c",
        "scheme.newton.armijo_shrink",
        "flow.step_init",
        "scheme.newton.tol_grad",
        "flow.newton.max_iter",
    ],
)
def test_bad_numeric_range_exits_2(tmp_path, overrides):
    # An out-of-range value, or a key that is no config field, is a config error.
    path = write_config(tmp_path, base_config(**overrides))
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
        # Neither "primal" nor "dual": the primal scheme must not run.
        (dict(x0=[1.0, 1.0], mode="Dual"), "'Dual' is not a valid Mode"),
        (
            dict(experiment="EtaSweep", problem=DW, x0=[0.6, 0.8], etas=0.5),
            "etas must be a nonempty list of numbers, got 0.5",
        ),
        (
            dict(
                experiment="RefinementStudy",
                problem=DW,
                x0=[0.6, 0.8],
                etas=0.5,
                flow={"t_end": 0.2, "record_stride": 0.05},
            ),
            "etas must be a nonempty list of numbers, got 0.5",
        ),
        # json writes and reads NaN and Infinity; each is refused before the flow runs.
        *(
            (
                dict(
                    experiment="RefinementStudy",
                    problem=DW,
                    x0=[0.6, 0.8],
                    etas=etas,
                    flow={"t_end": 0.2, "record_stride": 0.05},
                ),
                "eta must lie in (0, 1]",
            )
            for etas in ([1.5, 0.1], [math.inf, 0.1], [math.nan])
        ),
    ],
    ids=[
        "linearize_noncritical",
        "eta_sweep_eta_above_one",
        "refinement_increasing_etas",
        "run_scheme_unknown_mode",
        "eta_sweep_scalar_etas",
        "refinement_scalar_etas",
        "refinement_eta_above_one",
        "refinement_infinite_eta",
        "refinement_nan_eta",
    ],
)
def test_argument_check_in_experiment_exits_2(tmp_path, capsys, overrides, message):
    path = write_config(tmp_path, base_config(**overrides))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err and message in err


@pytest.mark.parametrize(
    "overrides, message",
    [
        (dict(problem={**DW, "shfit": [1.0, 1.0]}), "unknown problem keys ['shfit']"),
        (
            dict(problem={"name": "double_well", "params": {"q": [1, 1], "a": [1]}}),
            "unknown double_well params keys ['a']",
        ),
        (
            dict(
                experiment="DecompositionCompare",
                x0=[0.5, 0.5],
                alt={"q": [5, 5]},
                flow={"t_end": 0.3, "record_stride": 0.05},
            ),
            "unknown alt keys ['q']",
        ),
        (
            dict(
                experiment="DecompositionCompare",
                problem=DW,
                x0=[0.5, 0.5],
                alt={"shift": [1.0, 1.0], "q": [2, 2]},
                flow={"t_end": 0.3, "record_stride": 0.05},
            ),
            "either shift or",
        ),
    ],
    ids=["problem_key", "params_key", "alt_key_of_another_family", "alt_shift_and_params"],
)
def test_problem_keys_a_family_does_not_take_exit_2(tmp_path, capsys, overrides, message):
    path = write_config(tmp_path, base_config(**overrides))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out" / "report.json").exists()


def test_eta_sweep_refuses_etas_that_share_a_trace_file(tmp_path, capsys):
    # Both etas print as 0.500 in the trace file name.
    cfg = base_config(experiment="EtaSweep", problem=DW, x0=[0.6, 0.8], etas=[0.5, 0.5004])
    path = write_config(tmp_path, cfg)
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert "eta_0.500_trace.csv" in capsys.readouterr().err
    assert list((tmp_path / "out").iterdir()) == []


@pytest.mark.parametrize(
    "overrides, extra",
    [
        (dict(seed="abc"), []),
        (dict(seed=-1), []),
        (dict(seed=[1]), []),
        (dict(seed=None), []),
        (dict(seed=1.5), []),
        (dict(seed=True), []),
        ({}, ["--seed", "-3"]),
        (dict(output_dir=5), []),
        (dict(output_dir=None), []),
        (dict(output_dir=["a"]), []),
    ],
    ids=[
        "seed-str", "seed-negative", "seed-list", "seed-null", "seed-float", "seed-bool",
        "seed-flag-negative", "output_dir-int", "output_dir-null", "output_dir-list",
    ],
)
def test_malformed_seed_or_output_dir_exits_2(tmp_path, capsys, monkeypatch, overrides, extra):
    # A seed is a non-negative integer and no bool; an output_dir is a string.
    monkeypatch.chdir(tmp_path)
    write_config(tmp_path, base_config(**overrides))
    assert main(["run", "config.json", *extra]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err
    assert [f.name for f in tmp_path.iterdir()] == ["config.json"]


@pytest.mark.parametrize("under", ["", "sub"], ids=["file", "under_a_file"])
def test_out_path_that_is_a_file_exits_2(tmp_path, capsys, under):
    afile = tmp_path / "afile"
    afile.write_text("kept")
    out = str(afile / under) if under else str(afile)
    path = write_config(tmp_path, base_config())
    assert main(["run", str(path), "--out", out]) == EXIT_CONFIG
    assert "config error: output directory" in capsys.readouterr().err
    assert afile.read_text() == "kept"


def test_output_dir_that_is_a_file_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "afile").write_text("kept")
    write_config(tmp_path, base_config(output_dir="afile"))
    assert main(["run", "config.json"]) == EXIT_CONFIG
    assert "config error: output directory 'afile' is not a directory" in capsys.readouterr().err
    with pytest.raises(ConfigError, match="is not a directory"):
        run_experiment(base_config(), tmp_path / "afile")
    assert (tmp_path / "afile").read_text() == "kept"


def test_linearize_reports_fd_error(tmp_path):
    cfg = base_config(experiment="Linearize", problem=DW)
    code, report = run_experiment(cfg, tmp_path / "out")
    assert code == EXIT_OK
    assert [c["name"] for c in report["checks"]] == ["spectrum_containment"]
    assert 0.0 <= report["results"]["fd_error"] <= 100.0 * 1e-4**2


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


def _fmt_reference(v) -> str:
    """The CSV cell as formatted one value at a time before the table writer."""
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    v = float(v)
    if math.isnan(v):
        return "nan"
    return format(v, ".17g")


def _assert_csv_writer_matches_per_value_formatting(tmp_path, n_rows):
    rng = np.random.default_rng(7)
    # nan, infinities, signed zeros, subnormals, the extremes and inexact decimals.
    special = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -2.2250738585072e-310]
    special += [2.2250738585072014e-308, 1.7976931348623157e308, 1e-300, 0.1, 1.0 / 3.0]
    values = np.concatenate(
        [special, rng.standard_normal(600) * 10.0 ** rng.integers(-320, 300, 600)]
    )
    cells = rng.permutation(np.resize(values, (100, 7)))[:n_rows]
    table = np.column_stack([np.arange(n_rows), cells])
    header = ["k"] + [f"c_{j}" for j in range(7)]
    cli._write_csv(tmp_path / "table.csv", header, table, int_cols=1)
    expected = ",".join(header) + "\n" + "".join(
        ",".join([_fmt_reference(int(row[0]))] + [_fmt_reference(v) for v in row[1:]]) + "\n"
        for row in table
    )
    assert (tmp_path / "table.csv").read_bytes() == expected.encode()


def test_csv_writer_matches_per_value_formatting(tmp_path):
    _assert_csv_writer_matches_per_value_formatting(tmp_path, 100)


@pytest.mark.parametrize("n_rows", [0, 1])
def test_csv_writer_formats_no_row_and_one_row(tmp_path, n_rows):
    _assert_csv_writer_matches_per_value_formatting(tmp_path, n_rows)


@pytest.mark.parametrize("shape", [(3, 2), (1, 6), (6,)])
def test_csv_writer_rejects_a_table_of_another_width(tmp_path, shape):
    # Each table holds six values, as many as two rows of the three columns.
    with pytest.raises(ValueError, match="does not match 3 columns"):
        cli._write_csv(tmp_path / "table.csv", ["a", "b", "c"], np.zeros(shape))


def test_writers_replace_a_file_rather_than_truncate_it(tmp_path):
    # A second name for each old file keeps its bytes: the writers unlink
    # the old file and create a new one.
    out = tmp_path / "out"
    cfg = base_config(experiment="RunFlow", problem=DW, x0=[1.5, -1.2], flow={"t_end": 0.2})
    assert run_experiment(cfg, out)[0] == EXIT_OK
    names = ("report.json", "flow_trace.csv")
    for name in names:
        os.link(out / name, tmp_path / name)
    flow = {"t_end": 0.3, "record_stride": 0.1}
    assert run_experiment(dict(cfg, flow=flow), out)[0] == EXIT_OK
    for name in names:
        assert (out / name).stat().st_ino != (tmp_path / name).stat().st_ino
        assert (out / name).read_bytes() != (tmp_path / name).read_bytes()
        assert (tmp_path / name).stat().st_nlink == 1


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
def test_failed_rerun_leaves_no_report(tmp_path, capsys):
    # The failed run exits before writing anything, so the first run's trace
    # stays, but no report of it suggests the second run passed.
    out = str(tmp_path / "out")
    cfg = base_config(experiment="RunFlow", problem=dict(DW, params={"q": [1, 4]}))
    ok = write_config(tmp_path, dict(cfg, x0=[1.5, -1.2], flow={"t_end": 0.5}), "ok.json")
    bad = write_config(tmp_path, dict(cfg, x0=[1e200, -1.2], flow={"t_end": 0.5}), "bad.json")
    assert main(["run", str(ok), "--out", out]) == EXIT_OK
    assert sorted(os.listdir(out)) == ["flow_trace.csv", "report.json"]
    capsys.readouterr()
    assert main(["run", str(bad), "--out", out]) == EXIT_RUNTIME
    assert "non-finite gradient residual at the start point" in capsys.readouterr().err
    assert os.listdir(out) == ["flow_trace.csv"]


def test_config_that_does_not_load_removes_the_report_under_out(tmp_path, monkeypatch):
    # Without --out a config that does not load names no directory, so none
    # is touched; with --out the earlier report goes before the config is read.
    out = tmp_path / "out"
    ok = write_config(tmp_path, base_config(x0=[1.0, 1.0]), "ok.json")
    assert main(["run", str(ok), "--out", str(out)]) == EXIT_OK
    written = sorted(os.listdir(out))
    assert "report.json" in written
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    monkeypatch.chdir(tmp_path)
    assert main(["run", str(bad)]) == EXIT_CONFIG
    assert sorted(os.listdir(tmp_path)) == ["bad.json", "ok.json", "out"]
    assert sorted(os.listdir(out)) == written
    assert main(["run", str(bad), "--out", str(out)]) == EXIT_CONFIG
    assert sorted(os.listdir(out)) == [n for n in written if n != "report.json"]


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


def test_eta_sweep_linearizes_once(tmp_path, monkeypatch):
    calls = []
    original = analysis.linearize_at

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(analysis, "linearize_at", counting)
    cfg = base_config(
        experiment="EtaSweep",
        problem=DW,
        x0=[0.6, 0.8],
        etas=[0.25, 0.5, 0.75, 1.0],
        scheme={"max_iter": 300, "stop_grad_tol": 1e-9},
    )
    code, report = run_experiment(cfg, tmp_path / "out")
    assert code == EXIT_OK
    assert len(report["results"]["table"]) == 4
    assert len(calls) == 1


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


def test_run_flow_from_a_far_start_exits_0(tmp_path):
    # Targets of norm ~ 1e6, where an absolute inversion residual of 1e-10
    # lies below one ulp of grad g; the stopping rule meets their roundoff.
    cfg = base_config(experiment="RunFlow", problem=DW, x0=[100.0, -80.0], flow={"t_end": 1.0})
    code, report = run_experiment(cfg, tmp_path / "out")
    assert code == EXIT_OK
    assert all(c["passed"] for c in report["checks"])


@pytest.mark.parametrize("mode", ["primal", "dual"])
def test_run_scheme_from_a_far_start_exits_0(tmp_path, mode):
    # |grad g(x0)| = 3.8e6: each inversion residual is tol relative to its
    # target, so the gradient identity's deviation is scaled by |grad g|.
    cfg = base_config(problem=DW, x0=[150.0, 120.0], mode=mode, scheme={"eta": 0.5})
    code, report = run_experiment(cfg, tmp_path / "out")
    assert code == EXIT_OK
    identity = {c["name"]: c for c in report["checks"]}["gradient_difference_identity"]
    assert identity["passed"]
    assert identity["allowed"] == 10.0 * core.INVERSION_TOL


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


def dw_rate_certify(**overrides):
    settings = {
        "experiment": "RateCertify",
        "problem": DW,
        "x0": [0.6, 0.8],
        "scheme": {"eta": 0.5, "max_iter": 300, "stop_grad_tol": 1e-9},
        "flow": {"t_end": 4.0, "record_stride": 0.05},
    }
    return base_config(**{**settings, **overrides})


def test_rate_certify_double_well_certifies_sigma_on_trajectory_box(tmp_path):
    # The double well has no global metric PL constant, but a closed form on
    # the box spanned by x0 and the scheme's limit, which both traces stay in.
    code, report = run_experiment(dw_rate_certify(), tmp_path / "out")
    assert code == EXIT_OK
    results = report["results"]
    assert results["sigma_source"] == "analytic"
    # Smallest |x_i| on the box is 0.6: sigma = 2 * 0.36 / (3 * 0.36 + 1).
    assert results["sigma"] == pytest.approx(0.72 / 2.08, rel=1e-12)
    assert results["sigma_box"]["lower"] == [0.6, 0.8]
    assert results["sigma_box"]["upper"] == pytest.approx([1.0, 1.0], abs=1e-8)
    by_name = {c["name"]: c for c in report["checks"]}
    for name in ("contraction_bound", "metric_pl_envelope", "local_exp_bound"):
        assert by_name[name]["passed"] is True, name
        assert "reason" not in by_name[name]


def test_rate_certify_envelope_allows_each_gap_its_roundoff(tmp_path, monkeypatch):
    # By t = 30 the gap f - f* is within the roundoff of f = -0.5, and the
    # envelope V(0) exp(-2 sigma t) has decayed below it.
    seen = []
    check = analysis.flow_rate_check

    def recorded(trace, **kw):
        seen.append((trace, kw))
        return check(trace, **kw)

    monkeypatch.setattr(analysis, "flow_rate_check", recorded)
    cfg = dw_rate_certify(
        problem={"name": "double_well", "params": {"q": [0.5, 0.5]}},
        x0=[1.05, 0.96],
        flow={"t_end": 30.0, "record_stride": 0.05},
    )
    code, report = run_experiment(cfg, tmp_path / "out")
    assert code == EXIT_OK
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name["metric_pl_envelope"]["passed"] is True
    # The allowance hides no violation: 5% more sigma still fails.
    ((trace, kw),) = seen
    assert not check(trace, **{**kw, "c": kw["c"] * math.sqrt(1.05)}).passed


@pytest.mark.parametrize("spec", [QUAD, DW])
@pytest.mark.parametrize("shift", [None, [0.5, 2.0]])
def test_built_problems_carry_every_constant(spec, shift):
    # The experiments rely on these without checking for them.
    p = cli.build_problem(spec if shift is None else {**spec, "shift": shift})
    for name in ("region", "f_star", "minimizer", "box_constants"):
        assert getattr(p, name) is not None, name


def test_rate_certify_without_box_constants_exits_2(tmp_path, capsys, monkeypatch):
    # A problem without closed-form box constants gets no sampled stand-in.
    build = cli.build_problem
    monkeypatch.setattr(
        cli, "build_problem",
        lambda spec: dataclasses.replace(build(spec), box_constants=None),
    )
    path = write_config(tmp_path, dw_rate_certify())
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert "no closed-form box constants" in capsys.readouterr().err
    assert not (tmp_path / "out" / "report.json").exists()


def test_rate_certify_sweeps_its_span_and_local_boxes_in_one_pass(tmp_path, monkeypatch):
    # At n = 12 one Halton set and one g_hess and h_hess call serve the span
    # box's 400 probes and the local box's 200, and every constant a check
    # reads equals that of the box's own one-box sweep.
    dw12 = {"name": "double_well", "params": {"q": np.linspace(1.0, 4.0, 12).tolist()}}
    counts = {"_halton": 0, "g_hess": 0, "h_hess": 0}
    sweeping = []

    def sweep(fn):
        def wrapper(*args):
            sweeping.append(True)
            try:
                return fn(*args)
            finally:
                sweeping.pop()

        return wrapper

    def counted(name, fn):
        def wrapper(*args):
            if name == "_halton" or sweeping:
                counts[name] += 1
            return fn(*args)

        return wrapper

    for name in ("checked_box_constants", "metric_bounds_on_box"):
        monkeypatch.setattr(analysis, name, sweep(getattr(analysis, name)))
    monkeypatch.setattr(analysis, "_halton", counted("_halton", analysis._halton))
    build = cli.build_problem

    def built(spec):
        p = build(spec)
        hessians = {k: counted(k, getattr(p, k)) for k in ("g_hess", "h_hess")}
        return dataclasses.replace(p, **hessians)

    monkeypatch.setattr(cli, "build_problem", built)
    x0 = np.linspace(0.6, 1.5, 12).tolist()
    cfg = dw_rate_certify(problem=dw12, x0=x0, flow={"t_end": 1.0, "record_stride": 0.1})
    code, report = run_experiment(cfg, tmp_path / "out")
    assert code == EXIT_OK
    assert counts == {"_halton": 1, "g_hess": 1, "h_hess": 1}

    monkeypatch.undo()
    p = cli.build_problem(dw12)
    results, by_name = report["results"], {c["name"]: c for c in report["checks"]}
    box = core.Box(results["sigma_box"]["lower"], results["sigma_box"]["upper"])
    paths = [read_points(tmp_path / "out" / f"{run}_trace.csv", "x_") for run in ("scheme", "flow")]
    spanned = core.Box.spanning(np.vstack(paths))
    assert box.lower.tolist() == spanned.lower.tolist()
    assert box.upper.tolist() == spanned.upper.tolist()
    span = analysis.checked_box_constants(p, box)
    (mu, lg), eta = span.metric, 0.5
    assert results["sigma"] == span.sigma
    bound = max(0.0, 1.0 - (mu * span.sigma / lg) * eta * (1.0 - eta))
    assert by_name["contraction_bound"]["bound"] == bound
    assert by_name["metric_pl_envelope"]["decay_rate_bound"] == 2.0 * span.sigma
    local = core.Box(p.minimizer - cli._LOCAL_BOX_RADIUS, p.minimizer + cli._LOCAL_BOX_RADIUS)
    cert = analysis.local_exp_certificate(p, p.minimizer, local)
    assert results["local_exp"] == {"lambda": cert.lam, "c1": cert.c1}
    local_check = by_name["local_exp_bound"]
    assert (local_check["lambda"], local_check["c1"]) == (cert.lam, cert.c1)
    assert all(c["passed"] is True for c in report["checks"])


def test_rate_certify_with_zero_sigma_on_the_span_box_exits_2(tmp_path, capsys):
    # x0 sits on the double well's local maximum in its first coordinate, so
    # the span box holds 0 there and sigma is zero on it; the local box swept
    # alongside passes its cross-check, and the run is refused all the same.
    path = write_config(tmp_path, dw_rate_certify(x0=[0.0, 0.8]))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert "metric PL constant is zero on the box the runs span" in capsys.readouterr().err
    assert not (tmp_path / "out" / "report.json").exists()


def read_points(path, prefix):
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    cols = [k for k in rows[0] if k.startswith(prefix)]
    return np.array([[float(row[k]) for k in cols] for row in rows])


def test_rate_certify_box_spans_the_flow_past_the_scheme(tmp_path):
    # Three scheme steps stop far from the minimizer; the flow runs on past
    # them, and sigma's box grows to hold every flow sample.
    cfg = dw_rate_certify(
        scheme={"eta": 0.5, "max_iter": 3},
        flow={"t_end": 8.0, "record_stride": 0.5},
    )
    out = tmp_path / "out"
    code, report = run_experiment(cfg, out)
    assert code == EXIT_OK
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name["contraction_bound"]["passed"] is True
    assert by_name["metric_pl_envelope"]["passed"] is True
    flow = read_points(out / "flow_trace.csv", "x_")
    scheme = read_points(out / "scheme_trace.csv", "x_")
    box = report["results"]["sigma_box"]
    assert box["upper"] == flow.max(axis=0).tolist()
    assert box["upper"][0] > scheme[:, 0].max()
    assert box["lower"] == np.vstack([scheme, flow]).min(axis=0).tolist()


def test_rate_certify_bound_takes_every_constant_from_the_span_box(tmp_path):
    # x0 lies outside the region, the cube of half-width 2, and Hess g reaches
    # 3 * 2.5**2 + 1 = 19.75 there: a bound with L = 13, the largest value on
    # the region, would not be certified.
    code, report = run_experiment(dw_rate_certify(x0=[2.5, 0.8]), tmp_path / "out")
    assert code == EXIT_OK
    box = report["results"]["sigma_box"]
    assert box["upper"][0] == 2.5
    constants = cli.build_problem(DW).box_constants(core.Box(box["lower"], box["upper"]))
    m, lg = constants.metric
    assert lg == 19.75
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name["contraction_bound"]["bound"] == 1.0 - (m * constants.sigma / lg) * 0.25
    assert report["results"]["sigma"] == constants.sigma
    assert "trajectory_in_region" not in by_name
    assert all(c["passed"] is True for c in report["checks"])



DW_14 = {"name": "double_well", "params": {"q": [1, 4]}}


@pytest.mark.parametrize(
    "experiment, overrides, scale",
    [
        ("EtaSweep", dict(etas=[0.25, 0.5, 1.0]), (1.0, 0.5)),
        ("RateCertify", dict(flow={"t_end": 4.0, "record_stride": 0.05}), (1.0, 0.5)),
        ("RunScheme", dict(), (2.0, 1.0)),
    ],
    ids=["eta_sweep_half_L", "rate_certify_half_L", "run_scheme_double_mu"],
)
def test_lying_metric_range_exits_3(tmp_path, capsys, monkeypatch, experiment, overrides, scale):
    # Box constants that misstate the metric range on every box: the span
    # box's cross-check stops the run before any bound rests on them.
    build = cli.build_problem

    def lying(spec):
        p = build(spec)

        def constants(box):
            bc = p.box_constants(box)
            lo, hi = bc.metric
            return dataclasses.replace(bc, metric=(scale[0] * lo, scale[1] * hi))

        return dataclasses.replace(p, box_constants=constants)

    monkeypatch.setattr(cli, "build_problem", lying)
    cfg = base_config(
        experiment=experiment,
        problem=DW_14,
        x0=[1.5, -1.2],
        scheme={"eta": 0.5, "max_iter": 300, "stop_grad_tol": 1e-9},
        **overrides,
    )
    path = write_config(tmp_path, cfg)
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert "runtime error: sampled metric eigenvalues" in err
    assert "leave the closed-form range" in err and "on the box" in err
    assert not (tmp_path / "out" / "report.json").exists()


def test_rate_certify_twenty_dimensions_has_no_corner_sweep(tmp_path, monkeypatch):
    # A corner sweep would evaluate 2**20 Hessians per box.
    calls = []
    build = cli.build_problem

    def counted(spec):
        p = build(spec)
        return dataclasses.replace(
            p, g_hess=lambda x: calls.append(None) or p.g_hess(x)
        )

    monkeypatch.setattr(cli, "build_problem", counted)
    n = 20
    cfg = base_config(
        experiment="RateCertify",
        problem={"name": "double_well", "params": {"q": np.linspace(1.0, 4.0, n).tolist()}},
        x0=(1.5 * np.where(np.arange(n) % 2, -1.0, 1.0)).tolist(),
        scheme={"eta": 0.5},
        flow={"t_end": 1.0, "record_stride": 0.1},
    )
    code, report = run_experiment(cfg, tmp_path / "out")
    assert code == EXIT_OK
    assert report["results"]["sigma_source"] == "analytic"
    assert all(c["passed"] is True for c in report["checks"])
    assert len(calls) < 10_000


def _double_well_config(experiment, n, **overrides):
    spec = {"name": "double_well", "params": {"q": np.linspace(1.0, 4.0, n).tolist()}}
    x0 = (1.5 * np.where(np.arange(n) % 2, -1.0, 1.0)).tolist()
    flow = {"t_end": 1.0, "record_stride": 0.1}
    return base_config(experiment=experiment, problem=spec, x0=x0, flow=flow, **overrides)


@pytest.mark.parametrize(
    "cfg",
    [
        _double_well_config("RateCertify", 12, scheme={"eta": 0.5}),
        _double_well_config("RateCertify", 400, scheme={"eta": 0.5}),
        _double_well_config("RunScheme", 12),
        _double_well_config("RunFlow", 12),
        _double_well_config("DecompositionCompare", 12, alt={"shift": [1.0] * 12}),
    ],
    ids=["RateCertify-12", "RateCertify-400", "RunScheme", "RunFlow", "DecompositionCompare"],
)
def test_double_well_hessian_stacks_are_never_made_dense(tmp_path, monkeypatch, cfg):
    # The double well answers its Hessians as core.Diagonal.  Every stacked
    # consumer reads their diagonals; only linearize_at makes single
    # (n, n) matrices of them.  A dense stack at n = 400 would be 1.3 MB a
    # point.
    made_dense, in_linearize = [], [False]
    dense, linearize = core.Diagonal.__array__, analysis.linearize_at

    def counted(self, *args, **kwargs):
        made_dense.append((self.shape, in_linearize[0]))
        return dense(self, *args, **kwargs)

    def flagged(*args):
        in_linearize[0] = True
        try:
            return linearize(*args)
        finally:
            in_linearize[0] = False

    monkeypatch.setattr(core.Diagonal, "__array__", counted)
    monkeypatch.setattr(analysis, "linearize_at", flagged)
    code, report = run_experiment(cfg, tmp_path / "out")
    assert code == EXIT_OK
    n = len(cfg["x0"])
    assert all(shape == (n, n) and inside for shape, inside in made_dense)


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


def test_eta_sweep_double_well_certifies_contraction_bound(tmp_path):
    cfg = base_config(
        experiment="EtaSweep",
        problem=DW,
        x0=[0.6, -0.8],
        etas=[0.25, 0.5, 1.0],
        scheme={"max_iter": 300, "stop_grad_tol": 1e-9},
    )
    code, report = run_experiment(cfg, tmp_path / "out")
    assert code == EXIT_OK
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name["contraction_bound"]["passed"] is True
    # One box spans x0 and every member's limit: (1, -1) for all three.
    box = report["results"]["sigma_box"]
    assert box["lower"] == pytest.approx([0.6, -1.0], abs=1e-8)
    assert box["upper"] == pytest.approx([1.0, -0.8], abs=1e-8)


def _wrong_preimage(y):
    """A closed-form pullback that returns its target, a wrong preimage, so
    inversions run Newton from there."""
    return np.array(y, dtype=float)


def _lying_pullback(monkeypatch):
    """Make every double well built from here on use :func:`_wrong_preimage`."""
    monkeypatch.setattr(
        problems._DoubleWellConstants, "pullback", lambda self, y: _wrong_preimage(y)
    )


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_convergence_failure_exits_3(tmp_path, capsys, monkeypatch):
    # The message names where the inversion failed, beside its residual.
    monkeypatch.setattr(core, "_MAX_NEWTON_ITER", 1)
    _lying_pullback(monkeypatch)
    for experiment, phase in [
        ("RunScheme", "in scheme iteration 0 (eta=0.5)"),
        ("RunFlow", "in the flow step from t=0 of size 0.01"),
    ]:
        cfg = base_config(
            experiment=experiment,
            problem=DW,
            x0=[1.9, -1.7],
            scheme={"eta": 0.5},
            flow={"t_end": 1.0},
        )
        path = write_config(tmp_path, cfg)
        assert main(["run", str(path), "--out", str(tmp_path / experiment)]) == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert "runtime error: gradient inversion did not reach tol" in err
        assert "(residual " in err and phase in err


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_eta_sweep_member_failure_ends_run_without_report(tmp_path, capsys, monkeypatch):
    # Failure policy: a ConvergenceError in any sweep member ends the whole
    # run with exit 3 and no report.json; members that finished keep their CSV.
    real_run_scheme = cli.run_scheme

    def run_scheme(p, x0, cfg, *args):
        if cfg.eta != 0.5:
            return real_run_scheme(p, x0, cfg, *args)
        with monkeypatch.context() as m:
            m.setattr(core, "_MAX_NEWTON_ITER", 1)
            p = dataclasses.replace(p, g_conj_grad=_wrong_preimage)
            return real_run_scheme(p, x0, cfg, *args)

    monkeypatch.setattr(cli, "run_scheme", run_scheme)
    cfg = base_config(experiment="EtaSweep", problem=DW, x0=[1.9, -1.7], etas=[0.25, 0.5, 0.75])
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == EXIT_RUNTIME
    assert "gradient inversion did not reach tol" in capsys.readouterr().err
    assert not (out / "report.json").exists()
    assert (out / "eta_0.250_trace.csv").exists()
    assert not (out / "eta_0.500_trace.csv").exists()
    assert not (out / "eta_0.750_trace.csv").exists()


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


def test_report_json_is_one_sorted_indented_dump(tmp_path, monkeypatch):
    details = {"worst": math.nan, "allowed": math.inf, "lower": -math.inf}
    results = {"z": [[1.5, [math.nan, -0.0]], []], "a": {"nested": [math.inf, "s", None]}}

    def experiment(p, cfg, out_dir, rng):
        return [cli.Check("special_values", False, details)], results

    monkeypatch.setitem(cli._EXPERIMENTS, "RunScheme", experiment)
    code, report = run_experiment(base_config(), tmp_path / "out", certify=False)
    assert code == EXIT_OK
    streamed = io.StringIO()
    json.dump(report, streamed, indent=2, sort_keys=True)
    expected = (streamed.getvalue() + "\n").encode()
    assert (tmp_path / "out" / "report.json").read_bytes() == expected
    assert b"NaN" in expected and b"-Infinity" in expected


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


def test_wide_linearize_report_does_not_depend_on_blas_threads(tmp_path):
    """A 200-D diagonal metric is linearized to the same bytes with one
    OpenBLAS thread and with two.  Its Frobenius gap once went through one
    long BLAS dot, which threads split in another summation order.  On a
    one-core host both runs get one thread, so this test cannot fail there.
    """
    import hashlib
    import subprocess
    import sys
    from pathlib import Path

    import dcflow

    src = str(Path(dcflow.__file__).resolve().parents[1])
    problem = {"name": "double_well", "params": {"q": np.linspace(1.0, 4.0, 200).tolist()}}
    path = write_config(tmp_path, base_config(experiment="Linearize", problem=problem))
    digests = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads_{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "dcflow", "run", str(path), "--out", str(out)],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == EXIT_OK, proc.stderr
        lines = (out / "report.json").read_text().splitlines(keepends=True)
        kept = "".join(line for line in lines if '"generated_at"' not in line)
        digests.append(hashlib.sha256(kept.encode()).hexdigest())
    assert digests[0] == digests[1]


def test_main_flag_combinations(tmp_path):
    cfg = base_config(
        experiment="DecompositionCompare",
        problem=DW,
        x0=[0.5, 0.5],
        alt={"q": [1, 1]},
        flow={"t_end": 0.3, "record_stride": 0.05},
    )
    path = write_config(tmp_path, cfg)
    args = ["run", str(path), "--out", str(tmp_path / "o1")]
    assert main(args) == EXIT_CHECK_FAILED
    args = ["run", str(path), "--out", str(tmp_path / "o2"), "--report-only"]
    assert main(args) == EXIT_OK
    # The region check only warns; there is no flag to change that.
    args = ["run", str(path), "--out", str(tmp_path / "o3"), "--invariance", "fail"]
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == EXIT_CONFIG
