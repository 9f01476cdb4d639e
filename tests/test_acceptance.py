"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside the pytest verdicts.
"""

import time

import numpy as np
import pytest

from dcflow import (
    Box,
    FlowConfig,
    Mode,
    SchemeConfig,
    closed_form_linear_flow,
    descent_margins,
    dual_euler_interpolant,
    integrate_flow,
    make_double_well,
    make_quadratic,
    make_shifted_decomposition,
    run_scheme,
)
from dcflow.analysis import (
    energy_residuals,
    flow_rate_check,
    kl_exponent_diagnostic,
    linearize_at,
    local_exp_bound_margin,
    local_exp_certificate,
    measure_local_contraction,
)
from dcflow.cli import run_experiment

A2 = 2.0 * np.eye(2)
B1 = np.eye(2)

QUAD = make_quadratic(A2, B1)
DW_UNIT = make_double_well([1.0, 1.0])
DW_ANISO = make_double_well([1.0, 4.0])


def report(num: int, name: str, passed: bool, detail: str = "") -> None:
    tag = "PASS" if passed else "FAIL"
    print(f"criterion {num:02d} {name}: {tag}" + (f"  ({detail})" if detail else ""))
    assert passed, f"criterion {num:02d} {name} failed: {detail}"


@pytest.fixture(scope="module")
def equivalence_runs():
    """Primal and dual 20-step runs: both families, 50 starts, three etas."""
    rng = np.random.default_rng(0)
    records = []
    t0 = time.perf_counter()
    for p in (QUAD, DW_UNIT):
        starts = p.region.sample(rng, 50)
        for eta in (0.1, 0.5, 1.0):
            cfg = SchemeConfig(eta=eta, max_iter=20, stop_grad_tol=1e-300)
            for x0 in starts:
                tp = run_scheme(p, x0, cfg, Mode.PRIMAL)
                td = run_scheme(p, x0, cfg, Mode.DUAL)
                records.append((p, eta, tp, td))
    elapsed = time.perf_counter() - t0
    return records, elapsed


def test_criterion_01_dual_primal_equivalence(equivalence_runs):
    records, elapsed = equivalence_runs
    worst = 0.0
    for _, _, tp, td in records:
        k = min(tp.points.shape[0], td.points.shape[0])
        worst = max(worst, float(np.max(np.abs(tp.points[:k] - td.points[:k]))))
    report(
        1,
        "dual-primal-equivalence",
        worst <= 1e-8 and elapsed < 10.0,
        f"sup gap {worst:.3e}, runtime {elapsed:.2f}s over {len(records)} pairs",
    )


def test_criterion_02_descent_certificates(equivalence_runs):
    records, _ = equivalence_runs
    violations = 0
    worst = np.inf
    for p, _, tp, td in records:
        for trace in (tp, td):
            relaxed, strong = descent_margins(p, trace)
            worst = min(worst, relaxed, strong)
            if relaxed < 0.0 or strong < 0.0:
                violations += 1
    report(
        2,
        "descent-certificates",
        violations == 0,
        f"zero violations required, got {violations}; worst margin {worst:.3e}",
    )


def test_criterion_03_continuous_limit_refinement():
    x0 = np.array([1.0, 0.0])
    times = np.linspace(0.0, 5.0, 101)
    reference = np.array([closed_form_linear_flow(A2, B1, x0, t) for t in times])
    etas = [0.2, 0.1, 0.05]
    devs = []
    for eta in etas:
        interp = dual_euler_interpolant(QUAD, x0, eta, times)
        devs.append(float(np.max(np.linalg.norm(interp - reference, axis=1))))
    slope = float(np.polyfit(np.log(etas), np.log(devs), 1)[0])
    ok = 0.8 <= slope <= 1.2 and devs[-1] < 0.05 * float(np.linalg.norm(x0))
    report(
        3,
        "continuous-limit-refinement",
        ok,
        f"deviations {[f'{d:.4f}' for d in devs]}, slope {slope:.3f}",
    )


def test_criterion_04_flow_accuracy():
    x0 = np.array([0.7, -0.4])
    cfg = FlowConfig(t_end=5.0, record_stride=1.0, rel_tol=1e-8, abs_tol=1e-10)
    t0 = time.perf_counter()
    trace = integrate_flow(QUAD, x0, cfg)
    elapsed = time.perf_counter() - t0
    errs = []
    for t_chk in (1.0, 5.0):
        i = int(np.argmin(np.abs(trace.times - t_chk)))
        errs.append(
            float(
                np.linalg.norm(
                    trace.x_states[i] - closed_form_linear_flow(A2, B1, x0, t_chk)
                )
            )
        )
    report(
        4,
        "flow-accuracy",
        max(errs) <= 1e-6 and elapsed < 1.0,
        f"errors {errs[0]:.2e} @t=1, {errs[1]:.2e} @t=5; runtime {elapsed:.3f}s",
    )


def test_criterion_05_energy_identity():
    cfg = FlowConfig(t_end=2.0, record_stride=1e-3, rel_tol=1e-8, abs_tol=1e-10)
    trace = integrate_flow(DW_UNIT, np.array([0.5, 0.7]), cfg)
    res = energy_residuals(trace)
    worst = float(np.nanmax(res[1:-1]))
    report(
        5,
        "energy-identity",
        worst <= 1e-5,
        f"max interior residual {worst:.3e} over {trace.n_samples} samples",
    )


def test_criterion_06_damped_pl_rate():
    # sigma = 1/2 and the metric range (2, 2) are analytic on this instance.
    etas = [round(0.1 * k, 1) for k in range(1, 10)]
    bounds = []
    worst_excess = -np.inf
    constants = QUAD.box_constants(QUAD.region)
    mu, lg = constants.metric
    for eta in etas:
        bound = max(0.0, 1.0 - (mu * constants.sigma / lg) * eta * (1.0 - eta))
        bounds.append(bound)
        trace = run_scheme(
            QUAD, np.array([1.5, -0.8]), SchemeConfig(eta=eta, max_iter=600)
        )
        gaps = trace.f_values - QUAD.f_star
        keep = gaps[:-1] > 1e-12
        ratios = gaps[1:][keep] / gaps[:-1][keep]
        worst_excess = max(worst_excess, float(np.max(ratios - bound)))
    argmin_eta = etas[int(np.argmin(bounds))]
    ok = worst_excess <= 1e-9 and argmin_eta == 0.5
    report(
        6,
        "damped-pl-rate",
        ok,
        f"worst ratio excess {worst_excess:.2e}, bound argmin eta {argmin_eta}",
    )


def test_criterion_07_local_rate_tradeoff():
    etas = [0.25, 0.5, 1.0]
    lin = linearize_at(DW_UNIT, np.ones(2))
    measured = [measure_local_contraction(DW_UNIT, lin, eta) for eta in etas]
    expected = [1.0 - eta * 0.5 for eta in etas]
    rel_errs = [abs(m - e) / e for m, e in zip(measured, expected)]
    monotone = all(a > b for a, b in zip(measured, measured[1:]))
    report(
        7,
        "local-rate-tradeoff",
        max(rel_errs) <= 0.05 and monotone,
        f"measured {[f'{m:.4f}' for m in measured]}, max rel err {max(rel_errs):.2%}",
    )


def test_criterion_08_linearization():
    rep = linearize_at(DW_ANISO, np.array([1.0, 1.0]))
    target = -np.diag([2.0 / 4.0, 2.0 / 7.0])
    err = float(np.linalg.norm(rep.fd_jacobian - target, "fro"))
    report(
        8,
        "linearization",
        err <= 1e-5,
        f"Frobenius gap {err:.2e} against -diag(2/4, 2/7)",
    )


def test_criterion_09_exponential_flow_decay():
    cfg = FlowConfig(t_end=8.0, record_stride=0.05, rel_tol=1e-9, abs_tol=1e-12)
    trace = integrate_flow(QUAD, np.array([1.0, 0.0]), cfg)
    chk = flow_rate_check(trace, c=1.0, theta=0.5, f_star=0.0)
    rate_ok = abs(chk.measured_decay_rate - 1.0) <= 0.01
    report(
        9,
        "exponential-flow-decay",
        bool(chk.passed) and rate_ok,
        f"worst margin {chk.worst_margin:.2e}, measured rate {chk.measured_decay_rate:.6f}",
    )


def test_criterion_10_local_exponential_certificate():
    cert_q = local_exp_certificate(QUAD, np.zeros(2), Box.cube(1.0, 2))
    cfg = FlowConfig(t_end=6.0, record_stride=0.05, rel_tol=1e-9, abs_tol=1e-12)
    trace = integrate_flow(QUAD, np.array([0.8, -0.6]), cfg)
    margin_q = local_exp_bound_margin(trace, np.zeros(2), cert_q)
    quad_ok = (
        cert_q.lam == pytest.approx(0.5, abs=1e-12)
        and cert_q.c1 == pytest.approx(1.0, abs=1e-12)
        and margin_q >= 0.0
    )

    box = Box(np.array([0.9, 0.9]), np.array([1.1, 1.1]))
    cert_dw = local_exp_certificate(DW_UNIT, np.ones(2), box)
    rng = np.random.default_rng(10)
    dw_margins = []
    for x0 in box.sample(rng, 10):
        tr = integrate_flow(DW_UNIT, x0, FlowConfig(t_end=4.0, record_stride=0.05))
        dw_margins.append(local_exp_bound_margin(tr, np.ones(2), cert_dw))
    dw_ok = min(dw_margins) >= 0.0
    report(
        10,
        "local-exponential-certificate",
        quad_ok and dw_ok,
        f"quad (lam={cert_q.lam}, c1={cert_q.c1}, margin {margin_q:.2e}); "
        f"double-well lam={cert_dw.lam:.4f}, min margin {min(dw_margins):.2e}",
    )


def test_criterion_11_decomposition_sensitivity():
    x0 = np.array([0.5, 0.5])
    velocity = -np.linalg.solve(DW_ANISO.g_hess(x0), DW_ANISO.f_grad(x0))
    ratio = float(velocity[0] / velocity[1])
    ratio_ok = abs(ratio - 4.75 / 1.75) <= 1e-6

    cfg = FlowConfig(t_end=0.2, record_stride=0.05, rel_tol=1e-9, abs_tol=1e-12)
    trace = integrate_flow(DW_ANISO, x0, cfg)
    i = int(np.argmin(np.abs(trace.times - 0.1)))
    departure = abs(float(trace.x_states[i, 0] - trace.x_states[i, 1]))
    departure_ok = departure > 1e-3

    shifted = make_shifted_decomposition(QUAD, [2.0, 2.0])
    rng = np.random.default_rng(3)
    pts = QUAD.region.sample(rng, 100)
    f_gap = max(abs(QUAD.f_value(x) - shifted.f_value(x)) for x in pts)
    lam0 = linearize_at(QUAD, np.zeros(2)).lambda_min
    lam1 = linearize_at(shifted, np.zeros(2)).lambda_min
    shift_ok = f_gap <= 1e-12 and abs(lam0 / lam1 - 2.0) <= 1e-9

    report(
        11,
        "decomposition-sensitivity",
        ratio_ok and departure_ok and shift_ok,
        f"velocity ratio {ratio:.8f}, |x1-x2|@0.1 = {departure:.4f}, "
        f"f gap {f_gap:.1e}, lambda ratio {lam0 / lam1:.12f}",
    )


def test_criterion_12_kl_diagnostic_sanity():
    trace_q = run_scheme(
        QUAD, np.array([1.3, -0.7]), SchemeConfig(eta=0.6, stop_grad_tol=1e-9)
    )
    diag_q = kl_exponent_diagnostic(trace_q, QUAD.f_star)
    trace_d = run_scheme(
        DW_UNIT, np.array([1.3, 0.8]), SchemeConfig(eta=0.5, stop_grad_tol=1e-9)
    )
    diag_d = kl_exponent_diagnostic(trace_d, DW_UNIT.f_star)
    ok = (
        abs(diag_q.theta_hat - 0.5) <= 0.05
        and diag_q.r_squared >= 0.99
        and abs(diag_d.theta_hat - 0.5) <= 0.05
        and diag_d.r_squared >= 0.99
    )
    report(
        12,
        "kl-diagnostic-sanity",
        ok,
        f"quadratic theta {diag_q.theta_hat:.4f} (R2 {diag_q.r_squared:.5f}); "
        f"double-well theta {diag_d.theta_hat:.4f} (R2 {diag_d.r_squared:.5f})",
    )


def test_criterion_13_cli_determinism(tmp_path):
    cfg = {
        "schema_version": 1,
        "problem": {
            "name": "quadratic",
            "params": {"a": [[2, 0], [0, 2]], "b": [[1, 0], [0, 1]]},
        },
        "experiment": "EtaSweep",
        "seed": 9,
        "etas": [0.3, 0.5],
        "scheme": {"max_iter": 150, "stop_grad_tol": 1e-9},
    }
    flow_cfg = {
        "schema_version": 1,
        "problem": {"name": "double_well", "params": {"q": [1, 4]}},
        "experiment": "RunFlow",
        "seed": 9,
        "x0": [0.5, 0.5],
        "flow": {"t_end": 0.5, "record_stride": 0.01},
    }
    identical = True
    for name, spec, files in (
        ("sweep", cfg, ["eta_0.300_trace.csv", "eta_0.500_trace.csv"]),
        ("flow", flow_cfg, ["flow_trace.csv"]),
    ):
        run_experiment(spec, tmp_path / f"{name}_1")
        run_experiment(spec, tmp_path / f"{name}_2")
        for f in files:
            b1 = (tmp_path / f"{name}_1" / f).read_bytes()
            b2 = (tmp_path / f"{name}_2" / f).read_bytes()
            identical = identical and (b1 == b2)
    report(13, "cli-determinism", identical, "byte-identical CSVs across reruns")
