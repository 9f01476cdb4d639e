"""Nothing in the pipeline may assume dimension two or diagonal matrices."""

import numpy as np
import pytest

from dcflow import (
    FlowConfig,
    SchemeConfig,
    closed_form_linear_flow,
    descent_margins,
    integrate_flow,
    make_double_well,
    make_quadratic,
    run_scheme,
)
from dcflow.analysis import (
    damped_pl_report,
    flow_rate_check,
    linearize_at,
    measure_local_contraction,
)
from helpers import primal_dual_sup_gap

RNG = np.random.default_rng(20240506)


def random_quadratic(n: int, seed: int):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n))
    a = m @ m.T + n * np.eye(n)
    # Shrink toward a to keep b below a while staying nondiagonal.
    w = rng.uniform(0.2, 0.8)
    b = w * a
    return make_quadratic(a, b)


@pytest.mark.parametrize("n", [3, 5])
def test_quadratic_flow_matches_closed_form(n):
    p = random_quadratic(n, seed=n)
    rng = np.random.default_rng(100 + n)
    x0 = rng.standard_normal(n)
    a = p.g_hess(np.zeros(n))
    b = p.h_hess(np.zeros(n))
    cfg = FlowConfig(t_end=3.0, record_stride=0.5, rel_tol=1e-9, abs_tol=1e-12)
    trace = integrate_flow(p, x0, cfg)
    for i, t in enumerate(trace.times):
        expected = closed_form_linear_flow(a, b, x0, float(t))
        assert np.linalg.norm(trace.x_states[i] - expected) <= 1e-6


@pytest.mark.parametrize("n", [3, 5])
def test_quadratic_primal_dual_and_descent(n):
    p = random_quadratic(n, seed=10 + n)
    rng = np.random.default_rng(200 + n)
    for _ in range(3):
        x0 = rng.standard_normal(n)
        assert primal_dual_sup_gap(p, x0, SchemeConfig(eta=0.4), 15) <= 1e-8
        trace = run_scheme(p, x0, SchemeConfig(eta=0.4, max_iter=100))
        relaxed, strong = descent_margins(p, trace)
        assert relaxed >= 0.0 and strong >= 0.0


def test_quadratic_rate_report_nondiagonal():
    p = random_quadratic(4, seed=77)
    rng = np.random.default_rng(300)
    x0 = rng.standard_normal(4)
    trace = run_scheme(p, x0, SchemeConfig(eta=0.5, max_iter=400))
    constants = p.box_constants(p.region)
    # The metric is constant, so every box gets the extreme eigenvalues of a.
    assert constants.metric == (p.mu, float(np.linalg.eigvalsh(p.g_hess(x0))[-1]))
    rep = damped_pl_report(trace, constants, p.f_star)
    assert not rep.violation
    assert rep.measured_ratio_geomean <= rep.contraction_bound + 1e-9


def test_quadratic_flow_envelope_nondiagonal():
    # b = w*a makes the metric PL constant exactly 1 - w, so the flow decay
    # envelope exp(-2(1-w) t) must hold with the analytic constant.
    p = random_quadratic(4, seed=78)
    rng = np.random.default_rng(301)
    cfg = FlowConfig(t_end=4.0, record_stride=0.1, rel_tol=1e-9, abs_tol=1e-12)
    trace = integrate_flow(p, rng.standard_normal(4), cfg)
    sigma = p.box_constants(p.region).sigma
    chk = flow_rate_check(trace, c=np.sqrt(2.0 * sigma), theta=0.5, f_star=0.0)
    assert chk.passed
    assert chk.measured_decay_rate == pytest.approx(2.0 * sigma, rel=1e-3)


def test_double_well_five_dimensional():
    q = np.array([1.0, 2.0, 0.5, 4.0, 1.5])
    p = make_double_well(q)
    assert p.f_star == pytest.approx(-1.25)
    x_star = np.ones(5)
    rep = linearize_at(p, x_star)
    np.testing.assert_allclose(np.sort(2.0 / (3.0 + q)), rep.spectrum, atol=1e-12)
    trace = run_scheme(p, np.full(5, 0.6), SchemeConfig(eta=0.5))
    np.testing.assert_allclose(trace.points[-1], x_star, atol=1e-6)
    factor = measure_local_contraction(p, rep, 0.5)
    assert factor == pytest.approx(1.0 - 0.5 * rep.lambda_min, rel=0.05)


def test_scalar_problem_end_to_end():
    p = make_double_well([2.0])
    trace = run_scheme(p, np.array([0.3]), SchemeConfig(eta=0.5))
    np.testing.assert_allclose(trace.points[-1], [1.0], atol=1e-6)
    cfg = FlowConfig(t_end=30.0, record_stride=0.5)
    flow = integrate_flow(p, np.array([0.3]), cfg)
    assert flow.f_values[-1] == pytest.approx(-0.25, abs=1e-6)
    assert abs(flow.x_states[-1, 0] - 1.0) <= 1e-3
