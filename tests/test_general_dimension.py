"""Nothing in the pipeline may assume dimension two or diagonal matrices,
and no stacked Hessian consumer may hold more than a few row blocks of
Hessians at once."""

import tracemalloc

import numpy as np
import pytest

from dcflow import (
    Box,
    FlowConfig,
    SchemeConfig,
    closed_form_linear_flow,
    descent_margins,
    integrate_flow,
    make_double_well,
    make_quadratic,
    run_scheme,
)
from dcflow import core
from dcflow.analysis import (
    checked_box_constants,
    damped_pl_report,
    flow_rate_check,
    linearize_at,
    measure_local_contraction,
)
from helpers import dense_hessians, primal_dual_sup_gap

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
    w = np.linalg.eigvalsh(p.g_hess(x0))
    assert constants.metric == (float(w[0]), float(w[-1]))
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


def _peak_bytes(fun, *args) -> int:
    """Peak of the memory that numpy and Python allocate during ``fun(*args)``,
    beyond what was held before it."""
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        fun(*args)
        return tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()


def test_box_sweep_memory_is_bounded_in_the_dimension():
    # 401 probe points of 400-D Hessians would take 513 MB as one stack.
    # The double well answers Diagonals; its dense form sweeps row blocks,
    # and Hess f takes row slices beside the block's two answers, so no third
    # block is formed.  A stacked sweep adds a local box's 201 points.
    n = 400
    p = make_double_well(np.linspace(1.0, 4.0, n))
    box = Box(np.full(n, 0.8), np.full(n, 1.3))
    local = Box(np.full(n, 0.9), np.full(n, 1.1))
    for q in (p, dense_hessians(p)):
        assert _peak_bytes(checked_box_constants, q, box) < 3 * core._HESS_BLOCK_BYTES
        stacked = _peak_bytes(checked_box_constants, q, [box, local], [400, 200])
        assert stacked < 3 * core._HESS_BLOCK_BYTES


def test_stacked_velocity_memory_is_bounded_in_the_dimension():
    # 800 Hessians of 400-D points would take 1.02 GB as one stack.
    n = 400
    p = make_double_well(np.linspace(1.0, 4.0, n))
    x = RNG.uniform(-2.0, 2.0, (800, n))
    for q in (p, dense_hessians(p)):
        assert _peak_bytes(core.flow_velocity, q, x) < 4 * core._HESS_BLOCK_BYTES
