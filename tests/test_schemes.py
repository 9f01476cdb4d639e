"""Discrete iteration steps, full runs, and the per-step descent certificates."""

import dataclasses

import numpy as np
import pytest

from dcflow import Mode, SchemeConfig, descent_margins, make_double_well, run_scheme
from dcflow.core import INVERSION_TOL, DcProblem, dual_euler, dual_map, invert_grad_g
from dcflow.schemes import Termination, damped_dca_step, gradient_identity_margin
from helpers import primal_dual_sup_gap

RNG = np.random.default_rng(20240503)


def bisect_root(fun, lo, hi, tol=1e-13):
    """Plain bisection; the independent oracle for scalar step equations."""
    flo = fun(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = fun(mid)
        if fm == 0.0 or hi - lo < tol:
            return mid
        if (fm < 0.0) == (flo < 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# single steps


def test_dca_step_linear_map(quad_canonical):
    # x+ = A^{-1} B x = x/2
    x1 = damped_dca_step(quad_canonical, np.array([2.0, 2.0]), SchemeConfig())
    np.testing.assert_allclose(x1, [1.0, 1.0], atol=1e-10)


def test_dca_step_fixed_at_critical_point(dw_unit):
    x_star = np.array([1.0, 1.0])
    np.testing.assert_allclose(
        damped_dca_step(dw_unit, x_star, SchemeConfig()), x_star, atol=1e-9
    )


def test_dca_step_scalar_against_bisection():
    # One step from 2 solves x^3 + x = (q+1)*2 = 4.
    p = make_double_well([1.0])
    root = bisect_root(lambda c: c**3 + c - 4.0, 1.0, 2.0)
    x1 = damped_dca_step(p, np.array([2.0]), SchemeConfig())
    assert x1[0] == pytest.approx(root, abs=1e-9)
    assert root == pytest.approx(1.3788, abs=1e-4)


def test_damped_step_reduces_to_classical_at_eta_one(dw_unit):
    cfg = SchemeConfig(eta=1.0)
    for x in dw_unit.region.sample(RNG, 10):
        classical = invert_grad_g(dw_unit, dw_unit.h_grad(x), x)
        np.testing.assert_allclose(damped_dca_step(dw_unit, x, cfg), classical, atol=1e-9)


def test_damped_step_linear_case(quad_canonical):
    cfg = SchemeConfig(eta=0.5)
    # Target y = 0.5*(4,4) + 0.5*(2,2) = (3,3); solve 2x = y.
    x1 = damped_dca_step(quad_canonical, np.array([2.0, 2.0]), cfg)
    np.testing.assert_allclose(x1, [1.5, 1.5], atol=1e-10)


@pytest.mark.parametrize("eta", [0.1, 0.5, 1.0])
def test_damped_step_fixed_at_critical_point(dw_unit, eta):
    cfg = SchemeConfig(eta=eta)
    x_star = np.array([-1.0, 1.0])
    np.testing.assert_allclose(damped_dca_step(dw_unit, x_star, cfg), x_star, atol=1e-9)


def test_dual_euler_fixed_point_unchanged(dw_unit):
    y_star = np.asarray(dw_unit.g_grad(np.array([1.0, 1.0])))
    _, grad_h = dual_map(dw_unit, y_star, np.array([1.0, 1.0]))
    out = dual_euler(y_star, grad_h, 0.5)
    np.testing.assert_allclose(out, y_star, atol=1e-9)


def test_dual_euler_linear_decay(quad_canonical):
    # y+ = (1 - eta/2) y
    y = np.array([2.0, 2.0])
    _, grad_h = dual_map(quad_canonical, y, np.array([1.0, 1.0]))
    out = dual_euler(y, grad_h, 1.0)
    np.testing.assert_allclose(out, [1.0, 1.0], atol=1e-10)


def test_dual_euler_consistent_with_primal_step(dw_unit):
    cfg = SchemeConfig(eta=0.3)
    for x in dw_unit.region.sample(RNG, 10):
        lhs = np.asarray(dw_unit.g_grad(damped_dca_step(dw_unit, x, cfg)))
        y = np.asarray(dw_unit.g_grad(x))
        _, grad_h = dual_map(dw_unit, y, x)
        rhs = dual_euler(y, grad_h, cfg.eta)
        assert np.linalg.norm(lhs - rhs) <= 10.0 * INVERSION_TOL


# ---------------------------------------------------------------------------
# full runs


def test_run_converges_to_minimum(dw_unit):
    trace = run_scheme(dw_unit, np.array([0.5, 0.7]), SchemeConfig(eta=0.5))
    assert trace.termination is Termination.GRAD_TOL
    np.testing.assert_allclose(trace.points[-1], [1.0, 1.0], atol=1e-6)
    assert np.all(np.diff(trace.f_values) <= 1e-12)
    assert trace.grad_norms[-1] <= 1e-8


def test_run_from_critical_point_stops_immediately(dw_unit):
    trace = run_scheme(dw_unit, np.array([1.0, 1.0]), SchemeConfig(eta=0.5))
    assert trace.termination is Termination.GRAD_TOL
    assert trace.n_points == 1
    assert trace.bregman_steps.size == 0


def test_run_quadratic_geometric_value_decay(quad_canonical):
    # Iterates contract by (1 - eta/2), values by its square.
    eta = 0.5
    trace = run_scheme(
        quad_canonical, np.array([1.0, -1.0]), SchemeConfig(eta=eta, max_iter=30)
    )
    ratios = trace.f_values[1:15] / trace.f_values[0:14]
    np.testing.assert_allclose(ratios, (1.0 - eta / 2.0) ** 2, rtol=1e-8)


def test_trace_shapes_consistent(dw_unit):
    trace = run_scheme(dw_unit, np.array([0.4, -0.6]), SchemeConfig(eta=0.7))
    k = trace.n_points
    assert trace.points.shape == (k, 2)
    assert trace.f_values.shape == (k,)
    assert trace.grad_norms.shape == (k,)
    assert trace.bregman_steps.shape == (k - 1,)
    assert trace.step_norms.shape == (k - 1,)
    assert trace.max_point_norm >= np.linalg.norm(trace.points[0])


@pytest.mark.parametrize("eta", [0.1, 0.3, 0.5, 0.9])
def test_descent_certificates_hold(dw_unit, eta):
    trace = run_scheme(dw_unit, np.array([1.8, -1.6]), SchemeConfig(eta=eta))
    relaxed, strong = descent_margins(dw_unit, trace)
    assert relaxed >= 0.0
    assert strong >= 0.0


def test_strong_descent_takes_mu_from_the_span_box(dw_unit):
    # From (1.8, -1.6) every |x_i| stays at least 1, so Hess g >= 3 + 1 on
    # the box the iterates span, four times q = 1, the bound on the region.
    trace = run_scheme(dw_unit, np.array([1.8, -1.6]), SchemeConfig(eta=0.5))
    boxes = []

    def scaled(factor):
        def constants(box):
            boxes.append(box)
            bc = dw_unit.box_constants(box)
            return dataclasses.replace(bc, metric=(factor * bc.metric[0], bc.metric[1]))

        return dataclasses.replace(dw_unit, box_constants=constants)

    assert descent_margins(scaled(1.0), trace) == descent_margins(dw_unit, trace)
    np.testing.assert_array_equal(boxes[0].lower, trace.points.min(axis=0))
    np.testing.assert_array_equal(boxes[0].upper, trace.points.max(axis=0))
    assert dw_unit.box_constants(boxes[0]).metric[0] == pytest.approx(4.0, abs=1e-6)
    # mu is read from the box constants: four times too large breaks the
    # strong inequality.
    assert descent_margins(scaled(4.0), trace)[1] < 0.0
    with pytest.raises(ValueError, match="no closed-form box constants"):
        descent_margins(dataclasses.replace(dw_unit, box_constants=None), trace)


def test_descent_at_eta_one_is_plain_monotonicity(dw_unit):
    trace = run_scheme(dw_unit, np.array([1.8, -1.6]), SchemeConfig(eta=1.0))
    relaxed, strong = descent_margins(dw_unit, trace)
    assert relaxed >= 0.0
    assert strong >= 0.0
    assert np.all(np.diff(trace.f_values) <= 1e-12)


@pytest.mark.parametrize("eta", [0.25, 0.75])
def test_gradient_difference_identity(dw_unit, eta):
    cfg = SchemeConfig(eta=eta)
    trace = run_scheme(dw_unit, np.array([0.3, 1.7]), cfg)
    assert gradient_identity_margin(dw_unit, trace) <= 10.0 * INVERSION_TOL


def test_step_norms_vanish_along_converging_run(dw_unit):
    trace = run_scheme(dw_unit, np.array([0.6, 0.4]), SchemeConfig(eta=0.5))
    assert trace.step_norms[-1] <= 1e-7
    assert trace.step_norms[-1] < trace.step_norms[0]


@pytest.mark.parametrize("eta", [0.1, 0.5, 1.0])
@pytest.mark.parametrize("family", ["quad", "dw"])
def test_primal_dual_equivalence_smoke(family, eta, quad_canonical, dw_unit):
    p = quad_canonical if family == "quad" else dw_unit
    for x0 in p.region.sample(RNG, 5):
        gap = primal_dual_sup_gap(p, x0, SchemeConfig(eta=eta), 20)
        assert gap <= 100.0 * INVERSION_TOL


def test_dual_mode_trace_matches_primal(dw_unit):
    cfg = SchemeConfig(eta=0.5, max_iter=40, stop_grad_tol=1e-300)
    tp = run_scheme(dw_unit, np.array([0.5, 0.7]), cfg, Mode.PRIMAL)
    td = run_scheme(dw_unit, np.array([0.5, 0.7]), cfg, Mode.DUAL)
    assert tp.n_points == td.n_points
    np.testing.assert_allclose(tp.points, td.points, atol=1e-8)


def test_divergence_guard_flags_broken_oracle():
    # h here is concave, so the ascent it triggers must be flagged, not logged.
    p = DcProblem(
        dim=1,
        g_value=lambda x: float(0.5 * x[0] ** 2),
        h_value=lambda x: float(-(x[0] ** 2)),
        g_grad=lambda x: x.copy(),
        h_grad=lambda x: -2.0 * x,
        g_hess=lambda x: np.eye(1),
        h_hess=lambda x: -2.0 * np.eye(1),
    )
    trace = run_scheme(p, np.array([1.0]), SchemeConfig(eta=1.0, max_iter=50))
    assert trace.termination is Termination.NUMERIC_ERROR
    assert np.all(np.diff(trace.f_values) <= 1e-6)


def test_divergence_guard_ignores_roundoff_of_large_parts(dw_unit):
    # The same objective from parts near 1e11: f keeps its value, but each
    # evaluation of g - h, and each Bregman step, now rounds at about 1e-5,
    # above any absolute slack.
    offset = 1e11
    big = dataclasses.replace(
        dw_unit,
        g_value=lambda x: dw_unit.g_value(x) + offset,
        h_value=lambda x: dw_unit.h_value(x) + offset,
    )
    for eta in (0.5, 1.0):
        cfg = SchemeConfig(eta=eta)
        x0 = np.array([1.6, -0.4])
        trace = run_scheme(big, x0, cfg)
        assert trace.termination is run_scheme(dw_unit, x0, cfg).termination
        relaxed, strong = descent_margins(big, trace)
        assert relaxed >= 0.0 and strong >= 0.0


def test_scheme_config_validation():
    with pytest.raises(ValueError):
        SchemeConfig(eta=0.0)
    with pytest.raises(ValueError):
        SchemeConfig(eta=1.5)
    with pytest.raises(ValueError):
        SchemeConfig(max_iter=0)
    with pytest.raises(ValueError):
        SchemeConfig(stop_grad_tol=0.0)
