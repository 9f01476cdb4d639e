"""Oracle values, derivative consistency and the gradient inversion kernel."""

import dataclasses

import numpy as np
import pytest

import dcflow
from dcflow import Box, make_double_well, make_quadratic
from dcflow import core
from dcflow.core import (
    INVERSION_TOL,
    ConvergenceError,
    DcProblem,
    NumericError,
    central_diff_jacobian,
    dual_map,
    invert_grad_g,
)
from helpers import central_diff_grad

RNG = np.random.default_rng(20240501)


def test_public_api_is_the_contract_surface():
    assert sorted(dcflow.__all__) == [
        "Box",
        "DcError",
        "FlowConfig",
        "Mode",
        "SchemeConfig",
        "closed_form_linear_flow",
        "descent_margins",
        "dual_euler_interpolant",
        "integrate_flow",
        "make_double_well",
        "make_quadratic",
        "make_shifted_decomposition",
        "run_scheme",
    ]
    for name in dcflow.__all__:
        assert getattr(dcflow, name) is not None


# ---------------------------------------------------------------------------
# objective values and gradients


def test_double_well_value_at_minimum(dw_unit):
    # 1/4*(1+1) - 1/2*(1+1) by hand
    assert dw_unit.f_value([1.0, 1.0]) == pytest.approx(-0.5, abs=1e-14)


def test_double_well_value_at_origin(dw_unit):
    assert dw_unit.f_value([0.0, 0.0]) == 0.0


def test_quadratic_value_at_zero(quad_canonical):
    assert quad_canonical.f_value([0.0, 0.0]) == 0.0


def test_double_well_gradient_values(dw_unit):
    np.testing.assert_allclose(dw_unit.f_grad([1.0, 1.0]), [0.0, 0.0], atol=1e-14)
    np.testing.assert_allclose(dw_unit.f_grad([0.0, 0.0]), [0.0, 0.0], atol=1e-14)
    # x^3 - x at 0.5 is -0.375 componentwise
    np.testing.assert_allclose(
        dw_unit.f_grad([0.5, 0.5]), [-0.375, -0.375], atol=1e-14
    )


def test_dimension_mismatch_rejected(dw_unit):
    with pytest.raises(ValueError):
        dw_unit.f_value([1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        dw_unit.f_grad([1.0])
    with pytest.raises(ValueError):
        dw_unit.f_value([np.nan, 0.0])


# ---------------------------------------------------------------------------
# finite-difference consistency of all oracles


@pytest.mark.parametrize("family", ["quad", "dw"])
def test_gradients_match_finite_differences(family, quad_canonical, dw_unit):
    p = quad_canonical if family == "quad" else dw_unit
    for x in p.region.sample(RNG, 20):
        step = 1e-5 * max(1.0, float(np.linalg.norm(x)))
        scale = 10.0 * step**2 * max(1.0, float(np.linalg.norm(x)) ** 3)
        assert np.linalg.norm(p.g_grad(x) - central_diff_grad(p.g_value, x, step)) <= scale
        assert np.linalg.norm(p.h_grad(x) - central_diff_grad(p.h_value, x, step)) <= scale
        assert (
            np.linalg.norm(p.g_hess(x) - central_diff_jacobian(p.g_grad, x, step)) <= scale
        )
        assert (
            np.linalg.norm(p.h_hess(x) - central_diff_jacobian(p.h_grad, x, step)) <= scale
        )


@pytest.mark.parametrize("family", ["quad", "dw"])
def test_strong_convexity_witness(family, quad_canonical, dw_unit):
    p = quad_canonical if family == "quad" else dw_unit
    mu = p.box_constants(p.region).metric[0]
    for x in p.region.sample(RNG, 100):
        assert np.linalg.eigvalsh(p.g_hess(x))[0] >= mu - 1e-8


@pytest.mark.parametrize("family", ["quad", "dw"])
def test_h_hessian_positive_semidefinite(family, quad_canonical, dw_unit):
    p = quad_canonical if family == "quad" else dw_unit
    for x in p.region.sample(RNG, 50):
        assert np.linalg.eigvalsh(p.h_hess(x))[0] >= -1e-10


# ---------------------------------------------------------------------------
# Bregman divergence


def test_bregman_zero_at_equal_points(dw_unit):
    for x in dw_unit.region.sample(RNG, 5):
        assert dw_unit.bregman_g(x, x) == pytest.approx(0.0, abs=1e-14)


def test_bregman_quadratic_closed_form():
    # For g = x'x/2 the divergence is |z-x|^2/2; unit offset gives 0.5.
    p = make_quadratic(np.eye(2), np.zeros((2, 2)))
    assert p.bregman_g([1.0, 0.0], [0.0, 0.0]) == pytest.approx(0.5, abs=1e-14)


def test_bregman_double_well_from_origin(dw_unit):
    # g(1,0) - g(0,0) - <grad g(0), .> = 1/4 + 1/2
    assert dw_unit.bregman_g([1.0, 0.0], [0.0, 0.0]) == pytest.approx(0.75, abs=1e-14)


@pytest.mark.parametrize("family", ["quad", "dw"])
def test_bregman_strong_convexity_lower_bound(family, quad_canonical, dw_unit):
    p = quad_canonical if family == "quad" else dw_unit
    mu = p.box_constants(p.region).metric[0]
    pts = p.region.sample(RNG, 40)
    for z, x in zip(pts[:20], pts[20:]):
        d = p.bregman_g(z, x)
        assert d >= 0.5 * mu * np.linalg.norm(z - x) ** 2 - 1e-10


@pytest.mark.parametrize("family", ["quad", "dw"])
def test_bregman_second_order_expansion(family, quad_canonical, dw_unit):
    # D_g(x + t xi, x) / (t^2 xi' G(x) xi / 2) -> 1 linearly in t, with a
    # coefficient set by the third derivative of g along xi.
    p = quad_canonical if family == "quad" else dw_unit
    for x in p.region.sample(RNG, 10):
        xi = RNG.standard_normal(p.dim)
        xi /= np.linalg.norm(xi)
        quad = float(xi @ p.g_hess(x) @ xi)
        if family == "quad":
            third = 0.0
        else:
            third = float(abs(np.sum(6.0 * x * xi**3)))
        coeff = third / (3.0 * quad)
        for t in (1e-2, 1e-3):
            ratio = p.bregman_g(x + t * xi, x) / (0.5 * t * t * quad)
            assert abs(ratio - 1.0) <= 2.0 * coeff * t + 1e-7


# ---------------------------------------------------------------------------
# gradient inversion


def test_invert_diagonal_solve():
    p = make_quadratic(2.0 * np.eye(2), np.eye(2))
    x = invert_grad_g(p, np.array([2.0, 4.0]), np.zeros(2))
    np.testing.assert_allclose(x, [1.0, 2.0], atol=1e-12)


@pytest.mark.parametrize("family", ["quad", "dw"])
def test_invert_round_trip(family, quad_canonical, dw_unit):
    p = quad_canonical if family == "quad" else dw_unit
    mu = p.box_constants(p.region).metric[0]
    for x0 in p.region.sample(RNG, 20):
        y = np.asarray(p.g_grad(x0), dtype=float)
        x = invert_grad_g(p, y, np.zeros(p.dim))
        assert np.linalg.norm(x - x0) <= 10.0 * INVERSION_TOL / mu


def test_invert_scalar_cubic():
    # grad g is x^3 + x for q = 1; 1^3 + 1 = 2 puts the preimage of 2 at 1.
    p = make_double_well([1.0])
    x = invert_grad_g(p, np.array([2.0]), np.array([0.0]))
    assert x[0] == pytest.approx(1.0, abs=1e-10)


def test_invert_rejects_wrong_length_target(dw_unit):
    with pytest.raises(ValueError):
        invert_grad_g(dw_unit, np.array([1.0, 2.0, 3.0]), np.zeros(2))


def test_invert_reports_best_residual_on_failure(dw_unit, monkeypatch):
    monkeypatch.setattr(core, "_MAX_NEWTON_ITER", 1)
    with pytest.raises(ConvergenceError) as err:
        invert_grad_g(dw_unit, np.array([5.0, -3.0]), np.array([1.9, 1.9]), tol=1e-15)
    assert err.value.best_residual > 0.0
    assert err.value.iterations == 1


def _tilted_quartic(c: float) -> DcProblem:
    """g = x^4/4 + x^2/2 - c x in one dimension, h = 0: grad g(0) = -c, so
    the preimage of y = 0 is the real root of x^3 + x = c."""
    return DcProblem(
        dim=1,
        g_value=lambda x: float(x[0] ** 4 / 4 + x[0] ** 2 / 2 - c * x[0]),
        h_value=lambda x: 0.0,
        g_grad=lambda x: np.array([x[0] ** 3 + x[0] - c]),
        h_grad=lambda x: np.zeros(1),
        g_hess=lambda x: np.array([[3.0 * x[0] ** 2 + 1.0]]),
        h_hess=lambda x: np.zeros((1, 1)),
    )


def test_invert_zero_target_with_nonzero_preimage():
    # At y = 0 the relative rule asks for a zero residual; the roundoff floor
    # of evaluating x^3 + x - c at |x| ~ 1.3 is what the iteration can meet.
    p = _tilted_quartic(3.7)
    x = invert_grad_g(p, np.zeros(1), np.zeros(1))
    assert x[0] > 1.3
    assert abs(p.g_grad(x)[0]) <= 1e-13


def test_invert_unattainable_tol_is_a_convergence_error(dw_unit):
    # 1e-17 lies below the roundoff of grad g near |y| = 5: the residual
    # stops decreasing, which is a convergence failure, not a numeric one.
    with pytest.raises(ConvergenceError) as err:
        invert_grad_g(dw_unit, np.array([5.0, -3.0]), np.zeros(2), tol=1e-17)
    assert 0.0 < err.value.best_residual <= 1e-14


def test_invert_stops_relative_to_small_targets(dw_unit):
    # An absolute 1e-10 stops one step early here, at 8.5e-5 relative.
    y = np.array([3e-7, -2e-7])
    x = invert_grad_g(dw_unit, y, np.array([0.05, 0.03]))
    assert np.linalg.norm(dw_unit.g_grad(x) - y) <= INVERSION_TOL * np.linalg.norm(y)


def test_invert_makes_no_value_calls(dw_aniso):
    calls = {"g_value": 0, "g_grad": 0, "g_hess": 0}

    def counted(name):
        fn = getattr(dw_aniso, name)

        def wrapper(x):
            calls[name] += 1
            return fn(x)

        return wrapper

    p = dataclasses.replace(dw_aniso, **{name: counted(name) for name in calls})
    invert_grad_g(p, np.array([4.0, -7.5]), np.array([0.3, 0.2]))
    assert calls["g_value"] == 0
    # One gradient per trial point plus the warm start, one Hessian per step.
    assert calls["g_grad"] >= calls["g_hess"] + 1 >= 2


def test_invert_raises_numeric_error_on_nan():
    p = DcProblem(
        dim=1,
        g_value=lambda x: float(x[0] ** 2 / 2),
        h_value=lambda x: 0.0,
        g_grad=lambda x: np.array([np.nan]),
        h_grad=lambda x: np.zeros(1),
        g_hess=lambda x: np.eye(1),
        h_hess=lambda x: np.zeros((1, 1)),
    )
    with pytest.raises(NumericError):
        invert_grad_g(p, np.array([1.0]), np.array([0.0]))


# ---------------------------------------------------------------------------
# dual map


def test_dual_map_linear_case():
    p = make_quadratic(2.0 * np.eye(2), np.eye(2))
    # T(y) = B A^{-1} y = y/2
    x, grad_h = dual_map(p, np.array([2.0, 2.0]), np.zeros(2))
    np.testing.assert_allclose(x, [1.0, 1.0], atol=1e-10)
    np.testing.assert_allclose(grad_h, [1.0, 1.0], atol=1e-10)


def test_dual_map_fixed_point_at_critical_point(dw_unit):
    y_star = np.asarray(dw_unit.g_grad(np.array([1.0, 1.0])))
    np.testing.assert_allclose(y_star, [2.0, 2.0], atol=1e-14)
    x, grad_h = dual_map(dw_unit, y_star, np.array([0.9, 0.9]))
    np.testing.assert_allclose(x, [1.0, 1.0], atol=1e-9)
    np.testing.assert_allclose(grad_h, y_star, atol=1e-9)


def test_box_validation():
    with pytest.raises(ValueError):
        Box(np.array([1.0]), np.array([0.0]))
    box = Box(np.array([-1.0, 0.0]), np.array([1.0, 2.0]))
    assert box.contains([0.0, 1.0])
    assert not box.contains([0.0, 3.0])
