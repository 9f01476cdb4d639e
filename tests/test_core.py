"""Oracle values, derivative consistency and the gradient inversion kernel."""

import numpy as np
import pytest

from dcflow import (
    Box,
    ConvergenceError,
    DcProblem,
    NewtonConfig,
    NumericError,
    central_diff_grad,
    central_diff_jacobian,
    dual_map,
    invert_grad_g,
    make_double_well,
    make_quadratic,
)

RNG = np.random.default_rng(20240501)


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
        assert np.linalg.norm(p.g_grad(x) - central_diff_grad(p.g_value, x)) <= scale
        assert np.linalg.norm(p.h_grad(x) - central_diff_grad(p.h_value, x)) <= scale
        assert (
            np.linalg.norm(p.g_hess(x) - central_diff_jacobian(p.g_grad, x)) <= scale
        )
        assert (
            np.linalg.norm(p.h_hess(x) - central_diff_jacobian(p.h_grad, x)) <= scale
        )


@pytest.mark.parametrize("family", ["quad", "dw"])
def test_strong_convexity_witness(family, quad_canonical, dw_unit):
    p = quad_canonical if family == "quad" else dw_unit
    for x in p.region.sample(RNG, 100):
        assert np.linalg.eigvalsh(p.g_hess(x))[0] >= p.mu - 1e-8


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
    pts = p.region.sample(RNG, 40)
    for z, x in zip(pts[:20], pts[20:]):
        d = p.bregman_g(z, x)
        assert d >= 0.5 * p.mu * np.linalg.norm(z - x) ** 2 - 1e-10


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
    cfg = NewtonConfig()
    for x0 in p.region.sample(RNG, 20):
        y = np.asarray(p.g_grad(x0), dtype=float)
        x = invert_grad_g(p, y, np.zeros(p.dim), cfg)
        assert np.linalg.norm(x - x0) <= 10.0 * cfg.tol_grad / p.mu


def test_invert_scalar_cubic():
    # grad g is x^3 + x for q = 1; 1^3 + 1 = 2 puts the preimage of 2 at 1.
    p = make_double_well([1.0])
    x = invert_grad_g(p, np.array([2.0]), np.array([0.0]))
    assert x[0] == pytest.approx(1.0, abs=1e-10)


def test_invert_rejects_wrong_length_target(dw_unit):
    with pytest.raises(ValueError):
        invert_grad_g(dw_unit, np.array([1.0, 2.0, 3.0]), np.zeros(2))


def test_invert_reports_best_residual_on_failure(dw_unit):
    cfg = NewtonConfig(tol_grad=1e-15, max_iter=1)
    with pytest.raises(ConvergenceError) as err:
        invert_grad_g(dw_unit, np.array([5.0, -3.0]), np.array([1.9, 1.9]), cfg)
    assert err.value.best_residual > 0.0
    assert err.value.iterations == 1


def test_invert_raises_numeric_error_on_nan():
    p = DcProblem(
        dim=1,
        g_value=lambda x: float(x[0] ** 2 / 2),
        h_value=lambda x: 0.0,
        g_grad=lambda x: np.array([np.nan]),
        h_grad=lambda x: np.zeros(1),
        g_hess=lambda x: np.eye(1),
        h_hess=lambda x: np.zeros((1, 1)),
        mu=1.0,
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
    assert box.corners().shape == (4, 2)
