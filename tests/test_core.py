"""Oracle values, derivative consistency and the gradient inversion kernel."""

import dataclasses

import numpy as np
import pytest

import dcflow
from dcflow import Box, make_double_well, make_quadratic, make_shifted_decomposition
from dcflow import core
from dcflow.core import (
    INVERSION_TOL,
    ConvergenceError,
    DcProblem,
    NumericError,
    central_diff_jacobian,
    damped_target,
    invert_grad_g,
)
from helpers import central_diff_grad, newton_only

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
    # Oracles take stacks; a start point stays one vector.
    assert dw_unit.f_value(np.zeros((3, 2))).shape == (3,)
    with pytest.raises(ValueError):
        dw_unit.check_point(np.zeros((1, 2)))


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


@pytest.mark.parametrize("family", ["quad", "dw", "shifted"])
def test_stacked_bregman_equals_per_row_calls(family, quad_canonical, dw_unit):
    p = {
        "quad": quad_canonical,
        "dw": dw_unit,
        "shifted": make_shifted_decomposition(dw_unit, [0.7, 0.0]),
    }[family]
    z, x = p.region.sample(RNG, 7), p.region.sample(RNG, 7)
    stacked = p.bregman_g(z, x)
    rows = np.array([p.bregman_g(zi, xi) for zi, xi in zip(z, x)])
    # A pair rounds as the formula written with @ does.
    by_matmul = np.array(
        [float(p.g_value(zi) - p.g_value(xi) - p.g_grad(xi) @ (zi - xi)) for zi, xi in zip(z, x)]
    )
    assert stacked.shape == (7,) and stacked.dtype == float
    assert stacked.tobytes() == rows.tobytes() == by_matmul.tobytes()
    assert p.bregman_g(z[:0], x[:0]).shape == (0,)
    with pytest.raises(ValueError):
        p.bregman_g(z, x[:3])


def test_central_diff_jacobian_calls_fun_once_and_equals_column_loop(dw_aniso):
    shapes = []

    def field(xs):
        shapes.append(xs.shape)
        return core.flow_velocity(dw_aniso, xs)[1]

    x, h = np.array([0.7, -1.3]), 1e-4
    jac = central_diff_jacobian(field, x, h)
    assert shapes == [(4, 2)]
    cols = []
    for j in range(x.size):
        e = np.zeros(x.size)
        e[j] = h
        cols.append((field(x + e) - field(x - e)) / (2.0 * h))
    reference = np.column_stack(cols)
    assert jac.shape == reference.shape and jac.tobytes() == reference.tobytes()


# ---------------------------------------------------------------------------
# gradient inversion


def _both_starts(p):
    """``p`` from its closed-form start, and by Newton alone from the given
    warm start, as for a hand-built problem."""
    return p, newton_only(p)


def test_invert_diagonal_solve():
    for p in _both_starts(make_quadratic(2.0 * np.eye(2), np.eye(2))):
        x = invert_grad_g(p, np.array([2.0, 4.0]), np.zeros(2))
        np.testing.assert_allclose(x, [1.0, 2.0], atol=1e-12)


@pytest.mark.parametrize("family", ["quad", "dw"])
def test_invert_round_trip(family, quad_canonical, dw_unit):
    p = quad_canonical if family == "quad" else dw_unit
    mu = p.box_constants(p.region).metric[0]
    for x0 in p.region.sample(RNG, 20):
        y = np.asarray(p.g_grad(x0), dtype=float)
        for start in _both_starts(p):
            x = invert_grad_g(start, y, np.zeros(p.dim))
            assert np.linalg.norm(x - x0) <= 10.0 * INVERSION_TOL / mu


def test_invert_scalar_cubic():
    # grad g is x^3 + x for q = 1; 1^3 + 1 = 2 puts the preimage of 2 at 1.
    for p in _both_starts(make_double_well([1.0])):
        x = invert_grad_g(p, np.array([2.0]), np.array([0.0]))
        assert x[0] == pytest.approx(1.0, abs=1e-10)


def test_invert_rejects_wrong_length_target(dw_unit):
    with pytest.raises(ValueError):
        invert_grad_g(dw_unit, np.array([1.0, 2.0, 3.0]), np.zeros(2))


def test_invert_reports_best_residual_on_failure(dw_unit, monkeypatch):
    # A point and its one-row stack run the same loop and fail alike; only
    # the stack's message names the row.
    monkeypatch.setattr(core, "_MAX_NEWTON_ITER", 1)
    monkeypatch.setattr(core, "INVERSION_TOL", 1e-15)
    y, warm = np.array([5.0, -3.0]), np.array([1.9, 1.9])
    errors = []
    for target, start in ((y, warm), (y[None], warm[None])):
        with pytest.raises(ConvergenceError) as err:
            invert_grad_g(newton_only(dw_unit), target, start)
        assert err.value.best_residual > 0.0
        assert err.value.iterations == 1
        assert err.value.row == 0
        errors.append(err.value)
    point, stack = errors
    assert stack.best_residual == point.best_residual
    assert stack.iterations == point.iterations
    assert str(point).startswith("gradient inversion did not reach tol")
    assert str(stack).startswith("gradient inversion of row 0 of 1 did not reach tol")


def test_stacked_invert_failure_names_its_worst_row(dw_unit, monkeypatch):
    # With no Newton step allowed only a row warm-started at its answer
    # converges; the error names the failing row with the largest residual.
    monkeypatch.setattr(core, "_MAX_NEWTON_ITER", 0)
    x = np.array([[0.5, 0.5], [1.0, 1.0], [1.5, -1.0], [0.2, 0.1]])
    warm = x + np.array([[0.0, 0.0], [0.01, 0.0], [0.3, 0.0], [0.02, 0.0]])
    y = dw_unit.g_grad(x)
    with pytest.raises(ConvergenceError) as err:
        invert_grad_g(newton_only(dw_unit), y, warm)
    assert err.value.row == 2
    assert err.value.iterations == 0
    assert err.value.best_residual == np.linalg.norm(dw_unit.g_grad(warm[2]) - y[2])
    assert str(err.value).startswith("gradient inversion of row 2 of 4 did not reach tol")


def test_stacked_invert_unattainable_tol_is_a_convergence_error(dw_unit, monkeypatch):
    monkeypatch.setattr(core, "INVERSION_TOL", 1e-17)
    y = np.array([[5.0, -3.0], [0.5, 0.2]])
    with pytest.raises(ConvergenceError) as err:
        invert_grad_g(dw_unit, y, np.zeros((2, 2)))
    assert 0.0 < err.value.best_residual <= 1e-14


def _tilted_quartic(c: float) -> DcProblem:
    """g = x^4/4 + x^2/2 - c x in one dimension, h = 0: grad g(0) = -c, so
    the preimage of y = 0 is the real root of x^3 + x = c.  Each oracle takes
    a point or a stack."""
    return DcProblem(
        dim=1,
        g_value=lambda x: (x**4 / 4 + x**2 / 2 - c * x)[..., 0],
        h_value=lambda x: np.zeros(x.shape[:-1]),
        g_grad=lambda x: x**3 + x - c,
        h_grad=lambda x: np.zeros_like(x),
        g_hess=lambda x: (3.0 * x**2 + 1.0)[..., None],
        h_hess=lambda x: np.zeros(x.shape + (1,)),
    )


def test_invert_zero_target_with_nonzero_preimage():
    # At y = 0 the relative rule asks for a zero residual; the roundoff floor
    # of evaluating x^3 + x - c at |x| ~ 1.3 is what the iteration can meet.
    p = _tilted_quartic(3.7)
    x = invert_grad_g(p, np.zeros(1), np.zeros(1))
    assert x[0] > 1.3
    assert abs(p.g_grad(x)[0]) <= 1e-13


def test_invert_unattainable_tol_is_a_convergence_error(dw_unit, monkeypatch):
    # 1e-17 lies below the roundoff of grad g near |y| = 5: the residual
    # stops decreasing, which is a convergence failure, not a numeric one.
    monkeypatch.setattr(core, "INVERSION_TOL", 1e-17)
    with pytest.raises(ConvergenceError) as err:
        invert_grad_g(dw_unit, np.array([5.0, -3.0]), np.zeros(2))
    assert 0.0 < err.value.best_residual <= 1e-14


def test_invert_stops_relative_to_small_targets(dw_unit):
    # On the Newton path an absolute 1e-10 stops one step early here, at
    # 8.5e-5 relative.
    y = np.array([3e-7, -2e-7])
    for p in _both_starts(dw_unit):
        x = invert_grad_g(p, y, np.array([0.05, 0.03]))
        assert np.linalg.norm(dw_unit.g_grad(x) - y) <= INVERSION_TOL * np.linalg.norm(y)


@pytest.mark.parametrize("dim", [2, 12])
def test_invert_large_targets_stop_at_their_roundoff(dim):
    # Beyond |y| ~ 1e5 an absolute residual of INVERSION_TOL lies below the
    # roundoff of grad g itself, so the rule stops at that roundoff, never
    # looser than INVERSION_TOL relative to the target.
    rng = np.random.default_rng(20240517 + dim)
    p = make_double_well(rng.uniform(0.1, 5.0, dim))
    for scale in (1e5, 1e6, 1e7, 1e8, 1e9):
        for _ in range(8):
            d = rng.standard_normal(dim)
            y = scale * d / np.linalg.norm(d)
            closed = p.g_conj_grad(y)
            for start, warm in ((p, np.zeros(dim)), (newton_only(p), 1.001 * closed)):
                x = invert_grad_g(start, y, warm)
                assert np.linalg.norm(p.g_grad(x) - y) <= 1e-14 * scale


def test_invert_makes_no_value_calls(dw_aniso):
    calls = {"g_value": 0, "g_grad": 0, "g_hess": 0}

    def counted(name):
        fn = getattr(dw_aniso, name)

        def wrapper(x):
            calls[name] += 1
            return fn(x)

        return wrapper

    p = dataclasses.replace(dw_aniso, **{name: counted(name) for name in calls})
    invert_grad_g(newton_only(p), np.array([4.0, -7.5]), np.array([0.3, 0.2]))
    assert calls["g_value"] == 0
    # One gradient per trial point plus the warm start, one Hessian per step.
    assert calls["g_grad"] >= calls["g_hess"] + 1 >= 2
    # The closed form meets the stopping rule itself: the residual there is
    # the one gradient, and no Newton step needs a Hessian.
    for name in calls:
        calls[name] = 0
    invert_grad_g(p, np.array([4.0, -7.5]), np.array([0.3, 0.2]))
    assert calls == {"g_value": 0, "g_grad": 1, "g_hess": 0}


# ---------------------------------------------------------------------------
# closed-form pullback


def test_invert_without_closed_form_is_bit_identical_to_plain_newton(dw_aniso):
    # Newton's iterates from the warm start, pinned from the loop as it ran
    # before problems had a closed-form pullback.
    p = newton_only(dw_aniso)
    x = invert_grad_g(p, np.array([4.0, -7.5]), np.array([0.3, 0.2]))
    assert [v.hex() for v in x] == ["0x1.60f8d20ee39ebp+0", "-0x1.4fb16cdd5920fp+0"]
    y = np.array([[4.0, -7.5], [0.3, 0.02], [-2.5, 9.0]])
    warm = np.array([[0.3, 0.2], [0.0, 0.0], [-1.0, 1.0]])
    assert [[v.hex() for v in row] for row in invert_grad_g(p, y, warm)] == [
        ["0x1.60f8d20ee39ebp+0", "-0x1.4fb16cdd5920fp+0"],
        ["0x1.1d199b0c33703p-2", "0x1.47ad8e43c92e3p-8"],
        ["-0x1.1d60110b7dcdfp+0", "0x1.76efbe6eb32d6p+0"],
    ]
    quad = newton_only(make_quadratic([[2.0, 0.5], [0.5, 1.0]], [[0.5, 0.0], [0.0, 0.25]]))
    x = invert_grad_g(quad, np.array([1.0, -3.0]), np.array([0.1, 0.1]))
    assert [v.hex() for v in x] == ["0x1.6db6db6db6db7p+0", "-0x1.db6db6db6db6dp+1"]


def test_newton_leaves_the_warm_start_unchanged(dw_aniso):
    # Newton iterates on a copy of its start: the caller's warm start keeps
    # its values, and a result that took a step shares no memory with it.
    p = newton_only(dw_aniso)
    y = dw_aniso.g_grad(np.array([[1.2, -0.8], [0.3, 1.5]]))
    for target in (y, y[0]):
        warm = np.full_like(target, 0.7)
        out = invert_grad_g(p, target, warm)
        np.testing.assert_array_equal(warm, 0.7)
        assert not np.shares_memory(out, warm)
        np.testing.assert_allclose(dw_aniso.g_grad(out), target, atol=1e-9)


_PREIMAGES = np.array([[1.2, -0.7], [0.3, 0.05], [-1.9, 1.4]])


def test_lying_closed_form_still_yields_verified_preimages(dw_aniso, monkeypatch):
    # A closed form that returns its target is wrong everywhere here; Newton
    # starts from it and its stopping rule still holds on every row.
    p = dataclasses.replace(dw_aniso, g_conj_grad=lambda y: np.array(y, dtype=float))
    y = dw_aniso.g_grad(_PREIMAGES)
    for target, expected in ((y, _PREIMAGES), (y[1], _PREIMAGES[1])):
        x = invert_grad_g(p, target, np.zeros_like(target))
        residual = np.atleast_2d(dw_aniso.g_grad(x) - target)
        goal = INVERSION_TOL * np.minimum(1.0, np.linalg.norm(np.atleast_2d(target), axis=1))
        assert np.all(np.linalg.norm(residual, axis=1) <= goal)
        np.testing.assert_allclose(x, expected, atol=1e-9)
    # With no Newton step allowed the lie cannot pass as a preimage.
    monkeypatch.setattr(core, "_MAX_NEWTON_ITER", 0)
    for target in (y, y[1]):
        with pytest.raises(ConvergenceError):
            invert_grad_g(p, target, np.zeros_like(target))


def test_nan_closed_form_is_a_numeric_error(dw_aniso):
    p = dataclasses.replace(dw_aniso, g_conj_grad=lambda y: np.full(np.shape(y), np.nan))
    y = dw_aniso.g_grad(_PREIMAGES)
    for target in (y, y[0]):
        with pytest.raises(NumericError, match="at the start point"):
            invert_grad_g(p, target, np.zeros_like(target))


def test_closed_form_of_the_wrong_shape_is_a_value_error(dw_aniso):
    # Broadcast into g_grad(x) - y, a (1, dim) or scalar answer would pass
    # as a point; it is refused before any residual is formed.
    y = dw_aniso.g_grad(_PREIMAGES)
    for wrong in (lambda y: np.atleast_2d(y)[:1], lambda y: np.zeros(1)):
        p = dataclasses.replace(dw_aniso, g_conj_grad=wrong)
        for target in (y, y[0]):
            with pytest.raises(ValueError, match="closed-form pullback of shape"):
                invert_grad_g(p, target, np.zeros_like(target))


def test_shift_keeps_only_a_built_in_closed_form(dw_aniso):
    d = np.array([0.5, 2.0])
    x = np.array([[1.2, -0.7], [0.0, 3.0]])
    for p in (dw_aniso, make_quadratic([[2.0, 0.5], [0.5, 1.0]], np.eye(2) / 4)):
        shifted = make_shifted_decomposition(p, d)
        np.testing.assert_allclose(shifted.g_conj_grad(shifted.g_grad(x)), x, atol=1e-14)
        assert make_shifted_decomposition(newton_only(p), d).g_conj_grad is None
        hand_built = dataclasses.replace(p, g_conj_grad=lambda y: np.array(y, dtype=float))
        assert make_shifted_decomposition(hand_built, d).g_conj_grad is None


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
# the full dual step y -> grad h(pullback(y)), the damped target at eta = 1


def test_full_dual_step_linear_case():
    p = make_quadratic(2.0 * np.eye(2), np.eye(2))
    # T(y) = B A^{-1} y = y/2
    x = invert_grad_g(p, np.array([2.0, 2.0]), np.zeros(2))
    grad_h = p.h_grad(x)
    np.testing.assert_allclose(x, [1.0, 1.0], atol=1e-10)
    np.testing.assert_allclose(grad_h, [1.0, 1.0], atol=1e-10)


def test_full_dual_step_fixed_point_at_critical_point(dw_unit):
    y_star = np.asarray(dw_unit.g_grad(np.array([1.0, 1.0])))
    np.testing.assert_allclose(y_star, [2.0, 2.0], atol=1e-14)
    x = invert_grad_g(dw_unit, y_star, np.array([0.9, 0.9]))
    grad_h = dw_unit.h_grad(x)
    np.testing.assert_allclose(x, [1.0, 1.0], atol=1e-9)
    np.testing.assert_allclose(grad_h, y_star, atol=1e-9)


def test_damped_target_is_grad_h_at_eta_one_and_answers_row_by_row():
    y, grad_h = np.random.default_rng(3).standard_normal((2, 5, 3))
    assert damped_target(y, grad_h, 1.0).tobytes() == grad_h.tobytes()
    for eta in (0.1, 0.5, 0.9):
        out = damped_target(y, grad_h, eta)
        for i in range(len(y)):
            assert damped_target(y[i], grad_h[i], eta).tobytes() == out[i].tobytes()


def test_box_validation():
    with pytest.raises(ValueError):
        Box(np.array([1.0]), np.array([0.0]))
    box = Box(np.array([-1.0, 0.0]), np.array([1.0, 2.0]))
    assert box.contains([0.0, 1.0])
    assert not box.contains([0.0, 3.0])



# ---------------------------------------------------------------------------
# stacked Hessian kernels: an exact diagonal path, LAPACK for everything else


def _count_lapack(monkeypatch) -> list[str]:
    """Names of the ``np.linalg.solve`` and ``np.linalg.eigvalsh`` calls made
    from now on, in order."""
    calls = []
    for name in ("solve", "eigvalsh"):

        def counted(*args, _real=getattr(np.linalg, name), _name=name):
            calls.append(_name)
            return _real(*args)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


def _diagonal_stack(m=3, n=4):
    d = RNG.choice([-1.0, 1.0], (m, n)) * RNG.uniform(0.1, 40.0, (m, n))
    return d[..., None] * np.eye(n), RNG.uniform(-5.0, 5.0, (m, n))


def test_kernels_answer_a_diagonal_stack_without_lapack(monkeypatch):
    hess, rhs = _diagonal_stack()
    solved, eigs = np.linalg.solve(hess, rhs[..., None])[..., 0], np.linalg.eigvalsh(hess)
    calls = _count_lapack(monkeypatch)
    assert core._solve_metric(hess, rhs).tobytes() == solved.tobytes()
    assert core._eigvalsh(hess).tobytes() == eigs.tobytes()
    # One matrix and its right-hand side take the same path.
    assert core._solve_metric(hess[1], rhs[1]).tobytes() == solved[1].tobytes()
    # A read-only broadcast view, as the quadratic family's Hessians are.
    view = np.broadcast_to(hess[0], hess.shape)
    assert core._solve_metric(view, rhs).tobytes() == (rhs / np.diag(hess[0])).tobytes()
    assert calls == []


# Edits that take a diagonal stack off the kernels' exact path, and whether
# LAPACK's solve still answers (a zero pivot raises LinAlgError).
_IRREGULAR = {
    "off-diagonal": (lambda h, b: h.__setitem__((1, 2, 0), 1e-300), True),
    "zero-diagonal": (lambda h, b: h.__setitem__((2, 3, 3), 0.0), False),
    "negative-zero-diagonal": (lambda h, b: h.__setitem__((2, 3, 3), -0.0), False),
    "inf-diagonal": (lambda h, b: h.__setitem__((0, 1, 1), np.inf), True),
    "nan-diagonal": (lambda h, b: h.__setitem__((0, 1, 1), np.nan), True),
    "negative-zero-rhs": (lambda h, b: b.__setitem__((0, 1), -0.0), True),
    "inf-rhs": (lambda h, b: b.__setitem__((1, 2), np.inf), True),
    "nan-rhs": (lambda h, b: b.__setitem__((1, 2), np.nan), True),
}


@pytest.mark.parametrize("edit", _IRREGULAR)
def test_solve_goes_to_lapack_off_the_exact_path(monkeypatch, edit):
    hess, rhs = _diagonal_stack()
    change, solvable = _IRREGULAR[edit]
    change(hess, rhs)
    expected = np.linalg.solve(hess, rhs[..., None])[..., 0] if solvable else None
    calls = _count_lapack(monkeypatch)
    if solvable:
        assert core._solve_metric(hess, rhs).tobytes() == expected.tobytes()
    else:
        with pytest.raises(np.linalg.LinAlgError):
            core._solve_metric(hess, rhs)
    assert calls == ["solve"]


@pytest.mark.parametrize(
    "edit", ["off-diagonal", "zero-diagonal", "inf-diagonal", "nan-diagonal", "1e141", "1e-141"]
)
def test_eigvalsh_goes_to_lapack_off_the_exact_path(monkeypatch, edit):
    hess, _ = _diagonal_stack()
    if edit in _IRREGULAR:
        _IRREGULAR[edit][0](hess, None)
    else:
        # Beyond the range where LAPACK leaves a matrix unscaled: a matrix
        # whose largest entry is huge, or whose entries are all tiny.
        hess[1] *= float(edit) / np.abs(hess[1]).max()
    # LAPACK refuses a non-finite matrix.
    raises = edit in ("inf-diagonal", "nan-diagonal")
    expected = None if raises else np.linalg.eigvalsh(hess)
    calls = _count_lapack(monkeypatch)
    if raises:
        with pytest.raises(np.linalg.LinAlgError):
            core._eigvalsh(hess)
    else:
        assert core._eigvalsh(hess).tobytes() == expected.tobytes()
    assert calls == ["eigvalsh"]


def test_zero_metric_diagonal_still_raises():
    # The exact path refuses a zero diagonal, so LAPACK raises as before.
    p = dataclasses.replace(
        make_double_well([1.0, 4.0]), g_hess=lambda x: np.zeros(np.shape(x) + (x.shape[-1],))
    )
    with pytest.raises(np.linalg.LinAlgError):
        core.flow_velocity(p, np.array([[1.5, -1.2], [0.3, 0.4]]))
    with pytest.raises(NumericError, match="singular Hessian"):
        invert_grad_g(newton_only(p), np.array([3.0, -1.0]), np.array([1.5, -1.2]))
