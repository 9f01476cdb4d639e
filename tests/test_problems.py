"""Built-in instance constructors: certified constants and invariance properties."""

import numpy as np
import pytest

from dcflow import (
    FlowConfig,
    SchemeConfig,
    integrate_flow,
    make_double_well,
    make_quadratic,
    make_shifted_decomposition,
    run_scheme,
)
from dcflow.analysis import linearize_at

RNG = np.random.default_rng(20240502)


def test_quadratic_canonical_constants(quad_canonical):
    p = quad_canonical
    mu, lg = p.box_constants(p.region).metric
    assert mu == pytest.approx(2.0)
    assert lg == 2.0
    assert p.f_star == 0.0
    assert p.box_constants(p.region).sigma == pytest.approx(0.5, abs=1e-12)
    np.testing.assert_allclose(p.minimizer, [0.0, 0.0])
    # f = |x|^2 / 2
    assert p.f_value([1.0, 1.0]) == pytest.approx(1.0, abs=1e-14)


def test_quadratic_b_zero_converges_in_one_step():
    p = make_quadratic(2.0 * np.eye(2), np.zeros((2, 2)))
    x1 = run_scheme(p, np.array([1.7, -0.3]), SchemeConfig(max_iter=1)).points[1]
    np.testing.assert_allclose(x1, [0.0, 0.0], atol=1e-10)


def test_quadratic_diagonal_contraction():
    p = make_quadratic(np.diag([1.0, 4.0]), np.diag([0.5, 2.0]))
    # A^{-1} B = diag(0.5, 0.5)
    x1 = run_scheme(p, np.array([2.0, 2.0]), SchemeConfig(max_iter=1)).points[1]
    np.testing.assert_allclose(x1, [1.0, 1.0], atol=1e-10)


def test_quadratic_degenerate_split_has_no_pl_constant():
    # b == a collapses the objective to zero; there is no usable constant.
    p = make_quadratic(2.0 * np.eye(2), 2.0 * np.eye(2))
    assert p.box_constants(p.region).sigma == 0.0
    assert p.f_value([0.3, -0.9]) == pytest.approx(0.0, abs=1e-15)


def test_quadratic_partly_singular_split_skips_the_null_space():
    # c = a - b = diag(0, 2, 5): the pencil (c, a) has eigenvalues 0, 2/3
    # and 1, and sigma is the smallest positive one.
    p = make_quadratic(np.diag([2.0, 3.0, 5.0]), np.diag([2.0, 1.0, 0.0]))
    assert p.box_constants(p.region).sigma == pytest.approx(2.0 / 3.0, rel=1e-14)


def test_quadratic_input_validation():
    with pytest.raises(ValueError):
        make_quadratic(np.zeros((2, 2)), np.zeros((2, 2)))  # not PD
    with pytest.raises(ValueError):
        make_quadratic(np.array([[1.0, 0.5], [0.0, 1.0]]), np.zeros((2, 2)))
    with pytest.raises(ValueError):
        make_quadratic(np.eye(2), 2.0 * np.eye(2))  # b exceeds a
    with pytest.raises(ValueError):
        make_quadratic(np.eye(2), -0.1 * np.eye(2))  # b indefinite


def test_double_well_constants(dw_unit):
    assert dw_unit.f_star == pytest.approx(-0.5)
    assert dw_unit.box_constants(dw_unit.region).metric[0] == pytest.approx(1.0)
    for signs in ([1, 1], [1, -1], [-1, 1], [-1, -1]):
        x = np.asarray(signs, dtype=float)
        assert dw_unit.f_value(x) == pytest.approx(-0.5, abs=1e-14)
        np.testing.assert_allclose(dw_unit.f_grad(x), 0.0, atol=1e-14)


def test_double_well_flow_field_formula(dw_aniso):
    # Componentwise field (x - x^3) / (3 x^2 + q)
    x = np.array([0.5, -0.3])
    field = -np.linalg.solve(dw_aniso.g_hess(x), dw_aniso.f_grad(x))
    q = np.array([1.0, 4.0])
    expected = (x - x**3) / (3.0 * x**2 + q)
    np.testing.assert_allclose(field, expected, atol=1e-14)


def test_double_well_rejects_nonpositive_q():
    with pytest.raises(ValueError):
        make_double_well([1.0, 0.0])
    with pytest.raises(ValueError):
        make_double_well([-1.0])


def test_shifted_identity_when_d_zero(dw_unit):
    p = make_shifted_decomposition(dw_unit, [0.0, 0.0])
    for x in dw_unit.region.sample(RNG, 10):
        assert p.f_value(x) == pytest.approx(dw_unit.f_value(x), abs=1e-14)
        np.testing.assert_allclose(p.g_grad(x), dw_unit.g_grad(x), atol=1e-14)


def test_shifted_objective_invariant(quad_canonical):
    p = make_shifted_decomposition(quad_canonical, [2.0, 2.0])
    for x in quad_canonical.region.sample(RNG, 100):
        assert abs(p.f_value(x) - quad_canonical.f_value(x)) <= 1e-12


def test_shifted_halves_local_rate(quad_canonical):
    # Metric grows from 2I to 4I while hess f stays I.
    shifted = make_shifted_decomposition(quad_canonical, [2.0, 2.0])
    lam0 = linearize_at(quad_canonical, np.zeros(2)).lambda_min
    lam1 = linearize_at(shifted, np.zeros(2)).lambda_min
    assert lam0 == pytest.approx(0.5, abs=1e-12)
    assert lam1 == pytest.approx(0.25, abs=1e-12)


def test_shifted_rejects_negative_entries(dw_unit):
    with pytest.raises(ValueError):
        make_shifted_decomposition(dw_unit, [-1.0, 0.0])


def test_splitting_changes_trajectory_but_not_objective(dw_unit, dw_aniso):
    for x in dw_unit.region.sample(RNG, 50):
        assert dw_unit.f_value(x) == pytest.approx(dw_aniso.f_value(x), abs=1e-14)
    cfg = FlowConfig(t_end=1.0, record_stride=0.05, rel_tol=1e-8, abs_tol=1e-10)
    x0 = np.array([0.5, 0.5])
    t1 = integrate_flow(dw_unit, x0, cfg)
    t2 = integrate_flow(dw_aniso, x0, cfg)
    k = min(t1.n_samples, t2.n_samples)
    gap = np.max(np.linalg.norm(t1.x_states[:k] - t2.x_states[:k], axis=1))
    assert gap >= 1e-2
