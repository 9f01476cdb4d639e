"""Integrator accuracy, the linear-flow oracle, and Euler refinement behavior."""

import numpy as np
import pytest

from dcflow import core, flow
from dcflow import (
    FlowConfig,
    closed_form_linear_flow,
    dual_euler_interpolant,
    integrate_flow,
    make_double_well,
    make_quadratic,
)
from dcflow.core import DcProblem, dual_map, invert_grad_g
from dcflow.flow import _B5, _P, StiffnessError, euler_refinement_study

RNG = np.random.default_rng(20240504)

A2 = 2.0 * np.eye(2)
B1 = np.eye(2)


# ---------------------------------------------------------------------------
# dual vector field, grad h(pullback(y)) - y


def test_field_vanishes_at_fixed_point(dw_unit):
    y_star = np.asarray(dw_unit.g_grad(np.array([1.0, 1.0])))
    _, grad_h = dual_map(dw_unit, y_star, np.array([1.0, 1.0]))
    field = grad_h - y_star
    assert np.linalg.norm(field) <= 1e-9


def test_field_linear_case(quad_canonical):
    y = np.array([2.0, 0.0])
    _, grad_h = dual_map(quad_canonical, y, np.zeros(2))
    field = grad_h - y
    np.testing.assert_allclose(field, [-1.0, 0.0], atol=1e-10)


def test_field_equals_negative_gradient_at_pullback(dw_unit):
    for _ in range(10):
        y = RNG.standard_normal(2) * 2.0
        x, grad_h = dual_map(dw_unit, y, np.zeros(2))
        np.testing.assert_array_equal(x, invert_grad_g(dw_unit, y, np.zeros(2)))
        field = grad_h - y
        assert np.linalg.norm(field + dw_unit.f_grad(x)) <= 10.0 * 1e-10


# ---------------------------------------------------------------------------
# closed-form oracle


def test_closed_form_at_time_zero():
    x0 = np.array([0.3, -1.2])
    np.testing.assert_allclose(closed_form_linear_flow(A2, B1, x0, 0.0), x0, atol=1e-14)


def test_closed_form_scalar_exponential():
    out = closed_form_linear_flow(A2, B1, np.array([1.0, 0.0]), np.log(4.0))
    np.testing.assert_allclose(out, [0.5, 0.0], atol=1e-14)


def test_closed_form_pure_contraction_when_b_zero():
    x0 = np.array([1.0, 2.0])
    out = closed_form_linear_flow(A2, np.zeros((2, 2)), x0, 1.0)
    np.testing.assert_allclose(out, np.exp(-1.0) * x0, atol=1e-14)


def test_closed_form_nondiagonal_matches_expm():
    a = np.array([[3.0, 1.0], [1.0, 2.0]])
    b = np.array([[1.0, 0.5], [0.5, 1.0]])
    x0 = np.array([0.7, -0.4])
    t = 1.3
    # Independent oracle: scaling-and-squaring Taylor series for the
    # nonsymmetric generator b a^{-1} - I, applied in the dual coordinate.
    gen = b @ np.linalg.inv(a) - np.eye(2)
    m = gen * t / 2.0**20
    e = np.eye(2)
    term = np.eye(2)
    for k in range(1, 12):
        term = term @ m / k
        e = e + term
    for _ in range(20):
        e = e @ e
    expected = np.linalg.solve(a, e @ (a @ x0))
    got = closed_form_linear_flow(a, b, x0, t)
    np.testing.assert_allclose(got, expected, atol=1e-11)


def test_closed_form_input_validation():
    with pytest.raises(ValueError):
        closed_form_linear_flow(np.array([[1.0, 1.0], [0.0, 1.0]]), B1, np.zeros(2), 1.0)
    with pytest.raises(ValueError):
        closed_form_linear_flow(-np.eye(2), B1, np.zeros(2), 1.0)
    with pytest.raises(ValueError):
        closed_form_linear_flow(A2, -np.eye(2), np.zeros(2), 1.0)


# ---------------------------------------------------------------------------
# integration


def test_flow_constant_at_equilibrium(dw_unit):
    cfg = FlowConfig(t_end=1.0, record_stride=0.1)
    trace = integrate_flow(dw_unit, np.array([1.0, 1.0]), cfg)
    assert trace.n_samples == 1  # immediate equilibrium exit
    assert trace.f_values[0] == pytest.approx(-0.5, abs=1e-12)


def test_flow_matches_closed_form(quad_canonical):
    cfg = FlowConfig(t_end=5.0, record_stride=1.0, rel_tol=1e-8, abs_tol=1e-10)
    x0 = np.array([0.7, -0.4])
    trace = integrate_flow(quad_canonical, x0, cfg)
    for t_chk in (1.0, 5.0):
        i = int(np.argmin(np.abs(trace.times - t_chk)))
        expected = closed_form_linear_flow(A2, B1, x0, t_chk)
        assert np.linalg.norm(trace.x_states[i] - expected) <= 1e-6


def test_flow_objective_monotone(dw_aniso):
    cfg = FlowConfig(t_end=3.0, record_stride=0.05, rel_tol=1e-8, abs_tol=1e-10)
    trace = integrate_flow(dw_aniso, np.array([1.8, -0.4]), cfg)
    f = trace.f_values
    slack = 10.0 * cfg.rel_tol * (1.0 + np.abs(f[:-1]))
    assert np.all(f[1:] <= f[:-1] + slack)


def test_flow_initial_velocity_ratio(dw_aniso):
    # Starting on the diagonal, the two coordinates move at speeds set by
    # their own metric entries; the ratio is (3*0.25+4)/(3*0.25+1).
    cfg = FlowConfig(t_end=0.2, record_stride=0.01, rel_tol=1e-10, abs_tol=1e-12)
    trace = integrate_flow(dw_aniso, np.array([0.5, 0.5]), cfg)
    v = (trace.x_states[1] - trace.x_states[0]) / (trace.times[1] - trace.times[0])
    assert v[0] / v[1] == pytest.approx(4.75 / 1.75, rel=5e-3)


def test_flow_reaches_critical_point(dw_unit):
    cfg = FlowConfig(t_end=100.0, record_stride=0.5, rel_tol=1e-9, abs_tol=1e-12)
    trace = integrate_flow(dw_unit, np.array([0.5, 0.7]), cfg)
    assert np.linalg.norm(dw_unit.f_grad(trace.x_states[-1])) <= 1e-6
    np.testing.assert_allclose(trace.x_states[-1], [1.0, 1.0], atol=1e-5)
    assert trace.max_dual_norm < 10.0


def test_flow_records_requested_grid(quad_canonical):
    cfg = FlowConfig(t_end=1.0, record_stride=0.25)
    trace = integrate_flow(quad_canonical, np.array([1.0, 1.0]), cfg)
    np.testing.assert_allclose(trace.times, [0.0, 0.25, 0.5, 0.75, 1.0], atol=1e-12)


def test_flow_horizon_just_below_a_stride_multiple(quad_canonical):
    # t_end / stride is 3 within the grid's slack, but the third multiple
    # lies past t_end: it must not become a record time after t_end.
    t_end = 2.9999999995
    trace = integrate_flow(
        quad_canonical, np.array([1.0, 1.0]), FlowConfig(t_end=t_end, record_stride=1.0)
    )
    np.testing.assert_array_equal(trace.times, [0.0, 1.0, 2.0, t_end])


# ---------------------------------------------------------------------------
# dense output


def test_continuous_extension_ends_at_accepted_state():
    # At theta = 1 the interpolant y + h k' P [1, 1, 1, 1] is the step's
    # fifth-order update y + h B5' k.
    np.testing.assert_allclose(_P.sum(axis=1), _B5, rtol=0.0, atol=1e-15)


@pytest.fixture(scope="module")
def dw_fine_run():
    """Double well q = [1, 4] from (0.5, 0.5) to t = 10 at stride 1e-3, with
    every gradient inversion and every field evaluation counted."""
    counts = {"invert": 0, "field": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    invert = counted("invert", core.invert_grad_g)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "invert_grad_g", invert)
        mp.setattr(flow, "invert_grad_g", invert)
        mp.setattr(flow, "dual_map", counted("field", flow.dual_map))
        trace = integrate_flow(
            make_double_well([1.0, 4.0]),
            np.array([0.5, 0.5]),
            FlowConfig(t_end=10.0, record_stride=1e-3),
        )
    return trace, counts


def test_dense_output_inversion_count(dw_fine_run):
    trace, counts = dw_fine_run
    assert trace.n_samples == 10001
    # One field evaluation starts the integration; each step, accepted or
    # rejected, adds six (the seventh stage is reused by the next step).
    assert (counts["field"] - 1) % 6 == 0
    n_steps = (counts["field"] - 1) // 6
    assert counts["invert"] <= trace.n_samples + 7 * n_steps
    assert counts["invert"] < 15000


def test_dense_output_independent_of_stride(dw_fine_run):
    fine, _ = dw_fine_run
    coarse = integrate_flow(
        make_double_well([1.0, 4.0]),
        np.array([0.5, 0.5]),
        FlowConfig(t_end=10.0, record_stride=1e-2),
    )
    assert coarse.n_samples == 1001
    np.testing.assert_allclose(fine.times[::10], coarse.times, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(fine.y_states[::10], coarse.y_states, rtol=0.0, atol=1e-8)
    np.testing.assert_allclose(fine.x_states[::10], coarse.x_states, rtol=0.0, atol=1e-8)


def test_stiffness_error_on_blowup_field():
    # With this oracle the dual field is 1 + y^2, which blows up in finite
    # time; resolving the approach forces the step below the floor.
    p = DcProblem(
        dim=1,
        g_value=lambda x: float(0.5 * x[0] ** 2),
        h_value=lambda x: 0.0,
        g_grad=lambda x: x.copy(),
        h_grad=lambda x: x + 1.0 + x**2,
        g_hess=lambda x: np.eye(1),
        h_hess=lambda x: np.zeros((1, 1)),
    )
    cfg = FlowConfig(t_end=2.0, record_stride=0.1)
    with pytest.raises(StiffnessError):
        integrate_flow(p, np.array([1.0]), cfg)


def test_flow_config_validation():
    with pytest.raises(ValueError):
        FlowConfig(t_end=0.0)
    with pytest.raises(ValueError):
        FlowConfig(t_end=1.0, record_stride=2.0)
    with pytest.raises(ValueError):
        FlowConfig(t_end=1.0, rel_tol=0.0)


# ---------------------------------------------------------------------------
# Euler refinement


def _flow_cfg(t_end=5.0):
    return FlowConfig(t_end=t_end, record_stride=0.05, rel_tol=1e-9, abs_tol=1e-12)


def test_refinement_ratios_first_order(quad_canonical):
    rows = euler_refinement_study(
        quad_canonical, np.array([1.0, 0.0]), [0.2, 0.1, 0.05], _flow_cfg()
    )
    devs = [d for _, d in rows]
    assert devs[0] > devs[1] > devs[2]
    assert 1.5 <= devs[0] / devs[1] <= 2.5
    assert 1.5 <= devs[1] / devs[2] <= 2.5


@pytest.mark.parametrize("family", ["quad", "dw"])
def test_refinement_loglog_slope(family, quad_canonical, dw_unit):
    p = quad_canonical if family == "quad" else dw_unit
    x0 = np.array([1.0, 0.3]) if family == "quad" else np.array([0.5, 0.7])
    etas = [0.2, 0.1, 0.05]
    rows = euler_refinement_study(p, x0, etas, _flow_cfg())
    slope = np.polyfit(np.log([e for e, _ in rows]), np.log([d for _, d in rows]), 1)[0]
    assert 0.8 <= slope <= 1.2


def test_refinement_single_eta(quad_canonical):
    rows = euler_refinement_study(
        quad_canonical, np.array([0.5, 0.5]), [0.1], _flow_cfg(2.0)
    )
    assert len(rows) == 1
    assert rows[0][0] == 0.1


def test_refinement_from_critical_point(dw_unit):
    rows = euler_refinement_study(
        dw_unit, np.array([1.0, 1.0]), [0.2, 0.1], _flow_cfg(2.0)
    )
    for _, dev in rows:
        assert dev <= 100.0 * 1e-10


def test_refinement_rejects_bad_eta_lists(quad_canonical):
    with pytest.raises(ValueError):
        euler_refinement_study(quad_canonical, np.zeros(2), [], _flow_cfg(1.0))
    with pytest.raises(ValueError):
        euler_refinement_study(quad_canonical, np.zeros(2), [0.1, 0.2], _flow_cfg(1.0))
    with pytest.raises(ValueError):
        euler_refinement_study(quad_canonical, np.zeros(2), [0.1, -0.05], _flow_cfg(1.0))


def test_interpolant_hits_iterates_at_nodes(quad_canonical):
    # At multiples of eta the interpolant must reproduce the damped iterates.
    eta = 0.25
    times = np.array([0.0, eta, 2 * eta, 3 * eta])
    xs = dual_euler_interpolant(quad_canonical, np.array([1.0, -1.0]), eta, times)
    factor = 1.0 - eta / 2.0
    for k, x in enumerate(xs):
        np.testing.assert_allclose(x, factor**k * np.array([1.0, -1.0]), atol=1e-9)


@pytest.mark.parametrize(
    "times, phase",
    [
        # Pulling back node 1 is the first inversion not warm-started at its answer.
        ([0.3], "at dual Euler node 1 (eta=0.1)"),
        # One Euler step covers t <= eta; node 0 is pulled back exactly.
        ([0.0, 0.05], "in the interpolant pullback at t=0.05 (eta=0.1)"),
    ],
)
def test_interpolant_inversion_failure_names_its_phase(dw_unit, monkeypatch, times, phase):
    monkeypatch.setattr(core, "_MAX_NEWTON_ITER", 0)
    with pytest.raises(core.ConvergenceError) as info:
        dual_euler_interpolant(dw_unit, np.array([0.5, 0.5]), 0.1, times)
    assert "(residual " in str(info.value)
    assert str(info.value).endswith(phase)
