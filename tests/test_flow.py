"""Integrator accuracy, the linear-flow oracle, and Euler refinement behavior."""

import dataclasses

import numpy as np
import pytest

from dcflow import core, flow, schemes
from dcflow import (
    FlowConfig,
    closed_form_linear_flow,
    dual_euler_interpolant,
    integrate_flow,
    make_double_well,
    make_quadratic,
    make_shifted_decomposition,
)
from dcflow.core import DcProblem, invert_grad_g
from dcflow.flow import _B5, _P, StiffnessError, euler_refinement_study
from dcflow.schemes import Mode, SchemeConfig, Termination, run_scheme
from helpers import newton_only

RNG = np.random.default_rng(20240504)

A2 = 2.0 * np.eye(2)
B1 = np.eye(2)


# ---------------------------------------------------------------------------
# dual vector field, grad h(pullback(y)) - y


def test_field_vanishes_at_fixed_point(dw_unit):
    y_star = np.asarray(dw_unit.g_grad(np.array([1.0, 1.0])))
    x = invert_grad_g(dw_unit, y_star, np.array([1.0, 1.0]))
    field = dw_unit.h_grad(x) - y_star
    assert np.linalg.norm(field) <= 1e-9


def test_field_linear_case(quad_canonical):
    y = np.array([2.0, 0.0])
    x = invert_grad_g(quad_canonical, y, np.zeros(2))
    field = quad_canonical.h_grad(x) - y
    np.testing.assert_allclose(field, [-1.0, 0.0], atol=1e-10)


def test_field_equals_negative_gradient_at_pullback(dw_unit):
    for _ in range(10):
        y = RNG.standard_normal(2) * 2.0
        x = invert_grad_g(dw_unit, y, np.zeros(2))
        field = dw_unit.h_grad(x) - y
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
    every inversion counted, and the flow's own split into field evaluations
    (the one pullback of a single dual state, a 1-D target) and pullbacks of
    record times (a stack), each counted with the number of times it covers."""
    counts = {"invert": 0, "field": 0, "pullback": 0, "pullback_rows": 0}

    def counted(fn):
        def wrapper(*args, **kwargs):
            counts["invert"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def pullback(p, y, warm_start):
        if np.ndim(y) == 1:
            counts["field"] += 1
        else:
            counts["pullback"] += 1
            counts["pullback_rows"] += len(y)
        return core.invert_grad_g(p, y, warm_start)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "invert_grad_g", counted(core.invert_grad_g))
        mp.setattr(flow, "invert_grad_g", pullback)
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
    assert counts["invert"] == counts["field"] + counts["pullback"]
    assert counts["invert"] <= trace.n_samples + 7 * n_steps
    assert counts["invert"] < 15000
    # One batched pullback per accepted step covers every record time in it;
    # n_steps, which counts rejected steps too, bounds the accepted ones.
    assert counts["pullback"] <= n_steps
    assert counts["pullback_rows"] == trace.n_samples - 1


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


# ---------------------------------------------------------------------------
# metric speeds and values, read after the loop


def _deferred_pass_cases():
    return [
        (make_double_well([1.0, 4.0]), [1.8, -0.4]),
        (make_quadratic([[3.0, 1.0], [1.0, 2.0]], np.eye(2)), [1.0, -0.6]),
        (make_shifted_decomposition(make_double_well([0.5, 2.0, 1.0]), [0.3, 0.0, 1.5]),
         [1.7, -0.4, 0.9]),
    ]


@pytest.mark.parametrize("case", range(3), ids=["double_well", "quadratic", "shifted"])
def test_deferred_speeds_and_values_equal_per_row_calls(case):
    p, x0 = _deferred_pass_cases()[case]
    trace = integrate_flow(p, np.array(x0), FlowConfig(t_end=2.0, record_stride=1e-2))
    assert trace.n_samples == 201
    for x, msq, f in zip(trace.x_states, trace.metric_speed_sq, trace.f_values):
        assert msq == core.flow_velocity(p, x)[2]
        assert f == p.f_value(x)


def _pullback_rows(monkeypatch):
    """Count the rows of each stacked pullback of record times."""
    rows = []

    def pullback(p, y, warm_start):
        if np.ndim(y) == 2:
            rows.append(len(y))
        return core.invert_grad_g(p, y, warm_start)

    monkeypatch.setattr(flow, "invert_grad_g", pullback)
    return rows


def test_flow_stops_at_first_sample_at_rest_within_a_step(quad_canonical, monkeypatch):
    # The gradient decays like exp(-t/2): it passes EQUILIBRIUM_GRAD_TOL near
    # t = 46, inside a step that covers many record times.
    rows = _pullback_rows(monkeypatch)
    trace = integrate_flow(
        quad_canonical, np.array([1.0, 0.0]), FlowConfig(t_end=100.0, record_stride=1e-2)
    )
    grad_norms = np.linalg.norm(quad_canonical.f_grad(trace.x_states), axis=1)
    assert grad_norms[-1] <= flow.EQUILIBRIUM_GRAD_TOL
    assert np.all(grad_norms[:-1] > flow.EQUILIBRIUM_GRAD_TOL)
    # The last pullback covered record times past the one at rest.
    assert 1 + sum(rows[:-1]) < trace.n_samples < 1 + sum(rows)
    assert trace.times[-1] < 50.0
    for field in ("times", "x_states", "f_values", "f_roundoff", "metric_speed_sq"):
        assert len(getattr(trace, field)) == trace.n_samples


def _counted_hessian(p):
    calls = []

    def g_hess(x):
        calls.append(np.shape(x))
        return p.g_hess(x)

    return dataclasses.replace(p, g_hess=g_hess), calls


@pytest.mark.parametrize("block_rows", [None, 64, 7, 1])
def test_record_pass_reads_the_hessian_once_per_block(dw_aniso, monkeypatch, block_rows):
    # The closed-form pullback meets Newton's stopping rule with no step, so
    # every g_hess call comes from the velocity pass after the loop.
    x0, cfg = np.array([1.8, -0.4]), FlowConfig(t_end=3.0, record_stride=1e-2)
    reference = integrate_flow(dw_aniso, x0, cfg)
    if block_rows is not None:
        monkeypatch.setattr(core, "_HESS_BLOCK_BYTES", 8 * 2 * 2 * block_rows)
    rows = _pullback_rows(monkeypatch)
    p, calls = _counted_hessian(dw_aniso)
    trace = integrate_flow(p, x0, cfg)
    m = trace.n_samples
    assert m == 301 and len(rows) > 10
    per_call = block_rows or m
    assert calls == [(min(per_call, m - start), 2) for start in range(0, m, per_call)]
    for field in ("times", "y_states", "x_states", "f_values", "f_roundoff", "metric_speed_sq"):
        assert getattr(trace, field).tobytes() == getattr(reference, field).tobytes()


def test_stiffness_error_on_blowup_field():
    # With this oracle the dual field is 1 + y^2, which blows up in finite
    # time; resolving the approach forces the step below the floor.
    p = DcProblem(
        dim=1,
        g_value=lambda x: 0.5 * np.vecdot(x, x),
        h_value=lambda x: np.zeros(x.shape[:-1]),
        g_grad=lambda x: x.copy(),
        h_grad=lambda x: x + 1.0 + x**2,
        g_hess=lambda x: np.ones(x.shape[:-1] + (1, 1)),
        h_hess=lambda x: np.zeros(x.shape[:-1] + (1, 1)),
    )
    cfg = FlowConfig(t_end=2.0, record_stride=0.1)
    with pytest.raises(StiffnessError):
        integrate_flow(p, np.array([1.0]), cfg)


def test_sample_pullback_failure_names_its_step(dw_unit, monkeypatch):
    # A tol of 1e-300 leaves the batched pullback of the first step's record
    # times stuck at roundoff; the error names the row and then the step.
    # Field evaluations pull back one dual state, a 1-D target, and keep
    # the default tol.
    real = core.invert_grad_g

    def pullback(p, y, warm):
        if np.ndim(y) == 1:
            return real(p, y, warm)
        with monkeypatch.context() as mp:
            mp.setattr(core, "INVERSION_TOL", 1e-300)
            return real(p, y, warm)

    monkeypatch.setattr(flow, "invert_grad_g", pullback)
    with pytest.raises(core.ConvergenceError) as info:
        integrate_flow(dw_unit, np.array([0.5, 0.7]), FlowConfig(t_end=1.0, record_stride=1e-3))
    assert f"gradient inversion of row {info.value.row} of " in str(info.value)
    assert str(info.value).endswith("in the flow step from t=0 of size 0.01")


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
    with pytest.raises(ValueError, match=r"eta must lie in \(0, 1\]"):
        euler_refinement_study(quad_canonical, np.zeros(2), [1.5, 0.1], _flow_cfg(1.0))


def test_interpolant_hits_iterates_at_nodes(quad_canonical):
    # At multiples of eta the interpolant must reproduce the damped iterates.
    eta = 0.25
    times = np.array([0.0, eta, 2 * eta, 3 * eta])
    xs = dual_euler_interpolant(quad_canonical, np.array([1.0, -1.0]), eta, times)
    factor = 1.0 - eta / 2.0
    for k, x in enumerate(xs):
        np.testing.assert_allclose(x, factor**k * np.array([1.0, -1.0]), atol=1e-9)


@pytest.mark.parametrize("eta", [0.25, 1.0])
def test_interpolant_at_multiples_of_eta_is_the_dual_scheme_iterate(eta, dw_aniso):
    # run_scheme is the one dual Euler loop; node 0 is the pullback of
    # grad g(x0), x0 only up to roundoff.
    cases = [
        (dw_aniso, [0.5, -0.7]),
        (make_quadratic([[3.0, 1.0], [1.0, 2.0]], np.eye(2)), [1.5, -0.8]),
        (make_shifted_decomposition(make_double_well([0.5, 2.0]), [0.3, 1.5]), [1.7, -0.4]),
    ]
    n_steps = 12
    times = eta * np.arange(n_steps + 1)
    for p, x0 in cases:
        xs = dual_euler_interpolant(p, np.array(x0), eta, times)
        cfg = SchemeConfig(eta=eta, max_iter=n_steps, stop_grad_tol=np.finfo(float).tiny)
        trace = run_scheme(p, np.array(x0), cfg, Mode.DUAL)
        assert trace.n_points == n_steps + 1
        assert xs[1:].tobytes() == trace.points[1:].tobytes()


@pytest.mark.parametrize("eta", [0.1, 0.25, 1.0])
def test_interpolant_from_a_critical_point_stays_there(eta, dw_unit):
    times = np.linspace(0.0, 2.0, 9)
    for p, x0 in ((dw_unit, np.array([1.0, 1.0])), (make_quadratic(A2, B1), np.zeros(2))):
        # The run stops at once, so its single state covers every time.
        cfg = SchemeConfig(eta=eta, stop_grad_tol=np.finfo(float).tiny)
        trace = run_scheme(p, x0, cfg, Mode.DUAL)
        assert trace.termination is Termination.GRAD_TOL and trace.n_points == 1
        xs = dual_euler_interpolant(p, x0, eta, times)
        np.testing.assert_allclose(xs, np.tile(x0, (times.size, 1)), rtol=0.0, atol=1e-15)


def test_interpolant_objective_turning_nan_is_a_numeric_error(dw_aniso):
    nan_below = dataclasses.replace(
        dw_aniso, h_value=lambda x: np.where(x[..., 0] < 1.3, np.nan, dw_aniso.h_value(x))
    )
    with pytest.raises(core.NumericError, match=r"\(eta=0\.5\)$"):
        dual_euler_interpolant(nan_below, np.array([1.9, 0.2]), 0.5, [0.0, 3.0])


@pytest.mark.parametrize("times", [[np.inf], [np.nan], [0.1, np.inf], [-0.1], [], [[0.1]]])
def test_interpolant_rejects_bad_times(times, quad_canonical):
    with pytest.raises(ValueError, match="times must be"):
        dual_euler_interpolant(quad_canonical, np.array([1.0, -1.0]), 0.1, times)


@pytest.mark.parametrize("eta", [0.0, -0.1, 1.5, np.inf, np.nan])
def test_interpolant_rejects_eta_outside_unit_interval(eta, quad_canonical):
    with pytest.raises(ValueError, match=r"eta must lie in \(0, 1\]"):
        dual_euler_interpolant(quad_canonical, np.array([1.0, -1.0]), eta, [0.5])


@pytest.mark.parametrize(
    "module, times, phase",
    [
        # run_scheme's first inversion, node 1, is not warm-started at its answer.
        (schemes, [0.3], "in scheme iteration 0 (eta=0.1)"),
        # One Euler step covers t <= eta; row 0 is node 0 at its own pullback.
        (flow, [0.0, 0.05], "in the interpolant pullback at t=0.05 (eta=0.1)"),
    ],
    ids=["node", "pullback"],
)
def test_interpolant_inversion_failure_names_its_phase(dw_unit, monkeypatch, module, times, phase):
    def starved(*args):
        """The inversion, allowed no Newton step, for the calls ``module`` makes."""
        with monkeypatch.context() as m:
            m.setattr(core, "_MAX_NEWTON_ITER", 0)
            return core.invert_grad_g(*args)

    monkeypatch.setattr(module, "invert_grad_g", starved)
    with pytest.raises(core.ConvergenceError) as info:
        dual_euler_interpolant(newton_only(dw_unit), np.array([0.5, 0.5]), 0.1, times)
    assert "(residual " in str(info.value)
    assert str(info.value).endswith(phase)
