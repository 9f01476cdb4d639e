"""Integrator accuracy, the linear-flow oracle, and Euler refinement behavior."""

import dataclasses
import math
import re
import types

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
from helpers import (
    blowing_up,
    count_point_inversions,
    inversion_shapes,
    newton_only,
    off_at_targets,
    off_closed_form,
    outcome,
    overflowing_h_grad,
    reject_closed_forms,
    single_closed_form_pass,
    warnings_of,
)

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


def test_long_ill_conditioned_flow_matches_closed_form():
    # 8-D split with a of condition 1e4, integrated to t = 20 at the default
    # tolerances: every record state stays within criterion 04's 1e-6.
    rng = np.random.default_rng(8)
    u, _ = np.linalg.qr(rng.standard_normal((8, 8)))
    v, _ = np.linalg.qr(rng.standard_normal((8, 8)))
    lam = np.geomspace(1.0, 1e4, 8)
    a = (u * lam) @ u.T
    sqrt_a = (u * np.sqrt(lam)) @ u.T
    b = sqrt_a @ ((v * np.linspace(0.1, 0.8, 8)) @ v.T) @ sqrt_a
    a, b = 0.5 * (a + a.T), 0.5 * (b + b.T)
    x0 = np.linspace(-1.0, 1.0, 8)
    trace = integrate_flow(make_quadratic(a, b), x0, FlowConfig(t_end=20.0))
    assert trace.times[-1] == 20.0
    for t, x in zip(trace.times, trace.x_states):
        assert np.linalg.norm(x - closed_form_linear_flow(a, b, x0, t)) <= 1e-6


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


def _record_targets_list(t_end, stride):
    """The record grid built as a list of Python products."""
    n_full = int(math.floor(t_end / stride + 1e-9))
    targets = [stride * m for m in range(1, n_full + 1)]
    if targets and targets[-1] >= t_end - 1e-12 * max(1.0, t_end):
        targets.pop()
    targets.append(t_end)
    return np.asarray(targets)


def test_record_grid_equals_the_list_of_products():
    # Horizons at, just below and just above stride multiples, and strides
    # that divide them within roundoff or not at all.
    rng = np.random.default_rng(25)
    t_ends = np.concatenate([rng.uniform(1e-3, 50.0, 60), [0.3, 0.45, 1.0, 2.9999999995, 1e-6]])
    sweep = [(float(t), float(t) / d) for t in t_ends for d in (1, 3, 7, 10, 100, 1000, 2.5)]
    sweep += [(float(t), s) for t in t_ends for s in (1e-3, 1e-2, 0.1, 0.3) if s <= t]
    for t_end, stride in sweep:
        got, want = flow._record_targets(t_end, stride), _record_targets_list(t_end, stride)
        assert got.tobytes() == want.tobytes(), (t_end, stride)


# ---------------------------------------------------------------------------
# dense output


def test_continuous_extension_ends_at_accepted_state():
    # At theta = 1 the interpolant y + h k' P [1, 1, 1, 1] is the step's
    # fifth-order update y + h B5' k.
    np.testing.assert_allclose(_P.sum(axis=1), _B5, rtol=0.0, atol=1e-15)


@pytest.fixture(scope="module")
def dw_fine_run():
    """Double well q = [1, 4] from (0.5, 0.5) to t = 10 at stride 1e-3.

    ``counts`` splits the flow's inversions into field evaluations (the one
    pullback of a single dual state, a 1-D target) and pullbacks of record
    times (a stack), the latter with the number of rows they cover; record
    times invert only in a run made again after a failed check.  ``calls``
    lists the pullback and gradient oracle calls made outside those
    inversions, in order, as ``(name, shape)``."""
    counts = {"field": 0, "pullback": 0, "pullback_rows": 0}
    calls = []
    inverting = [False]

    def pullback(p, y, warm_start):
        if np.ndim(y) == 1:
            counts["field"] += 1
        else:
            counts["pullback"] += 1
            counts["pullback_rows"] += len(y)
        inverting[0] = True
        try:
            return core.invert_grad_g(p, y, warm_start)
        finally:
            inverting[0] = False

    def logged(name, fn):
        def wrapper(x):
            if not inverting[0]:
                calls.append((name, np.shape(x)))
            return fn(x)

        return wrapper

    p = make_double_well([1.0, 4.0])
    p = dataclasses.replace(
        p, **{n: logged(n, getattr(p, n)) for n in ("g_grad", "h_grad", "g_conj_grad")}
    )
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(flow, "invert_grad_g", pullback)
        trace = integrate_flow(
            p, np.array([0.5, 0.5]), FlowConfig(t_end=10.0, record_stride=1e-3)
        )
    return trace, counts, calls


def test_dense_output_inversion_count(dw_fine_run):
    trace, counts, calls = dw_fine_run
    assert trace.n_samples == 10001
    # Only the field evaluation before the first step is an inversion.  Each
    # step, accepted or rejected, pulls its six new stages back through one
    # point call of the closed form each (the seventh stage is reused by the
    # next step), with no check in between.
    assert counts["field"] == 1
    conj = [i for i, (name, _) in enumerate(calls) if name == "g_conj_grad"]
    stages = [i for i in conj if calls[i][1] == (2,)]
    assert len(stages) % 6 == 0
    n_steps = len(stages) // 6
    for first in stages[::6]:
        assert calls[first : first + 12] == [("g_conj_grad", (2,)), ("h_grad", (2,))] * 6
    # A block closes after flow._RECORD_BLOCK steps and at the loop's end.
    # One stacked closed-form call pulls back the record times of its steps;
    # one g_grad call checks them together with its stages, and with one
    # h_grad call gives grad f for the equilibrium test.  No record time is
    # inverted.
    block = flow._RECORD_BLOCK
    records = [i for i in conj if i not in stages]
    ends = [sum(first < i for first in stages[::6]) for i in records]
    assert ends == [min(block * j, n_steps) for j in range(1, len(records) + 1)]
    assert len(records) == math.ceil(n_steps / block) > 1
    checks = []
    for i, steps in zip(records, np.diff([0] + ends)):
        m = calls[i][1][0]
        assert calls[i][1] == (m, 2)
        assert calls[i + 1 : i + 3] == [("g_grad", (6 * steps + m, 2)), ("h_grad", (m, 2))]
        checks.append(calls[i + 1])
    assert sum(calls[i][1][0] for i in records) == trace.n_samples - 1
    # Besides the block checks, stacked g_grad calls come only from p.f_grad
    # at the start and in the velocity pass after the loop.
    stacked = [c for c in calls if c[0] == "g_grad" and len(c[1]) == 2]
    assert stacked == [("g_grad", (1, 2))] + checks + [("g_grad", (trace.n_samples, 2))]
    assert counts["pullback"] == counts["pullback_rows"] == 0
    pullbacks = 6 * n_steps + counts["field"] + len(records)
    assert pullbacks <= trace.n_samples + 7 * n_steps
    assert pullbacks < 15000


def test_dense_output_independent_of_stride(dw_fine_run):
    fine = dw_fine_run[0]
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


# ---------------------------------------------------------------------------
# closed-form stages, checked once per step

_FLOW_FIELDS = ("times", "y_states", "x_states", "f_values", "f_roundoff", "metric_speed_sq")


@pytest.mark.parametrize("case", range(3), ids=["double_well", "quadratic", "shifted"])
def test_replayed_steps_equal_checked_ones(case, monkeypatch):
    # With every stacked check failing, each step is replayed stage by stage
    # through invert_grad_g, and ends bit for bit where the checked one did.
    p, x0 = _deferred_pass_cases()[case]
    run = lambda: integrate_flow(p, np.array(x0), FlowConfig(t_end=2.0, record_stride=1e-2))
    inversions = count_point_inversions(monkeypatch, flow)
    checked = outcome(run, _FLOW_FIELDS)
    assert inversions[0] == 1
    inversions[0] = 0
    reject_closed_forms(monkeypatch)
    assert outcome(run, _FLOW_FIELDS) == checked
    assert inversions[0] > 1 and (inversions[0] - 1) % 6 == 0


@pytest.mark.parametrize("case", range(3), ids=["double_well", "quadratic", "shifted"])
def test_a_passing_flow_keeps_its_closed_form_pass(case, monkeypatch):
    # Every check passes, so the closed-form pass is kept and never run
    # again: the flow's one inversion, single or stacked, is its first field
    # evaluation.  A rerun would hide a fault in code only that pass runs.
    p, x0 = _deferred_pass_cases()[case]
    shapes = inversion_shapes(monkeypatch, flow)
    integrate_flow(p, np.array(x0), FlowConfig(t_end=2.0, record_stride=1e-2))
    assert shapes == [(p.dim,)]


def test_a_raising_closed_form_pass_ends_as_with_every_check_failing(monkeypatch):
    # The blow-up field of test_stiffness_error_on_blowup_field, with its
    # closed form, and an h_grad that raises past x = 10, inside a pass
    # whose checks all pass.  The flow runs again through the inversion,
    # whose error it raises, as with every check failing.
    p = blowing_up(10.0)
    run = lambda: integrate_flow(p, np.array([1.0]), FlowConfig(t_end=2.0, record_stride=0.1))
    inversions = count_point_inversions(monkeypatch, flow)
    checked = outcome(run, _FLOW_FIELDS)
    assert checked[0] is core.NumericError
    assert re.fullmatch(r"h_grad past 10 in the flow step from t=\S+ of size \S+", checked[1])
    assert inversions[0] > 1
    reject_closed_forms(monkeypatch)
    assert outcome(run, _FLOW_FIELDS) == checked


@pytest.mark.parametrize("defect", [np.nan, 1e-3], ids=["nan", "off"])
@pytest.mark.parametrize("case", range(3), ids=["double_well", "quadratic", "shifted"])
def test_failed_record_checks_invert_as_before(case, defect, monkeypatch):
    # A closed form wrong at every stack of record times, and right at each
    # stage: the first block's check fails on its record rows, and the flow
    # runs again with every stage inverted and each accepted step's record
    # times through one batched inversion and p.f_grad, as without the
    # check and as with every check failing.
    p, x0 = _deferred_pass_cases()[case]
    run = lambda: integrate_flow(p, np.array(x0), FlowConfig(t_end=2.0, record_stride=1e-2))
    f_grads = []
    f_grad = core.DcProblem.f_grad
    monkeypatch.setattr(
        core.DcProblem, "f_grad", lambda self, x: f_grads.append(np.shape(x)) or f_grad(self, x)
    )
    checked = outcome(run, _FLOW_FIELDS)
    # Checked, p.f_grad serves only the start's equilibrium test and the
    # velocity pass over all samples after the loop.
    n = np.frombuffer(checked[0]).size
    assert f_grads == [(1, p.dim), (n, p.dim)]
    wrong = []

    def closed_form(p, y):
        wrong.append(np.ndim(y) == 2)
        return core._closed_form(p, y) + (defect if wrong[-1] else 0.0)

    monkeypatch.setattr(flow, "_closed_form", closed_form)
    rows = []

    def pullback(p, y, warm_start):
        rows.append(np.shape(y))
        return core.invert_grad_g(p, y, warm_start)

    monkeypatch.setattr(flow, "invert_grad_g", pullback)
    runs = []
    for reject in (False, True):
        if reject:
            reject_closed_forms(monkeypatch)
        for log in (f_grads, rows, wrong):
            log.clear()
        assert outcome(run, _FLOW_FIELDS) == checked
        runs.append((rows.copy(), f_grads.copy()))
        # One stack of record times is pulled back through the closed form,
        # the first block's, and its check fails.
        assert sum(wrong) == 1
    assert runs[0] == runs[1]
    # The first field evaluation, then six stages per attempt, one point at
    # a time, and one inversion per record-bearing step, which covers its
    # record times.
    assert rows[0] == (p.dim,) and (rows.count((p.dim,)) - 1) % 6 == 0
    steps = [shape for shape in rows if len(shape) == 2]
    assert sum(m for m, _ in steps) == n - 1
    assert len(steps) > 10 and all(dim == p.dim for _, dim in steps)
    assert f_grads == [(1, p.dim)] + steps + [(n, p.dim)]


@pytest.mark.parametrize("newton_steps", [None, 0], ids=["newton", "no_newton"])
@pytest.mark.parametrize("defect", [np.nan, 1e-6], ids=["nan", "off"])
def test_a_wrong_closed_form_fails_as_without_the_check(defect, newton_steps, monkeypatch):
    # Wrong only at targets with y[0] > 1, which the flow reaches near t = 1:
    # the step whose check catches it is replayed, so Newton and every
    # error run as they do with every check failing.
    p = off_closed_form(make_double_well([1.0, 4.0]), defect, threshold=1.0)
    if newton_steps is not None:
        monkeypatch.setattr(core, "_MAX_NEWTON_ITER", newton_steps)
    run = lambda: integrate_flow(p, np.array([0.5, 0.5]), FlowConfig(t_end=5.0))
    inversions = count_point_inversions(monkeypatch, flow)
    checked = outcome(run, _FLOW_FIELDS)
    assert inversions[0] > 1
    reject_closed_forms(monkeypatch)
    assert outcome(run, _FLOW_FIELDS) == checked
    if np.isnan(defect):
        assert checked[0] is core.NumericError
        assert re.fullmatch(
            r"non-finite gradient residual at the start point in the flow step from t=\S+ "
            r"of size \S+",
            checked[1],
        )
    elif newton_steps == 0:
        assert checked[0] is core.ConvergenceError
        assert re.search(r"\(residual \S+\) in the flow step from t=\S+ of size \S+$", checked[1])
    else:
        assert len(checked) == len(_FLOW_FIELDS)


# ---------------------------------------------------------------------------
# closed-form stages, checked a block of steps at a time


def _attempts(monkeypatch, p, x0, cfg):
    """The six stage targets of each Dormand-Prince attempt of a flow,
    accepted or rejected, in order, and each attempt's error norm (above 1
    rejects it), as a run whose checks all pass makes them."""
    targets, errs = [], []

    def g_conj_grad(y):
        if np.ndim(y) == 1:
            targets.append(np.array(y))
        return p.g_conj_grad(y)

    def sqrt(v):
        errs.append(math.sqrt(v))
        return errs[-1]

    # The error norm is the loop's one math.sqrt.
    logged = types.SimpleNamespace(**vars(math))
    logged.sqrt = sqrt
    with monkeypatch.context() as mp:
        mp.setattr(flow, "math", logged)
        integrate_flow(dataclasses.replace(p, g_conj_grad=g_conj_grad), np.array(x0), cfg)
    # The first point call is the field evaluation before the first step.
    stages = np.array(targets[1:]).reshape(-1, 6, p.dim)
    assert len(stages) == len(errs)
    return stages, errs


def _block_checks(monkeypatch, p, x0, cfg):
    """The stage rows and record rows of each block check that a flow
    makes, in order; a run made again with every stage inverted checks
    none."""
    checks, records = [], [0]

    def closed_form(p, y):
        # A stack of record times is checked right after its closed form.
        if np.ndim(y) == 2:
            records[0] = len(y)
        return core._closed_form(p, y)

    def check_block(p, y, x, grad_g=None):
        checks.append((len(y) - records[0], records[0]))
        records[0] = 0
        return core._check_block(p, y, x, grad_g)

    with monkeypatch.context() as mp:
        mp.setattr(flow, "_closed_form", closed_form)
        mp.setattr(flow, "_check_block", check_block)
        integrate_flow(p, np.array(x0), cfg)
    return checks


def _stage_checks(monkeypatch, p, x0, cfg):
    """The stage rows of each block check that a flow makes, in order."""
    return [stages for stages, _ in _block_checks(monkeypatch, p, x0, cfg)]


_COARSE = (make_double_well([1.0, 4.0]), [1.8, -0.4], FlowConfig(t_end=20.0, record_stride=20.0))
# Steps 0, 1 and 2 of this flow are rejected.
_REJECTING = (
    make_double_well([1e-3, 1e-3]), [0.01, 2.0], FlowConfig(t_end=10.0, record_stride=10.0)
)
_FINE = (make_double_well([1.0, 4.0]), [0.5, 0.5], FlowConfig(t_end=10.0, record_stride=1e-3))


@pytest.mark.parametrize(
    "p, x0, cfg, most",
    [
        (make_double_well([1.0, 4.0]), [1.6, -1.5], FlowConfig(t_end=0.45, record_stride=1e-3), 6),
        (
            make_double_well(np.linspace(1.0, 4.0, 12)),
            [1.6, -1.5] * 6,
            FlowConfig(t_end=1.0, record_stride=0.1),
            9,
        ),
    ],
    ids=["2d", "12d"],
)
def test_step_control_grows_steps_at_the_dopri5_gains(p, x0, cfg, most, monkeypatch):
    # The first step's tiny error is floored as history, so it does not damp
    # the second step, and the PI gains let the steps grow toward the accept
    # bound, with no attempt rejected.
    _, errs = _attempts(monkeypatch, p, x0, cfg)
    assert len(errs) <= most
    assert max(errs) <= 1.0


def test_a_passing_flow_checks_its_stages_once_per_block(monkeypatch):
    # Each block of flow._RECORD_BLOCK steps, accepted or rejected, and the
    # shorter last one is checked once, together with the record times of
    # its steps: with one record time, the last block alone has a record
    # row; with records at every step, every block has some.
    b = flow._RECORD_BLOCK
    for (p, x0, cfg), fine in ((_COARSE, False), (_FINE, True)):
        stages, _ = _attempts(monkeypatch, p, x0, cfg)
        full, rest = divmod(len(stages), b)
        assert full >= 1
        checks = _block_checks(monkeypatch, p, x0, cfg)
        assert [rows for rows, _ in checks] == [6 * b] * full + [6 * rest] * (rest > 0)
        records = [rows for _, rows in checks]
        assert sum(records) == integrate_flow(p, np.array(x0), cfg).n_samples - 1
        assert records[-1] > 0 and all(records) == fine


@pytest.mark.parametrize(
    "case, step",
    [
        ("coarse", 0),  # first of a block
        ("coarse", 1),
        ("coarse", 16),  # mid-block
        ("coarse", 32),  # first of the second block
        ("coarse", 40),  # in the last block, closed by the loop's end
        ("rejecting", 0),
        ("rejecting", 2),  # a rejected step mid-block
        ("fine", 20),  # in a block that records states
        ("fine", 33),  # past a block that recorded states, in the last block
    ],
)
def test_a_failed_stage_check_resumes_at_its_step(case, step, monkeypatch):
    # The closed form is off at one stage of one step.  The check of that
    # step's block fails, nothing is checked past it, and the flow is
    # integrated again from its first step with every stage inverted, so
    # every field equals the run that inverts every stage, as if it had
    # resumed at that step.
    p, x0, cfg = {"coarse": _COARSE, "rejecting": _REJECTING, "fine": _FINE}[case]
    stages, errs = _attempts(monkeypatch, p, x0, cfg)
    if case == "rejecting":
        assert errs[step] > 1.0
    off = off_at_targets(p, stages[step, 2:3], 1e-6)
    ends = np.cumsum([0] + _stage_checks(monkeypatch, off, x0, cfg)) // 6
    b = flow._RECORD_BLOCK
    assert ends[-2] % b == 0 and ends[-2] <= step < ends[-1] <= ends[-2] + b
    run = lambda: integrate_flow(off, np.array(x0), cfg)
    inversions = count_point_inversions(monkeypatch, flow)
    checked = outcome(run, _FLOW_FIELDS)
    # The field evaluation before the first step, and six per attempt of
    # the rerun, as with every check failing.
    rerun, inversions[0] = inversions[0], 0
    reject_closed_forms(monkeypatch)
    assert outcome(run, _FLOW_FIELDS) == checked
    assert rerun == inversions[0] and (rerun - 1) % 6 == 0 and rerun > 6 * (step + 1)
    assert len(checked) == len(_FLOW_FIELDS)


def test_after_a_failed_check_no_step_is_checked(monkeypatch):
    # A failure at step 1 fails the check of the first block; the rerun
    # that follows checks no step at all, where a passing run checks one
    # block of steps at a time to the end.
    p, x0, cfg = _COARSE
    stages, _ = _attempts(monkeypatch, p, x0, cfg)
    checks = _stage_checks(monkeypatch, p, x0, cfg)
    assert sum(checks) == 6 * len(stages) and len(checks) > 1
    off = off_at_targets(p, stages[1, 2:3], 1e-6)
    assert _block_checks(monkeypatch, off, x0, cfg) == [(6 * flow._RECORD_BLOCK, 0)]


def test_a_nan_closed_form_ends_the_flow_within_a_block(monkeypatch):
    # NaN stages go unchecked until their block closes: at most a block of
    # steps runs past the first, and the error is the per-step check's.
    p = off_closed_form(make_double_well([1.0, 4.0]), np.nan, threshold=1.0)
    nan_steps = [0]

    def g_conj_grad(y):
        x = p.g_conj_grad(y)
        nan_steps[0] += np.ndim(y) == 1 and np.isnan(x).any()
        return x

    counted = dataclasses.replace(p, g_conj_grad=g_conj_grad)
    run = lambda: integrate_flow(counted, np.array([0.5, 0.5]), FlowConfig(t_end=5.0))
    checked = outcome(run, _FLOW_FIELDS)
    assert checked[0] is core.NumericError
    assert 0 < nan_steps[0] <= 6 * flow._RECORD_BLOCK + 1
    reject_closed_forms(monkeypatch)
    assert outcome(run, _FLOW_FIELDS) == checked


def test_a_thrown_away_pass_reports_no_floating_point_error(monkeypatch):
    # An infinite closed form makes invalid values in the stages after it,
    # and the first block's check fails.  The flow integrated again raises
    # at that stage's Newton start before any arithmetic that reports.
    p = off_closed_form(make_double_well([1.0, 4.0]), np.inf, threshold=1.0)
    run = lambda: outcome(
        lambda: integrate_flow(p, np.array([0.5, 0.5]), FlowConfig(t_end=5.0)), _FLOW_FIELDS
    )
    checked, caught = warnings_of(run)
    assert checked[0] is core.NumericError and caught == []
    reject_closed_forms(monkeypatch)
    assert warnings_of(run) == (checked, [])


def test_a_kept_pass_reports_its_floating_point_errors_as_one_pass(monkeypatch):
    # h_grad overflows at every call.  The closed-form pass is kept, and
    # reports each overflow where a single pass does, once per call.
    p, x0, cfg = _COARSE
    p = overflowing_h_grad(p)
    run = lambda: outcome(lambda: integrate_flow(p, np.array(x0), cfg), _FLOW_FIELDS)
    checked, caught = warnings_of(run)
    assert len(caught) > 6 * flow._RECORD_BLOCK
    single_closed_form_pass(monkeypatch)
    assert warnings_of(run) == (checked, caught)


def _raising_on_nan_targets(p):
    """``p`` with a closed form that raises ValueError at a NaN target."""

    def g_conj_grad(y):
        if np.isnan(y).any():
            raise ValueError("NaN target")
        return p.g_conj_grad(y)

    return dataclasses.replace(p, g_conj_grad=g_conj_grad)


def test_an_error_past_a_failed_step_is_not_reached(monkeypatch):
    # The closed form is NaN at the last stage of step 16 alone: that step's
    # NaN error norm accepts it at a NaN state, and the next step's first
    # target is NaN, where the closed form raises.  That error reruns the
    # flow through the inversion, which stops at step 16 and raises its
    # NumericError, so the later ValueError is never raised.
    p, x0, cfg = _COARSE
    stages, _ = _attempts(monkeypatch, p, x0, cfg)
    broken = _raising_on_nan_targets(off_at_targets(p, stages[16, 5:6], np.nan))
    run = lambda: integrate_flow(broken, np.array(x0), cfg)
    checked = outcome(run, _FLOW_FIELDS)
    assert checked[0] is core.NumericError
    reject_closed_forms(monkeypatch)
    assert outcome(run, _FLOW_FIELDS) == checked


def test_a_raising_stage_check_raises_in_its_own_step(monkeypatch):
    # g_grad raises on stacks holding a point past x_0 = 0.9, which the flow
    # crosses at a stage of a mid-block step, or on stacks holding the
    # pullback of a record time before t_end (the one at t_end is also the
    # last step's last stage), so on no stack of stages alone.  The raising
    # check reruns the flow with every stage inverted one point at a time,
    # so the error is raised where that run first stacks such a point, the
    # batched pullback of a step's record times, and names that step, as
    # with every block of one step and with every check failing.
    p = make_double_well([1.0, 4.0])
    x0, cfg = np.array([0.5, 0.5]), FlowConfig(t_end=5.0)
    records = integrate_flow(p, x0, cfg).x_states[1:-1]
    for raises in (
        lambda x: (x[:, 0] > 0.9).any(),
        lambda x: (x[:, None, :] == records).all(axis=-1).any(),
    ):

        def g_grad(x):
            if np.ndim(x) == 2 and raises(x):
                raise core.NumericError("g_grad failed")
            return p.g_grad(x)

        broken = dataclasses.replace(p, g_grad=g_grad)
        run = lambda: integrate_flow(broken, x0, cfg)
        per_step, *blocked = _outcomes_by_block(monkeypatch, run)
        assert per_step[0] is core.NumericError
        assert re.fullmatch(r"g_grad failed in the flow step from t=\S+ of size \S+", per_step[1])
        assert all(b == per_step for b in blocked)
        with monkeypatch.context() as mp:
            reject_closed_forms(mp)
            assert outcome(run, _FLOW_FIELDS) == per_step


def _pullback_rows(monkeypatch):
    """Count the rows of each stacked closed-form pullback of record times."""
    rows = []

    def closed_form(p, y):
        if np.ndim(y) == 2:
            rows.append(len(y))
        return core._closed_form(p, y)

    monkeypatch.setattr(flow, "_closed_form", closed_form)
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
    # The closed-form pullbacks pass their check, so no inversion runs and
    # every g_hess call comes from the velocity pass after the loop.
    x0, cfg = np.array([1.8, -0.4]), FlowConfig(t_end=3.0, record_stride=1e-2)
    reference = integrate_flow(dw_aniso, x0, cfg)
    if block_rows is not None:
        monkeypatch.setattr(core, "_HESS_BLOCK_BYTES", 8 * 2 * 2 * block_rows)
    rows = _pullback_rows(monkeypatch)
    p, calls = _counted_hessian(dw_aniso)
    trace = integrate_flow(p, x0, cfg)
    m = trace.n_samples
    # One stacked pullback covers every record time: the flow has fewer
    # record-bearing steps than flow._RECORD_BLOCK.
    assert m == 301 and rows == [m - 1]
    per_call = block_rows or m
    assert calls == [(min(per_call, m - start), 2) for start in range(0, m, per_call)]
    for field in ("times", "y_states", "x_states", "f_values", "f_roundoff", "metric_speed_sq"):
        assert getattr(trace, field).tobytes() == getattr(reference, field).tobytes()


# ---------------------------------------------------------------------------
# record states pulled back per block of record-bearing steps

_BLOCKS = (1, 2, 3, flow._RECORD_BLOCK)


def _block_cases():
    cases = _deferred_pass_cases()
    return cases + [(newton_only(cases[0][0]), cases[0][1])]


def _outcomes_by_block(monkeypatch, run, fields=_FLOW_FIELDS):
    """``outcome(run, fields)`` with ``flow._RECORD_BLOCK`` at each of ``_BLOCKS``."""
    results = []
    for block in _BLOCKS:
        with monkeypatch.context() as mp:
            mp.setattr(flow, "_RECORD_BLOCK", block)
            results.append(outcome(run, fields))
    return results


@pytest.mark.parametrize("stride", [1e-2, 0.3])
@pytest.mark.parametrize(
    "case", range(4), ids=["double_well", "quadratic", "shifted", "no_closed_form"]
)
def test_record_blocks_change_no_bit(case, stride, monkeypatch):
    # With a closed form, a block of 1 pulls back each step's record states
    # as it is accepted; longer blocks pull back the same rows, row by row,
    # in fewer calls.  Without one each step does so at any block.  At
    # stride 0.3 some steps cover no record time.
    p, x0 = _block_cases()[case]
    run = lambda: integrate_flow(p, np.array(x0), FlowConfig(t_end=2.0, record_stride=stride))
    per_step, *blocked = _outcomes_by_block(monkeypatch, run)
    assert len(per_step) == len(_FLOW_FIELDS)
    assert all(b == per_step for b in blocked)


def test_rest_mid_block_keeps_the_per_step_trace(quad_canonical, monkeypatch):
    # The gradient passes EQUILIBRIUM_GRAD_TOL near t = 46; steps of the
    # default block run past that sample, and are dropped.
    run = lambda: integrate_flow(
        quad_canonical, np.array([1.0, 0.0]), FlowConfig(t_end=100.0, record_stride=1e-2)
    )
    results = _outcomes_by_block(monkeypatch, run)
    assert all(r == results[0] for r in results[1:])
    rows = _pullback_rows(monkeypatch)
    trace = run()
    assert np.linalg.norm(quad_canonical.f_grad(trace.x_states[-1])) <= flow.EQUILIBRIUM_GRAD_TOL
    # Record times past the one at rest were pulled back, then cut.
    assert sum(rows) > trace.n_samples - 1


def test_a_newton_only_flow_ends_with_the_step_at_rest(quad_canonical, monkeypatch):
    # Without a closed form each accepted step pulls back its record times
    # as it is accepted, after its six stages: no attempt runs past the step
    # that holds the sample at rest, near t = 46, and the trace is the one a
    # block of 1 gives.
    p = newton_only(quad_canonical)
    cfg = FlowConfig(t_end=100.0, record_stride=1e-2)
    run = lambda: integrate_flow(p, np.array([1.0, 0.0]), cfg)
    with monkeypatch.context() as mp:
        mp.setattr(flow, "_RECORD_BLOCK", 1)
        per_step = outcome(run, _FLOW_FIELDS)
    targets = []

    def pullback(p, y, warm_start):
        targets.append(np.array(y))
        return invert_grad_g(p, y, warm_start)

    monkeypatch.setattr(flow, "invert_grad_g", pullback)
    assert outcome(run, _FLOW_FIELDS) == per_step
    times = np.frombuffer(per_step[0])
    y_states, x_states = (np.frombuffer(b).reshape(-1, p.dim) for b in per_step[1:3])
    assert np.linalg.norm(p.f_grad(x_states[-1])) <= flow.EQUILIBRIUM_GRAD_TOL
    assert 40.0 < times[-1] < 50.0
    # One point pullback before the first step, then per step six stage
    # pullbacks and, if it covers record times, one stacked pullback of them
    # (an attempt that covers none adds its stages to the next step's); the
    # last holds the sample at rest.
    kinds = "".join("s" if y.ndim == 2 else "p" for y in targets)
    assert kinds[0] == "p" and kinds.endswith("s")
    assert all(stages and len(stages) % 6 == 0 for stages in kinds[1:-1].split("s"))
    assert (targets[-1] == y_states[-1]).all(axis=1).any()


@pytest.mark.parametrize("error", [core.NumericError, ValueError])
def test_an_error_past_rest_returns_the_cut_trace(error, quad_canonical, monkeypatch):
    # h_grad raises at every stack with a row nearer the origin than `floor`,
    # a function of the point alone.  With a block of 1 the flow stops at
    # the sample at rest, and `floor` is set to the least norm it reads
    # h_grad at.  The default block's closed-form pass runs past rest,
    # nearer the origin, and raises; the rerun through the inversion stops
    # at the sample at rest, as the block of 1 does.
    x0, cfg = np.array([1.0, 0.0]), FlowConfig(t_end=100.0, record_stride=1e-2)
    floor, norms, raised = [0.0], [], [0]

    def h_grad(x):
        norms.append(np.linalg.norm(np.atleast_2d(x), axis=1).min())
        if norms[-1] < floor[0]:
            raised[0] += 1
            raise error("h_grad failed")
        return quad_canonical.h_grad(x)

    p = dataclasses.replace(quad_canonical, h_grad=h_grad)
    run = lambda: integrate_flow(p, x0, cfg)
    with monkeypatch.context() as mp:
        mp.setattr(flow, "_RECORD_BLOCK", 1)
        per_step = outcome(run, _FLOW_FIELDS)
    assert len(per_step) == len(_FLOW_FIELDS)
    assert np.frombuffer(per_step[0])[-1] < cfg.t_end
    floor[0] = min(norms)
    assert outcome(run, _FLOW_FIELDS) == per_step
    assert raised[0] == 1
    # Without the sample at rest pending, the per-step error propagates.
    floor[0], messages = 0.5, []
    for block in (1, flow._RECORD_BLOCK):
        with monkeypatch.context() as mp:
            mp.setattr(flow, "_RECORD_BLOCK", block)
            with pytest.raises(error, match="h_grad failed") as info:
                run()
        messages.append(str(info.value))
    assert messages[0] == messages[1]


@pytest.mark.parametrize("failing", [1, 3])
def test_record_pullback_failure_in_a_block_names_its_step(failing, dw_unit, monkeypatch):
    # With every closed-form check failing, each step's record states are
    # pulled back through invert_grad_g as it is accepted.  A tol of 1e-300
    # leaves the pullback of the `failing`-th record-bearing step stuck at
    # roundoff; the error names that step's start and size, whichever block
    # it sits in.
    reject_closed_forms(monkeypatch)
    real = core.invert_grad_g
    stacks = [0]

    def pullback(p, y, warm):
        if np.ndim(y) == 1:
            return real(p, y, warm)
        stacks[0] += 1
        with monkeypatch.context() as mp:
            if stacks[0] == failing:
                mp.setattr(core, "INVERSION_TOL", 1e-300)
            return real(p, y, warm)

    monkeypatch.setattr(flow, "invert_grad_g", pullback)

    def run():
        stacks[0] = 0
        cfg = FlowConfig(t_end=1.0, record_stride=1e-3)
        return integrate_flow(dw_unit, np.array([0.5, 0.7]), cfg)

    per_step, *blocked = _outcomes_by_block(monkeypatch, run)
    assert per_step[0] is core.ConvergenceError
    step = re.search(r"in the flow step from t=(\S+) of size (\S+)$", per_step[1])
    assert (step[1] == "0") == (failing == 1)
    assert all(b == per_step for b in blocked)


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
    with pytest.raises(StiffnessError) as info:
        integrate_flow(p, np.array([1.0]), cfg)
    assert re.fullmatch(
        r"step size underflow( after rejection)? in the flow step from t=\S+ of size \S+",
        str(info.value),
    )


def test_sample_pullback_failure_names_its_step(dw_unit, monkeypatch):
    # With every closed-form check failing, record times are pulled back
    # through invert_grad_g.  A tol of 1e-300 leaves the batched pullback of
    # the first step's record times stuck at roundoff; the error names the
    # row and then the step.  Field evaluations pull back one dual state, a
    # 1-D target, and keep the default tol.
    reject_closed_forms(monkeypatch)
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


def test_interpolant_numeric_error_names_its_phase(dw_unit):
    # A closed form that is NaN on stacks fails the batched pullback at its
    # start, with no row to name: the error names the pullback and eta.
    nan_stacks = dataclasses.replace(
        dw_unit, g_conj_grad=lambda y: dw_unit.g_conj_grad(y) + (np.nan if np.ndim(y) == 2 else 0.0)
    )
    with pytest.raises(core.NumericError) as info:
        dual_euler_interpolant(nan_stacks, np.array([0.5, 0.5]), 0.1, [0.0, 0.05])
    assert str(info.value) == (
        "non-finite gradient residual at the start point in the interpolant pullback (eta=0.1)"
    )
