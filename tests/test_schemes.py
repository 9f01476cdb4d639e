"""Discrete iteration steps, full runs, and the per-step descent certificates."""

import collections
import dataclasses
import math
import re

import numpy as np
import pytest

from dcflow import (
    Box,
    Mode,
    SchemeConfig,
    descent_margins,
    make_double_well,
    make_quadratic,
    make_shifted_decomposition,
    run_scheme,
)
from dcflow import core, schemes
from dcflow.core import INVERSION_TOL, DcProblem, damped_target, invert_grad_g
from dcflow.schemes import _DESCENT_SLACK, Termination, gradient_identity_margin
from helpers import (
    assert_same_trace,
    count_point_inversions,
    off_at_targets,
    off_closed_form,
    outcome,
    primal_dual_sup_gap,
    reject_closed_forms,
    run_scheme_loop,
)

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


def first_step(p, x0, eta=1.0, mode=Mode.PRIMAL):
    """``x_1`` of a run from ``x0``; ``eta = 1`` is the classical step."""
    cfg = SchemeConfig(eta=eta, max_iter=1)
    return run_scheme(p, np.asarray(x0, dtype=float), cfg, mode).points[1]


def assert_step_fixes(p, x_star, eta):
    """A run from the critical point ``x_star`` stops there at once, and the
    damped step it would take maps ``x_star`` to itself."""
    trace = run_scheme(p, x_star, SchemeConfig(eta=eta, max_iter=1))
    assert trace.termination is Termination.GRAD_TOL and trace.n_points == 1
    target = damped_target(np.asarray(p.g_grad(x_star)), np.asarray(p.h_grad(x_star)), eta)
    np.testing.assert_allclose(invert_grad_g(p, target, x_star), x_star, atol=1e-9)


def test_dca_step_linear_map(quad_canonical):
    # x+ = A^{-1} B x = x/2
    x1 = first_step(quad_canonical, [2.0, 2.0])
    np.testing.assert_allclose(x1, [1.0, 1.0], atol=1e-10)


def test_dca_step_fixed_at_critical_point(dw_unit):
    assert_step_fixes(dw_unit, np.array([1.0, 1.0]), 1.0)


def test_dca_step_scalar_against_bisection():
    # One step from 2 solves x^3 + x = (q+1)*2 = 4.
    p = make_double_well([1.0])
    root = bisect_root(lambda c: c**3 + c - 4.0, 1.0, 2.0)
    x1 = first_step(p, [2.0])
    assert x1[0] == pytest.approx(root, abs=1e-9)
    assert root == pytest.approx(1.3788, abs=1e-4)


def test_damped_step_reduces_to_classical_at_eta_one(dw_unit):
    for x in dw_unit.region.sample(RNG, 10):
        classical = invert_grad_g(dw_unit, dw_unit.h_grad(x), x)
        # At eta = 1 the damped target is grad h(x) itself.
        np.testing.assert_array_equal(first_step(dw_unit, x, 1.0), classical)


def test_damped_step_linear_case(quad_canonical):
    # Target y = 0.5*(4,4) + 0.5*(2,2) = (3,3); solve 2x = y.
    x1 = first_step(quad_canonical, [2.0, 2.0], 0.5)
    np.testing.assert_allclose(x1, [1.5, 1.5], atol=1e-10)


@pytest.mark.parametrize("eta", [0.1, 0.5, 1.0])
def test_damped_step_fixed_at_critical_point(dw_unit, eta):
    assert_step_fixes(dw_unit, np.array([-1.0, 1.0]), eta)


def test_dual_euler_fixed_point_unchanged(dw_unit):
    y_star = np.asarray(dw_unit.g_grad(np.array([1.0, 1.0])))
    x = invert_grad_g(dw_unit, y_star, np.array([1.0, 1.0]))
    out = damped_target(y_star, dw_unit.h_grad(x), 0.5)
    np.testing.assert_allclose(out, y_star, atol=1e-9)


def test_dual_euler_linear_decay(quad_canonical):
    # y+ = (1 - eta/2) y
    y = np.array([2.0, 2.0])
    x = invert_grad_g(quad_canonical, y, np.array([1.0, 1.0]))
    out = damped_target(y, quad_canonical.h_grad(x), 1.0)
    np.testing.assert_allclose(out, [1.0, 1.0], atol=1e-10)


def test_dual_euler_consistent_with_primal_step(dw_unit):
    eta = 0.3
    for x in dw_unit.region.sample(RNG, 10):
        lhs = np.asarray(dw_unit.g_grad(first_step(dw_unit, x, eta)))
        y = np.asarray(dw_unit.g_grad(x))
        rhs = damped_target(y, dw_unit.h_grad(invert_grad_g(dw_unit, y, x)), eta)
        assert np.linalg.norm(lhs - rhs) <= 10.0 * INVERSION_TOL


@pytest.mark.parametrize("eta", [0.3, 0.7])
def test_primal_and_dual_first_steps_are_bit_identical(eta, quad_canonical, dw_aniso):
    # Both modes step from y_0 = grad g(x_0) with the same damped target.
    rng = np.random.default_rng(20240516)
    for p in (quad_canonical, dw_aniso):
        for x0 in p.region.sample(rng, 25):
            primal = first_step(p, x0, eta, Mode.PRIMAL)
            dual = first_step(p, x0, eta, Mode.DUAL)
            assert primal.tobytes() == dual.tobytes()


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


@pytest.mark.parametrize("mode", [Mode.PRIMAL, Mode.DUAL])
@pytest.mark.parametrize("x0", [[0.3, 1.7], [150.0, 120.0]])
def test_gradient_identity_flags_a_perturbed_iterate(dw_unit, x0, mode):
    # The scale max(1, |grad g|) leaves a relative error of 1e-6 in one
    # iterate far above the allowance, near the origin and far from it.
    trace = run_scheme(dw_unit, np.array(x0), SchemeConfig(eta=0.5), mode)
    assert gradient_identity_margin(dw_unit, trace) <= 10.0 * INVERSION_TOL
    for k in (1, trace.n_points // 2, trace.n_points - 1):
        points = trace.points.copy()
        points[k] *= 1.0 + 1e-6
        broken = dataclasses.replace(trace, points=points)
        assert gradient_identity_margin(dw_unit, broken) > 10.0 * INVERSION_TOL


def _descent_margins_loop(p, trace):
    """Per-iterate reference for :func:`descent_margins`."""
    mu = p.box_constants(Box.spanning(trace.points)).metric[0]
    eta = trace.eta
    coef_relaxed = (1.0 - eta) / eta
    coef_strong = (1.0 - eta) * mu / (2.0 * eta)
    f_errs = [p.f_value_and_roundoff(x)[1] for x in trace.points]
    worst_relaxed = worst_strong = np.inf
    for k in range(trace.bregman_steps.size):
        fk, fk1 = trace.f_values[k], trace.f_values[k + 1]
        f_err = f_errs[k] + f_errs[k + 1]
        slack = _DESCENT_SLACK * (1.0 + abs(fk)) + f_err
        relaxed_violation = fk1 + coef_relaxed * trace.bregman_steps[k] - fk
        strong_violation = coef_strong * trace.step_norms[k] ** 2 - (fk - fk1)
        worst_relaxed = min(worst_relaxed, slack + coef_relaxed * f_err - relaxed_violation)
        worst_strong = min(worst_strong, slack - strong_violation)
    return float(worst_relaxed), float(worst_strong)


def _gradient_identity_margin_loop(p, trace):
    """Per-iterate reference for :func:`gradient_identity_margin`."""
    worst = 0.0
    for k in range(trace.points.shape[0] - 1):
        gk, gk1 = p.g_grad(trace.points[k]), p.g_grad(trace.points[k + 1])
        lhs = float(np.linalg.norm(gk1 - gk))
        rhs = trace.eta * float(np.linalg.norm(p.f_grad(trace.points[k])))
        scale = max(1.0, float(np.linalg.norm(gk)), float(np.linalg.norm(gk1)))
        worst = max(worst, abs(lhs - rhs) / scale)
    return worst


@pytest.mark.parametrize("eta", [0.3, 1.0])
@pytest.mark.parametrize("mode", [Mode.PRIMAL, Mode.DUAL])
def test_stacked_scheme_checks_equal_per_iterate_loops(eta, mode, quad_canonical):
    shifted = make_shifted_decomposition(make_double_well([0.5, 2.0, 1.0]), [0.3, 0.0, 1.5])
    for p, x0 in ((shifted, [1.7, -0.4, 0.9]), (quad_canonical, [1.5, -0.8])):
        cfg = SchemeConfig(eta=eta, max_iter=60)
        trace = run_scheme(p, np.array(x0), cfg, mode)
        # A run started at a minimizer has one point and no step.
        at_rest = run_scheme(p, p.minimizer, cfg, mode)
        assert trace.n_points > 2 and at_rest.n_points == 1
        for t in (trace, at_rest):
            assert descent_margins(p, t) == _descent_margins_loop(p, t)
            assert gradient_identity_margin(p, t) == _gradient_identity_margin_loop(p, t)


def _bit_identity_cases(eta, quad_canonical, dw_aniso):
    shifted = make_shifted_decomposition(make_double_well([0.5, 2.0, 1.0]), [0.3, 0.0, 1.5])
    # h drops by 1 once x_0 < 1.3, so f jumps up there: the guard trips
    # after a few steps from x_0 = 1.9.
    jump = dataclasses.replace(
        dw_aniso, h_value=lambda x: dw_aniso.h_value(x) - np.where(x[..., 0] < 1.3, 1.0, 0.0)
    )
    return [
        (dw_aniso, [0.5, -0.7], SchemeConfig(eta=eta, max_iter=400)),
        (quad_canonical, [1.5, -0.8], SchemeConfig(eta=eta, max_iter=400)),
        (shifted, [1.7, -0.4, 0.9], SchemeConfig(eta=eta, max_iter=400)),
        # Stopped by the cap, by the divergence guard, and at rest.
        (dw_aniso, [1.9, 0.2], SchemeConfig(eta=eta, max_iter=5)),
        (jump, [1.9, 0.2], SchemeConfig(eta=eta)),
        # At eta = 1 the first step of this split ascends.
        (_concave_h_problem(), [1.0], SchemeConfig(eta=1.0, max_iter=50)),
        (shifted, shifted.minimizer, SchemeConfig(eta=eta)),
    ]


@pytest.mark.parametrize("eta", [0.3, 1.0])
@pytest.mark.parametrize("mode", [Mode.PRIMAL, Mode.DUAL])
def test_run_scheme_is_bit_identical_to_per_iterate_loop(eta, mode, quad_canonical, dw_aniso):
    terminations = set()
    for p, x0, cfg in _bit_identity_cases(eta, quad_canonical, dw_aniso):
        trace = run_scheme(p, np.array(x0), cfg, mode)
        assert_same_trace(trace, run_scheme_loop(p, np.array(x0), cfg, mode))
        terminations.add((trace.termination, trace.n_points == 1))
    assert terminations == {
        (Termination.GRAD_TOL, False),
        (Termination.MAX_ITER, False),
        (Termination.NUMERIC_ERROR, False),
        (Termination.NUMERIC_ERROR, True),
        (Termination.GRAD_TOL, True),
    }


@pytest.mark.parametrize("block", [1, 2, 3])
@pytest.mark.parametrize("mode", [Mode.PRIMAL, Mode.DUAL])
def test_guard_blocks_are_bit_identical_to_per_iterate_loop(
    block, mode, quad_canonical, dw_aniso, monkeypatch
):
    # A block of 1 judges each iterate as it is logged, as the reference
    # does; the test above runs the default block on the same cases.
    monkeypatch.setattr(schemes, "_GUARD_BLOCK", block)
    for p, x0, cfg in _bit_identity_cases(0.3, quad_canonical, dw_aniso):
        trace = run_scheme(p, np.array(x0), cfg, mode)
        assert_same_trace(trace, run_scheme_loop(p, np.array(x0), cfg, mode))


# From here x_0 falls at every one of the first 100 iterates (eta = 0.5),
# toward the minimizer's 1.
_TRIP_START = np.array([1.9, 0.2])
_TRIP_CFG = SchemeConfig(eta=0.5)


def _cut_before(p, mode, j, field="points"):
    """A first coordinate between rows ``j - 1`` and ``j`` of the ``field``
    of ``p``'s run from ``_TRIP_START``, along which it falls strictly."""
    trace = run_scheme(p, _TRIP_START, dataclasses.replace(_TRIP_CFG, max_iter=j), mode)
    v = getattr(trace, field)[:, 0]
    assert v.size == j + 1 and np.all(np.diff(v) < 0.0)
    return 0.5 * (v[j - 1] + v[j])


def _jump_below(p, cut):
    """``p`` with ``h`` lowered by 1 where ``x_0 < cut``: ``f`` jumps up
    there, while the gradients, and so the iterates, stay those of ``p``."""
    return dataclasses.replace(
        p, h_value=lambda x: p.h_value(x) - np.where(x[..., 0] < cut, 1.0, 0.0)
    )


def _nan_grad_h_below(p, cut):
    """``p`` with a NaN ``h_grad`` where ``x_0 < cut``."""
    return dataclasses.replace(
        p, h_grad=lambda x: np.where(x[..., :1] < cut, np.nan, p.h_grad(x))
    )


def _wrong_closed_form_below(p, cut):
    """``p`` with a closed form off by 1e-6 at targets where ``y_0 < cut``."""

    def g_conj_grad(y):
        x = np.array(p.g_conj_grad(y), dtype=float)
        x[np.asarray(y)[..., 0] < cut] += 1e-6
        return x

    return dataclasses.replace(p, g_conj_grad=g_conj_grad)


def _counted_pullbacks(p):
    """``p`` with its closed form counting its calls, the list's one entry."""
    count = [0]

    def g_conj_grad(y):
        count[0] += 1
        return p.g_conj_grad(y)

    return dataclasses.replace(p, g_conj_grad=g_conj_grad), count


@pytest.mark.parametrize("block", [3, None], ids=["3", "default"])
@pytest.mark.parametrize("trip", ["B-1", "B", "B+1", "2B+1"])
@pytest.mark.parametrize("mode", [Mode.PRIMAL, Mode.DUAL])
def test_guard_trips_around_block_ends(trip, block, mode, dw_aniso, monkeypatch):
    if block is not None:
        monkeypatch.setattr(schemes, "_GUARD_BLOCK", block)
    b = schemes._GUARD_BLOCK
    j = {"B-1": b - 1, "B": b, "B+1": b + 1, "2B+1": 2 * b + 1}[trip]
    p = _jump_below(dw_aniso, _cut_before(dw_aniso, mode, j))
    counted, pullbacks = _counted_pullbacks(p)
    trace = run_scheme(counted, _TRIP_START, _TRIP_CFG, mode)
    assert_same_trace(trace, run_scheme_loop(p, _TRIP_START, _TRIP_CFG, mode))
    assert trace.termination is Termination.NUMERIC_ERROR and trace.n_points == j
    # Each iteration pulls back once, and the per-iterate guard stops after
    # x_j, its j-th.  The blocks are x_0..x_{B-1}, x_B..x_{2B-1}, ..., each
    # judged once it is full, so the one holding x_j ends the run.
    assert pullbacks[0] == b * math.ceil((j + 1) / b) - 1
    assert j <= pullbacks[0] <= j + b - 1


def _failing_at(failure, p, mode, k):
    """``p`` broken so that iteration ``k`` of its run raises: a NaN ``h_grad``
    at ``x_k`` ends in the inversion's NumericError, and a wrong closed form
    at the target of ``x_{k+1}``, with no Newton step allowed, in a
    ConvergenceError."""
    if failure == "nan_grad_h":
        return _nan_grad_h_below(p, _cut_before(p, mode, k))
    return _wrong_closed_form_below(p, _cut_before(p, mode, k + 1, "y_states"))


@pytest.mark.parametrize("failure", ["nan_grad_h", "convergence"])
@pytest.mark.parametrize("mode", [Mode.PRIMAL, Mode.DUAL])
def test_an_error_past_a_trip_ends_the_run_at_the_trip(failure, mode, dw_aniso, monkeypatch):
    # The guard trips at iterate 5, and iteration 6, in the same block,
    # raises.  The per-iterate guard stops before it, so the run ends at the
    # trip.
    j = 5
    monkeypatch.setattr(core, "_MAX_NEWTON_ITER", 0)
    broken = _failing_at(failure, dw_aniso, mode, j + 1)
    with pytest.raises((core.NumericError, core.ConvergenceError)):
        run_scheme(broken, _TRIP_START, _TRIP_CFG, mode)
    p = _jump_below(broken, _cut_before(dw_aniso, mode, j))
    trace = run_scheme(p, _TRIP_START, _TRIP_CFG, mode)
    assert_same_trace(trace, run_scheme_loop(p, _TRIP_START, _TRIP_CFG, mode))
    assert trace.termination is Termination.NUMERIC_ERROR and trace.n_points == j


@pytest.mark.parametrize("failure", ["nan_grad_h", "convergence"])
@pytest.mark.parametrize("mode", [Mode.PRIMAL, Mode.DUAL])
def test_an_error_with_no_trip_names_its_iteration(failure, mode, dw_aniso, monkeypatch):
    # With no trip before it, the error of iteration 6 propagates as the
    # per-iterate loop raises it, its message naming the iteration and eta.
    k = 6
    monkeypatch.setattr(core, "_MAX_NEWTON_ITER", 0)
    p = _failing_at(failure, dw_aniso, mode, k)
    got = outcome(lambda: run_scheme(p, _TRIP_START, _TRIP_CFG, mode), ())
    want = outcome(lambda: run_scheme_loop(p, _TRIP_START, _TRIP_CFG, mode), ())
    expected = core.NumericError if failure == "nan_grad_h" else core.ConvergenceError
    assert got[0] is want[0] is expected
    assert got[1] == f"{want[1]} in scheme iteration {k} (eta=0.5)"


_ORACLES = ("g_value", "h_value", "g_grad", "h_grad", "g_hess", "h_hess", "g_conj_grad")
# Calls at one point allowed per accepted iteration of a problem with a
# closed-form pullback; one g_grad call checks the pullback and is the next
# iterate's gradient.  The objective is read only in stacked calls.
_PER_ITERATION = {"g_grad": 1, "h_grad": 1, "g_conj_grad": 1}


def _counted(p):
    """``p`` with every oracle counting its calls, by name and shape."""
    calls = collections.Counter()

    def wrap(name, fn):
        def counted(x):
            calls[name, np.ndim(x)] += 1
            return fn(x)

        return counted

    return dataclasses.replace(p, **{n: wrap(n, getattr(p, n)) for n in _ORACLES}), calls


def _counted_start_tests(monkeypatch):
    """Count the scheme's block tests of closed-form pullbacks, the list's
    one entry."""
    count = [0]

    def counted(*args):
        count[0] += 1
        return core._check_block(*args)

    monkeypatch.setattr(schemes, "_check_block", counted)
    return count


@pytest.mark.parametrize("mode", [Mode.PRIMAL, Mode.DUAL])
def test_run_scheme_reads_each_oracle_once_per_iterate(mode, dw_aniso, monkeypatch):
    shifted = make_shifted_decomposition(dw_aniso, [0.5, 1.0])
    for p in (dw_aniso, shifted):
        counted, calls = _counted(p)
        tests = _counted_start_tests(monkeypatch)
        trace = run_scheme(counted, np.array([1.8, -0.3]), SchemeConfig(eta=0.5), mode)
        steps = trace.n_points - 1
        assert trace.termination is Termination.GRAD_TOL and steps > 20
        for name in _ORACLES:
            # The gradients once more at the start point; every pullback
            # passes its test, so none is inverted.
            at_start = name in ("g_grad", "h_grad")
            assert calls[name, 1] == _PER_ITERATION.get(name, 0) * steps + at_start, name
        # The guard: one g_value and one h_value call per block of iterates.
        # The log: two g_value and one g_grad call on the stacked iterates.
        blocks = math.ceil(trace.n_points / schemes._GUARD_BLOCK)
        assert blocks > 1
        stacked = {key: n for key, n in calls.items() if key[1] == 2}
        assert stacked == {("g_value", 2): blocks + 2, ("h_value", 2): blocks, ("g_grad", 2): 1}
        # One test of the pullbacks of each block the guard judges.
        assert tests[0] == blocks


_SCHEME_FIELDS = (
    "points", "y_states", "f_values", "f_roundoff", "grad_norms", "bregman_steps",
    "step_norms", "termination",
)


def _scheme_cases():
    return [
        (make_double_well([1.0, 4.0]), [1.8, -0.3]),
        (make_quadratic([[3.0, 1.0], [1.0, 2.0]], np.eye(2)), [1.0, -0.6]),
        (make_shifted_decomposition(make_double_well([0.5, 2.0, 1.0]), [0.3, 0.0, 1.5]),
         [1.7, -0.4, 0.9]),
    ]


@pytest.mark.parametrize("mode", [Mode.PRIMAL, Mode.DUAL])
@pytest.mark.parametrize("case", range(3), ids=["double_well", "quadratic", "shifted"])
def test_inverted_iterates_equal_checked_ones(case, mode, monkeypatch):
    # With every check of a closed-form pullback failing, each iterate goes
    # through invert_grad_g and ends bit for bit where the checked one did.
    p, x0 = _scheme_cases()[case]
    run = lambda: run_scheme(p, np.array(x0), SchemeConfig(eta=0.5, max_iter=60), mode)
    steps = run().n_points - 1
    inversions = count_point_inversions(monkeypatch, schemes)
    checked = outcome(run, _SCHEME_FIELDS)
    assert inversions[0] == 0
    reject_closed_forms(monkeypatch)
    assert outcome(run, _SCHEME_FIELDS) == checked
    assert inversions[0] == steps > 5


@pytest.mark.parametrize("mode", [Mode.PRIMAL, Mode.DUAL])
@pytest.mark.parametrize("case", range(3), ids=["double_well", "quadratic", "shifted"])
def test_a_failed_check_calls_the_closed_form_once(case, mode, monkeypatch):
    # The test of the first block fails, after one g_conj_grad and one
    # g_grad call per pullback in it, and the run is made again with every
    # pullback through invert_grad_g: each iterate calls g_conj_grad and
    # g_grad once each to pull back, and once more g_grad for the next
    # iterate's gradient.
    p, x0 = _scheme_cases()[case]
    calls = []

    def g_conj_grad(y):
        calls.append("g_conj_grad")
        return p.g_conj_grad(y)

    def g_grad(x):
        if np.ndim(x) == 1:
            calls.append("g_grad")
        return p.g_grad(x)

    counted = dataclasses.replace(p, g_conj_grad=g_conj_grad, g_grad=g_grad)
    reject_closed_forms(monkeypatch)
    trace = run_scheme(counted, np.array(x0), SchemeConfig(eta=0.5, max_iter=60), mode)
    # Newton takes no step: the closed form meets the real stopping rule.
    steps = trace.n_points - 1
    assert steps > 5
    failed = ["g_grad"] + ["g_conj_grad", "g_grad"] * min(steps, schemes._GUARD_BLOCK - 1)
    assert calls == failed + ["g_grad"] + ["g_conj_grad", "g_grad", "g_grad"] * steps


@pytest.mark.parametrize("newton_steps", [None, 0], ids=["newton", "no_newton"])
@pytest.mark.parametrize("defect", [np.nan, 1e-6], ids=["nan", "off"])
@pytest.mark.parametrize("mode", [Mode.PRIMAL, Mode.DUAL])
def test_a_wrong_closed_form_fails_as_without_the_check(mode, defect, newton_steps, monkeypatch):
    # Wrong only at targets with y[0] > 1, which the run reaches from x0:
    # the iterate whose check catches it goes through invert_grad_g, so
    # Newton and every error run as they do with every check failing.
    p = off_closed_form(make_double_well([1.0, 4.0]), defect, threshold=1.0)
    if newton_steps is not None:
        monkeypatch.setattr(core, "_MAX_NEWTON_ITER", newton_steps)
    run = lambda: run_scheme(p, np.array([0.5, 0.5]), SchemeConfig(eta=0.5), mode)
    inversions = count_point_inversions(monkeypatch, schemes)
    checked = outcome(run, _SCHEME_FIELDS)
    assert inversions[0] > 0
    reject_closed_forms(monkeypatch)
    assert outcome(run, _SCHEME_FIELDS) == checked
    if np.isnan(defect):
        assert checked[0] is core.NumericError
        assert re.fullmatch(
            r"non-finite gradient residual at the start point in scheme iteration [1-9]\d* "
            r"\(eta=0\.5\)",
            checked[1],
        )
    elif newton_steps == 0:
        assert checked[0] is core.ConvergenceError
        assert re.search(r"\(residual \S+\) in scheme iteration [1-9]\d* \(eta=0\.5\)$", checked[1])
    else:
        assert len(checked) == len(_SCHEME_FIELDS)


# From here an eta = 0.5 run takes 130 steps: its pullbacks are tested in
# the blocks the guard judges, x_1..x_31, x_32..x_63, ...
_LONG_START = np.array([1.8, -0.3])


@pytest.mark.parametrize("i", [1, 2, 32, 47, 63, 64], ids=lambda i: f"x{i}")
@pytest.mark.parametrize("mode", [Mode.PRIMAL, Mode.DUAL])
def test_a_failed_start_test_resumes_at_its_iterate(mode, i, dw_aniso, monkeypatch):
    # The closed form is off at the target of x_i alone.  The test of the
    # block holding x_i fails, nothing is tested past it, and the run is
    # made again with every pullback inverted, so the trace is the
    # per-iterate loop's, as if it had resumed at x_i.
    cfg = SchemeConfig(eta=0.5)
    clean = run_scheme(dw_aniso, _LONG_START, cfg, mode)
    assert clean.n_points > 100
    p = off_at_targets(dw_aniso, clean.y_states[i : i + 1], 1e-6)
    inversions = count_point_inversions(monkeypatch, schemes)
    tests = _counted_start_tests(monkeypatch)
    trace = run_scheme(p, _LONG_START, cfg, mode)
    assert inversions[0] == trace.n_points - 1
    assert_same_trace(trace, run_scheme_loop(p, _LONG_START, cfg, mode))
    assert trace.points[i].tobytes() != clean.points[i].tobytes()
    # The blocks x_1..x_31, x_32..x_63, ... up to x_i's.
    assert tests[0] == 1 + i // schemes._GUARD_BLOCK


@pytest.mark.parametrize("mode", [Mode.PRIMAL, Mode.DUAL])
def test_an_error_past_a_failed_pullback_is_not_reached(mode, dw_aniso, monkeypatch):
    # The closed form is NaN at the target of x_40 alone, and raises
    # ValueError at a NaN target, the next one the run makes.  The test
    # before that error propagates fails, and the run made again stops at
    # x_40, whose Newton start raises the NumericError, so the later
    # ValueError never happens.
    cfg = SchemeConfig(eta=0.5)
    clean = run_scheme(dw_aniso, _LONG_START, cfg, mode)
    p = off_at_targets(dw_aniso, clean.y_states[40:41], np.nan)

    def g_conj_grad(y):
        if np.isnan(y).any():
            raise ValueError("NaN target")
        return p.g_conj_grad(y)

    broken = dataclasses.replace(p, g_conj_grad=g_conj_grad)
    run = lambda: run_scheme(broken, _LONG_START, cfg, mode)
    checked = outcome(run, _SCHEME_FIELDS)
    assert checked == (core.NumericError, (
        "non-finite gradient residual at the start point in scheme iteration 39 (eta=0.5)"
    ))
    reject_closed_forms(monkeypatch)
    assert outcome(run, _SCHEME_FIELDS) == checked


def test_a_nan_closed_form_ends_the_run_within_a_block(dw_aniso, monkeypatch):
    # NaN pullbacks go untested until the guard's block closes: at most a
    # block of iterates runs past the first, and the error is the
    # per-iterate test's.
    p = off_closed_form(dw_aniso, np.nan, threshold=1.0)
    nan_pullbacks = [0]

    def g_conj_grad(y):
        x = p.g_conj_grad(y)
        nan_pullbacks[0] += bool(np.isnan(x).any())
        return x

    counted = dataclasses.replace(p, g_conj_grad=g_conj_grad)
    run = lambda: run_scheme(counted, np.array([0.5, 0.5]), SchemeConfig(eta=0.5))
    checked = outcome(run, _SCHEME_FIELDS)
    assert checked[0] is core.NumericError
    assert 0 < nan_pullbacks[0] <= schemes._GUARD_BLOCK
    reject_closed_forms(monkeypatch)
    assert outcome(run, _SCHEME_FIELDS) == checked


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


def _concave_h_problem() -> DcProblem:
    """A broken split: ``h`` is concave, so the scheme ascends."""
    return DcProblem(
        dim=1,
        g_value=lambda x: 0.5 * x[..., 0] ** 2,
        h_value=lambda x: -(x[..., 0] ** 2),
        g_grad=lambda x: x.copy(),
        h_grad=lambda x: -2.0 * x,
        g_hess=lambda x: np.broadcast_to(np.eye(1), x.shape[:-1] + (1, 1)),
        h_hess=lambda x: np.broadcast_to(-2.0 * np.eye(1), x.shape[:-1] + (1, 1)),
    )


def test_divergence_guard_flags_broken_oracle():
    # h here is concave, so the ascent it triggers must be flagged, not logged.
    p = _concave_h_problem()
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
