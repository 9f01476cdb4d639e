"""Property tests over random instances: primal/dual equivalence, descent,
the gradient and energy identities, the closed-form quadratic flow, the
closed-form box constants, the damped scheme's rate bound, stacked
oracles and inversions against single-point calls, the closed-form
pullback against the inversion's stopping rule, the exact diagonal path
of the stacked Hessian kernels against LAPACK, and the symmetric-definite
pencil kernel on indefinite and singular ``h``, the scheme's guard
blocks against the per-iterate guard, the scheme's gradient norm
against ``np.linalg.norm``, and far starts, where no check of a
closed-form pullback fails.

Hypothesis draws SPD quadratic splits and double-well weights in one to six
dimensions, with a start point in the built-in region and a relaxation
parameter in (0, 1], or with a shift and a box for the box constants; the
stack tests draw them, maybe shifted, in one to twelve dimensions.  Every
run is derandomized, so the suite stays deterministic.

Double-well starts may sit arbitrarily close to 0, the coordinate of the
objective's local maximum.  Near it the damped map expands by ``1 + eta/q``
per step and amplifies whatever residual the gradient inversion leaves, so
primal and dual runs agree to 1e-8 only because that residual is relative
to the target; the pinned example below broke criterion 01 (a gap of
1.7e-8) while the inversion stopped on an absolute residual.
"""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dcflow import (
    Box,
    FlowConfig,
    SchemeConfig,
    closed_form_linear_flow,
    descent_margins,
    integrate_flow,
    make_double_well,
    make_quadratic,
    make_shifted_decomposition,
    run_scheme,
)
from dcflow.analysis import (
    checked_box_constants,
    damped_pl_report,
    energy_residuals,
    local_exp_certificate,
)
from dcflow import core, flow, schemes
from dcflow.core import INVERSION_TOL, ROUNDOFF, flow_velocity, invert_grad_g
from dcflow.problems import _per_point
from dcflow.schemes import Mode, gradient_identity_margin
from helpers import (
    assert_same_trace,
    dense_hessians,
    newton_only,
    outcome,
    primal_dual_sup_gap,
    reject_closed_forms,
    run_scheme_loop,
)

PROPERTY_SETTINGS = settings(max_examples=50, derandomize=True, deadline=None, database=None)

dims = st.integers(min_value=1, max_value=6)
etas = st.floats(min_value=0.05, max_value=1.0)


def _rotation(m: np.ndarray) -> np.ndarray:
    q, r = np.linalg.qr(m)
    return q * np.where(np.diag(r) < 0.0, -1.0, 1.0)


@st.composite
def quadratic_pairs(draw, n):
    """``a`` SPD with eigenvalues in [0.5, 4] and ``b = a^(1/2) C a^(1/2)``,
    ``C`` with eigenvalues in [0, 0.9], so ``b`` and ``a - b`` are PSD."""
    unit = st.floats(min_value=-1.0, max_value=1.0)
    u = _rotation(draw(arrays(float, (n, n), elements=unit)))
    v = _rotation(draw(arrays(float, (n, n), elements=unit)))
    lam = draw(arrays(float, n, elements=st.floats(min_value=0.5, max_value=4.0)))
    c = draw(arrays(float, n, elements=st.floats(min_value=0.0, max_value=0.9)))
    a = (u * lam) @ u.T
    sqrt_a = (u * np.sqrt(lam)) @ u.T
    b = sqrt_a @ ((v * c) @ v.T) @ sqrt_a
    return 0.5 * (a + a.T), 0.5 * (b + b.T)


def quadratic_splits(n):
    return quadratic_pairs(n).map(lambda ab: make_quadratic(*ab))


@st.composite
def quadratic_instances(draw):
    n = draw(dims)
    p = draw(quadratic_splits(n))
    x0 = draw(arrays(float, n, elements=st.floats(min_value=-2.0, max_value=2.0)))
    return p, x0


@st.composite
def double_well_instances(draw):
    n = draw(dims)
    q = draw(arrays(float, n, elements=st.floats(min_value=0.25, max_value=4.0)))
    magnitude = st.floats(min_value=0.0, max_value=2.0)
    x0 = draw(arrays(float, n, elements=st.one_of(magnitude, magnitude.map(lambda v: -v))))
    return make_double_well(q), x0


def _check_equivalence_and_descent(p, x0, eta):
    assert primal_dual_sup_gap(p, x0, SchemeConfig(eta=eta), 15) <= 1e-8
    trace = run_scheme(p, x0, SchemeConfig(eta=eta, max_iter=40))
    relaxed, strong = descent_margins(p, trace)
    assert relaxed >= 0.0
    assert strong >= 0.0
    assert gradient_identity_margin(p, trace) <= 10.0 * INVERSION_TOL


@PROPERTY_SETTINGS
@given(quadratic_instances(), etas)
def test_quadratic_split_primal_dual_and_descent(instance, eta):
    p, x0 = instance
    _check_equivalence_and_descent(p, x0, eta)


@PROPERTY_SETTINGS
@given(double_well_instances(), etas)
@example((make_double_well([0.5]), np.array([2.0**-14])), 0.5)
@example((make_double_well([0.25]), np.array([7e-5])), 0.25)
def test_double_well_primal_dual_and_descent(instance, eta):
    p, x0 = instance
    _check_equivalence_and_descent(p, x0, eta)


def _flow_with_energy_check(p, x0):
    """Integrate to t = 1 at stride 1e-2 and bound the energy-identity
    defect as the CLI's ``energy_identity`` check does: by 1e-5, or by ten
    times the largest second difference of the sampled objective, the scale
    of the central difference's truncation error."""
    trace = integrate_flow(p, x0, FlowConfig(t_end=1.0, record_stride=1e-2))
    if trace.n_samples > 2:
        allowed = max(1e-5, 10.0 * float(np.max(np.abs(np.diff(trace.f_values, 2)))))
        assert float(np.nanmax(energy_residuals(trace)[1:-1])) <= allowed
    return trace


@PROPERTY_SETTINGS
@given(quadratic_instances())
def test_quadratic_flow_matches_closed_form(instance):
    p, x0 = instance
    trace = _flow_with_energy_check(p, x0)
    a, b = p.g_hess(x0), p.h_hess(x0)
    exact = np.array([closed_form_linear_flow(a, b, x0, t) for t in trace.times])
    assert float(np.max(np.abs(trace.x_states - exact))) <= 1e-6 * max(1.0, float(np.max(np.abs(x0))))


@PROPERTY_SETTINGS
@given(double_well_instances())
def test_double_well_flow_energy_identity(instance):
    p, x0 = instance
    _flow_with_energy_check(p, x0)


@st.composite
def guarded_runs(draw):
    """A double well or an SPD quadratic split with a start, its ``h`` maybe
    lowered by 1 or made NaN farther than ``r`` from the start, so the guard
    may trip at any iterate, with a run's mode, relaxation, cap and guard
    block."""
    p, x0 = draw(st.one_of(double_well_instances(), quadratic_instances()))
    jump = draw(st.sampled_from([0.0, 1.0, np.nan]))
    if jump != 0.0:
        r = draw(st.floats(min_value=0.0, max_value=1.0))
        h_value = p.h_value
        p = dataclasses.replace(
            p,
            h_value=lambda x: h_value(x) - np.where(np.vecdot(x - x0, x - x0) > r * r, jump, 0.0),
        )
    cfg = SchemeConfig(eta=draw(etas), max_iter=draw(st.integers(min_value=1, max_value=80)))
    mode = draw(st.sampled_from([Mode.PRIMAL, Mode.DUAL]))
    return p, x0, cfg, mode, draw(st.sampled_from([1, 2, 3, 5, 32]))


@PROPERTY_SETTINGS
@given(guarded_runs())
def test_guard_blocks_equal_the_per_iterate_guard(run):
    p, x0, cfg, mode, block = run
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(schemes, "_GUARD_BLOCK", block)
        trace = run_scheme(p, x0, cfg, mode)
    assert_same_trace(trace, run_scheme_loop(p, x0, cfg, mode))


@st.composite
def far_starts(draw):
    """A double well or an SPD quadratic split in one to six dimensions and
    a start at a distance ``r`` from the origin, log-uniform on [1, 1e4]."""
    n = draw(dims)
    if draw(st.booleans()):
        p = make_double_well(draw(arrays(float, n, elements=st.floats(0.25, 4.0))))
    else:
        p = draw(quadratic_splits(n))
    u = draw(arrays(float, n, elements=st.floats(-1.0, 1.0)))
    norm = np.linalg.norm(u)
    u = u / norm if norm > 1e-3 else np.ones(n) / np.sqrt(n)
    return p, 10.0 ** draw(st.floats(0.0, 4.0)) * u


_FLOW_FIELDS = ("times", "y_states", "x_states", "f_values", "f_roundoff", "metric_speed_sq")
_SCHEME_FIELDS = (
    "points", "y_states", "f_values", "f_roundoff", "grad_norms", "bregman_steps",
    "step_norms", "termination",
)


@settings(PROPERTY_SETTINGS, max_examples=20)
@given(far_starts())
def test_far_starts_fail_no_closed_form_check(instance):
    # Far out the stopping rule's goal lies below the roundoff of grad g,
    # and its roundoff exit keeps the closed form: no check fails, so
    # nothing is inverted but the flow's first field evaluation, and every
    # field equals the run with every check failing.
    p, x0 = instance
    scheme = lambda mode: run_scheme(p, x0, SchemeConfig(eta=0.5, max_iter=100), mode)
    runs = [(lambda: integrate_flow(p, x0, FlowConfig(t_end=2.0)), _FLOW_FIELDS, 1)] + [
        (lambda mode=mode: scheme(mode), _SCHEME_FIELDS, 0) for mode in (Mode.PRIMAL, Mode.DUAL)
    ]
    for run, fields, field_evaluations in runs:
        inversions = []

        def counted(p, y, warm_start):
            inversions.append(y)
            return invert_grad_g(p, y, warm_start)

        with pytest.MonkeyPatch.context() as mp:
            for module in (flow, schemes):
                mp.setattr(module, "invert_grad_g", counted)
            checked = outcome(run, fields)
        assert len(inversions) <= field_evaluations and len(checked) == len(fields)
        with pytest.MonkeyPatch.context() as mp:
            reject_closed_forms(mp)
            assert outcome(run, fields) == checked


@st.composite
def problems_on_boxes(draw):
    """A double well or an SPD quadratic split, maybe shifted by ``d >= 0``,
    and a box of width up to 1.5 per coordinate, which may straddle 0."""
    n = draw(dims)
    if draw(st.booleans()):
        p = make_double_well(draw(arrays(float, n, elements=st.floats(0.25, 4.0))))
    else:
        p = draw(quadratic_splits(n))
    if draw(st.booleans()):
        p = make_shifted_decomposition(p, draw(arrays(float, n, elements=st.floats(0.0, 3.0))))
    lower = draw(arrays(float, n, elements=st.floats(-2.0, 2.0)))
    width = draw(arrays(float, n, elements=st.floats(0.0, 1.5)))
    return p, Box(lower, lower + width), None


def _box_samples(box: Box) -> np.ndarray:
    """Corners, center, the center moved to each face, and a seeded fill."""
    n = box.dim
    center = box.center()
    faces = []
    for i, end in itertools.product(range(n), (box.lower, box.upper)):
        x = center.copy()
        x[i] = end[i]
        faces.append(x)
    corners = [np.where(bits, box.upper, box.lower) for bits in itertools.product((0, 1), repeat=n)]
    fill = box.sample(np.random.default_rng(n), 30)
    return np.vstack([center[None, :], faces, corners, fill])


@PROPERTY_SETTINGS
@given(problems_on_boxes())
# Corners and Halton points read 0.2677 here; the infimum, attained where
# one coordinate sits at 0.9 and the others at 1, is 1.62 / 6.33.
@example((make_double_well([1.3, 2.2, 3.9]), Box(np.full(3, 0.9), np.full(3, 1.1)), 0.2559))
def test_box_constants_bound_every_sample(instance):
    p, box, expected_sigma = instance
    bc = p.box_constants(box)
    assert bc.metric[0] <= bc.metric[1] and bc.objective[0] <= bc.objective[1]
    assert bc.sigma >= 0.0
    eps = np.finfo(float).eps
    ratios = []
    for x in _box_samples(box):
        metric = p.g_hess(x)
        w = np.linalg.eigvalsh(metric)
        tol = 1e3 * eps * max(1.0, abs(w[-1]))
        assert bc.metric[0] - tol <= w[0] and w[-1] <= bc.metric[1] + tol
        hess_f = np.asarray(metric, dtype=float) - np.asarray(p.h_hess(x), dtype=float)
        v = np.linalg.eigvalsh(hess_f)
        assert bc.objective[0] - tol <= v[0] and v[-1] <= bc.objective[1] + tol
        g, h = p.g_value(x), p.h_value(x)
        gap = (g - h) - p.f_star
        noise = 1e3 * eps * (abs(g) + abs(h) + abs(p.f_star))
        if gap > noise:
            ratio = flow_velocity(p, x)[2] / (2.0 * gap)
            assert ratio >= bc.sigma * (1.0 - noise / gap - 1e-12)
            ratios.append(ratio)
    # The library's own cross-check agrees on the same instances.
    assert checked_box_constants(p, box, n_samples=20) == bc
    if expected_sigma is not None:
        assert bc.sigma == pytest.approx(expected_sigma, abs=5e-5)
        assert min(ratios) == pytest.approx(bc.sigma, rel=1e-12)
        cert = local_exp_certificate(p, p.minimizer, box)
        assert cert.hess_f_lower == bc.objective[0]


@st.composite
def stacked_box_sweeps(draw):
    """A :func:`problems_on_boxes` instance with one or two more boxes of
    the same kind, a probe count of 400, 200 or 20 per box, and constants
    that claim too much on one or two boxes: 5% more sigma, or a metric or
    objective range narrowed by 5% of its width at one end."""
    p, box, _ = draw(problems_on_boxes())
    boxes = [box]
    for _ in range(draw(st.integers(1, 2))):
        lower = draw(arrays(float, p.dim, elements=st.floats(-2.0, 2.0)))
        boxes.append(Box(lower, lower + draw(arrays(float, p.dim, elements=st.floats(0.0, 1.5)))))
    counts = [draw(st.sampled_from([400, 200, 20])) for _ in boxes]
    lying = draw(st.lists(st.integers(0, len(boxes) - 1), min_size=1, max_size=2, unique=True))
    claims = ["metric_lo", "metric_hi", "objective_lo", "objective_hi", "sigma"]
    claim = draw(st.sampled_from(claims))
    return p, boxes, counts, lying, claim


def _claiming(p, boxes, lying, claim):
    """``p`` whose box constants claim ``claim`` on the boxes of ``lying``."""

    def constants(box):
        bc = p.box_constants(box)
        if not any(box is boxes[i] for i in lying):
            return bc
        if claim == "sigma":
            return dataclasses.replace(bc, sigma=1.05 * bc.sigma)
        name, end = claim.split("_")
        lo, hi = getattr(bc, name)
        width = 0.05 * (hi - lo)
        narrowed = (lo + width, hi) if end == "lo" else (lo, hi - width)
        return dataclasses.replace(bc, **{name: narrowed})

    return dataclasses.replace(p, box_constants=constants)


@PROPERTY_SETTINGS
@given(stacked_box_sweeps())
def test_stacked_box_sweep_equals_its_one_box_sweeps(instance):
    # Each box gets the constants, or the error, of its own one-box sweep,
    # and the first box in order whose constants fail raises.
    p, boxes, counts, lying, claim = instance
    p = _claiming(p, boxes, lying, claim)
    fields = ("metric", "objective", "sigma")
    alone = [outcome(lambda: checked_box_constants(p, b, k), fields) for b, k in zip(boxes, counts)]
    failed = [o for o in alone if isinstance(o[0], type)]
    try:
        stacked = checked_box_constants(p, boxes, counts)
    except core.DcError as exc:
        assert failed and (type(exc), str(exc)) == failed[0]
    else:
        assert not failed
        assert [outcome(lambda: bc, fields) for bc in stacked] == alone


@st.composite
def damped_double_well_runs(draw):
    """A double well, maybe shifted, a start with ``|x_i|`` in [0.05, 3]
    (past the region; no coordinate at the local maximum 0, where no
    positive sigma holds) and a relaxation parameter in (0, 1)."""
    p, _ = draw(double_well_instances())
    n = p.dim
    if draw(st.booleans()):
        p = make_shifted_decomposition(p, draw(arrays(float, n, elements=st.floats(0.0, 3.0))))
    magnitude = st.floats(min_value=0.05, max_value=3.0)
    x0 = draw(arrays(float, n, elements=st.one_of(magnitude, magnitude.map(lambda v: -v))))
    eta = draw(st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True))
    return p, x0, eta


@PROPERTY_SETTINGS
@given(damped_double_well_runs())
def test_damped_rate_bound_holds_with_span_box_constants(run):
    # mu, L and sigma all come from the box the iterates span, as the CLI
    # takes them.  Iterates keep each coordinate's sign, so sigma is positive.
    p, x0, eta = run
    trace = run_scheme(p, x0, SchemeConfig(eta=eta, max_iter=60))
    constants = p.box_constants(Box.spanning(trace.points))
    assert constants.sigma > 0.0
    assert not damped_pl_report(trace, constants, p.f_star).violation


# ---------------------------------------------------------------------------
# stacked oracles and the batched inversion


def _dw_reference(q):
    """The double well's single-point oracles as written with ``@``."""
    return {
        "g_value": lambda x: float(0.25 * np.sum(np.square(x * x)) + 0.5 * (x @ (q * x))),
        "h_value": lambda x: float(0.5 * (x @ ((q + 1.0) * x))),
        "g_grad": lambda x: (x * x + q) * x,
        "h_grad": lambda x: (q + 1.0) * x,
        "g_hess": lambda x: np.diag(3.0 * x**2 + q),
        "h_hess": lambda x: np.diag(q + 1.0),
    }


def _quadratic_reference(a, b):
    """The quadratic split's single-point oracles as written with ``@``."""
    return {
        "g_value": lambda x: 0.5 * float(x @ (a @ x)),
        "h_value": lambda x: 0.5 * float(x @ (b @ x)),
        "g_grad": lambda x: a @ x,
        "h_grad": lambda x: b @ x,
        "g_hess": lambda x: a.copy(),
        "h_hess": lambda x: b.copy(),
    }


def _shifted_reference(ref, d):
    """``ref`` shifted by ``x'diag(d)x/2`` in both parts, written with ``@``."""

    def quad(x):
        return 0.5 * (x @ (d * x))

    return {
        "g_value": lambda x: float(ref["g_value"](x) + quad(x)),
        "h_value": lambda x: float(ref["h_value"](x) + quad(x)),
        "g_grad": lambda x: ref["g_grad"](x) + d * x,
        "h_grad": lambda x: ref["h_grad"](x) + d * x,
        "g_hess": lambda x: ref["g_hess"](x) + np.diag(d),
        "h_hess": lambda x: ref["h_hess"](x) + np.diag(d),
    }


@st.composite
def built_in_problems(draw):
    """A double well or an SPD quadratic split in 1 to 12 dimensions, maybe
    shifted, and its single-point oracles written with ``@``."""
    n = draw(st.integers(min_value=1, max_value=12))
    if draw(st.booleans()):
        q = draw(arrays(float, n, elements=st.floats(0.25, 4.0)))
        p, ref = make_double_well(q), _dw_reference(q)
    else:
        a, b = draw(quadratic_pairs(n))
        p, ref = make_quadratic(a, b), _quadratic_reference(a, b)
    if draw(st.booleans()):
        d = draw(arrays(float, n, elements=st.floats(0.0, 3.0)))
        p, ref = make_shifted_decomposition(p, d), _shifted_reference(ref, d)
    return p, ref


@st.composite
def stacked_points(draw):
    """A built-in problem, its ``@`` reference oracles, and a stack of 2 to 8
    points with a warm start near each."""
    p, ref = draw(built_in_problems())
    n = p.dim
    m = draw(st.integers(min_value=2, max_value=8))
    x = draw(arrays(float, (m, n), elements=st.floats(-2.0, 2.0)))
    warm = x + draw(arrays(float, (m, n), elements=st.floats(-0.5, 0.5)))
    return p, ref, x, warm


def _same(a, b) -> bool:
    """Equal bit for bit, shape and all (a float and a 0-d array compare)."""
    return np.shape(a) == np.shape(b) and np.array_equal(a, b)


@PROPERTY_SETTINGS
@given(stacked_points())
def test_stacked_oracle_rows_equal_point_calls(instance):
    p, ref, x, _ = instance
    for name, reference in ref.items():
        oracle = getattr(p, name)
        stacked = oracle(x)
        for i, xi in enumerate(x):
            assert _same(oracle(xi), reference(xi)), name
            assert _same(stacked[i], oracle(xi)), name
    f, noise = p.f_value_and_roundoff(x)
    grad, v, msq = flow_velocity(p, x)
    for i, xi in enumerate(x):
        assert (f[i], noise[i]) == p.f_value_and_roundoff(xi)
        g_i, v_i, msq_i = flow_velocity(p, xi)
        assert _same(grad[i], g_i) and _same(v[i], v_i) and msq[i] == msq_i


@PROPERTY_SETTINGS
@given(stacked_points())
def test_stacked_inversion_rows_equal_point_calls(instance):
    built_in, _, x, warm = instance
    y = built_in.g_grad(x)
    # From the closed form, and by Newton alone from the warm starts.
    for p in (built_in, newton_only(built_in)):
        stacked = invert_grad_g(p, y, warm)
        for i in range(len(x)):
            assert _same(stacked[i], invert_grad_g(p, y[i], warm[i]))
        assert _same(invert_grad_g(p, y[:1], warm[:1]), invert_grad_g(p, y[0], warm[0])[None])


# Up to this target norm the inversion's absolute tolerance (for |y| > 1)
# lies well above the roundoff of evaluating grad g at the preimage; by
# |y| = 1e6 the two meet, and no start meets the rule on every row.
_ATTAINABLE_TARGET = 1e4


@st.composite
def pullback_targets(draw):
    """A built-in problem and a stack of 1 to 8 targets whose norms are
    log-uniform on [1e-12, 1e6]."""
    p, _ = draw(built_in_problems())
    m = draw(st.integers(min_value=1, max_value=8))
    u = draw(arrays(float, (m, p.dim), elements=st.floats(-1.0, 1.0)))
    norms = np.linalg.norm(u, axis=1, keepdims=True)
    u = np.where(norms > 0.0, u / np.where(norms > 0.0, norms, 1.0), 1.0 / np.sqrt(p.dim))
    scale = 10.0 ** draw(arrays(float, (m, 1), elements=st.floats(-12.0, 6.0)))
    return p, u * scale


@PROPERTY_SETTINGS
@given(pullback_targets())
def test_closed_form_pullback_meets_the_stopping_rule(instance):
    p, y = instance
    x = p.g_conj_grad(y)
    y_norm = np.linalg.norm(y, axis=1)
    for i in range(len(y)):
        assert _same(x[i], p.g_conj_grad(y[i]))
        # Newton takes no step from a start that meets its stopping rule.
        if y_norm[i] <= _ATTAINABLE_TARGET:
            assert _same(invert_grad_g(p, y[i], np.zeros(p.dim)), x[i])
    # At every scale the closed form is exact up to the inversion's own
    # roundoff floor, scaled from Hess g and x.
    residual = np.linalg.norm(p.g_grad(x) - y, axis=1)
    floor = ROUNDOFF * p.dim * np.abs(p.g_hess(x)).max(axis=(1, 2)) * np.abs(x).max(axis=1)
    assert np.all(residual <= np.maximum(INVERSION_TOL * np.minimum(1.0, y_norm), floor))


@st.composite
def diagonal_systems(draw):
    """A stack of 1 to 6 diagonal matrices of size 1 to 64, entries
    ``+-[0.1, 40] x 10^[-8, 8]``, and right-hand sides ``+-10^[-6, 6]``, some
    of them zero; or one such matrix at every row as a read-only broadcast
    view, as the quadratic family's Hessians come."""
    n = draw(st.integers(min_value=1, max_value=64))
    m = draw(st.integers(min_value=1, max_value=6))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    rows = 1 if draw(st.booleans()) else m

    def signed(low, high, exp_low, exp_high, shape):
        size = rng.uniform(low, high, shape) * 10.0 ** rng.uniform(exp_low, exp_high, shape)
        return rng.choice([-1.0, 1.0], shape) * size

    d = signed(0.1, 40.0, -8.0, 8.0, (rows, n))
    rhs = signed(1.0, 1.0, -6.0, 6.0, (m, n))
    rhs[rng.random((m, n)) < 0.1] = 0.0
    hess = d[..., None] * np.eye(n)
    if rows == 1:
        hess = _per_point(hess[0], rhs)
    return hess, rhs


@PROPERTY_SETTINGS
@given(diagonal_systems())
def test_diagonal_kernels_equal_lapack_bit_for_bit(system):
    hess, rhs = system
    assert core._regular_diagonal(hess) is not None
    solved = np.linalg.solve(hess, rhs[..., None])[..., 0]
    assert core._solve_metric(hess, rhs).tobytes() == solved.tobytes()
    assert core._eigvalsh(hess).tobytes() == np.linalg.eigvalsh(hess).tobytes()


# ---------------------------------------------------------------------------
# diagonal Hessian answers (core.Diagonal) against their dense forms


@st.composite
def diagonal_answer_runs(draw):
    """A double well in 1 to 12 dimensions, maybe shifted, a stack of 1 to 6
    points whose coordinates are often 0 or +-2, a relaxation parameter,
    and an edit that may make the box constants wrong."""
    n = draw(st.integers(min_value=1, max_value=12))
    p = make_double_well(draw(arrays(float, n, elements=st.floats(0.25, 4.0))))
    if draw(st.booleans()):
        p = make_shifted_decomposition(p, draw(arrays(float, n, elements=st.floats(0.0, 3.0))))
    coordinate = st.one_of(st.sampled_from([0.0, 2.0, -2.0]), st.floats(-2.0, 2.0))
    m = draw(st.integers(min_value=1, max_value=6))
    x = draw(arrays(float, (m, n), elements=coordinate))
    edit = draw(st.sampled_from(["none", "metric", "objective", "sigma"]))
    return p, x, draw(etas), edit


def _edited_constants(p, edit):
    """``p`` whose box constants have one range narrowed, or sigma raised."""
    constants = p.box_constants

    def edited(box):
        bc = constants(box)
        lo, hi = bc.metric if edit == "metric" else bc.objective
        if edit == "metric":
            return dataclasses.replace(bc, metric=(lo, lo + 0.9 * (hi - lo)))
        if edit == "objective":
            return dataclasses.replace(bc, objective=(lo + 0.1 * (hi - lo) + 1e-3, hi))
        return dataclasses.replace(bc, sigma=2.0 * bc.sigma + 0.1)

    return p if edit == "none" else dataclasses.replace(p, box_constants=edited)


@PROPERTY_SETTINGS
@given(diagonal_answer_runs())
def test_diagonal_hessian_answers_equal_dense_ones(run):
    # The same problem with both Hessian oracles answering np.asarray of the
    # Diagonal, the dense product the double well wrote before.
    base, x, eta, edit = run
    answers = {}
    for name, p in (("diagonal", base), ("dense", dense_hessians(base))):
        p = _edited_constants(p, edit)
        velocities = [v.tobytes() for v in flow_velocity(p, x)[:2]] + [
            np.asarray(v).tobytes() for v in flow_velocity(p, x[0])
        ]
        cfg = SchemeConfig(eta=eta, max_iter=40)
        runs = [
            outcome(lambda: integrate_flow(p, x[0], FlowConfig(t_end=0.5)), _FLOW_FIELDS),
            outcome(lambda: run_scheme(p, x[0], cfg), _SCHEME_FIELDS),
            outcome(lambda: run_scheme(newton_only(p), x[0], cfg), _SCHEME_FIELDS),
        ]
        verdict = outcome(
            lambda: checked_box_constants(p, Box.spanning(x)), ("metric", "objective", "sigma")
        )
        answers[name] = velocities, runs, verdict
    assert answers["diagonal"] == answers["dense"]


@st.composite
def irregular_diagonal_systems(draw):
    """A stack of 1 to 4 diagonal answers of size 1 to 12 whose entries
    ``+-[0.1, 40]`` are in part replaced by 0, -0.0, +-inf, NaN or a
    negative entry, and right-hand sides with some zeros of either sign."""
    n = draw(st.integers(min_value=1, max_value=12))
    m = draw(st.integers(min_value=1, max_value=4))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    d = rng.choice([-1.0, 1.0], (m, n)) * rng.uniform(0.1, 40.0, (m, n))
    odd = [0.0, -0.0, np.inf, -np.inf, np.nan, -3.0]
    mask = rng.random((m, n)) < draw(st.sampled_from([0.0, 0.1, 0.5]))
    d[mask] = rng.choice(odd, int(mask.sum()))
    rhs = rng.uniform(-5.0, 5.0, (m, n))
    rhs[rng.random((m, n)) < 0.1] = draw(st.sampled_from([0.0, -0.0]))
    return core.Diagonal(d), rhs


def _lapack_outcome(run):
    """The bytes ``run()`` returns, or the LinAlgError it raises."""
    try:
        return run().tobytes()
    except np.linalg.LinAlgError as exc:
        return type(exc), str(exc)


@PROPERTY_SETTINGS
@given(irregular_diagonal_systems())
def test_kernels_read_any_diagonal_answer_as_lapack_reads_its_dense_form(system):
    answer, rhs = system
    with np.errstate(invalid="ignore"):  # inf * 0 off the diagonal
        dense = np.asarray(answer)
        solved = _lapack_outcome(lambda: np.linalg.solve(dense, rhs[..., None])[..., 0])
        assert _lapack_outcome(lambda: core._solve_metric(answer, rhs)) == solved
        eigs = _lapack_outcome(lambda: np.linalg.eigvalsh(dense))
        assert _lapack_outcome(lambda: core._eigvalsh(answer)) == eigs


@st.composite
def pencils(draw):
    """A symmetric ``h`` of size 1 to 8 whose eigenvalues are each negative,
    zero or positive, of size ``[0.1, 10]`` when nonzero, and an SPD ``m``
    of condition at most 1e3, both scaled by ``10^[-3, 3]``."""
    n = draw(st.integers(min_value=1, max_value=8))
    unit = st.floats(min_value=-1.0, max_value=1.0)
    u = _rotation(draw(arrays(float, (n, n), elements=unit)))
    v = _rotation(draw(arrays(float, (n, n), elements=unit)))
    sign = draw(arrays(float, n, elements=st.sampled_from([-1.0, 0.0, 1.0])))
    size = draw(arrays(float, n, elements=st.floats(min_value=0.1, max_value=10.0)))
    cond = draw(arrays(float, n, elements=st.floats(min_value=0.0, max_value=3.0)))
    h = (u * (sign * size)) @ u.T * 10.0 ** draw(st.floats(-3.0, 3.0))
    m = (v * 10.0**cond) @ v.T * 10.0 ** draw(st.floats(-3.0, 3.0))
    return 0.5 * (h + h.T), 0.5 * (m + m.T)


def _inertia(w: np.ndarray) -> tuple[int, int, int]:
    """Counts of negative, zero and positive entries, zero meaning at most
    1e-9 of the largest magnitude."""
    tol = 1e-9 * np.abs(w).max()
    return int(np.sum(w < -tol)), int(np.sum(np.abs(w) <= tol)), int(np.sum(w > tol))


@PROPERTY_SETTINGS
@given(pencils())
def test_pencil_eigh_is_m_orthonormal_and_keeps_the_inertia_of_h(pencil):
    h, m = pencil
    lam, v = core._pencil_eigh(h, m)
    np.testing.assert_allclose(v.T @ m @ v, np.eye(len(h)), rtol=0.0, atol=1e-9)
    scale = (np.abs(h).max() + np.abs(m).max() * np.abs(lam).max()) * np.abs(v).max()
    np.testing.assert_allclose(h @ v, m @ v * lam, rtol=0.0, atol=1e-9 * scale)
    assert np.all(np.diff(lam) >= 0.0)
    assert _inertia(lam) == _inertia(np.linalg.eigvalsh(h))
    # Flipping one eigenvalue of m, or all, leaves no positive-definite metric.
    w, u = np.linalg.eigh(m)
    for flip in (np.r_[-1.0, np.ones(len(w) - 1)], -np.ones(len(w))):
        with pytest.raises(core.DcError, match="not positive definite"):
            core._pencil_eigh(h, (u * (flip * w)) @ u.T)


@PROPERTY_SETTINGS
@given(
    st.integers(min_value=1, max_value=1000).flatmap(
        lambda n: arrays(float, n, elements=st.floats(min_value=-1e150, max_value=1e150))
    )
)
def test_scheme_gradient_norm_is_numpy_norm_bit_for_bit(d):
    # run_scheme logs each iterate's |grad g - grad h| as sqrt(d.d), the
    # product and root np.linalg.norm takes for a vector.
    assert np.float64(math.sqrt(d.dot(d))).tobytes() == np.linalg.norm(d).tobytes()
