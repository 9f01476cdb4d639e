"""Property tests over random instances: primal/dual equivalence, descent,
the gradient and energy identities, the closed-form quadratic flow, the
closed-form box constants, and the damped scheme's rate bound.

Hypothesis draws SPD quadratic splits and double-well weights in one to six
dimensions, with a start point in the built-in region and a relaxation
parameter in (0, 1], or with a shift and a box for the box constants.  Every
run is derandomized, so the suite stays deterministic.

Double-well starts may sit arbitrarily close to 0, the coordinate of the
objective's local maximum.  Near it the damped map expands by ``1 + eta/q``
per step and amplifies whatever residual the gradient inversion leaves, so
primal and dual runs agree to 1e-8 only because that residual is relative
to the target; the pinned example below broke criterion 01 (a gap of
1.7e-8) while the inversion stopped on an absolute residual.
"""

import itertools

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
    damped_pl_report,
    energy_residuals,
    estimate_metric_pl_constant,
    local_exp_certificate,
    metric_bounds_on_box,
)
from dcflow.core import INVERSION_TOL, flow_velocity
from dcflow.schemes import gradient_identity_margin
from helpers import primal_dual_sup_gap

PROPERTY_SETTINGS = settings(max_examples=50, derandomize=True, deadline=None, database=None)

dims = st.integers(min_value=1, max_value=6)
etas = st.floats(min_value=0.05, max_value=1.0)


def _rotation(m: np.ndarray) -> np.ndarray:
    q, r = np.linalg.qr(m)
    return q * np.where(np.diag(r) < 0.0, -1.0, 1.0)


@st.composite
def quadratic_splits(draw, n):
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
    return make_quadratic(0.5 * (a + a.T), 0.5 * (b + b.T))


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
        v = np.linalg.eigvalsh(p.f_hess(x))
        assert bc.objective[0] - tol <= v[0] and v[-1] <= bc.objective[1] + tol
        g, h = p.g_value(x), p.h_value(x)
        gap = (g - h) - p.f_star
        noise = 1e3 * eps * (abs(g) + abs(h) + abs(p.f_star))
        if gap > noise:
            ratio = flow_velocity(p, x)[2] / (2.0 * gap)
            assert ratio >= bc.sigma * (1.0 - noise / gap - 1e-12)
            ratios.append(ratio)
    # The library's own cross-checks agree on the same instances.
    assert metric_bounds_on_box(p, box, n_samples=20).upper == bc.metric[1]
    assert estimate_metric_pl_constant(p, box, p.f_star, n_samples=20) == bc.sigma
    if expected_sigma is not None:
        assert bc.sigma == pytest.approx(expected_sigma, abs=5e-5)
        assert min(ratios) == pytest.approx(bc.sigma, rel=1e-12)
        cert = local_exp_certificate(p, p.minimizer, box)
        assert cert.hess_f_lower == bc.objective[0]


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
    constants = p.box_constants(Box(trace.points.min(axis=0), trace.points.max(axis=0)))
    assert constants.sigma > 0.0
    assert not damped_pl_report(trace, constants, p.f_star).violation
