"""Property tests over random instances: primal/dual equivalence and descent.

Hypothesis draws SPD quadratic splits and double-well weights in one to six
dimensions, with a start point in the built-in region and a relaxation
parameter in (0, 1].  Every run is derandomized, so the suite stays
deterministic.

Double-well starts keep every coordinate at least 1e-3 away from 0, the
coordinate of the objective's local maximum.  Near it the damped map expands
by ``1 + eta/q`` per step and amplifies the absolute inversion tolerance, so
primal and dual runs drift apart by more than 1e-8; the pinned ``xfail``
example below is such a start (a known defect, see CHANGES.md).  Over
``|x_i| >= 1e-3`` the measured gap stays below 2.1e-9.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dcflow import SchemeConfig, descent_margins, make_double_well, make_quadratic, run_scheme
from helpers import primal_dual_sup_gap

PROPERTY_SETTINGS = settings(max_examples=50, derandomize=True, deadline=None, database=None)

dims = st.integers(min_value=1, max_value=6)
etas = st.floats(min_value=0.05, max_value=1.0)


def _rotation(m: np.ndarray) -> np.ndarray:
    q, r = np.linalg.qr(m)
    return q * np.where(np.diag(r) < 0.0, -1.0, 1.0)


@st.composite
def quadratic_instances(draw):
    """``a`` SPD with eigenvalues in [0.5, 4] and ``b = a^(1/2) C a^(1/2)``,
    ``C`` with eigenvalues in [0, 0.9], so ``b`` and ``a - b`` are PSD."""
    n = draw(dims)
    unit = st.floats(min_value=-1.0, max_value=1.0)
    u = _rotation(draw(arrays(float, (n, n), elements=unit)))
    v = _rotation(draw(arrays(float, (n, n), elements=unit)))
    lam = draw(arrays(float, n, elements=st.floats(min_value=0.5, max_value=4.0)))
    c = draw(arrays(float, n, elements=st.floats(min_value=0.0, max_value=0.9)))
    a = (u * lam) @ u.T
    sqrt_a = (u * np.sqrt(lam)) @ u.T
    b = sqrt_a @ ((v * c) @ v.T) @ sqrt_a
    p = make_quadratic(0.5 * (a + a.T), 0.5 * (b + b.T))
    x0 = draw(arrays(float, n, elements=st.floats(min_value=-2.0, max_value=2.0)))
    return p, x0


@st.composite
def double_well_instances(draw):
    n = draw(dims)
    q = draw(arrays(float, n, elements=st.floats(min_value=0.25, max_value=4.0)))
    magnitude = st.floats(min_value=1e-3, max_value=2.0)
    x0 = draw(arrays(float, n, elements=st.one_of(magnitude, magnitude.map(lambda v: -v))))
    return make_double_well(q), x0


def _check_equivalence_and_descent(p, x0, eta):
    assert primal_dual_sup_gap(p, x0, SchemeConfig(eta=eta), 15) <= 1e-8
    trace = run_scheme(p, x0, SchemeConfig(eta=eta, max_iter=40))
    relaxed, strong = descent_margins(p, trace)
    assert relaxed >= 0.0
    assert strong >= 0.0


@PROPERTY_SETTINGS
@given(quadratic_instances(), etas)
def test_quadratic_split_primal_dual_and_descent(instance, eta):
    p, x0 = instance
    _check_equivalence_and_descent(p, x0, eta)


@PROPERTY_SETTINGS
@given(double_well_instances(), etas)
@example((make_double_well([0.5]), np.array([2.0**-14])), 0.5).xfail(
    reason="start next to the local maximum: gap 1.7e-8", raises=AssertionError
)
def test_double_well_primal_dual_and_descent(instance, eta):
    p, x0 = instance
    _check_equivalence_and_descent(p, x0, eta)
