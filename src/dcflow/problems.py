"""Built-in problem instances with analytically certified constants.

Two families cover the test surface: a fully analytic convex quadratic
split (closed-form dynamics, exact rate constants) and a separable
double-well objective whose splittings share the objective but induce
different metrics.  A third constructor shifts an existing decomposition
by a convex quadratic, changing the geometry while leaving the objective
untouched.

Both families also supply ``grad g*``, the inverse of ``grad g``, in closed
form; Newton's method in :func:`~dcflow.core.invert_grad_g` starts there and
verifies it.

Every oracle takes a point or a stack of points.  Products are written
with ``np.matvec`` and ``np.vecdot``: at one point they round exactly as
``a @ x`` and ``x @ y`` do, and each row of a stack rounds as that row
alone, so stacking changes no digit.  ``x @ a`` or ``np.sum(x * y)`` would.
"""

from __future__ import annotations

import numpy as np

from .core import Box, BoxConstants, DcProblem, Diagonal, _pencil_eigh

__all__ = [
    "make_double_well",
    "make_quadratic",
    "make_shifted_decomposition",
]

_SYM_TOL = 1e-10
_PSD_TOL = 1e-10
# Half-width of the cube every built-in instance declares as its region.
_REGION_HALF_WIDTH = 2.0


def _per_point(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The constant matrix ``m`` at each point of ``x`` as a read-only view:
    ``(n, n)`` at a point, ``(k, n, n)`` at a stack of ``k`` points."""
    return np.broadcast_to(m, x.shape[:-1] + m.shape)


def _check_symmetric(m: np.ndarray, name: str) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be a square matrix")
    scale = max(1.0, float(np.abs(m).max()))
    if float(np.abs(m - m.T).max()) > _SYM_TOL * scale:
        raise ValueError(f"{name} must be symmetric")
    return 0.5 * (m + m.T)


def _check_psd(m: np.ndarray, name: str) -> np.ndarray:
    """Raise unless ``m`` is positive semidefinite; return its ascending eigenvalues."""
    w = np.linalg.eigvalsh(m)
    if w[0] < -_PSD_TOL * max(1.0, float(abs(w[-1]))):
        raise ValueError(f"{name} must be positive semidefinite")
    return w


def check_quadratic_split(a, b) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Validate the split ``g(x) = x'ax/2``, ``h(x) = x'bx/2``.

    Requires ``a`` symmetric positive definite and ``b`` symmetric positive
    semidefinite of the same shape.  Returns the symmetrized ``a`` and
    ``b`` and the ascending eigenvalues of ``a``.
    """
    a = _check_symmetric(a, "a")
    b = _check_symmetric(b, "b")
    if a.shape != b.shape:
        raise ValueError("a and b must have the same shape")
    a_eigs = np.linalg.eigvalsh(a)
    if a_eigs[0] <= 0.0:
        raise ValueError("a must be positive definite")
    _check_psd(b, "b")
    return a, b, a_eigs


def _quadratic_sigma(a: np.ndarray, c: np.ndarray, c_eigs: np.ndarray) -> float:
    """Smallest positive eigenvalue of the pencil ``c v = lam a v``.

    This is the sharp metric PL constant of ``f(x) = x'cx/2`` under the
    metric ``a``.  ``c`` is positive semidefinite with ascending eigenvalues
    ``c_eigs``; by Sylvester's law of inertia the pencil has as many zero
    eigenvalues as ``c``, counted as those of ``c_eigs`` at or below
    ``1e-12`` of the largest, so the answer is the next one up.  Zero when
    ``c`` vanishes.
    """
    k = int(np.count_nonzero(c_eigs <= 1e-12 * max(float(c_eigs[-1]), 1e-300)))
    if k == c_eigs.size:
        return 0.0
    return float(_pencil_eigh(c, a)[0][k])


class _QuadraticConstants:
    """Box constants of ``g(x) = x'ax/2`` and ``f(x) = x'cx/2``, and the
    pullback ``(grad g)^{-1}(y) = a^{-1} y``.

    Both Hessians are constant, so every box gets the eigenvalue ranges of
    ``a`` and ``c`` and the global metric PL constant ``sigma`` (zero when
    ``c`` vanishes).  The pullback uses an inverse of ``a`` computed once.
    """

    def __init__(self, a: np.ndarray, c: np.ndarray, a_eigs: np.ndarray, c_eigs: np.ndarray):
        self.a = a
        self.c = c
        self.c_eigs = c_eigs
        self._constants = BoxConstants(
            metric=(float(a_eigs[0]), float(a_eigs[-1])),
            objective=(float(c_eigs[0]), float(c_eigs[-1])),
            sigma=_quadratic_sigma(a, c, c_eigs),
        )
        self._a_inv = np.linalg.inv(a)

    def __call__(self, box: Box) -> BoxConstants:
        return self._constants

    def pullback(self, y: np.ndarray) -> np.ndarray:
        return np.matvec(self._a_inv, y)

    def shifted(self, d: np.ndarray) -> "_QuadraticConstants":
        """The same split with ``diag(d)`` added to the metric."""
        a = self.a + np.diag(d)
        return _QuadraticConstants(a, self.c, np.linalg.eigvalsh(a), self.c_eigs)


class _DoubleWellConstants:
    """Box constants of the double well whose metric is ``diag(3x^2 + q)``.

    Both Hessians, ``diag(3x^2 + q)`` and ``diag(3x^2 - 1)``, are diagonal
    and grow with each ``|x_i|``, so their eigenvalue extremes on a box sit
    at each coordinate's smallest (``m_i``) or largest ``|x_i|``.  The
    metric PL ratio is the mediant of the per-coordinate ratios
    ``2 x_i^2 / (3 x_i^2 + q_i)`` with weights ``(x_i^2 - 1)^2``, so it is at
    least their smallest value at ``m_i``; the bound is tight when the box
    holds a minimizer.

    The pullback ``(grad g)^{-1}`` is coordinatewise the one real root of
    ``x^3 + q x = y``, ``x = 2 sqrt(q/3) sinh(asinh(3 sqrt(3) y / (2 q^{3/2})) / 3)``.
    """

    def __init__(self, q: np.ndarray):
        self.q = q
        self._scale = 2.0 * np.sqrt(q / 3.0)
        self._gain = 3.0 * np.sqrt(3.0) / (2.0 * q**1.5)

    def __call__(self, box: Box) -> BoxConstants:
        lo, up = box.lower, box.upper
        small = np.where(
            (lo <= 0.0) & (up >= 0.0), 0.0, np.minimum(np.abs(lo), np.abs(up))
        )
        large = np.maximum(np.abs(lo), np.abs(up))
        metric_lo = 3.0 * small**2 + self.q
        metric_hi = 3.0 * large**2 + self.q
        # The objective Hessian as the oracles form it: metric minus diag(q+1).
        h = self.q + 1.0
        return BoxConstants(
            metric=(float(metric_lo.min()), float(metric_hi.max())),
            objective=(float((metric_lo - h).min()), float((metric_hi - h).max())),
            sigma=float(np.min(2.0 * small**2 / metric_lo)),
        )

    def pullback(self, y: np.ndarray) -> np.ndarray:
        # scale * sinh(asinh(gain * y) / 3), in place on one new array.
        x = self._gain * y
        np.arcsinh(x, out=x)
        x /= 3.0
        np.sinh(x, out=x)
        x *= self._scale
        return x

    def shifted(self, d: np.ndarray) -> "_DoubleWellConstants":
        """The same objective with ``diag(d)`` added to the metric."""
        return _DoubleWellConstants(self.q + d)


def make_quadratic(a, b) -> DcProblem:
    """Problem with ``g(x) = x'ax/2`` and ``h(x) = x'bx/2``.

    Requires ``a`` symmetric positive definite, ``b`` symmetric positive
    semidefinite and ``a - b`` positive semidefinite, so the objective
    ``f(x) = x'(a-b)x/2`` is convex with minimum 0 at the origin.  All
    rate constants are exact and the same on every box: the metric range
    is the eigenvalue extremes of ``a``, and ``sigma`` comes from the
    generalized eigenproblem of ``a - b`` against ``a``.
    """
    a, b, a_eigs = check_quadratic_split(a, b)
    n = a.shape[0]
    c = a - b
    constants = _QuadraticConstants(a, c, a_eigs, _check_psd(c, "a - b"))
    return DcProblem(
        dim=n,
        g_value=lambda x: 0.5 * np.vecdot(x, np.matvec(a, x)),
        h_value=lambda x: 0.5 * np.vecdot(x, np.matvec(b, x)),
        g_grad=lambda x: np.matvec(a, x),
        h_grad=lambda x: np.matvec(b, x),
        g_hess=lambda x: _per_point(a, x),
        h_hess=lambda x: _per_point(b, x),
        region=Box.cube(_REGION_HALF_WIDTH, n),
        f_star=0.0,
        minimizer=np.zeros(n),
        label=f"quadratic(n={n})",
        box_constants=constants,
        g_conj_grad=constants.pullback,
    )


def make_double_well(q) -> DcProblem:
    """Separable double-well objective with a tunable convex split.

    The objective is ``f(x) = sum_i (x_i^4/4 - x_i^2/2)``, independent of
    ``q``.  The split is ``g(x) = sum_i x_i^4/4 + x'Qx/2`` and
    ``h(x) = x'(Q+I)x/2`` with ``Q = diag(q)``, so varying ``q`` changes
    the metric without changing the objective.  Critical points have
    coordinates in {-1, 0, 1}; the minima are the sign patterns of ones
    with value ``-n/4``.

    The powers in ``g`` and its gradient are written as products,
    ``(x*x + q) x`` and ``(x*x)^2``.  numpy's ``power`` on mixed-sign
    arrays is slow (about 73 ns per element with its AVX-512 kernels on an
    x86-64 host, against 2.8 ns for the whole product form of ``grad g``)
    and rounds differently with those kernels and without them; products
    round the same under every SIMD dispatch.  Both Hessians come back as
    :class:`~dcflow.core.Diagonal` answers, ``diag(3x^2 + q)`` and
    ``diag(q + 1)``, which the stacked kernels solve and diagonalize in
    O(n) per point.
    """
    q = np.atleast_1d(np.asarray(q, dtype=float))
    if q.ndim != 1:
        raise ValueError("q must be a vector")
    if np.any(q <= 0.0):
        raise ValueError("all entries of q must be positive")
    n = q.size
    q1 = q + 1.0
    constants = _DoubleWellConstants(q)

    return DcProblem(
        dim=n,
        g_value=lambda x: 0.25 * np.square(x * x).sum(axis=-1) + 0.5 * np.vecdot(x, q * x),
        h_value=lambda x: 0.5 * np.vecdot(x, q1 * x),
        g_grad=lambda x: (x * x + q) * x,
        h_grad=lambda x: q1 * x,
        g_hess=lambda x: Diagonal(3.0 * x**2 + q),
        h_hess=lambda x: Diagonal(np.broadcast_to(q1, x.shape)),
        region=Box.cube(_REGION_HALF_WIDTH, n),
        f_star=-0.25 * n,
        minimizer=np.ones(n),
        label=f"double_well(q={q.tolist()})",
        box_constants=constants,
        g_conj_grad=constants.pullback,
    )


def make_shifted_decomposition(p: DcProblem, phi_hess_diag) -> DcProblem:
    """Add the convex quadratic ``x'diag(d)x/2`` to both parts of a split.

    The objective is unchanged pointwise (the added terms cancel), but the
    metric gains ``diag(d)``, so the dynamics and every rate constant tied
    to the metric change.  A built-in family's closed-form box constants
    and pullback ``grad g*`` carry over with the shift absorbed into its
    parameters (metric weights ``q + d`` for the double well, ``a + diag(d)``
    for the quadratic); other problems lose them, since they belong to the
    original metric.  A :class:`~dcflow.core.Diagonal` Hessian stays one,
    its diagonals shifted by ``d``; any other is made dense.
    """
    d = np.atleast_1d(np.asarray(phi_hess_diag, dtype=float))
    if d.ndim != 1 or d.size != p.dim:
        raise ValueError(f"phi_hess_diag must be a vector of length {p.dim}")
    if np.any(d < 0.0):
        raise ValueError("phi_hess_diag entries must be nonnegative")

    g_value, h_value = p.g_value, p.h_value
    g_grad, h_grad = p.g_grad, p.h_grad
    g_hess, h_hess = p.g_hess, p.h_hess
    d_mat = np.diag(d)

    def shift_hess(hess):
        if isinstance(hess, Diagonal):
            return Diagonal(hess.d + d)
        return np.asarray(hess, dtype=float) + d_mat

    family = p.box_constants
    constants = pullback = None
    if isinstance(family, (_QuadraticConstants, _DoubleWellConstants)):
        constants = family.shifted(d)
        if p.g_conj_grad == family.pullback:
            pullback = constants.pullback

    return DcProblem(
        dim=p.dim,
        g_value=lambda x: g_value(x) + 0.5 * np.vecdot(x, d * x),
        h_value=lambda x: h_value(x) + 0.5 * np.vecdot(x, d * x),
        g_grad=lambda x: np.asarray(g_grad(x), dtype=float) + d * x,
        h_grad=lambda x: np.asarray(h_grad(x), dtype=float) + d * x,
        g_hess=lambda x: shift_hess(g_hess(x)),
        h_hess=lambda x: shift_hess(h_hess(x)),
        region=p.region,
        f_star=p.f_star,
        minimizer=p.minimizer,
        label=p.label + f"+shift(d={d.tolist()})",
        box_constants=constants,
        g_conj_grad=pullback,
    )
