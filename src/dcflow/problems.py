"""Built-in problem instances with analytically certified constants.

Two families cover the test surface: a fully analytic convex quadratic
split (closed-form dynamics, exact rate constants) and a separable
double-well objective whose splittings share the objective but induce
different metrics.  A third constructor shifts an existing decomposition
by a convex quadratic, changing the geometry while leaving the objective
untouched.
"""

from __future__ import annotations

import numpy as np

from .core import Box, BoxConstants, DcProblem

__all__ = [
    "make_double_well",
    "make_quadratic",
    "make_shifted_decomposition",
]

_SYM_TOL = 1e-10
_PSD_TOL = 1e-10
# Half-width of the cube every built-in instance declares as its region.
_REGION_HALF_WIDTH = 2.0


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


def _quadratic_sigma(a: np.ndarray, c: np.ndarray) -> float:
    """Smallest positive generalized eigenvalue of the pencil (c, a).

    This is the sharp metric PL constant of ``f(x) = x'cx/2`` under the
    metric ``a``: reduce to the symmetric form ``c^{1/2} a^{-1} c^{1/2}``
    restricted to the range of ``c``.  Zero when ``c`` vanishes.
    """
    w, u = np.linalg.eigh(c)
    keep = w > 1e-12 * max(float(w[-1]), 1e-300)
    if not np.any(keep):
        return 0.0
    basis = u[:, keep] * np.sqrt(w[keep])
    reduced = basis.T @ np.linalg.solve(a, basis)
    reduced = 0.5 * (reduced + reduced.T)
    return float(np.linalg.eigvalsh(reduced)[0])


class _QuadraticConstants:
    """Box constants of ``g(x) = x'ax/2`` and ``f(x) = x'cx/2``.

    Both Hessians are constant, so every box gets the eigenvalue ranges of
    ``a`` and ``c`` and the global metric PL constant ``sigma`` (zero when
    ``c`` vanishes).
    """

    def __init__(self, a: np.ndarray, c: np.ndarray, a_eigs: np.ndarray, c_eigs: np.ndarray):
        self.a = a
        self.c = c
        self.c_eigs = c_eigs
        self._constants = BoxConstants(
            metric=(float(a_eigs[0]), float(a_eigs[-1])),
            objective=(float(c_eigs[0]), float(c_eigs[-1])),
            sigma=_quadratic_sigma(a, c),
        )

    def __call__(self, box: Box) -> BoxConstants:
        return self._constants

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
    """

    def __init__(self, q: np.ndarray):
        self.q = q

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

    a_loc = a.copy()
    b_loc = b.copy()

    return DcProblem(
        dim=n,
        g_value=lambda x: 0.5 * float(x @ (a_loc @ x)),
        h_value=lambda x: 0.5 * float(x @ (b_loc @ x)),
        g_grad=lambda x: a_loc @ x,
        h_grad=lambda x: b_loc @ x,
        g_hess=lambda x: a_loc.copy(),
        h_hess=lambda x: b_loc.copy(),
        region=Box.cube(_REGION_HALF_WIDTH, n),
        f_star=0.0,
        minimizer=np.zeros(n),
        label=f"quadratic(n={n})",
        box_constants=constants,
    )


def make_double_well(q) -> DcProblem:
    """Separable double-well objective with a tunable convex split.

    The objective is ``f(x) = sum_i (x_i^4/4 - x_i^2/2)``, independent of
    ``q``.  The split is ``g(x) = sum_i x_i^4/4 + x'Qx/2`` and
    ``h(x) = x'(Q+I)x/2`` with ``Q = diag(q)``, so varying ``q`` changes
    the metric without changing the objective.  Critical points have
    coordinates in {-1, 0, 1}; the minima are the sign patterns of ones
    with value ``-n/4``.
    """
    q = np.atleast_1d(np.asarray(q, dtype=float))
    if q.ndim != 1:
        raise ValueError("q must be a vector")
    if np.any(q <= 0.0):
        raise ValueError("all entries of q must be positive")
    n = q.size

    return DcProblem(
        dim=n,
        g_value=lambda x: float(0.25 * np.sum(x**4) + 0.5 * (x @ (q * x))),
        h_value=lambda x: float(0.5 * (x @ ((q + 1.0) * x))),
        g_grad=lambda x: x**3 + q * x,
        h_grad=lambda x: (q + 1.0) * x,
        g_hess=lambda x: np.diag(3.0 * x**2 + q),
        h_hess=lambda x: np.diag(q + 1.0),
        region=Box.cube(_REGION_HALF_WIDTH, n),
        f_star=-0.25 * n,
        minimizer=np.ones(n),
        label=f"double_well(q={q.tolist()})",
        box_constants=_DoubleWellConstants(q),
    )


def make_shifted_decomposition(p: DcProblem, phi_hess_diag) -> DcProblem:
    """Add the convex quadratic ``x'diag(d)x/2`` to both parts of a split.

    The objective is unchanged pointwise (the added terms cancel), but the
    metric gains ``diag(d)``, so the dynamics and every rate constant tied
    to the metric change.  A built-in family's closed-form box constants
    carry over with the shift absorbed into its parameters (metric weights
    ``q + d`` for the double well, ``a + diag(d)`` for the quadratic);
    other problems lose their box constants, which belong to the original
    metric.
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
    family = p.box_constants
    if isinstance(family, (_QuadraticConstants, _DoubleWellConstants)):
        constants = family.shifted(d)
    else:
        constants = None

    return DcProblem(
        dim=p.dim,
        g_value=lambda x: float(g_value(x) + 0.5 * (x @ (d * x))),
        h_value=lambda x: float(h_value(x) + 0.5 * (x @ (d * x))),
        g_grad=lambda x: np.asarray(g_grad(x), dtype=float) + d * x,
        h_grad=lambda x: np.asarray(h_grad(x), dtype=float) + d * x,
        g_hess=lambda x: np.asarray(g_hess(x), dtype=float) + d_mat,
        h_hess=lambda x: np.asarray(h_hess(x), dtype=float) + d_mat,
        region=p.region,
        f_star=p.f_star,
        minimizer=p.minimizer,
        label=p.label + f"+shift(d={d.tolist()})",
        box_constants=constants,
    )
