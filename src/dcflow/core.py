"""Oracle bundles for smooth difference-of-convex problems.

A :class:`DcProblem` packages value, gradient and Hessian callables for a
decomposition ``f = g - h`` (both parts convex, ``g`` strongly convex)
together with the constants the analysis routines consume.  The module also
implements the Bregman divergence of the convex part and the inversion of
its gradient map; that inversion is the single nonlinear kernel shared by
every discrete scheme and by the continuous flow integrator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

__all__ = [
    "Box",
    "BoxConstants",
    "ConvergenceError",
    "DcError",
    "DcProblem",
    "INVERSION_TOL",
    "NumericError",
    "ROUNDOFF",
    "central_diff_jacobian",
    "dual_euler",
    "dual_map",
    "flow_velocity",
    "invert_grad_g",
]


class DcError(Exception):
    """Base class for numerical failures raised by this package."""


class ConvergenceError(DcError):
    """Gradient inversion stopped short of its stopping rule.

    Attributes
    ----------
    best_residual : float
        Smallest gradient residual norm reached before giving up.
    iterations : int
        Number of Newton iterations performed.
    """

    def __init__(self, message: str, best_residual: float, iterations: int):
        super().__init__(message)
        self.best_residual = best_residual
        self.iterations = iterations

    def with_phase(self, phase: str) -> "ConvergenceError":
        """The same failure, its message extended by where it happened."""
        return ConvergenceError(f"{self} {phase}", self.best_residual, self.iterations)


class NumericError(DcError):
    """A non-finite value appeared where the math guarantees finite ones."""


# Stopping rule of the gradient inversion: residual norm at most
# INVERSION_TOL relative to the target (absolute once the target is larger
# than 1), orders of magnitude below any tolerance asserted elsewhere in the
# package, within _MAX_NEWTON_ITER Newton steps.
INVERSION_TOL = 1e-10
_MAX_NEWTON_ITER = 100
# Sufficient-decrease coefficient and backtracking factor of the gradient
# inversion's line search on the residual norm.
_ARMIJO_C = 1e-4
_ARMIJO_SHRINK = 0.5
# Relative roundoff allowed per dimension when a computed value is compared
# with an exact bound: summing n terms errs by about n eps times their size.
ROUNDOFF = 32.0 * np.finfo(float).eps


@dataclass(frozen=True)
class Box:
    """Axis-aligned box given by per-coordinate lower/upper bounds."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lower, dtype=float))
        up = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if lo.ndim != 1 or lo.shape != up.shape:
            raise ValueError("box bounds must be 1-d arrays of equal length")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(up))):
            raise ValueError("box bounds must be finite")
        if np.any(lo > up):
            raise ValueError("empty box: a lower bound exceeds its upper bound")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", up)

    @property
    def dim(self) -> int:
        return self.lower.size

    @classmethod
    def cube(cls, half_width: float, dim: int) -> "Box":
        w = float(half_width) * np.ones(int(dim))
        return cls(-w, w)

    @classmethod
    def spanning(cls, points) -> "Box":
        """The smallest box holding every row of ``points``, shape ``(k, dim)``."""
        points = np.asarray(points, dtype=float)
        return cls(points.min(axis=0), points.max(axis=0))

    def center(self) -> np.ndarray:
        return 0.5 * (self.lower + self.upper)

    def contains(self, x, atol: float = 0.0) -> bool:
        x = np.asarray(x, dtype=float)
        return bool(np.all(x >= self.lower - atol) and np.all(x <= self.upper + atol))

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        u = rng.random((int(n), self.dim))
        return self.lower + u * (self.upper - self.lower)


@dataclass(frozen=True)
class BoxConstants:
    """Certified constants of a decomposition on one box.

    ``metric`` and ``objective`` are ``(lower, upper)`` bounds on the
    eigenvalues of ``Hess g`` and of ``Hess f`` at every point of the box.
    ``sigma`` is a metric PL constant there:
    ``|grad f|^2_{(Hess g)^{-1}} >= 2 sigma (f - f_star)`` on the whole box,
    zero when no positive constant holds.
    """

    metric: tuple[float, float]
    objective: tuple[float, float]
    sigma: float


@dataclass(frozen=True)
class DcProblem:
    """Oracles for one decomposition ``f = g - h``.

    Parameters
    ----------
    dim : int
        Ambient dimension.
    g_value, h_value : callable
        Map a point to the component value.
    g_grad, h_grad : callable
        Map a point to the component gradient.
    g_hess, h_hess : callable
        Map a point to the symmetric component Hessian.
    region : Box, optional
        The domain that random start points and sampled invariance points
        are drawn from, and nothing more: rate constants come from
        ``box_constants`` on the box the checked points span.
    f_star : float, optional
        Global infimum of ``f`` (analytic for the built-in families).
    minimizer : ndarray, optional
        A known minimizer, used by linearization experiments.
    label : str
        Human-readable identifier for reports.
    box_constants : callable, optional
        Maps a :class:`Box` to the :class:`BoxConstants` that hold on it, in
        closed form.  It is the one source of every constant: the strong
        convexity ``mu`` of ``g`` (``metric[0]``), ``L`` and ``sigma`` all
        hold on a box, never globally.  Samples only cross-check it; without
        it the rate checks and the descent margins raise ``ValueError``.
    """

    dim: int
    g_value: Callable[[np.ndarray], float]
    h_value: Callable[[np.ndarray], float]
    g_grad: Callable[[np.ndarray], np.ndarray]
    h_grad: Callable[[np.ndarray], np.ndarray]
    g_hess: Callable[[np.ndarray], np.ndarray]
    h_hess: Callable[[np.ndarray], np.ndarray]
    region: Optional[Box] = None
    f_star: Optional[float] = None
    minimizer: Optional[np.ndarray] = None
    label: str = ""
    box_constants: Optional[Callable[[Box], BoxConstants]] = None

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be a positive integer")
        if self.region is not None and self.region.dim != self.dim:
            raise ValueError("region dimension does not match problem dimension")

    def check_point(self, x) -> np.ndarray:
        """Validate and return ``x`` as a finite float vector of length ``dim``."""
        x = np.asarray(x, dtype=float)
        if x.ndim != 1 or x.size != self.dim:
            raise ValueError(
                f"expected a vector of length {self.dim}, got shape {x.shape}"
            )
        if not np.all(np.isfinite(x)):
            raise ValueError("point has non-finite entries")
        return x

    def f_value(self, x) -> float:
        x = self.check_point(x)
        return float(self.g_value(x) - self.h_value(x))

    def f_value_and_roundoff(self, x) -> tuple[float, float]:
        """:meth:`f_value` and a bound on the roundoff of computing it as ``g - h``.

        The bound scales with ``|g| + |h|``, not with ``|f|``: constants
        that cancel in the difference still cost their digits.
        """
        x = self.check_point(x)
        g = self.g_value(x)
        h = self.h_value(x)
        return float(g - h), ROUNDOFF * self.dim * (abs(float(g)) + abs(float(h)))

    def f_grad(self, x) -> np.ndarray:
        x = self.check_point(x)
        return np.asarray(self.g_grad(x), dtype=float) - np.asarray(
            self.h_grad(x), dtype=float
        )

    def f_hess(self, x) -> np.ndarray:
        x = self.check_point(x)
        return np.asarray(self.g_hess(x), dtype=float) - np.asarray(
            self.h_hess(x), dtype=float
        )

    def bregman_g(self, z, x) -> float:
        """Bregman divergence of the convex part, ``g(z) - g(x) - <grad g(x), z - x>``.

        Nonnegative, bounded below by ``mu/2 * ||z - x||**2`` where ``mu``
        bounds the eigenvalues of ``Hess g`` on the segment ``[x, z]`` from
        below (``metric[0]`` of the box constants of any box holding both
        points), and zero only at ``z == x``.
        """
        z = self.check_point(z)
        x = self.check_point(x)
        gx = np.asarray(self.g_grad(x), dtype=float)
        return float(self.g_value(z) - self.g_value(x) - gx @ (z - x))


def invert_grad_g(p: DcProblem, y, warm_start, tol: float = INVERSION_TOL) -> np.ndarray:
    """Solve ``grad g(x) = y`` for ``x``.

    Runs Newton's method on the residual ``r(x) = grad g(x) - y`` and
    backtracks on its norm, the merit of Newton on equations: a step
    ``t d`` is taken once ``||r(x + t d)|| <= (1 - c t) ||r(x)||``, and the
    trial residual becomes the next iterate's.  The Jacobian ``Hess g`` is
    positive definite, so the Newton direction always decreases the merit;
    warm starts near the solution finish in one or two steps.

    The iteration stops once ``||r|| <= min(tol, max(tol ||y||, floor))``,
    where ``floor`` is the roundoff of evaluating ``r`` at ``x``, scaled
    from ``Hess g(x)`` and ``x``.  The rule is relative to the target, never
    looser than ``tol``, and still met at ``y = 0`` with a nonzero preimage.

    Raises
    ------
    ConvergenceError
        If the residual is still above the stopping rule after
        ``_MAX_NEWTON_ITER`` Newton steps, or earlier once the line search
        can no longer decrease it (a ``tol`` below roundoff).  Carries the
        final residual, the smallest one reached.
    NumericError
        If the residual at the warm start is not finite, a trial residual
        is NaN, or the Hessian is singular.  An infinite trial residual
        only shortens the step.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim != 1 or y.size != p.dim:
        raise ValueError(f"expected a target vector of length {p.dim}")
    x = np.array(p.check_point(warm_start), dtype=float)
    goal = tol * min(1.0, float(np.linalg.norm(y)))

    residual = np.asarray(p.g_grad(x), dtype=float) - y
    rnorm = float(np.linalg.norm(residual))
    if not np.isfinite(rnorm):
        raise NumericError("non-finite gradient residual at the warm start")

    for iterations in range(_MAX_NEWTON_ITER + 1):
        if rnorm <= goal:
            return x
        hess = np.asarray(p.g_hess(x), dtype=float)
        floor = ROUNDOFF * p.dim * float(np.max(np.abs(hess)) * np.max(np.abs(x)))
        if rnorm <= min(tol, floor):
            return x
        if iterations == _MAX_NEWTON_ITER:
            break
        try:
            step = np.linalg.solve(hess, -residual)
        except np.linalg.LinAlgError as exc:
            raise NumericError(f"singular Hessian during inversion: {exc}") from exc
        t = 1.0
        while t >= 1e-18:
            x_new = x + t * step
            r_new = np.asarray(p.g_grad(x_new), dtype=float) - y
            rnorm_new = float(np.linalg.norm(r_new))
            if np.isnan(rnorm_new):
                raise NumericError("NaN in line search during inversion")
            # Written as a difference so that a trial equal to x is rejected.
            if rnorm - rnorm_new >= _ARMIJO_C * t * rnorm:
                break
            t *= _ARMIJO_SHRINK
        else:
            break  # no step decreases the residual: it sits at its roundoff
        x, residual, rnorm = x_new, r_new, rnorm_new

    raise ConvergenceError(
        f"gradient inversion did not reach tol {tol:g} in {iterations} "
        f"iterations (residual {rnorm:g})",
        best_residual=rnorm,
        iterations=iterations,
    )


def dual_map(p: DcProblem, y, warm_start) -> tuple[np.ndarray, np.ndarray]:
    """Pull a dual state back and take its image under one full exact step.

    Returns ``(x, grad h(x))`` with ``x = (grad g)^{-1}(y)``; ``x`` is the
    natural warm start for the next pullback.  The dual field at ``y`` is
    ``grad h(x) - y``, so fixed points of the map correspond exactly to
    critical points of ``f``.
    """
    x = invert_grad_g(p, y, warm_start)
    return x, np.asarray(p.h_grad(x), dtype=float)


def dual_euler(y: np.ndarray, grad_h: np.ndarray, eta: float) -> np.ndarray:
    """Explicit Euler step of size ``eta`` along the dual field ``grad_h - y``."""
    return y + eta * (grad_h - y)


def flow_velocity(p: DcProblem, x) -> tuple[np.ndarray, np.ndarray, float]:
    """Objective gradient, flow velocity and squared metric speed at ``x``.

    The metric gradient flow ``Hess g(x) x' = -grad f(x)`` moves with
    velocity ``v = -(Hess g)^{-1} grad f``, whose squared length in the
    Hessian metric is ``grad f' (Hess g)^{-1} grad f``.  Both come from one
    symmetric positive-definite solve.  Returns ``(grad f, v, speed_sq)``.
    """
    grad = p.f_grad(x)
    sol = np.linalg.solve(np.asarray(p.g_hess(x), dtype=float), grad)
    return grad, -sol, float(grad @ sol)


def central_diff_jacobian(fun: Callable[[np.ndarray], np.ndarray], x, step: float) -> np.ndarray:
    """Central-difference Jacobian of a vector field, columns are coordinate sweeps."""
    x = np.asarray(x, dtype=float)
    h = float(step)
    cols = []
    for j in range(x.size):
        e = np.zeros(x.size)
        e[j] = h
        cols.append((np.asarray(fun(x + e), dtype=float) - np.asarray(fun(x - e), dtype=float)) / (2.0 * h))
    return np.column_stack(cols)
