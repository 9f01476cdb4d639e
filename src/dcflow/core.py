"""Oracle bundles for smooth difference-of-convex problems.

A :class:`DcProblem` packages value, gradient and Hessian callables for a
decomposition ``f = g - h`` (both parts convex, ``g`` strongly convex)
together with the constants the analysis routines consume.  The module also
implements the Bregman divergence of the convex part and the inversion of
its gradient map; that inversion is the single nonlinear kernel shared by
every discrete scheme and by the continuous flow integrator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

__all__ = [
    "Box",
    "ConvergenceError",
    "DcError",
    "DcProblem",
    "NewtonConfig",
    "NumericError",
    "central_diff_grad",
    "central_diff_jacobian",
    "dual_euler",
    "dual_map",
    "fd_default_step",
    "flow_velocity",
    "invert_grad_g",
]


class DcError(Exception):
    """Base class for numerical failures raised by this package."""


class ConvergenceError(DcError):
    """Gradient inversion ran out of iterations.

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


class NumericError(DcError):
    """A non-finite value appeared where the math guarantees finite ones."""


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

    def center(self) -> np.ndarray:
        return 0.5 * (self.lower + self.upper)

    def contains(self, x, atol: float = 0.0) -> bool:
        x = np.asarray(x, dtype=float)
        return bool(np.all(x >= self.lower - atol) and np.all(x <= self.upper + atol))

    def corners(self) -> np.ndarray:
        n = self.dim
        out = np.empty((2**n, n))
        for i in range(2**n):
            for j in range(n):
                out[i, j] = self.upper[j] if (i >> j) & 1 else self.lower[j]
        return out

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        u = rng.random((int(n), self.dim))
        return self.lower + u * (self.upper - self.lower)


@dataclass(frozen=True)
class NewtonConfig:
    """Controls for the damped-Newton gradient inversion.

    The defaults keep the inversion residual orders of magnitude below any
    tolerance asserted elsewhere in the package.
    """

    tol_grad: float = 1e-10
    max_iter: int = 100
    armijo_c: float = 1e-4
    armijo_shrink: float = 0.5

    def __post_init__(self):
        if self.tol_grad <= 0.0:
            raise ValueError("tol_grad must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if not 0.0 < self.armijo_c < 1.0:
            raise ValueError("armijo_c must lie in (0, 1)")
        if not 0.0 < self.armijo_shrink < 1.0:
            raise ValueError("armijo_shrink must lie in (0, 1)")


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
    mu : float
        Global strong-convexity constant of ``g``.
    region : Box, optional
        Box on which Lipschitz/eigenvalue constants are certified and on
        which sampled checks draw their points.
    lg : float, optional
        Lipschitz constant of the gradient of ``g`` on ``region``.
    f_star : float, optional
        Certified infimum of ``f`` on ``region`` (analytic for the built-in
        families).
    sigma : float, optional
        Certified metric PL constant, when available analytically.
    minimizer : ndarray, optional
        A known minimizer, used by linearization experiments.
    label : str
        Human-readable identifier for reports.
    """

    dim: int
    g_value: Callable[[np.ndarray], float]
    h_value: Callable[[np.ndarray], float]
    g_grad: Callable[[np.ndarray], np.ndarray]
    h_grad: Callable[[np.ndarray], np.ndarray]
    g_hess: Callable[[np.ndarray], np.ndarray]
    h_hess: Callable[[np.ndarray], np.ndarray]
    mu: float
    region: Optional[Box] = None
    lg: Optional[float] = None
    f_star: Optional[float] = None
    sigma: Optional[float] = None
    minimizer: Optional[np.ndarray] = None
    label: str = ""

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be a positive integer")
        if self.mu <= 0.0:
            raise ValueError("mu must be positive")
        if self.lg is not None and self.lg <= 0.0:
            raise ValueError("lg must be positive when given")
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

        Nonnegative, bounded below by ``mu/2 * ||z - x||**2``, and zero only
        at ``z == x``.
        """
        z = self.check_point(z)
        x = self.check_point(x)
        gx = np.asarray(self.g_grad(x), dtype=float)
        return float(self.g_value(z) - self.g_value(x) - gx @ (z - x))


def invert_grad_g(
    p: DcProblem,
    y,
    warm_start,
    cfg: Optional[NewtonConfig] = None,
) -> np.ndarray:
    """Solve ``grad g(x) = y`` for ``x``.

    Runs damped Newton with Armijo backtracking on the strongly convex
    potential ``x -> g(x) - <y, x>``, whose unique minimizer is the wanted
    preimage.  Strong convexity makes the iteration globally convergent;
    warm starts near the solution finish in one or two steps.

    Raises
    ------
    ConvergenceError
        If the residual norm is still above ``cfg.tol_grad`` after
        ``cfg.max_iter`` Newton steps.  Carries the best residual seen.
    NumericError
        If a non-finite value appears.
    """
    if cfg is None:
        cfg = NewtonConfig()
    y = np.asarray(y, dtype=float)
    if y.ndim != 1 or y.size != p.dim:
        raise ValueError(f"expected a target vector of length {p.dim}")
    x = np.array(p.check_point(warm_start), dtype=float)

    residual = np.asarray(p.g_grad(x), dtype=float) - y
    rnorm = float(np.linalg.norm(residual))
    if not np.isfinite(rnorm):
        raise NumericError("non-finite gradient residual at the warm start")
    best = rnorm

    for _ in range(cfg.max_iter):
        if rnorm <= cfg.tol_grad:
            return x
        hess = np.asarray(p.g_hess(x), dtype=float)
        try:
            step = np.linalg.solve(hess, -residual)
        except np.linalg.LinAlgError as exc:
            raise NumericError(f"singular Hessian during inversion: {exc}") from exc
        slope = float(residual @ step)  # negative for a descent direction
        phi0 = float(p.g_value(x)) - float(y @ x)
        # Near the solution the true decrease drops below the resolution of
        # phi0; without this slack the backtracking stalls on roundoff.
        noise = 10.0 * np.finfo(float).eps * (1.0 + abs(phi0))
        t = 1.0
        while True:
            x_new = x + t * step
            phi_new = float(p.g_value(x_new)) - float(y @ x_new)
            if np.isnan(phi_new):
                raise NumericError("NaN in line search during inversion")
            if phi_new <= phi0 + cfg.armijo_c * t * slope + noise:
                break
            t *= cfg.armijo_shrink
            if t < 1e-18:
                raise NumericError("line search step underflow during inversion")
        x = x_new
        residual = np.asarray(p.g_grad(x), dtype=float) - y
        rnorm = float(np.linalg.norm(residual))
        if not np.isfinite(rnorm):
            raise NumericError("non-finite gradient residual during inversion")
        best = min(best, rnorm)

    if rnorm <= cfg.tol_grad:
        return x
    raise ConvergenceError(
        f"gradient inversion did not reach tol {cfg.tol_grad:g} in "
        f"{cfg.max_iter} iterations (best residual {best:g})",
        best_residual=best,
        iterations=cfg.max_iter,
    )


def dual_map(
    p: DcProblem,
    y,
    warm_start,
    cfg: Optional[NewtonConfig] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Pull a dual state back and take its image under one full exact step.

    Returns ``(x, grad h(x))`` with ``x = (grad g)^{-1}(y)``; ``x`` is the
    natural warm start for the next pullback.  The dual field at ``y`` is
    ``grad h(x) - y``, so fixed points of the map correspond exactly to
    critical points of ``f``.
    """
    x = invert_grad_g(p, y, warm_start, cfg)
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


def fd_default_step(x) -> float:
    """Central-difference step balancing truncation and roundoff."""
    x = np.asarray(x, dtype=float)
    return 1e-5 * max(1.0, float(np.linalg.norm(x)))


def central_diff_grad(fun: Callable[[np.ndarray], float], x, step: Optional[float] = None) -> np.ndarray:
    """Central-difference gradient of a scalar function, O(step^2) accurate."""
    return central_diff_jacobian(lambda z: [fun(z)], x, step)[0]


def central_diff_jacobian(fun: Callable[[np.ndarray], np.ndarray], x, step: Optional[float] = None) -> np.ndarray:
    """Central-difference Jacobian of a vector field, columns are coordinate sweeps."""
    x = np.asarray(x, dtype=float)
    h = fd_default_step(x) if step is None else float(step)
    cols = []
    for j in range(x.size):
        e = np.zeros(x.size)
        e[j] = h
        cols.append((np.asarray(fun(x + e), dtype=float) - np.asarray(fun(x - e), dtype=float)) / (2.0 * h))
    return np.column_stack(cols)
