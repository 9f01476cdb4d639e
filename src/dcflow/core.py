"""Oracle bundles for smooth difference-of-convex problems.

A :class:`DcProblem` packages value, gradient and Hessian callables for a
decomposition ``f = g - h`` (both parts convex, ``g`` strongly convex)
together with the constants the analysis routines consume.  The module also
implements the Bregman divergence of the convex part and the inversion of
its gradient map, the pullback ``(grad g)^{-1} = grad g*`` that every
discrete scheme and the continuous flow integrator go through.  Newton's
method on ``grad g(x) = y`` is the one inversion kernel; a problem with a
closed-form ``grad g*`` supplies its starting point.  The closed-form call
(``_closed_form``), Newton's stopping rule (``_stopping_rule``: the goal,
then for the rows that miss it a roundoff exit read from one stacked
``g_hess`` call) and the loops' block check (``_check_block``) each have
one home here.  The rule at a start is the whole of Newton's iteration 0,
so it passes exactly the starts the inversion returns unchanged.  The
flow step and the schemes take closed-form pullbacks unchecked in their
loops, and as each block closes (``_RECORD_BLOCK`` step attempts with the
flow's record times, or ``_GUARD_BLOCK`` iterates) ``_check_block`` tests
them with the rule on one stacked ``grad g`` call; only a wrong closed
form fails that test.  One policy (``_closed_form_first``) governs the
pass: it is kept only if it returns, and if anything raises in it, a failed
test or any other exception, the loop runs again with every pullback
through the inversion, whose result or error the caller gets.  The numpy
floating-point errors of a pass thrown away are never reported.
The damped target ``(1-eta) y + eta grad h(x)`` is the one step map of the
discrete schemes: the damped DCA step with ``y = grad g(x)``, and the
explicit Euler step of the dual system from a carried dual state ``y``.
Two private kernels, ``_solve_metric`` and ``_eigvalsh``, solve and
diagonalize every stack of Hessians: a diagonal one in O(dim) per row, bit
for bit as LAPACK does, any other through LAPACK.  A Hessian oracle may
answer a :class:`Diagonal`, the diagonals alone, which the kernels and
Newton's stopping rule read without building a dense stack; they make it
dense only to hand it to LAPACK.  Their callers read the Hessians in row
blocks of at most ``_HESS_BLOCK_BYTES``.  A third,
``_pencil_eigh``, solves the symmetric-definite pencil ``h v = lam m v``
of one pair of matrices: the linearization at a minimum, the closed-form
flow of a quadratic split and its metric PL constant all read it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, TypeVar

import numpy as np

_T = TypeVar("_T")

__all__ = [
    "Box",
    "BoxConstants",
    "ConvergenceError",
    "DcError",
    "DcProblem",
    "Diagonal",
    "INVERSION_TOL",
    "NumericError",
    "ROUNDOFF",
    "central_diff_jacobian",
    "damped_target",
    "flow_velocity",
    "invert_grad_g",
]


class DcError(Exception):
    """Base class for numerical failures raised by this package."""

    def with_phase(self, phase: str) -> "DcError":
        """The same failure, its message extended by where it happened."""
        return type(self)(f"{self} {phase}")


class ConvergenceError(DcError):
    """Gradient inversion stopped short of its stopping rule.

    Attributes
    ----------
    best_residual : float
        Smallest gradient residual norm reached before giving up.
    iterations : int
        Number of Newton iterations performed.
    row : int
        Index of the failing target in a stack, the one with the largest
        residual when several fail; 0 for a single target.
    """

    def __init__(self, message: str, best_residual: float, iterations: int, row: int = 0):
        super().__init__(message)
        self.best_residual = best_residual
        self.iterations = iterations
        self.row = row

    def with_phase(self, phase: str) -> "ConvergenceError":
        """:meth:`DcError.with_phase`, keeping the residual, iterations and row."""
        return ConvergenceError(
            f"{self} {phase}", self.best_residual, self.iterations, self.row
        )


class NumericError(DcError):
    """A non-finite value appeared where the math guarantees finite ones."""


# Stopping rule of the gradient inversion: residual norm at most
# INVERSION_TOL relative to the target (absolute once the target is larger
# than 1, unless that lies below the roundoff of evaluating the residual),
# orders of magnitude below any tolerance asserted elsewhere in the package,
# within _MAX_NEWTON_ITER Newton steps.
INVERSION_TOL = 1e-10
_MAX_NEWTON_ITER = 100
# Sufficient-decrease coefficient and backtracking factor of the gradient
# inversion's line search on the residual norm.
_ARMIJO_C = 1e-4
_ARMIJO_SHRINK = 0.5
# Relative roundoff allowed per dimension when a computed value is compared
# with an exact bound: summing n terms errs by about n eps times their size.
ROUNDOFF = 32.0 * np.finfo(float).eps
# Bytes of the (rows, dim, dim) Hessian stack that one stacked consumer
# (flow_velocity, the probe sweep of analysis.checked_box_constants) holds at
# a time: longer stacks are read in row blocks of at most this size, so
# memory stays bounded, and oracles and the kernels below answer row by row,
# so the blocks change no bit.
_HESS_BLOCK_BYTES = 8 * 2**20
# The largest |entry| of a symmetric matrix within which LAPACK's eigenvalue
# driver (dsyevd) does not rescale it, with a margin: it rescales beyond
# about 1e-146 and 1e146.
_UNSCALED_RANGE = (1e-140, 1e140)


class Diagonal:
    """A Hessian oracle's answer that is a diagonal matrix, or a stack of them.

    ``d`` holds the diagonals, shape ``(dim,)`` at a point or ``(m, dim)``
    at a stack.  numpy reads it as the dense ``d[..., None] * np.eye(dim)``
    (``np.asarray`` and every numpy function go through ``__array__``), so
    a consumer that densifies sees the same bits as an oracle that wrote
    that product.  The stacked kernels below read ``d`` itself, in O(dim)
    per row.  ``answer[rows]`` is the ``Diagonal`` of those rows.
    """

    __slots__ = ("d",)

    def __init__(self, d):
        self.d = np.asarray(d, dtype=float)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.d.shape + self.d.shape[-1:]

    def __len__(self) -> int:
        return len(self.d)

    def __getitem__(self, rows) -> "Diagonal":
        return Diagonal(self.d[rows])

    def __array__(self, dtype=None, copy=None):
        dense = self.d[..., None] * np.eye(self.d.shape[-1])
        return dense if dtype is None else dense.astype(dtype, copy=False)


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

    Every oracle takes one point ``(dim,)`` or a stack of points
    ``(m, dim)`` and answers row by row: a stack gets values ``(m,)``,
    gradients ``(m, dim)`` and Hessians ``(m, dim, dim)``, each row equal to
    the call on that row alone.  Stacks let the flow integrator pull back
    every record time of a block of accepted steps in one call, let the
    scheme's divergence guard read the values of a block of iterates at
    once, and let the probe sweeps read each oracle once per box, the
    Hessians once per row block of at most :data:`_HESS_BLOCK_BYTES`, so
    the rows of a stack may come in several calls.  Newton's steps in
    :func:`invert_grad_g` always call ``g_grad`` and ``g_hess`` on a stack,
    a single target included.  Hessian stacks with no nonzero off-diagonal
    entry are solved and diagonalized in O(dim) per row, bit for bit as
    LAPACK would, so a diagonal metric needs no oracle of its own.  A
    Hessian oracle whose answers are diagonal may return them as a
    :class:`Diagonal`: every consumer then reads the diagonals in O(dim)
    per row, with the bits of the dense answer, and no stack of ``dim**2``
    entries is built or scanned.

    Parameters
    ----------
    dim : int
        Ambient dimension.
    g_value, h_value : callable
        Map a point to the component value.
    g_grad, h_grad : callable
        Map a point to the component gradient.
    g_hess, h_hess : callable
        Map a point to the symmetric component Hessian; a constant one may
        come back as a read-only view, a diagonal one as a
        :class:`Diagonal` of its diagonals.
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
    g_conj_grad : callable, optional
        Maps a target ``y`` (a point or a stack) to ``(grad g)^{-1}(y)``, the
        gradient of the convex conjugate ``g*``, in closed form.
        :func:`invert_grad_g` starts Newton's method there in place of the
        warm start, so the stopping rule still verifies every row: a wrong
        closed form costs Newton steps, never an unverified preimage.  The
        flow step and the schemes call it directly and check its answers
        against the same rule a block at a time: the stages and record
        times of a block of flow step attempts in one stacked ``g_grad``
        call, and a block of scheme iterates on the ``g_grad`` calls that
        are their next gradients.  A loop's closed-form pass is kept only
        if it returns; if a check fails or anything else raises in it, the
        loop runs again through :func:`invert_grad_g`.
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
    g_conj_grad: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be a positive integer")
        if self.region is not None and self.region.dim != self.dim:
            raise ValueError("region dimension does not match problem dimension")

    def check_points(self, x) -> np.ndarray:
        """Validate and return ``x`` as finite floats of shape ``(dim,)`` or ``(m, dim)``."""
        x = np.asarray(x, dtype=float)
        if x.ndim not in (1, 2) or x.shape[-1] != self.dim:
            raise ValueError(
                f"expected a vector of length {self.dim} or a stack of them, "
                f"got shape {x.shape}"
            )
        if not np.isfinite(x).all():
            raise ValueError("point has non-finite entries")
        return x

    def check_point(self, x) -> np.ndarray:
        """Validate and return ``x`` as a finite float vector of length ``dim``.

        Entry points that take one start point, from a config included, use
        this form, so a stack there stays an error.
        """
        x = self.check_points(x)
        if x.ndim != 1:
            raise ValueError(
                f"expected a vector of length {self.dim}, got shape {x.shape}"
            )
        return x

    def f_value(self, x):
        """``g - h`` at a point (a float) or at each row of a stack (``(m,)``)."""
        return self.f_value_and_roundoff(x)[0]

    def f_value_and_roundoff(self, x):
        """:meth:`f_value` and a bound on the roundoff of computing it as ``g - h``.

        The bound scales with ``|g| + |h|``, not with ``|f|``: constants
        that cancel in the difference still cost their digits.
        """
        x = self.check_points(x)
        g = np.asarray(self.g_value(x), dtype=float)
        h = np.asarray(self.h_value(x), dtype=float)
        f, noise = g - h, ROUNDOFF * self.dim * (np.abs(g) + np.abs(h))
        if x.ndim == 1:
            return float(f), float(noise)
        return f, noise

    def f_grad(self, x) -> np.ndarray:
        x = self.check_points(x)
        return np.asarray(self.g_grad(x), dtype=float) - np.asarray(
            self.h_grad(x), dtype=float
        )

    def bregman_g(self, z, x):
        """Bregman divergence of the convex part, ``g(z) - g(x) - <grad g(x), z - x>``.

        Nonnegative, bounded below by ``mu/2 * ||z - x||**2`` where ``mu``
        bounds the eigenvalues of ``Hess g`` on the segment ``[x, z]`` from
        below (``metric[0]`` of the box constants of any box holding both
        points), and zero only at ``z == x``.  A float for two points; for
        two stacks ``(m, dim)`` the ``(m,)`` divergences of their rows, each
        equal to the call on that pair alone.
        """
        z = self.check_points(z)
        x = self.check_points(x)
        if z.shape != x.shape:
            raise ValueError(f"points of shapes {z.shape} and {x.shape} do not pair up")
        gx = np.asarray(self.g_grad(x), dtype=float)
        # vecdot rounds a single pair as gx @ (z - x) does.
        d = self.g_value(z) - self.g_value(x) - np.vecdot(gx, z - x)
        return float(d) if x.ndim == 1 else np.asarray(d, dtype=float)


def invert_grad_g(p: DcProblem, y, warm_start) -> np.ndarray:
    """Solve ``grad g(x) = y`` for ``x``, for one target or a stack of them.

    Runs Newton's method on the residual ``r(x) = grad g(x) - y`` and
    backtracks on its norm, the merit of Newton on equations: a step
    ``t d`` is taken once ``||r(x + t d)|| <= (1 - c t) ||r(x)||``, and the
    trial residual becomes the next iterate's.  The Jacobian ``Hess g`` is
    positive definite, so the Newton direction always decreases the merit;
    warm starts near the solution finish in one or two steps.  When the
    problem has a closed-form ``g_conj_grad``, its value at ``y`` replaces
    ``warm_start`` and usually meets the stopping rule with no Newton step:
    one ``g_grad`` call and no ``g_hess`` call.

    The iteration stops once
    ``||r|| <= min(tol max(1, ||y||), max(tol min(1, ||y||), floor))``,
    where ``tol`` is :data:`INVERSION_TOL`, read at each call, and ``floor``
    is the roundoff of evaluating ``r`` at ``x``, scaled from ``Hess g(x)``
    and ``x``.  The rule asks for ``tol`` relative to a target of norm up to
    1 and ``tol`` absolute beyond, unless ``floor`` lies above that: then
    the floor is enough, though never more than ``tol`` relative to the
    target.  So it is still met at ``y = 0`` with a nonzero preimage, and at
    targets so large that ``tol`` is below one ulp of them.

    ``y`` and ``warm_start`` have shape ``(dim,)``, or ``(m, dim)`` for
    ``m`` targets with one warm start each.  Every shape runs the same
    loop.  It tests the residual at the start first and returns the start
    as it is when every row meets ``||r|| <= tol min(1, ||y||)``, which
    needs no Hessian.  Otherwise it iterates on a copy of the start as a
    stack: every oracle call and solve covers the rows still iterating, and
    each row keeps its own stopping rule and line search, so it ends bit for
    bit where the call on that row alone ends.  The caller's ``warm_start``
    is never written.

    Raises
    ------
    ValueError
        If ``y`` and ``warm_start`` differ in shape, or the closed form
        returns a point of another shape than ``y``.
    ConvergenceError
        If the residual is still above the stopping rule after
        ``_MAX_NEWTON_ITER`` Newton steps, or earlier once the line search
        can no longer decrease it (a ``tol`` below roundoff).  Carries the
        final residual, the smallest one reached, and for a stack the
        failing row with the largest residual.
    NumericError
        If the residual at the start (the warm start or the closed form's
        value) is not finite, a trial residual is NaN, or the Hessian is
        singular.  An infinite trial residual only shortens the step.
    """
    y = np.asarray(y, dtype=float)
    x = p.check_points(warm_start)
    if y.shape != x.shape:
        raise ValueError(
            f"target of shape {y.shape} does not match the warm start's {x.shape}"
        )
    if p.g_conj_grad is not None:
        x = _closed_form(p, y)
    return _invert_rows(p, y, x)


def _closed_form(p: DcProblem, y: np.ndarray) -> np.ndarray:
    """The closed-form pullback ``g_conj_grad(y)`` as a new float array.

    It is not checked against the stopping rule: callers test it with
    :func:`_stopping_rule` on ``g_grad`` at the answer, the loops through
    :func:`_check_block`.  An answer of another shape than ``y`` raises
    ``ValueError``.
    """
    x = np.array(p.g_conj_grad(y), dtype=float)
    if x.shape != y.shape:
        raise ValueError(
            f"closed-form pullback of shape {x.shape} does not match "
            f"the target's {y.shape}"
        )
    return x


def _row_norms(v: np.ndarray) -> np.ndarray:
    # vecdot rounds each row as np.linalg.norm rounds a vector; norm(axis=1) does not.
    return np.sqrt(np.vecdot(v, v))


def _meets_start_goal(rnorm: np.ndarray, ynorm: np.ndarray) -> np.ndarray:
    """Per residual norm ``rnorm``, whether it meets ``tol min(1, ynorm)``.

    This is the goal of :func:`_invert_rows`'s Newton loop, bit for bit,
    written as ``(rnorm <= tol) & (rnorm <= tol ynorm)`` so that no goal
    array is formed; ``tol`` is :data:`INVERSION_TOL`, read at each call.
    A NaN norm fails it.  It is the first test of :func:`_stopping_rule`,
    and the whole test when every row of a start meets it.
    """
    tol = INVERSION_TOL
    return (rnorm <= tol) & (rnorm <= tol * ynorm)


def _stopping_rule(
    p: DcProblem, x: np.ndarray, rnorm: np.ndarray, ynorm: np.ndarray
) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """Per row of the stack ``x`` ``(m, dim)``, whether Newton stops there.

    ``rnorm`` and ``ynorm`` are the ``(m,)`` norms of the residuals
    ``grad g(x) - y`` and of the targets ``y``; ``x`` may also be a list
    of its rows, stacked only if a row misses the goal.  A row stops once
    it meets the goal :func:`_meets_start_goal`; the rows that miss it and
    have a finite residual read ``g_hess`` in one stacked call, and stop once
    ``rnorm <= min(tol max(1, ynorm), floor)``, the roundoff exit, with
    ``floor`` the roundoff of evaluating the residual, scaled from
    ``Hess g(x)`` and ``x``.  A non-finite residual never stops.

    This is the whole rule of :func:`_invert_rows` at every iteration, so
    at a start it tells exactly which rows it returns unchanged, with no
    Newton step: the flow step and the schemes check closed-form pullbacks
    with it on the ``g_grad`` call at them, through :func:`_check_block`.
    Returns the verdicts and the Hessians of the rows that do not stop
    (those with a finite residual), which the next Newton step solves
    with; None when no row reads one.
    """
    tol = INVERSION_TOL
    stops = _meets_start_goal(rnorm, ynorm)
    if stops.all():
        return stops, None
    rows = np.flatnonzero(~stops & np.isfinite(rnorm))
    if rows.size == 0:
        return stops, None
    x = np.asarray(x)[rows]
    hess = p.g_hess(x)
    if isinstance(hess, Diagonal) and np.isfinite(hess.d).all():
        # Only zeros lie off a finite diagonal: the dense largest |entry|.
        peak = np.abs(hess.d).max(axis=1)
    else:
        hess = np.asarray(hess, dtype=float)
        peak = np.abs(hess).max(axis=(1, 2))
    floor = ROUNDOFF * p.dim * (peak * np.abs(x).max(axis=1))
    # The roundoff exit never asks for less than tol relative to a large target.
    done = rnorm[rows] <= np.minimum(tol * np.maximum(1.0, ynorm[rows]), floor)
    stops[rows[done]] = True
    return stops, hess[~done]


class _CheckFailed(Exception):
    """A stacked check of closed-form pullbacks failed: the loop that made
    them reruns with every pullback through :func:`invert_grad_g`."""


def _check_block(
    p: DcProblem, y: np.ndarray, x: np.ndarray, grad_g: Optional[np.ndarray] = None
) -> np.ndarray:
    """Check a loop's block of closed-form pullbacks ``x`` ``(m, dim)`` of
    the targets ``y`` with :func:`_stopping_rule` on ``grad_g``, the
    ``g_grad`` call at them, made here when None, and return that call.

    Each row passes exactly when :func:`invert_grad_g` would return it
    unchanged.  A row that fails raises :class:`_CheckFailed`; an exception
    of the call or the rule propagates, and reruns the loop all the same
    (:func:`_closed_form_first`).
    """
    if grad_g is None:
        grad_g = np.asarray(p.g_grad(x), dtype=float)
    if not _stopping_rule(p, x, _row_norms(grad_g - y), _row_norms(y))[0].all():
        raise _CheckFailed
    return grad_g


def _closed_form_first(p: DcProblem, run: Callable[[bool], _T]) -> _T:
    """A loop's one failure policy: ``run(True)``, its pass with closed-form
    pullbacks checked by :func:`_check_block`, is kept if ``p`` has a closed
    form and the pass returns; if anything raises in it, a failed check or
    any other exception, ``run(False)``, the pass with every pullback
    through :func:`invert_grad_g`, gives the result or the error.

    A wrong closed form makes garbage whose overflows and invalid values
    numpy would report before the check throws that pass away.  So the
    closed-form pass records numpy's floating-point errors instead, those
    of every kind that ``np.geterr()`` does not ignore, and reports none.
    A kept pass that recorded one runs once more under the caller's error
    state, which reports each error as a single pass does.
    """
    if p.g_conj_grad is None:
        return run(False)
    seen = []
    record = {kind: "ignore" if mode == "ignore" else "call" for kind, mode in np.geterr().items()}
    try:
        with np.errstate(**record, call=lambda kind, flag: seen.append(kind)):
            result = run(True)
    except Exception:
        return run(False)
    return run(True) if seen else result


def _invert_rows(p: DcProblem, y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """:func:`invert_grad_g` for a target ``y`` from the start ``x``, row by row.

    The start residual is tested before any row state is built, so a start
    that meets the goal ``tol min(1, ||y||)`` costs one ``g_grad`` call and,
    for a single target, arithmetic on numpy scalars.  Otherwise the
    targets become a stack ``(m, dim)``, and each iteration applies
    :func:`_stopping_rule` to the rows still iterating (``live``): a row
    leaves once it stops.  The Newton step covers the rest, unless none is
    left, and its line search shares one trial ``t`` among the rows that
    have not yet accepted theirs.  A row whose line search runs out fails;
    the rest go on, and the failure is raised when all are done.
    """
    tol = INVERSION_TOL
    residual = np.asarray(p.g_grad(x), dtype=float) - y
    rnorm, ynorm = _row_norms(residual), _row_norms(y)
    if _meets_start_goal(rnorm, ynorm).all():
        return x
    if not np.isfinite(rnorm).all():
        raise NumericError("non-finite gradient residual at the start point")

    shape = y.shape
    y, x = y.reshape(-1, p.dim), x.reshape(-1, p.dim).copy()
    residual, rnorm = residual.reshape(y.shape), rnorm.reshape(-1)
    ynorm = ynorm.reshape(-1)
    live = np.ones(len(y), dtype=bool)
    failed_at = np.full(len(y), -1)  # Newton step at which a row failed
    for iterations in range(_MAX_NEWTON_ITER + 1):
        rows = np.flatnonzero(live)
        stops, hess = _stopping_rule(p, x[rows], rnorm[rows], ynorm[rows])
        live[rows[stops]] = False
        rows = rows[~stops]
        if iterations == _MAX_NEWTON_ITER or rows.size == 0:
            break
        try:
            step = _solve_metric(hess, -residual[rows])
        except np.linalg.LinAlgError as exc:
            raise NumericError(f"singular Hessian during inversion: {exc}") from exc
        t = 1.0
        while rows.size and t >= 1e-18:
            x_new = x[rows] + t * step
            r_new = np.asarray(p.g_grad(x_new), dtype=float) - y[rows]
            rnorm_new = _row_norms(r_new)
            if np.any(np.isnan(rnorm_new)):
                raise NumericError("NaN in line search during inversion")
            old = rnorm[rows]
            # Written as a difference so that a trial equal to x is rejected.
            ok = old - rnorm_new >= _ARMIJO_C * t * old
            took = rows[ok]
            x[took], residual[took], rnorm[took] = x_new[ok], r_new[ok], rnorm_new[ok]
            rows, step = rows[~ok], step[~ok]
            t *= _ARMIJO_SHRINK
        # No step decreases these rows' residuals: they sit at their roundoff.
        live[rows] = False
        failed_at[rows] = iterations

    failed_at[live] = iterations
    failed = np.flatnonzero(failed_at >= 0)
    if failed.size == 0:
        return x.reshape(shape)
    i = int(failed[np.argmax(rnorm[failed])])
    where = f" of row {i} of {len(y)}" if len(shape) == 2 else ""
    raise ConvergenceError(
        f"gradient inversion{where} did not reach tol {tol:g} "
        f"in {failed_at[i]} iterations (residual {rnorm[i]:g})",
        best_residual=float(rnorm[i]),
        iterations=int(failed_at[i]),
        row=i,
    )


def damped_target(y: np.ndarray, grad_h: np.ndarray, eta: float) -> np.ndarray:
    """The damped step's target ``(1-eta) y + eta grad h(x)`` from the dual state ``y``.

    One map serves every discrete scheme.  With ``y = grad g(x)`` it is the
    right-hand side of the damped DCA step ``grad g(x+) = (1-eta) grad g(x) +
    eta grad h(x)``; for a carried dual state it is the explicit Euler step
    of size ``eta`` along the dual field ``grad h(x) - y``.  At ``eta = 1``
    it is exactly ``grad h(x)``, the classical DCA step.
    """
    return (1.0 - eta) * y + eta * grad_h


def _row_blocks(m: int, dim: int) -> list[slice]:
    """Slices that cut ``m`` rows into blocks whose ``(dim, dim)`` Hessians
    take at most :data:`_HESS_BLOCK_BYTES`, or one row each when a single
    Hessian is larger."""
    rows = max(1, _HESS_BLOCK_BYTES // (8 * dim * dim))
    return [slice(start, start + rows) for start in range(0, m, rows)]


def _regular_diagonal(stack) -> Optional[np.ndarray]:
    """The diagonals of a stack of diagonal matrices whose diagonal entries
    are finite and nonzero; None for any other stack.

    A :class:`Diagonal` is read in O(dim) per matrix: its ``d`` is returned
    exactly when the scan of its dense form would return it, once ``d`` is
    finite and nonzero.  An array is scanned, and its diagonals come back
    as a view; counting nonzeros copies nothing, so a read-only broadcast
    view costs no stack of its own.
    """
    if isinstance(stack, Diagonal):
        d = stack.d
        return d if d.all() and np.isfinite(d).all() else None
    d = np.diagonal(stack, axis1=-2, axis2=-1)
    if d.all() and np.count_nonzero(stack) == d.size and np.isfinite(d).all():
        return d
    return None


def _solve_metric(hess, rhs: np.ndarray) -> np.ndarray:
    """``np.linalg.solve(hess, rhs[..., None])[..., 0]``, bit for bit.

    ``hess`` is one matrix ``(dim, dim)`` or a stack ``(m, dim, dim)``, as
    an array or a :class:`Diagonal`, and ``rhs`` the matching ``(dim,)`` or
    ``(m, dim)``.  A stack with a :func:`_regular_diagonal` ``d`` is solved
    as ``rhs / d`` in O(dim) per row: LU with partial pivoting keeps each
    diagonal entry as its pivot, its multipliers and updates are signed
    zeros, and the substitutions end in one division per entry.  So the
    answers agree as long as ``rhs`` is finite (``0 * inf`` is NaN in
    LAPACK's updates) and holds no negative zero, which those updates may
    turn positive.  Every other stack, a :class:`Diagonal` in its dense
    form, goes to LAPACK, so a singular one raises
    ``numpy.linalg.LinAlgError``.
    """
    if not isinstance(hess, Diagonal):
        hess = np.asarray(hess, dtype=float)
    d = _regular_diagonal(hess)
    if d is not None and np.isfinite(rhs).all() and not np.signbit(rhs[rhs == 0.0]).any():
        return rhs / d
    return np.linalg.solve(np.asarray(hess), rhs[..., None])[..., 0]


def _eigvalsh(stack) -> np.ndarray:
    """``np.linalg.eigvalsh(stack)``, ascending eigenvalues, bit for bit.

    ``stack`` is an array or a :class:`Diagonal`.  A stack with a
    :func:`_regular_diagonal` gets it sorted, in O(dim log dim) per matrix:
    LAPACK's tridiagonal reduction leaves a diagonal matrix as it is, and
    its QL iteration splits it into 1x1 blocks that it only sorts.  That
    holds while each matrix's largest ``|entry|`` lies in
    :data:`_UNSCALED_RANGE`, where LAPACK does not rescale it.  Every other
    stack, a :class:`Diagonal` in its dense form, goes to LAPACK.
    """
    d = _regular_diagonal(stack)
    if d is not None:
        peak = np.abs(d).max(axis=-1)
        lo, hi = _UNSCALED_RANGE
        if ((peak >= lo) & (peak <= hi)).all():
            return np.sort(d, axis=-1)
    return np.linalg.eigvalsh(np.asarray(stack))


def _pencil_eigh(h: np.ndarray, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of the symmetric-definite pencil ``h v = lam m v``.

    ``h`` is a symmetric ``(dim, dim)`` matrix and ``m`` a symmetric
    positive-definite one.  Returns the ascending eigenvalues ``lam`` and
    the ``m``-orthonormal eigenvectors ``V`` as columns (``V' m V = I``).
    The pencil is reduced through ``m^{-1/2}``: ``lam`` are the eigenvalues
    of ``m^{-1/2} h m^{-1/2}``, symmetrized in floating point, so by
    Sylvester's law of inertia they have the signs of ``h``'s eigenvalues.
    An ``m`` that is not positive definite raises :class:`DcError`.
    """
    w, u = np.linalg.eigh(m)
    if not w[0] > 0.0:
        raise DcError("metric of the pencil is not positive definite")
    isqrt = u @ ((1.0 / np.sqrt(w))[:, None] * u.T)
    s = isqrt @ h @ isqrt
    lam, q = np.linalg.eigh(0.5 * (s + s.T))
    return lam, isqrt @ q


def flow_velocity(p: DcProblem, x) -> tuple[np.ndarray, np.ndarray, float]:
    """Objective gradient, flow velocity and squared metric speed at ``x``.

    The metric gradient flow ``Hess g(x) x' = -grad f(x)`` moves with
    velocity ``v = -(Hess g)^{-1} grad f``, whose squared length in the
    Hessian metric is ``grad f' (Hess g)^{-1} grad f``.  Both come from one
    symmetric positive-definite solve.  Returns ``(grad f, v, speed_sq)``;
    at a stack of points ``(m, dim)`` each entry is a stack too, with
    ``speed_sq`` of shape ``(m,)``.  A stack reads ``f_grad`` once and
    ``g_hess`` once per row block of at most :data:`_HESS_BLOCK_BYTES` of
    Hessians; a singular ``Hess g`` raises ``numpy.linalg.LinAlgError``.
    """
    x = p.check_points(x)
    grad = p.f_grad(x)
    if x.ndim == 1:
        sol = _solve_metric(p.g_hess(x), grad)
        return grad, -sol, float(np.vecdot(grad, sol))
    sol = np.empty_like(grad)
    for block in _row_blocks(len(x), p.dim):
        sol[block] = _solve_metric(p.g_hess(x[block]), grad[block])
    return grad, -sol, np.vecdot(grad, sol)


def central_diff_jacobian(fun: Callable[[np.ndarray], np.ndarray], x, step: float) -> np.ndarray:
    """Central-difference Jacobian of a vector field, columns are coordinate sweeps.

    ``fun`` answers row by row: it maps the ``(2n, n)`` stack of the points
    ``x + step e_j`` followed by ``x - step e_j`` to their ``(2n, m)`` values,
    and is called once.
    """
    x = np.asarray(x, dtype=float)
    n, h = x.size, float(step)
    e = h * np.eye(n)
    values = np.asarray(fun(np.concatenate((x + e, x - e))), dtype=float)
    return (values[:n] - values[n:]).T / (2.0 * h)
