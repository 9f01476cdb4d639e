"""Discrete iterations: classical DCA, its damped relaxation, and the dual Euler step.

All three are one update: the damped target
``y+ = (1-eta) y + eta grad h(x)`` (:func:`~dcflow.core.damped_target`)
followed by one pullback ``x+ = (grad g)^{-1}(y+)``: the closed form
``grad g*(y+)`` where the problem has one, and a gradient inversion
otherwise.  The loop works in the blocks of ``_GUARD_BLOCK`` iterates that
its divergence guard judges: closing one tests its closed-form pullbacks
with the inversion's own stopping rule (``core._check_block``) on the
``g_grad`` calls at them, then has the guard judge it.  Only a wrong closed
form fails that test, and there is one failure policy: the closed-form
pass is kept only if it returns, and if anything raises in it, a failed
test or any other exception, the scheme runs again with every pullback
through the inversion, which returns the closed form wherever it passes.
The primal
damped step takes ``y = grad g(x)``, which at ``eta = 1`` is the classical
step; the dual Euler step of size ``eta`` along
``grad h(pullback(y)) - y`` carries ``y`` from step to step instead.
``run_scheme``, the one loop of either form, logs every iterate, its dual
state included.  The loop reads only what the next iterate needs; the
tests of closed-form pullbacks and the objective values that the
divergence guard judges, both over blocks of logged iterates, and the
Bregman steps and step norms of the log are computed in stacked calls
outside it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .core import (
    Box,
    DcError,
    DcProblem,
    _check_block,
    _closed_form,
    _closed_form_first,
    _row_norms,
    damped_target,
    invert_grad_g,
)

__all__ = [
    "IterateTrace",
    "Mode",
    "SchemeConfig",
    "Termination",
    "descent_margins",
    "gradient_identity_margin",
    "run_scheme",
]

# Objective increases beyond this slack, relative to 1 + |f| and on top of
# the roundoff of both values, signal a broken oracle or a failed
# inversion, never a property of the method.
_DIVERGENCE_SLACK = 1e-6
# Logged iterates that the divergence guard judges in one stacked objective
# call.  No iterate depends on its verdict, so up to this many minus one
# iterations may run past the one that trips it, and are dropped.
_GUARD_BLOCK = 32
# Slack of the per-step descent inequalities, relative to 1 + |f| and on top
# of the roundoff of the values they compare.
_DESCENT_SLACK = 1e-9


class Termination(Enum):
    GRAD_TOL = "grad_tol"
    MAX_ITER = "max_iter"
    NUMERIC_ERROR = "numeric_error"


class Mode(Enum):
    PRIMAL = "primal"
    DUAL = "dual"


@dataclass(frozen=True)
class SchemeConfig:
    """Relaxation parameter and stopping rule."""

    eta: float = 1.0
    max_iter: int = 10_000
    stop_grad_tol: float = 1e-8

    def __post_init__(self):
        if not 0.0 < self.eta <= 1.0:
            raise ValueError("eta must lie in (0, 1]")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if self.stop_grad_tol <= 0.0:
            raise ValueError("stop_grad_tol must be positive")


@dataclass
class IterateTrace:
    """Logged discrete trajectory.

    ``bregman_steps[k]`` and ``step_norms[k]`` describe the move from
    iterate ``k`` to ``k+1``, so both have one entry fewer than ``points``.
    ``y_states[k]`` is the dual state pulled back to ``points[k]``: the
    damped target in either mode, and ``grad g(x_0)`` at ``k = 0``.
    ``f_roundoff[k]`` bounds the roundoff of ``f_values[k]``, as
    :meth:`~dcflow.core.DcProblem.f_value_and_roundoff` returns it.
    """

    points: np.ndarray  # (k+1, n)
    y_states: np.ndarray  # (k+1, n)
    f_values: np.ndarray  # (k+1,)
    f_roundoff: np.ndarray  # (k+1,)
    grad_norms: np.ndarray  # (k+1,)
    bregman_steps: np.ndarray  # (k,)
    step_norms: np.ndarray  # (k,)
    eta: float
    termination: Termination

    @property
    def n_points(self) -> int:
        return int(self.f_values.size)

    @property
    def max_point_norm(self) -> float:
        """Largest iterate norm; reports whether boundedness held empirically."""
        return float(np.max(np.linalg.norm(self.points, axis=1)))

    @property
    def path_length(self) -> float:
        """Partial sum of step lengths (reported, never asserted finite)."""
        return float(np.sum(self.step_norms))


def run_scheme(
    p: DcProblem,
    x0,
    cfg: Optional[SchemeConfig] = None,
    mode: Mode = Mode.PRIMAL,
) -> IterateTrace:
    """Iterate until the gradient stopping tolerance or the iteration cap.

    Each iterate costs one ``g_grad`` and one ``h_grad`` call, which give
    both its gradient norm and the next step's target, and one pullback.
    With a closed-form ``g_conj_grad`` the pullback is its value, and the
    ``g_grad`` call at it, the next iterate's gradient, waits in a queue.
    :func:`~dcflow.core._check_block`, the inversion's stopping rule, which
    passes exactly the pullbacks the inversion returns unchanged, tests the
    queued pullbacks on those calls in one stacked test per block of
    ``_GUARD_BLOCK`` iterates the divergence guard judges, before it judges
    them: when the block is full and when the loop ends.  That run is kept
    only if it returns.  If anything raises in it, a failed test (which a
    right closed form never makes) or any other exception, the run is made
    again with every pullback through :func:`~dcflow.core.invert_grad_g`
    from the current iterate, and that run is returned or raises: the
    inversion returns the closed form wherever it passes, so the trace and
    every error are those of a test per iterate; numpy reports no
    floating-point error of the run thrown away
    (:func:`~dcflow.core._closed_form_first`).  Without a closed form that
    is the only run.  The objective values, the Bregman steps and the
    step norms of the log are computed outside the loop, in stacked calls.

    Both modes step with :func:`~dcflow.core.damped_target` and differ
    only in the dual state they step from: primal mode from
    ``grad g(x_k)``, dual mode from the state ``y_k`` it carries, whose
    pullback ``x_k`` serves both the log and the next step.  A NaN
    objective or an objective increase beyond the divergence guard ends
    the run with ``Termination.NUMERIC_ERROR``, its log cut before the
    first iterate that fails.  No later iterate depends on the guard's
    verdict, so it judges the logged iterates in stacks of
    ``_GUARD_BLOCK``, and once more when the loop ends: at most
    ``_GUARD_BLOCK - 1`` iterations run past the iterate that trips it, or
    past a pullback that fails its test, and the trace is the one a
    per-iterate guard would have returned.  An exception raised in the
    loop first has the guard judge what is logged, its queued pullbacks
    tested first: if it trips, the run ends there as it would have before
    the exception; otherwise the exception propagates, a :class:`~dcflow.core.DcError` (a
    ``ConvergenceError`` of the inversion included) with its message
    naming the iteration and ``eta``.  Each pullback meets the rule of
    :func:`~dcflow.core.invert_grad_g`,
    ``||r|| <= min(tol max(1, ||y||), max(tol min(1, ||y||), floor))``:
    relative to small targets, absolute beyond norm 1, and at the roundoff
    ``floor`` of targets too large for an absolute ``tol``.
    """
    if cfg is None:
        cfg = SchemeConfig()
    x0 = p.check_point(x0)
    eta = cfg.eta

    def iterate(closed: bool) -> IterateTrace:
        """The run, with closed-form pullbacks tested as the guard's blocks
        close if ``closed``: a failed test raises ``_CheckFailed``."""
        x = x0
        points, y_states, grad_norms = [x], [], []
        f_values, f_errs = [], []  # of the judged points, points[: len(f_values)]
        termination = Termination.MAX_ITER

        # The g_grad calls at the closed-form pullbacks not yet tested, which
        # are also the next iterates' gradients: they are at the last
        # len(queue) points, whose targets are the last y_states.
        queue = []
        grad_g = None  # g_grad at x, when the closed form's g_grad call has read it

        def close() -> bool:
            """Close the block of unjudged points: test its queued pullbacks
            in one stacked test, then judge the points in one stacked
            objective call, in order; at the first that fails, cut the log
            before it and end the run.  True if one fails."""
            nonlocal termination
            if queue:
                ys = np.asarray(y_states[-len(queue) :])
                _check_block(p, ys, points[-len(queue) :], np.asarray(queue))
                queue.clear()
            start = len(f_values)
            if start == len(points):
                return False
            fs, errs = p.f_value_and_roundoff(np.asarray(points[start:]))
            for j, (f_next, err_next) in enumerate(zip(fs.tolist(), errs.tolist()), start):
                if j > 0:
                    slack = _DIVERGENCE_SLACK * (1.0 + abs(f_values[-1])) + f_errs[-1] + err_next
                    if not math.isfinite(f_next) or f_next > f_values[-1] + slack:
                        del points[j:], y_states[j:], grad_norms[j:]
                        termination = Termination.NUMERIC_ERROR
                        return True
                f_values.append(f_next)
                f_errs.append(err_next)
            return False

        while True:
            k = len(points) - 1
            try:
                if grad_g is None:
                    grad_g = np.asarray(p.g_grad(x), dtype=float)
                grad_h = np.asarray(p.h_grad(x), dtype=float)
                if k == 0:
                    y_states.append(grad_g)
                d = grad_g - grad_h
                # The bits of np.linalg.norm(d), which computes sqrt(d.dot(d)).
                grad_norms.append(math.sqrt(d.dot(d)))
                if grad_norms[-1] <= cfg.stop_grad_tol or k == cfg.max_iter:
                    if grad_norms[-1] <= cfg.stop_grad_tol:
                        termination = Termination.GRAD_TOL
                    break
                y = damped_target(grad_g if mode is Mode.PRIMAL else y_states[-1], grad_h, eta)
                if closed:
                    x = _closed_form(p, y)
                    grad_g = np.asarray(p.g_grad(x), dtype=float)
                    queue.append(grad_g)
                else:
                    x, grad_g = invert_grad_g(p, y, x), None
                points.append(x)
                y_states.append(y)
            except Exception as exc:
                # The guard judges the logged iterates first: a run that
                # trips it ends before this iteration.  A queued pullback
                # may fail its test there, which reruns the scheme.
                if not close():
                    if isinstance(exc, DcError):
                        raise exc.with_phase(f"in scheme iteration {k} (eta={eta:g})") from exc
                    raise
                break
            if len(points) - len(f_values) >= _GUARD_BLOCK and close():
                break
        close()

        points = np.asarray(points)
        return IterateTrace(
            points=points,
            y_states=np.asarray(y_states),
            f_values=np.asarray(f_values),
            f_roundoff=np.asarray(f_errs),
            grad_norms=np.asarray(grad_norms),
            bregman_steps=p.bregman_g(points[1:], points[:-1]),
            step_norms=_row_norms(np.diff(points, axis=0)),
            eta=eta,
            termination=termination,
        )

    return _closed_form_first(p, iterate)


def descent_margins(p: DcProblem, trace: IterateTrace):
    """Worst signed slack of the two per-step descent inequalities.

    Returns ``(relaxed, strong)`` where each entry is the minimum over
    steps of ``allowed_slack - violation``; nonnegative values mean the
    inequality held everywhere.  At ``eta = 1`` both inequalities reduce
    to plain monotonicity of the objective.  The slack adds to the relative
    one the roundoff of both objective values, and for the relaxed
    inequality that of the Bregman step, a difference of the same ``g``
    values.

    The strong inequality's ``mu`` is ``metric[0]`` of ``p.box_constants`` on
    the box the iterates span.  That suffices: ``D_g(x+, x) >= (mu_seg/2)
    |x+ - x|^2`` with ``mu_seg`` bounding ``Hess g`` from below on the
    segment ``[x, x+]`` alone, and every such segment lies in the box.  A
    problem without box constants raises ``ValueError``.
    """
    if p.box_constants is None:
        raise ValueError(f"problem {p.label!r} has no closed-form box constants")
    mu = p.box_constants(Box.spanning(trace.points)).metric[0]
    eta = trace.eta
    coef_relaxed = (1.0 - eta) / eta
    coef_strong = (1.0 - eta) * mu / (2.0 * eta)
    steps = trace.bregman_steps.size
    fk, fk1 = trace.f_values[:steps], trace.f_values[1 : steps + 1]
    f_err = trace.f_roundoff[:steps] + trace.f_roundoff[1 : steps + 1]
    slack = _DESCENT_SLACK * (1.0 + np.abs(fk)) + f_err
    relaxed_violation = fk1 + coef_relaxed * trace.bregman_steps - fk
    strong_violation = coef_strong * trace.step_norms**2 - (fk - fk1)
    worst_relaxed = np.min(slack + coef_relaxed * f_err - relaxed_violation, initial=np.inf)
    worst_strong = np.min(slack - strong_violation, initial=np.inf)
    return float(worst_relaxed), float(worst_strong)


def gradient_identity_margin(p: DcProblem, trace: IterateTrace) -> float:
    """Largest scaled deviation of a trace from the gradient-difference identity.

    The identity is ``||grad g(x_{k+1}) - grad g(x_k)|| = eta ||grad f(x_k)||``;
    each step's deviation is divided by
    ``max(1, ||grad g(x_k)||, ||grad g(x_{k+1})||)``.  The identity is exact
    up to the inversion residuals ``r_k``: the deviation is at most
    ``||r_{k+1}|| + (1-eta) ||r_k||`` (the second term only in dual mode),
    and each residual is at most ``INVERSION_TOL max(1, ||y||)`` for its
    target ``y``.  So scaled values above a small multiple of
    :data:`~dcflow.core.INVERSION_TOL` indicate a broken run, at any
    distance from the origin.
    """
    points = trace.points
    grad_g = np.asarray(p.g_grad(points), dtype=float)
    lhs = _row_norms(np.diff(grad_g, axis=0))
    rhs = trace.eta * _row_norms(p.f_grad(points[:-1]))
    gnorm = _row_norms(grad_g)
    scale = np.maximum(1.0, np.maximum(gnorm[:-1], gnorm[1:]))
    return float(np.max(np.abs(lhs - rhs) / scale, initial=0.0))

