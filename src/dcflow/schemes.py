"""Discrete iterations: classical DCA, its damped relaxation, and the dual Euler step.

Every update reduces to one gradient inversion per iteration.  The primal
damped step solves ``grad g(x+) = (1-eta) grad g(x) + eta grad h(x)``, which
at ``eta = 1`` is the classical step; the equivalent move in the dual
coordinate ``y = grad g(x)`` is the explicit Euler step
``y+ = y + eta (grad h(pullback(y)) - y)``.  ``run_scheme`` executes either
form with full per-iterate logging.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .core import Box, ConvergenceError, DcProblem, dual_euler, invert_grad_g

__all__ = [
    "IterateTrace",
    "Mode",
    "SchemeConfig",
    "Termination",
    "damped_dca_step",
    "damped_target",
    "descent_margins",
    "gradient_identity_margin",
    "run_scheme",
]

# Objective increases beyond this slack, relative to 1 + |f| and on top of
# the roundoff of both values, signal a broken oracle or a failed
# inversion, never a property of the method.
_DIVERGENCE_SLACK = 1e-6
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
    """

    points: np.ndarray  # (k+1, n)
    f_values: np.ndarray  # (k+1,)
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


def damped_target(p: DcProblem, x, eta: float) -> np.ndarray:
    """Right-hand side ``(1-eta) grad g(x) + eta grad h(x)`` of the damped step."""
    return (1.0 - eta) * np.asarray(p.g_grad(x), dtype=float) + eta * np.asarray(
        p.h_grad(x), dtype=float
    )


def damped_dca_step(p: DcProblem, x_k, cfg: SchemeConfig) -> np.ndarray:
    """One relaxed step; ``eta = 1`` (the default) is the classical step."""
    x_k = p.check_point(x_k)
    return invert_grad_g(p, damped_target(p, x_k, cfg.eta), x_k)


def run_scheme(
    p: DcProblem,
    x0,
    cfg: Optional[SchemeConfig] = None,
    mode: Mode = Mode.PRIMAL,
) -> IterateTrace:
    """Iterate until the gradient stopping tolerance or the iteration cap.

    In dual mode the state is ``y_k``; each iteration pulls back
    ``x_k = (grad g)^{-1}(y_k)`` once and reuses that point both for
    logging and for the dual update, so the cost per iteration matches the
    primal form.  A NaN objective or an objective increase beyond the
    divergence guard stops the run with ``Termination.NUMERIC_ERROR``.  A
    ``ConvergenceError`` of the inversion propagates, its message naming the
    iteration and ``eta``.
    """
    if cfg is None:
        cfg = SchemeConfig()
    x = p.check_point(x0)
    eta = cfg.eta

    f, f_err = p.f_value_and_roundoff(x)
    points = [x]
    f_values = [f]
    grad_norms = [float(np.linalg.norm(p.f_grad(x)))]
    bregman_steps: list[float] = []
    step_norms: list[float] = []

    y = np.asarray(p.g_grad(x), dtype=float) if mode is Mode.DUAL else None
    termination = Termination.MAX_ITER

    for k in range(cfg.max_iter):
        if grad_norms[-1] <= cfg.stop_grad_tol:
            termination = Termination.GRAD_TOL
            break
        try:
            if mode is Mode.PRIMAL:
                x_next = damped_dca_step(p, x, cfg)
            else:
                y = dual_euler(y, np.asarray(p.h_grad(x), dtype=float), eta)
                x_next = invert_grad_g(p, y, x)
        except ConvergenceError as exc:
            raise exc.with_phase(f"in scheme iteration {k} (eta={eta:g})") from exc
        f_next, err_next = p.f_value_and_roundoff(x_next)
        if not np.isfinite(f_next):
            termination = Termination.NUMERIC_ERROR
            break
        slack = _DIVERGENCE_SLACK * (1.0 + abs(f_values[-1])) + f_err + err_next
        if f_next > f_values[-1] + slack:
            termination = Termination.NUMERIC_ERROR
            break
        f_err = err_next
        bregman_steps.append(p.bregman_g(x_next, x))
        step_norms.append(float(np.linalg.norm(x_next - x)))
        x = x_next
        points.append(x)
        f_values.append(f_next)
        grad_norms.append(float(np.linalg.norm(p.f_grad(x))))
    else:
        if grad_norms[-1] <= cfg.stop_grad_tol:
            termination = Termination.GRAD_TOL

    return IterateTrace(
        points=np.asarray(points),
        f_values=np.asarray(f_values),
        grad_norms=np.asarray(grad_norms),
        bregman_steps=np.asarray(bregman_steps),
        step_norms=np.asarray(step_norms),
        eta=eta,
        termination=termination,
    )


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
    f_errs = [p.f_value_and_roundoff(x)[1] for x in trace.points]
    worst_relaxed = np.inf
    worst_strong = np.inf
    for k in range(trace.bregman_steps.size):
        fk = trace.f_values[k]
        fk1 = trace.f_values[k + 1]
        f_err = f_errs[k] + f_errs[k + 1]
        slack = _DESCENT_SLACK * (1.0 + abs(fk)) + f_err
        relaxed_violation = fk1 + coef_relaxed * trace.bregman_steps[k] - fk
        strong_violation = coef_strong * trace.step_norms[k] ** 2 - (fk - fk1)
        worst_relaxed = min(worst_relaxed, slack + coef_relaxed * f_err - relaxed_violation)
        worst_strong = min(worst_strong, slack - strong_violation)
    return float(worst_relaxed), float(worst_strong)


def gradient_identity_margin(p: DcProblem, trace: IterateTrace) -> float:
    """Largest deviation from ``||grad g(x_{k+1}) - grad g(x_k)|| = eta ||grad f(x_k)||``.

    The identity is exact up to the inversion residual, so values above a
    small multiple of :data:`~dcflow.core.INVERSION_TOL` indicate a broken
    run.
    """
    worst = 0.0
    for k in range(trace.points.shape[0] - 1):
        xk = trace.points[k]
        xk1 = trace.points[k + 1]
        lhs = float(
            np.linalg.norm(
                np.asarray(p.g_grad(xk1), dtype=float)
                - np.asarray(p.g_grad(xk), dtype=float)
            )
        )
        rhs = trace.eta * float(np.linalg.norm(p.f_grad(xk)))
        worst = max(worst, abs(lhs - rhs))
    return worst

