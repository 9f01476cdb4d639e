"""Continuous dynamics: dual-coordinate ODE integration and analytic oracles.

The autonomous field ``y' = grad h(pullback(y)) - y`` is integrated with an
embedded Dormand-Prince 4(5) pair under PI step control.  Integrating in the
dual coordinate keeps the field evaluations cheap: every evaluation is one
warm-started gradient inversion, and consecutive evaluations are close, so
the inner Newton solve typically finishes in one or two steps.  Pulling the
dual state back through the inverse gradient map yields the primal
trajectory of the metric gradient flow ``Hess g(x) x' = -grad f(x)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import (
    DcError,
    DcProblem,
    NewtonConfig,
    dual_euler,
    dual_map,
    flow_velocity,
    invert_grad_g,
)
from .problems import check_quadratic_split

__all__ = [
    "EQUILIBRIUM_GRAD_TOL",
    "FlowConfig",
    "FlowTrace",
    "StiffnessError",
    "closed_form_linear_flow",
    "dual_euler_interpolant",
    "euler_refinement_study",
    "integrate_flow",
]

# Gradient threshold below which integration stops: past it the dynamics is
# an analytically certified exponential tail, not worth integrating.
EQUILIBRIUM_GRAD_TOL = 1e-10

_MIN_STEP = 1e-14

# Dormand-Prince 4(5) tableau; the seventh stage is evaluated at the
# accepted point and reused as the first stage of the next step.
_A = (
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
)
_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_ERR = np.array(
    [
        71 / 57600,
        0.0,
        -71 / 16695,
        71 / 1920,
        -17253 / 339200,
        22 / 525,
        -1 / 40,
    ]
)


class StiffnessError(DcError):
    """Step-size control drove the step below the representable floor."""


@dataclass(frozen=True)
class FlowConfig:
    """Horizon, error control and output sampling for the integrator."""

    t_end: float
    record_stride: Optional[float] = None
    step_init: float = 1e-2
    rel_tol: float = 1e-8
    abs_tol: float = 1e-10
    newton: NewtonConfig = field(default_factory=NewtonConfig)

    def __post_init__(self):
        if self.t_end <= 0.0:
            raise ValueError("t_end must be positive")
        if self.step_init <= 0.0:
            raise ValueError("step_init must be positive")
        if self.rel_tol <= 0.0 or self.abs_tol <= 0.0:
            raise ValueError("tolerances must be positive")
        stride = self.record_stride
        if stride is None:
            stride = self.t_end / 100.0
            object.__setattr__(self, "record_stride", stride)
        if not 0.0 < stride <= self.t_end:
            raise ValueError("record_stride must lie in (0, t_end]")


@dataclass
class FlowTrace:
    """Sampled continuous trajectory in both coordinates.

    ``metric_speed_sq[i]`` is the squared trajectory speed in the Hessian
    metric, evaluated as ``grad f' (Hess g)^{-1} grad f`` at the sample.
    ``energy_residuals`` stays ``None`` until the analysis module fills it.
    """

    times: np.ndarray  # (m,)
    y_states: np.ndarray  # (m, n)
    x_states: np.ndarray  # (m, n)
    f_values: np.ndarray  # (m,)
    metric_speed_sq: np.ndarray  # (m,)
    energy_residuals: Optional[np.ndarray] = None

    @property
    def n_samples(self) -> int:
        return int(self.times.size)

    @property
    def max_dual_norm(self) -> float:
        """Largest dual-state norm; reports whether compactness held empirically."""
        return float(np.max(np.linalg.norm(self.y_states, axis=1)))

    @property
    def path_length(self) -> float:
        """Partial sum of sampled primal increments (reported, never asserted finite)."""
        return float(np.sum(np.linalg.norm(np.diff(self.x_states, axis=0), axis=1)))


def _record_targets(t_end: float, stride: float) -> np.ndarray:
    """Multiples of the stride on (0, t_end], always ending exactly at t_end."""
    n_full = int(math.floor(t_end / stride + 1e-9))
    targets = [stride * m for m in range(1, n_full + 1)]
    if targets and abs(targets[-1] - t_end) <= 1e-12 * max(1.0, t_end):
        targets[-1] = t_end
    else:
        targets.append(t_end)
    return np.asarray(targets)


def integrate_flow(p: DcProblem, x0, cfg: FlowConfig) -> FlowTrace:
    """Integrate the dual ODE from ``y0 = grad g(x0)`` and pull back samples.

    States are recorded at multiples of ``record_stride`` (and at
    ``t_end``); the adaptive stepper lands exactly on those times.
    Integration halts early once the primal gradient norm at a sample
    drops to :data:`EQUILIBRIUM_GRAD_TOL`.

    Raises
    ------
    StiffnessError
        If error control pushes the step below ``1e-14``.
    """
    x0 = p.check_point(x0)
    warm = [np.array(x0)]

    def fieldfun(yv: np.ndarray) -> np.ndarray:
        warm[0], grad_h = dual_map(p, yv, warm[0], cfg.newton)
        return grad_h - yv

    times = [0.0]
    y = np.asarray(p.g_grad(x0), dtype=float)
    ys = [y.copy()]
    xs = [x0.copy()]

    def sample_stats(x: np.ndarray):
        grad, _, msq = flow_velocity(p, x)
        return p.f_value(x), msq, float(np.linalg.norm(grad))

    f0, msq0, gnorm = sample_stats(x0)
    fs = [f0]
    msqs = [msq0]

    def build() -> FlowTrace:
        return FlowTrace(
            times=np.asarray(times),
            y_states=np.asarray(ys),
            x_states=np.asarray(xs),
            f_values=np.asarray(fs),
            metric_speed_sq=np.asarray(msqs),
        )

    if gnorm <= EQUILIBRIUM_GRAD_TOL:
        return build()

    targets = _record_targets(cfg.t_end, cfg.record_stride)
    target_idx = 0
    t = 0.0
    h = min(cfg.step_init, float(targets[0]))
    k1 = fieldfun(y)
    err_prev = 1e-4
    n = y.size

    while target_idx < targets.size:
        t_target = float(targets[target_idx])
        gap = t_target - t
        hits_target = h >= gap - 1e-14 * max(1.0, abs(t_target))
        h_try = gap if hits_target else h
        if h_try < _MIN_STEP:
            raise StiffnessError(
                f"step size underflow at t={t:g} (needed step {h_try:g})"
            )

        k = np.empty((7, n))
        k[0] = k1
        for i, row in enumerate(_A):
            k[i + 1] = fieldfun(y + h_try * (row @ k[: i + 1]))
        y_new = y + h_try * (_B5 @ k)
        err_vec = h_try * (_ERR @ k)
        scale = cfg.abs_tol + cfg.rel_tol * np.maximum(np.abs(y), np.abs(y_new))
        err = float(np.sqrt(np.mean((err_vec / scale) ** 2)))

        if err <= 1.0:
            t = t_target if hits_target else t + h_try
            y = y_new
            k1 = k[6]
            err = max(err, 1e-10)
            factor = min(5.0, max(0.2, 0.9 * err**-0.14 * err_prev**0.08))
            err_prev = err
            h = max(h_try * factor, _MIN_STEP)
            if hits_target:
                x = invert_grad_g(p, y, warm[0], cfg.newton)
                warm[0] = x
                f_val, msq, gnorm = sample_stats(x)
                times.append(t)
                ys.append(y.copy())
                xs.append(x.copy())
                fs.append(f_val)
                msqs.append(msq)
                target_idx += 1
                if gnorm <= EQUILIBRIUM_GRAD_TOL:
                    break
        else:
            h = h_try * max(0.2, 0.9 * err**-0.2)
            if h < _MIN_STEP:
                raise StiffnessError(
                    f"step size underflow at t={t:g} after rejection"
                )

    return build()


def closed_form_linear_flow(a, b, x0, t: float) -> np.ndarray:
    """Exact flow state at time ``t`` when both split components are quadratic.

    For ``g = x'ax/2`` and ``h = x'bx/2`` the dual ODE is linear with
    generator ``b a^{-1} - I``; conjugating by ``a^{1/2}`` symmetrizes it,
    so the propagator is computed exactly from one eigendecomposition:
    ``x(t) = a^{-1/2} exp(t(a^{-1/2} b a^{-1/2} - I)) a^{1/2} x0``.
    """
    a, b, _ = check_quadratic_split(a, b)
    wa, va = np.linalg.eigh(a)
    x0 = np.asarray(x0, dtype=float)
    if x0.ndim != 1 or x0.size != a.shape[0]:
        raise ValueError("x0 has the wrong length")

    sqrt_a = va @ (np.sqrt(wa)[:, None] * va.T)
    isqrt_a = va @ ((1.0 / np.sqrt(wa))[:, None] * va.T)
    gen = isqrt_a @ b @ isqrt_a - np.eye(a.shape[0])
    gen = 0.5 * (gen + gen.T)
    wg, vg = np.linalg.eigh(gen)
    return isqrt_a @ (vg @ (np.exp(float(t) * wg) * (vg.T @ (sqrt_a @ x0))))


def dual_euler_interpolant(
    p: DcProblem,
    x0,
    eta: float,
    times,
    newton: Optional[NewtonConfig] = None,
) -> np.ndarray:
    """Primal states of the piecewise-affine dual interpolant at ``times``.

    Runs the dual Euler iteration with step ``eta`` far enough to cover the
    requested times, interpolates affinely between dual iterates, and pulls
    each interpolated dual state back to the primal space.
    """
    x0 = p.check_point(x0)
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0 or np.any(times < 0.0):
        raise ValueError("times must be a nonempty vector of nonnegative reals")
    if eta <= 0.0:
        raise ValueError("eta must be positive")

    n_steps = max(1, int(math.ceil(float(times.max()) / eta - 1e-12)))
    y_nodes = np.empty((n_steps + 1, p.dim))
    y_nodes[0] = np.asarray(p.g_grad(x0), dtype=float)
    warm = np.array(x0)
    for k in range(n_steps):
        warm, grad_h = dual_map(p, y_nodes[k], warm, newton)
        y_nodes[k + 1] = dual_euler(y_nodes[k], grad_h, eta)

    out = np.empty((times.size, p.dim))
    warm = np.array(x0)
    for i, t in enumerate(times):
        k = min(int(t / eta), n_steps - 1)
        theta = (t - k * eta) / eta
        y_t = (1.0 - theta) * y_nodes[k] + theta * y_nodes[k + 1]
        x_t = invert_grad_g(p, y_t, warm, newton)
        warm = x_t
        out[i] = x_t
    return out


def euler_refinement_study(
    p: DcProblem,
    x0,
    etas,
    t_end: float,
    cfg: FlowConfig,
) -> list[tuple[float, float]]:
    """Deviation of each Euler interpolant from the integrated flow.

    Returns rows ``(eta, sup-norm deviation)`` measured at the reference
    trace's sample times on ``[0, t_end]``.  For a first-order scheme the
    deviations shrink linearly with ``eta``.
    """
    etas = [float(e) for e in etas]
    if not etas:
        raise ValueError("etas must be nonempty")
    if any(e <= 0.0 for e in etas):
        raise ValueError("etas must be positive")
    for a, b in zip(etas, etas[1:]):
        if b >= a:
            raise ValueError("etas must be strictly decreasing")

    ref_cfg = cfg if cfg.t_end == t_end else FlowConfig(
        t_end=t_end,
        record_stride=min(cfg.record_stride, t_end),
        step_init=cfg.step_init,
        rel_tol=cfg.rel_tol,
        abs_tol=cfg.abs_tol,
        newton=cfg.newton,
    )
    ref = integrate_flow(p, x0, ref_cfg)
    rows = []
    for eta in etas:
        x_interp = dual_euler_interpolant(p, x0, eta, ref.times, cfg.newton)
        dev = float(np.max(np.linalg.norm(x_interp - ref.x_states, axis=1)))
        rows.append((eta, dev))
    return rows
