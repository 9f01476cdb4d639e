"""Continuous dynamics: dual-coordinate ODE integration and analytic oracles.

The autonomous field ``y' = grad h(pullback(y)) - y`` is integrated with an
embedded Dormand-Prince 4(5) pair under PI step control;
:func:`integrate_flow` is the one place that forms it.  Integrating in the
dual coordinate keeps the field evaluations cheap: every evaluation is one
pullback through the inverse gradient map and one ``h_grad`` call.  For the
built-in families the pullback is a closed form that Newton's stopping rule
verifies, usually without a step; other problems run Newton warm-started at
the previous evaluation's pullback, and consecutive evaluations are close,
so it typically finishes in one or two steps.  Step sizes follow the error control alone; record times
are read off the pair's fourth-order continuous extension, which reuses the
seven stages of each accepted step.  The interpolated dual states of one
accepted step are pulled back through the inverse gradient map in one
batched inversion, which gives the primal trajectory of the metric gradient
flow ``Hess g(x) x' = -grad f(x)`` at every record time the step covers.
The loop keeps only those states and tests each for equilibrium on its
gradient norm; the samples' metric speeds and values are read after it, in
stacked oracle calls over the whole trace, the metric Hessians in row blocks
of bounded size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .core import (
    ConvergenceError,
    DcError,
    DcProblem,
    NumericError,
    _row_norms,
    flow_velocity,
    invert_grad_g,
)
from .problems import check_quadratic_split
from .schemes import Mode, SchemeConfig, Termination, run_scheme

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
# First trial step; error control resizes it from the first step on.
_STEP_INIT = 1e-2

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
# Continuous extension of the pair (Hairer, Norsett & Wanner, Solving ODEs I,
# II.6): y(t + theta h) = y + h k' P [theta, theta^2, theta^3, theta^4].
# Each row sums to the matching _B5 weight, so theta = 1 gives the step's
# accepted state.
_P = np.array(
    [
        [1.0, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432],
        [0.0, 0.0, 0.0, 0.0],
        [0.0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799],
        [0.0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072],
        [0.0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632],
        [0.0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
        [0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
    ]
)


class StiffnessError(DcError):
    """Step-size control drove the step below the representable floor."""


@dataclass(frozen=True)
class FlowConfig:
    """Horizon, error control and output sampling for the integrator."""

    t_end: float
    record_stride: Optional[float] = None
    rel_tol: float = 1e-8
    abs_tol: float = 1e-10

    def __post_init__(self):
        if self.t_end <= 0.0:
            raise ValueError("t_end must be positive")
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
    ``f_roundoff[i]`` bounds the roundoff of ``f_values[i]``, as
    :meth:`~dcflow.core.DcProblem.f_value_and_roundoff` returns it.
    """

    times: np.ndarray  # (m,)
    y_states: np.ndarray  # (m, n)
    x_states: np.ndarray  # (m, n)
    f_values: np.ndarray  # (m,)
    f_roundoff: np.ndarray  # (m,)
    metric_speed_sq: np.ndarray  # (m,)

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
    """Multiples of the stride on (0, t_end], always ending exactly at t_end.

    The floor's slack admits a last multiple just past ``t_end``; it, or one
    within roundoff below, is replaced by ``t_end`` itself.
    """
    n_full = int(math.floor(t_end / stride + 1e-9))
    targets = [stride * m for m in range(1, n_full + 1)]
    if targets and targets[-1] >= t_end - 1e-12 * max(1.0, t_end):
        targets.pop()
    targets.append(t_end)
    return np.asarray(targets)


def integrate_flow(p: DcProblem, x0, cfg: FlowConfig) -> FlowTrace:
    """Integrate the dual ODE from ``y0 = grad g(x0)`` and pull back samples.

    Steps are sized by error control alone; only the last one is clipped,
    so that it ends exactly at ``t_end``.  States are recorded at multiples
    of ``record_stride`` (and at ``t_end``): ``y_states`` holds the
    continuous extension of the step that covers each record time, and
    ``x_states`` its pullback.  The record times of one accepted step are
    pulled back in one batched inversion, warm-started on the chord between
    the pullbacks at the step's two ends, which the stages already made.
    The stride therefore chooses output times only and never limits the
    step size.  Integration halts at the first sample whose primal gradient
    norm is at most :data:`EQUILIBRIUM_GRAD_TOL`; the loop reads only that
    norm.  The metric speeds and values of all kept samples come after the
    loop from one stacked :func:`~dcflow.core.flow_velocity` and one
    ``f_value_and_roundoff`` call; the velocity call reads ``g_hess`` in row
    blocks of at most ``core._HESS_BLOCK_BYTES`` of Hessians, so a long
    high-dimensional trace keeps bounded memory.

    Raises
    ------
    StiffnessError
        If error control pushes the step below ``1e-14``.
    ConvergenceError
        If a gradient inversion fails; the message names the step's start
        time and size.
    numpy.linalg.LinAlgError
        If ``Hess g`` is singular at a kept sample, once the loop has ended;
        a strongly convex ``g`` rules it out.
    """
    x0 = p.check_point(x0)
    warm = [np.array(x0)]

    def fieldfun(yv: np.ndarray) -> np.ndarray:
        """The dual field ``grad h(x) - y`` at the pullback ``x`` of ``y``."""
        warm[0] = invert_grad_g(p, yv, warm[0])
        return np.asarray(p.h_grad(warm[0]), dtype=float) - yv

    samples = ([], [], [])  # times, y, x, in chunks

    def record(t_s: np.ndarray, y_s: np.ndarray, x_s: np.ndarray) -> bool:
        """Append samples up to the first at equilibrium; True if one is."""
        at_rest = np.flatnonzero(_row_norms(p.f_grad(x_s)) <= EQUILIBRIUM_GRAD_TOL)
        keep = at_rest[0] + 1 if at_rest.size else len(t_s)
        for out, new in zip(samples, (t_s, y_s, x_s)):
            out.append(new[:keep])
        return bool(at_rest.size)

    def build() -> FlowTrace:
        times, ys, xs = (np.concatenate(chunks) for chunks in samples)
        msqs = flow_velocity(p, xs)[2]
        fs, errs = p.f_value_and_roundoff(xs)
        return FlowTrace(
            times=times,
            y_states=ys,
            x_states=xs,
            f_values=fs,
            f_roundoff=errs,
            metric_speed_sq=msqs,
        )

    y = np.asarray(p.g_grad(x0), dtype=float)
    if record(np.zeros(1), y[None], x0[None]):
        return build()

    targets = _record_targets(cfg.t_end, cfg.record_stride)
    target_idx = 0
    t_end = cfg.t_end
    t = 0.0
    h = h_try = _STEP_INIT
    err_prev = 1e-4
    n = y.size
    try:
        k1 = fieldfun(y)
        x_start = warm[0]
        while target_idx < targets.size:
            last = h >= t_end - t - 1e-14 * max(1.0, t_end)
            h_try = t_end - t if last else h
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

            if err > 1.0:
                h = h_try * max(0.2, 0.9 * err**-0.2)
                if h < _MIN_STEP:
                    raise StiffnessError(
                        f"step size underflow at t={t:g} after rejection"
                    )
                continue

            t_new = t_end if last else t + h_try
            stop = int(np.searchsorted(targets, t_new, side="right"))
            if stop > target_idx:
                t_s = targets[target_idx:stop]
                theta = ((t_s - t) / h_try)[:, None]
                # The seventh stage sits at the accepted state, so warm[0]
                # is the pullback at the step's end.
                y_s = y + np.matvec(h_try * (k.T @ _P), theta ** np.arange(1, 5))
                x_s = invert_grad_g(p, y_s, x_start + theta * (warm[0] - x_start))
                target_idx = stop
                if record(t_s, y_s, x_s):
                    return build()

            t = t_new
            y = y_new
            k1 = k[6]
            x_start = warm[0]
            err = max(err, 1e-10)
            factor = min(5.0, max(0.2, 0.9 * err**-0.14 * err_prev**0.08))
            err_prev = err
            h = max(h_try * factor, _MIN_STEP)
    except ConvergenceError as exc:
        raise exc.with_phase(f"in the flow step from t={t:g} of size {h_try:g}") from exc

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


def dual_euler_interpolant(p: DcProblem, x0, eta: float, times) -> np.ndarray:
    """Primal states of the piecewise-affine dual interpolant at ``times``.

    Interpolates affinely between the dual states ``y_states`` of a
    dual-mode :func:`~dcflow.schemes.run_scheme` run with step ``eta``, long
    enough to cover ``times`` (a run stopped at an exact rest point stays
    there), and pulls them back in one batched inversion, warm-started on
    the chord between iterates.  An ``eta`` outside ``(0, 1]`` raises
    ``ValueError``.  At such steps the scheme descends, so a run that ends
    ``Termination.NUMERIC_ERROR`` raises :class:`~dcflow.core.NumericError`.
    A failed inversion raises :class:`~dcflow.core.ConvergenceError` naming
    the scheme iteration and ``eta``, or the pullback's sample time.
    """
    x0 = p.check_point(x0)
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0 or not np.all(np.isfinite(times) & (times >= 0.0)):
        raise ValueError("times must be a nonempty vector of finite nonnegative reals")
    # Built before the step count divides by eta, so that a bad eta gets its error.
    cfg = SchemeConfig(eta=eta, stop_grad_tol=np.finfo(float).tiny)
    n_steps = max(1, math.ceil(float(times.max()) / eta - 1e-12))
    trace = run_scheme(p, x0, replace(cfg, max_iter=n_steps), Mode.DUAL)
    if trace.termination is Termination.NUMERIC_ERROR:
        raise NumericError(f"dual Euler objective rose or turned non-finite (eta={eta:g})")
    rest = ((0, n_steps + 1 - trace.n_points), (0, 0))
    ys, xs = (np.pad(a, rest, mode="edge") for a in (trace.y_states, trace.points))
    k = np.minimum((times / eta).astype(int), n_steps - 1)
    theta = ((times - k * eta) / eta)[:, None]
    y_t = (1.0 - theta) * ys[k] + theta * ys[k + 1]
    try:
        return invert_grad_g(p, y_t, xs[k] + theta * (xs[k + 1] - xs[k]))
    except ConvergenceError as exc:
        raise exc.with_phase(
            f"in the interpolant pullback at t={times[exc.row]:g} (eta={eta:g})"
        ) from exc


def euler_refinement_study(
    p: DcProblem,
    x0,
    etas,
    cfg: FlowConfig,
) -> list[tuple[float, float]]:
    """Deviation of each Euler interpolant from the integrated flow.

    Returns rows ``(eta, sup-norm deviation)`` measured at the sample
    times of the flow integrated under ``cfg``, on ``[0, cfg.t_end]``, for
    strictly decreasing ``etas`` in ``(0, 1]``, checked before the flow runs.
    For a first-order scheme the deviations shrink linearly with ``eta``.
    """
    etas = [float(e) for e in etas]
    if not etas:
        raise ValueError("etas must be nonempty")
    if not all(0.0 < e <= 1.0 for e in etas):
        raise ValueError("eta must lie in (0, 1]")
    for a, b in zip(etas, etas[1:]):
        if b >= a:
            raise ValueError("etas must be strictly decreasing")

    ref = integrate_flow(p, x0, cfg)
    rows = []
    for eta in etas:
        x_interp = dual_euler_interpolant(p, x0, eta, ref.times)
        dev = float(np.max(np.linalg.norm(x_interp - ref.x_states, axis=1)))
        rows.append((eta, dev))
    return rows
