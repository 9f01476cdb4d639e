"""Continuous dynamics: dual-coordinate ODE integration and analytic oracles.

The autonomous field ``y' = grad h(pullback(y)) - y`` is integrated with an
embedded Dormand-Prince 4(5) pair under PI step control;
:func:`integrate_flow` is the one place that forms it.  Integrating in the
dual coordinate keeps the field evaluations cheap: every evaluation is one
pullback through the inverse gradient map and one ``h_grad`` call.  Step
sizes follow the error control alone, at the DOPRI5 gains of Hairer,
Norsett and Wanner: the error's exponent is 0.2 - 0.75 beta and the
previous error's is beta = 0.04, that error floored at 1e-4.  Steps so
grow until their error nears the accept bound, and the first step's tiny
error does not damp the second.  Record times are read off the pair's
fourth-order continuous extension, which reuses the seven stages of each
accepted step.  Each attempt makes its six new stages in one loop, a
pullback and one ``h_grad`` call per stage, whichever pullback it calls.
For the built-in families the pullback is a closed form: each stage pulls
back through it alone, unchecked.  No step reads a verdict on its stages
that passes, nor the pullbacks of its record times, so that pass works in
blocks of ``_RECORD_BLOCK`` attempts, accepted or rejected: when a block
closes, the closed form pulls back the record times of its steps in one
stacked call, and one stacked ``g_grad`` call checks those pullbacks and
its stages together with the inversion's own stopping rule
(``core._check_block``), so the checked pullbacks are exactly those
Newton would return without a step.  That call less one ``h_grad`` call
is the records' ``grad f``.  Only a wrong closed form fails the check,
and there is one failure policy: the closed-form pass is kept only if it
returns, and if anything raises in it, a failed check or any other
exception, the loop runs again from its first step with every stage
through the inversion, which returns the closed form wherever it passes,
so the trace and every error are those of an inversion per stage.  Other
problems, and that run, invert each stage with Newton warm-started at
the previous evaluation's pullback (consecutive evaluations are close,
so it typically finishes in one or two steps), and each accepted step's
record times in one batched inversion as it is accepted.  This gives the primal
trajectory of the metric gradient flow ``Hess g(x) x' = -grad f(x)`` at
every record time.  The loop keeps only those states and tests each for
equilibrium on its gradient norm, and cuts the trace at the first at
rest; in the closed-form pass at most ``_RECORD_BLOCK - 1`` attempts run
past it, and are dropped.  The samples' metric speeds and values are
read once, after the kept pass, in stacked oracle calls over the whole
trace, the metric Hessians in row blocks of bounded size.
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
    _check_block,
    _closed_form,
    _closed_form_first,
    _pencil_eigh,
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
# PI step control with the DOPRI5 defaults (Hairer, Norsett & Wanner,
# Solving ODEs I, sec. II.4, and their dopri5 code): after an accepted step
# the size is scaled by 0.9 * err**-(0.2 - 0.75 * beta) * err_prev**beta,
# clipped to [0.2, 5], with beta = 0.04.  The history err_prev is floored at
# 1e-4, as dopri5 floors facold, so a tiny first error does not damp the
# second step.
_PI_BETA = 0.04
_PI_ALPHA = 0.2 - 0.75 * _PI_BETA
_PI_HISTORY_FLOOR = 1e-4
# Step attempts, accepted or rejected, whose closed-form stages are checked
# and whose record states are pulled back and judged in one pass, as the
# scheme's guard judges its iterates (schemes._GUARD_BLOCK).  No step depends
# on them, so in that pass up to this many minus one attempts may run past
# the first sample at rest, and are dropped.  The inverting pass defers
# nothing.
_RECORD_BLOCK = 32

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
    # One slot past the multiples holds t_end; the products round as
    # stride * m does in Python.
    targets = np.arange(1, n_full + 2, dtype=float)
    targets *= stride
    if n_full and targets[n_full - 1] >= t_end - 1e-12 * max(1.0, t_end):
        n_full -= 1
    targets[n_full] = t_end
    return targets[: n_full + 1]


def integrate_flow(p: DcProblem, x0, cfg: FlowConfig) -> FlowTrace:
    """Integrate the dual ODE from ``y0 = grad g(x0)`` and pull back samples.

    Steps are sized by error control alone; only the last one is clipped,
    so that it ends exactly at ``t_end``.  States are recorded at multiples
    of ``record_stride`` (and at ``t_end``): ``y_states`` holds the
    continuous extension of the step that covers each record time, and
    ``x_states`` its pullback.  The stride chooses output times only and
    never limits the step size.  Each attempt makes its six new stages in
    one loop, each a pullback and one ``h_grad`` call; only the pullback
    differs between the runs below.  With a closed-form ``g_conj_grad``
    each stage pulls back through it alone, unchecked, and an accepted
    step only keeps its record times and their dense-output states; no
    later step reads their pullbacks.  That run works in blocks of
    ``_RECORD_BLOCK`` attempts, accepted or rejected, and closes each one
    once it is full and when the loop ends: closing the block pulls back
    the record times of its steps through the closed form on one stack,
    and one ``g_grad`` call on the stages and those pullbacks checks them
    together with :func:`~dcflow.core._check_block`, the inversion's
    stopping rule, which passes exactly the pullbacks the inversion
    returns unchanged.  That run is kept only if it returns.  If anything
    raises in it, a failed check (which a right closed form never makes)
    or any other exception, the loop runs again from its first step with
    every stage pulled back through :func:`~dcflow.core.invert_grad_g`,
    and that run is returned or raises: the inversion returns the closed
    form wherever it passes, so the stages, Newton's steps and every error
    are those of a check per stage; numpy reports no floating-point error
    of the run thrown away (:func:`~dcflow.core._closed_form_first`).  In
    that run, and without a closed form, each accepted step pulls back its
    record times as it is accepted, in one batched inversion warm-started
    on the chord between the pullbacks at the step's two ends, which the
    stages already made, and an error there names that step.  Inversion
    and the closed form act row by row, so the block changes no bit.
    Integration halts at the first sample whose primal gradient norm is at
    most :data:`EQUILIBRIUM_GRAD_TOL`, read for checked records as the
    checking ``g_grad`` call less one ``h_grad`` call, the bits
    ``p.f_grad`` gives, and for inverted ones through ``p.f_grad``.  In
    the closed-form run at most ``_RECORD_BLOCK - 1`` attempts run past
    the first sample at rest and are dropped; an error raised in one of
    them sends the flow to the inverting run, which stops at the step that
    holds that sample.  The metric speeds and values of all kept samples
    come once, after the kept run, from one stacked
    :func:`~dcflow.core.flow_velocity` and one ``f_value_and_roundoff``
    call; the velocity call reads ``g_hess`` in row blocks of at most
    ``core._HESS_BLOCK_BYTES`` of Hessians, so a long high-dimensional
    trace keeps bounded memory.

    Raises
    ------
    StiffnessError
        If error control pushes the step below ``1e-14``.
    ConvergenceError
        If a gradient inversion fails; the message names the step's start
        time and size, as it does for every
        :class:`~dcflow.core.DcError` raised in a step.  With a closed
        form, these are the errors of the inverting run, made again after
        anything raised in the closed-form run.
    numpy.linalg.LinAlgError
        If ``Hess g`` is singular at a kept sample, once the loop has ended;
        a strongly convex ``g`` rules it out.
    """
    x0 = p.check_point(x0)
    samples = ([], [], [])  # times, y, x, in chunks

    def record(t_s: np.ndarray, y_s: np.ndarray, x_s: np.ndarray, grad_f: np.ndarray) -> bool:
        """Append samples up to the first at equilibrium, judged on its
        ``grad f`` row; True if one is."""
        at_rest = np.flatnonzero(_row_norms(grad_f) <= EQUILIBRIUM_GRAD_TOL)
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

    y0 = np.asarray(p.g_grad(x0), dtype=float)
    if record(np.zeros(1), y0[None], x0[None], p.f_grad(x0[None])):
        return build()

    targets = _record_targets(cfg.t_end, cfg.record_stride)
    t_end = cfg.t_end
    n = y0.size
    try:
        x_first = invert_grad_g(p, y0, x0)
        k1_start = np.asarray(p.h_grad(x_first), dtype=float) - y0
    except DcError as exc:
        raise exc.with_phase(_step_phase(0.0, _STEP_INIT)) from exc

    def steps(closed: bool) -> None:
        """The step loop from the first field evaluation on, which fills
        ``samples``.  If ``closed`` the stages pull back through the closed
        form and a block of up to ``_RECORD_BLOCK`` attempts is checked at
        a time, a failed check raising ``_CheckFailed``; otherwise each
        accepted step pulls back its record times as it is accepted."""
        # A run made again starts from the first sample alone.
        for chunks in samples:
            del chunks[1:]
        # (t_s, y_s) of each record-bearing step of the open block: its
        # record times and dense-output states.
        pending = []
        # x_last is the latest pullback, the warm start of the next inversion.
        x_start = x_last = x_first
        t, y, k1, target_idx = 0.0, y0, k1_start, 0
        h = h_try = _STEP_INIT
        err_prev = _PI_HISTORY_FLOOR
        # Attempts in the open block; their stages fill the first (6, n)
        # slots of stage_y and stage_x.
        attempts = 0
        stage_y, stage_x = np.empty((2, _RECORD_BLOCK, 6, n))

        def close() -> bool:
            """Close the open block; True at rest.  With ``closed``, the
            pending record times' closed-form pullbacks and the block's
            stages are checked on one stacked ``g_grad`` call, whose record
            rows less one ``h_grad`` call give ``grad f``, the bits of
            :meth:`~dcflow.core.DcProblem.f_grad`, and are recorded."""
            nonlocal attempts
            m, attempts = 6 * attempts, 0
            if not (closed and m):
                return False
            ys, xs = stage_y.reshape(-1, n)[:m], stage_x.reshape(-1, n)[:m]
            if not pending:
                _check_block(p, ys, xs)
                return False
            t_rec, y_rec = (np.concatenate(field) for field in zip(*pending))
            pending.clear()
            x_rec = _closed_form(p, y_rec)
            grad_g = _check_block(p, np.concatenate((ys, y_rec)), np.concatenate((xs, x_rec)))
            grad_f = grad_g[m:] - np.asarray(p.h_grad(x_rec), dtype=float)
            return record(t_rec, y_rec, x_rec, grad_f)

        while target_idx < targets.size:
            if attempts == _RECORD_BLOCK and close():
                return
            try:
                last = h >= t_end - t - 1e-14 * max(1.0, t_end)
                h_try = t_end - t if last else h
                if h_try < _MIN_STEP:
                    # The phase added below names t and the step needed.
                    raise StiffnessError("step size underflow")

                # x_last is bound to the pullback's own array, not to a slot of
                # stage_x: the next block writes those slots again.
                k = np.empty((7, n))
                k[0] = k1
                for i, row in enumerate(_A):
                    yv = stage_y[attempts, i] = y + h_try * (row @ k[: i + 1])
                    x_last = stage_x[attempts, i] = (
                        _closed_form(p, yv) if closed else invert_grad_g(p, yv, x_last)
                    )
                    k[i + 1] = np.asarray(p.h_grad(x_last), dtype=float) - yv
                attempts += 1
                y_new = y + h_try * (_B5 @ k)
                err_vec = h_try * (_ERR @ k)
                scale = cfg.abs_tol + cfg.rel_tol * np.maximum(np.abs(y), np.abs(y_new))
                # The root mean square of np.mean: one pairwise sum, one division.
                err = math.sqrt(float(np.add.reduce((err_vec / scale) ** 2)) / n)

                if err > 1.0:
                    h = h_try * max(0.2, 0.9 * err**-0.2)
                    if h < _MIN_STEP:
                        raise StiffnessError("step size underflow after rejection")
                    continue

                t_new = t_end if last else t + h_try
                stop = int(np.searchsorted(targets, t_new, side="right"))
                if stop > target_idx:
                    t_s = targets[target_idx:stop]
                    theta = ((t_s - t) / h_try)[:, None]
                    y_s = y + np.matvec(h_try * (k.T @ _P), theta ** np.arange(1, 5))
                    target_idx = stop
                    if closed:
                        pending.append((t_s, y_s))
                    else:
                        # The seventh stage sits at the accepted state, so
                        # x_last is the pullback at the step's end.
                        x_s = invert_grad_g(p, y_s, x_start + theta * (x_last - x_start))
                        if record(t_s, y_s, x_s, p.f_grad(x_s)):
                            break

                t = t_new
                y = y_new
                k1 = k[6]
                x_start = x_last
                err = max(err, 1e-10)
                factor = min(5.0, max(0.2, 0.9 * err**-_PI_ALPHA * err_prev**_PI_BETA))
                err_prev = max(err, _PI_HISTORY_FLOOR)
                h = max(h_try * factor, _MIN_STEP)
            except DcError as exc:
                raise exc.with_phase(_step_phase(t, h_try)) from exc
        close()

    _closed_form_first(p, steps)
    return build()


def _step_phase(t: float, h: float) -> str:
    """Where a flow step failed, for :meth:`~dcflow.core.DcError.with_phase`."""
    return f"in the flow step from t={t:g} of size {h:g}"


def closed_form_linear_flow(a, b, x0, t: float) -> np.ndarray:
    """Exact flow state at time ``t`` when both split components are quadratic.

    For ``g = x'ax/2`` and ``h = x'bx/2`` the flow is linear,
    ``x' = (a^{-1} b - I) x``.  With the eigenpairs ``(lam, V)`` of the
    pencil ``b v = lam a v`` (``V' a V = I``), ``a^{-1} b = V diag(lam) V' a``,
    so the propagator is computed exactly from one pencil decomposition:
    ``x(t) = V exp(t (lam - 1)) V' a x0``.
    """
    a, b, _ = check_quadratic_split(a, b)
    x0 = np.asarray(x0, dtype=float)
    if x0.ndim != 1 or x0.size != a.shape[0]:
        raise ValueError("x0 has the wrong length")
    lam, v = _pencil_eigh(b, a)
    return v @ (np.exp(float(t) * (lam - 1.0)) * (v.T @ (a @ x0)))


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
    the scheme iteration and ``eta``, or the pullback's sample time; any
    other :class:`~dcflow.core.DcError` names the scheme iteration, or the
    pullback, and ``eta``.
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
    except DcError as exc:
        raise exc.with_phase(f"in the interpolant pullback (eta={eta:g})") from exc


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
