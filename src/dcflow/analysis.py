"""Certified constants and measured behavior, checked against each other.

Every routine here either computes a theoretical constant from problem
oracles (rate bounds, linearization spectra, local exponential
certificates) or measures the corresponding quantity on a logged trace
(energy residuals, per-step value ratios, contraction factors, decay
slopes).  The pairing is deliberate: each report carries both sides so a
single comparison decides pass or fail.

Box constants (metric and objective-Hessian eigenvalue ranges, metric PL
constant ``sigma``) are closed forms, never estimates: one probe sweep in
:func:`checked_box_constants` cross-checks all of them, on all the boxes a
run certifies at once (RateCertify's span and local boxes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .core import (
    ROUNDOFF,
    Box,
    BoxConstants,
    DcError,
    DcProblem,
    Diagonal,
    _eigvalsh,
    _pencil_eigh,
    _regular_diagonal,
    _row_blocks,
    _row_norms,
    _solve_metric,
    central_diff_jacobian,
    flow_velocity,
    invert_grad_g,  # noqa: F401  (uncalled here; bench/tracing.py wraps this name)
)
from .flow import FlowTrace
from .schemes import IterateTrace, SchemeConfig, Termination, run_scheme

__all__ = [
    "BoxTooLargeError",
    "DegenerateMinimumError",
    "FlowRateCheck",
    "InsufficientDataError",
    "KlDiagnostic",
    "LinearizationReport",
    "LocalExpCertificate",
    "LocalityError",
    "RateReport",
    "checked_box_constants",
    "damped_pl_report",
    "energy_residuals",
    "flow_rate_check",
    "kl_exponent_diagnostic",
    "linearize_at",
    "local_exp_bound_margin",
    "local_exp_certificate",
    "measure_local_contraction",
]


class LocalityError(DcError):
    """Iterates left the neighborhood where a local measurement is valid."""


class InsufficientDataError(DcError):
    """Too few usable trace points for a regression-based estimate."""


class DegenerateMinimumError(DcError):
    """The objective Hessian is not positive definite at the probed point."""


class BoxTooLargeError(DcError):
    """The objective Hessian fails to stay positive definite over the box."""


# linearize_at's difference step; measure_local_contraction's start distance
# and iterate count; local_exp_certificate's probe points; the first primes,
# the Halton bases of up to 16 dimensions.
_FD_STEP = 1e-4
_CONTRACTION_RADIUS = 1e-3
_CONTRACTION_STEPS = 20
_LOCAL_PROBES = 200
_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)
# Relative slack of the local exponential envelope, for integrator error.
_LOCAL_EXP_SLACK = 1e-3


# ---------------------------------------------------------------------------
# sampling helpers


def _primes(count: int) -> list[int]:
    """The first ``count`` primes: the table's, then by trial division."""
    primes, k = list(_PRIMES[:count]), _PRIMES[-1] + 1
    while len(primes) < count:
        if all(k % q for q in primes if q * q <= k):
            primes.append(k)
        k += 1
    return primes


def _halton(n: int, dim: int) -> np.ndarray:
    """The first ``n`` Halton points in ``[0, 1)^dim``, from a table of radical
    inverses per base ``b`` that grows a digit per pass: index ``d b^m + j``
    is entry ``j`` plus ``d b^-(m+1)``.  Digits add up least significant
    first, with the digit loop's factors, so each point equals it bit for bit."""
    out = np.empty((n, dim))
    for j, base in enumerate(_primes(dim)):
        f, digits = 1.0 / base, np.arange(float(base))
        table = digits[: n + 1] * f
        while table.size <= n:
            f /= base
            table = np.add.outer(digits[: -(-(n + 1) // table.size)] * f, table).ravel()
        out[:, j] = table[1 : n + 1]
    return out


def _loglog_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    lx, ly = np.log(x), np.log(y)
    slope, intercept = np.polyfit(lx, ly, 1)
    pred = slope * lx + intercept
    ss_res = float(np.sum((ly - pred) ** 2))
    ss_tot = float(np.sum((ly - np.mean(ly)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), r2


# ---------------------------------------------------------------------------
# report types


@dataclass(frozen=True)
class RateReport:
    """Per-step contraction bound for the damped scheme next to its measurement."""

    eta: float
    contraction_bound: float  # max{0, 1 - (mu*sigma/L) * eta * (1-eta)}
    measured_ratio_geomean: float  # NaN when no step has both gaps above the floor
    violation: bool


@dataclass(frozen=True)
class FlowRateCheck:
    """Envelope check of the value gap along a flow trace."""

    passed: bool
    worst_margin: float
    measured_decay_rate: Optional[float]


@dataclass(frozen=True)
class LinearizationReport:
    """Spectral data of the flow linearization at a nondegenerate minimum."""

    x_star: np.ndarray
    hess_f: np.ndarray
    metric: np.ndarray  # Hessian of the convex part at x_star
    spectrum: np.ndarray  # eigenvalues of metric^{-1} hess_f, ascending
    lambda_min: float
    fd_jacobian: np.ndarray
    fd_error: float  # Frobenius gap between fd_jacobian and -metric^{-1} hess_f
    slow_direction: np.ndarray  # eigenvector of the smallest eigenvalue

    def local_factor(self, eta: float) -> float:
        """Linearized per-step contraction factor of the damped scheme."""
        return 1.0 - float(eta) * self.lambda_min


@dataclass(frozen=True)
class LocalExpCertificate:
    """Local exponential decay certificate near a nondegenerate minimum."""

    lam: float  # decay rate m_f / M
    c1: float  # overshoot sqrt(L_f / m_f)
    hess_f_lower: float
    hess_f_upper: float


@dataclass(frozen=True)
class KlDiagnostic:
    """Power-type desingularization exponent fitted from a trace tail."""

    theta_hat: float
    r_squared: float
    n_points: int


# ---------------------------------------------------------------------------
# energy identity


def _dissipation_defects(times, f, msq) -> np.ndarray:
    """``|df/dt + metric speed^2|`` at the interior points of the given samples.

    The time derivative is the second-order central difference on the
    (possibly nonuniform) sample grid.
    """
    h1 = times[1:-1] - times[:-2]
    h2 = times[2:] - times[1:-1]
    dfdt = (
        h1 * h1 * f[2:] - h2 * h2 * f[:-2] + (h2 * h2 - h1 * h1) * f[1:-1]
    ) / (h1 * h2 * (h1 + h2))
    return np.abs(dfdt + msq[1:-1])


def energy_residuals(trace: FlowTrace) -> np.ndarray:
    """Defect of the dissipation identity at every sample, NaN at the two ends.

    Compares the central-difference time derivative of the objective with
    ``-grad f' (Hess g)^{-1} grad f`` at each interior sample, read from
    ``trace.metric_speed_sq``.
    """
    out = np.full(trace.times.size, np.nan)
    out[1:-1] = _dissipation_defects(trace.times, trace.f_values, trace.metric_speed_sq)
    return out


# ---------------------------------------------------------------------------
# damped-scheme rate


def damped_pl_report(
    trace: IterateTrace,
    constants: BoxConstants,
    f_star: float,
) -> RateReport:
    """Contraction bound ``1 - (mu*sigma/L) eta (1-eta)`` versus measured ratios.

    ``mu, L = constants.metric`` and ``sigma = constants.sigma`` must hold
    on a box that holds every iterate, such as the box the iterates span.
    That suffices: the built-in families have a diagonal or constant
    ``Hess g``, so per coordinate ``D_g(x+, x) >= |grad g(x+) - grad g(x)|^2
    / (2L)`` holds with ``L`` bounding ``Hess g`` on the segment ``[x, x+]``
    alone, and that segment lies in the box.

    The geometric mean is taken over the tail half of the usable steps:
    those whose two gaps each exceed the roundoff of their own objective
    value (``trace.f_roundoff``), below which a gap carries no digit.
    ``violation`` flags any single step whose ratio exceeds the bound
    beyond slack.
    """
    eta = trace.eta
    if not 0.0 < eta < 1.0:
        raise ValueError("rate report requires a damped trace with eta in (0, 1)")
    if constants.sigma <= 0.0:
        raise ValueError("sigma must be positive")

    mu, lg = constants.metric
    bound = max(0.0, 1.0 - (mu * constants.sigma / lg) * eta * (1.0 - eta))
    gaps = trace.f_values - f_star
    above = gaps > trace.f_roundoff
    usable = np.flatnonzero(above[:-1] & above[1:])
    if not above[0] or usable.size == 0:
        return RateReport(eta, bound, math.nan, violation=False)
    ratios = gaps[usable + 1] / gaps[usable]
    tail = ratios[ratios.size // 2 :]
    geomean = float(np.exp(np.mean(np.log(np.maximum(tail, 1e-300)))))
    # Absolute slack: the ratios and the bound are dimensionless.
    return RateReport(eta, bound, geomean, violation=bool(np.any(ratios > bound + 1e-9)))


# ---------------------------------------------------------------------------
# flow rate envelopes


def flow_rate_check(
    trace: FlowTrace,
    c: float,
    theta: float,
    f_star: float,
) -> FlowRateCheck:
    """Check the value gap against its certified decay envelope.

    For exponent one half the envelope is exponential,
    ``V(0) exp(-c^2 t)``; for larger exponents it is the polynomial curve
    ``(V(0)^{1-2 theta} + c^2 (2 theta - 1) t)^{-1/(2 theta - 1)}``.  A
    multiplicative slack of ``1e-6`` absorbs integrator error.

    Each sample's gap is also allowed its own roundoff.  The computed gap
    ``f - f_star`` differs from the true one by at most the roundoff of
    ``f`` (``trace.f_roundoff``) plus that of ``f_star``, taken as
    ``core.ROUNDOFF * |f_star|`` as :func:`checked_box_constants` takes it.  A
    computed gap that exceeds the envelope by no more than that sum is
    consistent with a true gap on or below it, so it witnesses no
    violation; the margin is ``envelope (1 + 1e-6) + roundoff - gap``.
    Without it, an envelope that decays below the roundoff of ``f`` would
    fail a flow that keeps within it.
    """
    if not 0.5 <= theta < 1.0:
        raise ValueError("theta must lie in [1/2, 1)")
    if c <= 0.0:
        raise ValueError("c must be positive")

    t = trace.times
    v = trace.f_values - f_star
    v0 = float(v[0])
    floor = 1e-13 * (1.0 + abs(f_star))
    if v0 <= floor:
        # Started at the optimum: every envelope contains the zero curve.
        return FlowRateCheck(passed=True, worst_margin=0.0, measured_decay_rate=None)

    c_sq = c * c
    if theta == 0.5:
        envelope = v0 * np.exp(-c_sq * t)
    else:
        power = 2.0 * theta - 1.0
        envelope = (v0 ** (-power) + c_sq * power * t) ** (-1.0 / power)

    roundoff = trace.f_roundoff + ROUNDOFF * abs(f_star)
    margins = envelope * (1.0 + 1e-6) + roundoff - v
    worst = float(np.min(margins))

    fit_mask = v > max(floor, 1e-14 * v0)
    measured = None
    if np.count_nonzero(fit_mask) >= 3:
        slope, _ = np.polyfit(t[fit_mask], np.log(v[fit_mask]), 1)
        measured = float(-slope)

    return FlowRateCheck(
        passed=worst >= 0.0,
        worst_margin=worst,
        measured_decay_rate=measured,
    )


# ---------------------------------------------------------------------------
# linearization at a nondegenerate minimum


def _critical_point(p: DcProblem, x_star) -> np.ndarray:
    """``x_star`` as a checked point, once ``|grad f| <= 1e-8`` holds there."""
    x_star = p.check_point(x_star)
    gnorm = float(np.linalg.norm(p.f_grad(x_star)))
    # Absolute: it is SchemeConfig's default stop_grad_tol in the same norm,
    # so any point where a default run stops qualifies.
    if gnorm > 1e-8:
        raise ValueError(f"x_star is not critical: gradient norm {gnorm:g}")
    return x_star


def linearize_at(p: DcProblem, x_star) -> LinearizationReport:
    """Spectrum of the linearized flow and a finite-difference cross-check.

    The field ``F(x) = -(Hess g)^{-1} grad f`` linearizes at a critical
    point to minus ``metric^{-1} hess_f``, whose eigenpairs are those of the
    symmetric-definite pencil ``(hess_f, metric)``, real in floating point.
    A metric that is not positive definite raises :class:`DcError`, and a
    ``hess_f`` that is not raises :class:`DegenerateMinimumError`.  The
    central-difference Jacobian of ``F``, of step ``h = 1e-4``, must agree
    with the analytic linearization to ``100 h**2`` in Frobenius norm,
    otherwise the oracles are inconsistent and the call raises.
    """
    x_star = _critical_point(p, x_star)
    metric = np.asarray(p.g_hess(x_star), dtype=float)
    hess_f = metric - np.asarray(p.h_hess(x_star), dtype=float)
    hess_f = 0.5 * (hess_f + hess_f.T)
    metric = 0.5 * (metric + metric.T)

    spectrum, vecs = _pencil_eigh(hess_f, metric)
    # The pencil's eigenvalues have the signs of hess_f's (Sylvester).
    if spectrum[0] <= 0.0:
        raise DegenerateMinimumError(
            "objective Hessian is not positive definite at x_star"
        )
    slow = vecs[:, 0] / float(np.linalg.norm(vecs[:, 0]))

    fd_jacobian = central_diff_jacobian(
        lambda x: flow_velocity(p, x)[1], x_star, _FD_STEP
    )

    # A plain sum, not norm(..., "fro"): numpy takes that as one BLAS dot,
    # whose threads split long sums in an order that changes the last bits.
    diff = fd_jacobian + np.linalg.solve(metric, hess_f)
    fd_error = float(np.sqrt(np.sum(diff * diff)))
    if fd_error > 100.0 * _FD_STEP * _FD_STEP:
        raise DcError(
            f"finite-difference Jacobian disagrees with the analytic "
            f"linearization ({fd_error:g} > {100.0 * _FD_STEP**2:g}); "
            "oracles are inconsistent"
        )

    return LinearizationReport(
        x_star=x_star,
        hess_f=hess_f,
        metric=metric,
        spectrum=spectrum,
        lambda_min=float(spectrum[0]),
        fd_jacobian=fd_jacobian,
        fd_error=fd_error,
        slow_direction=slow,
    )


def measure_local_contraction(p: DcProblem, lin: LinearizationReport, eta: float) -> float:
    """Empirical per-step distance contraction of the damped scheme near a minimum.

    Runs :func:`~dcflow.schemes.run_scheme` for 20 iterations from the
    point at distance ``1e-3`` from ``lin.x_star`` on the slowest
    eigendirection of ``lin``, a :func:`linearize_at` report, and returns
    the geometric mean of consecutive distance ratios over the tail half.
    The distances end at the first one below the roundoff floor, or at the
    first iterate the run does not move from: there the warm start already
    meets the inversion's stopping rule, which the steps after it measure.
    A distance beyond ten times the start radius, or a run that stops
    descending (``Termination.NUMERIC_ERROR``) before its distances end,
    raises :class:`LocalityError`.  A :class:`~dcflow.core.DcError` of the
    run, a failed inversion's ``ConvergenceError`` included, names the
    iteration, ``eta`` and the radius; an ``eta`` outside ``(0, 1]`` raises
    ``ValueError``.
    """
    radius, x_star = _CONTRACTION_RADIUS, lin.x_star
    # Only an exactly critical iterate stops the run early.
    cfg = SchemeConfig(eta=eta, max_iter=_CONTRACTION_STEPS, stop_grad_tol=np.finfo(float).tiny)
    try:
        trace = run_scheme(p, x_star + radius * lin.slow_direction, cfg)
    except DcError as exc:
        raise exc.with_phase(f"of the local contraction at radius {radius:g}") from exc

    dists = _row_norms(trace.points - x_star)
    dist_floor = 1e3 * np.finfo(float).eps * (1.0 + float(np.linalg.norm(x_star)))
    ends = dists < dist_floor
    ends[:-1] |= trace.step_norms == 0.0
    ends = np.flatnonzero(ends)
    if ends.size:
        dists = dists[: ends[0] + 1]
    stopped = not ends.size and trace.termination is Termination.NUMERIC_ERROR
    if dists.max() > 10.0 * radius or stopped:
        raise LocalityError(
            f"iterates left the 10*radius ball or stopped descending (distance "
            f"{dists.max():g}, {trace.n_points} iterates); the linearized regime does not apply"
        )

    # No distance but the last lies below the floor, so only a last
    # distance of zero leaves a ratio without a log.
    ratios = dists[1:] / dists[:-1]
    ratios = ratios[ratios > 0.0]
    if ratios.size == 0:
        raise InsufficientDataError("no usable distance ratios above the noise floor")
    tail = ratios[ratios.size // 2 :]
    return float(np.exp(np.mean(np.log(tail))))


# ---------------------------------------------------------------------------
# box constants: closed form, cross-checked on probe points


def _objective_extremes(metric, curvature) -> np.ndarray:
    """Per row, the extreme eigenvalues of the symmetrized ``Hess f`` of a row
    block, from its ``g_hess`` answer ``metric`` and ``h_hess`` answer
    ``curvature``.  Two :class:`~dcflow.core.Diagonal` answers whose difference
    is a regular diagonal give that difference, in O(dim) per row.  Otherwise
    ``Hess f`` is formed out of place, as an answer may be a view of the
    oracle's storage, in row slices of a quarter of the block's bytes beside
    the two answers; a slice's lower triangle, which eigvalsh reads, is
    symmetrized a column at a time unless the slice is a regular diagonal."""
    if isinstance(metric, Diagonal) and isinstance(curvature, Diagonal):
        hess = Diagonal(metric.d - curvature.d)
        if _regular_diagonal(hess) is not None:
            return _eigvalsh(hess)[:, [0, -1]]
    out = np.empty((len(metric), 2))
    # Blocks at twice the dimension take a quarter of the bytes.
    for rows in _row_blocks(len(metric), 2 * metric.shape[-1]):
        hess = np.subtract(metric[rows], curvature[rows], dtype=float)
        if _regular_diagonal(hess) is None:
            for j in range(hess.shape[-1] - 1):
                col = hess[:, j + 1 :, j]
                col += hess[:, j, j + 1 :]
                col *= 0.5
        out[rows] = _eigvalsh(hess)[:, [0, -1]]
    return out


def _judge_box(p: DcProblem, box: Box, bc: BoxConstants, pts, w, v, msq, gap, noise) -> None:
    """Raise unless the probe points ``pts`` of ``box`` agree with its constants
    ``bc``, given per point the extreme eigenvalues of Hess g (``w``) and of the
    symmetrized Hess f (``v``), the squared metric speed ``msq``, the gap
    ``f - f_star`` and its roundoff ``noise``."""

    def where() -> str:
        # Formatted only to raise: it lists both bounds.
        return f"on the box [{box.lower.tolist()}, {box.upper.tolist()}]"

    def check_range(name, eigs, scales, bounds):
        lo, hi = bounds
        tol = ROUNDOFF * p.dim * scales
        excess = np.maximum((lo - tol) - eigs[:, 0], eigs[:, 1] - (hi + tol))
        i = int(np.argmax(excess))
        if excess[i] > 0.0:
            raise DcError(
                f"sampled {name} eigenvalues [{eigs[i, 0]:.17g}, {eigs[i, 1]:.17g}] at probe "
                f"point {pts[i].tolist()} leave the closed-form range [{lo:.17g}, "
                f"{hi:.17g}] {where()}; oracles and box constants are inconsistent"
            )

    i = int(np.argmin(w[:, 0]))
    if w[i, 0] <= 0.0:
        raise DcError(
            f"sampled metric eigenvalue {w[i, 0]:.17g} at probe point {pts[i].tolist()} "
            f"is not positive {where()}; g is not strongly convex there"
        )
    w_scale = np.abs(w).max(axis=1)
    check_range("metric", w, w_scale, bc.metric)
    # The difference errs on the scale of both Hessians it subtracts.
    check_range("objective Hessian", v, w_scale + np.abs(v).max(axis=1), bc.objective)

    judged = np.flatnonzero(gap > noise)
    ratio = msq[judged] / (2.0 * gap[judged])
    excess = bc.sigma * (1.0 - noise[judged] / gap[judged] - ROUNDOFF * p.dim) - ratio
    if judged.size and excess.max() > 0.0:
        k = int(np.argmax(excess))
        raise DcError(
            f"sampled metric PL ratio {ratio[k]:.17g} at probe point "
            f"{pts[judged[k]].tolist()} is below the closed-form sigma "
            f"{bc.sigma:.17g} {where()}; oracles and box constants are inconsistent"
        )


def checked_box_constants(p: DcProblem, box: Union[Box, list[Box]], n_samples=400):
    """``p.box_constants(box)``, once every probe point agrees with it.

    The probe points are the box center and ``n_samples`` Halton points.
    At each one the metric eigenvalues must lie in ``metric``, those of the
    symmetrized objective Hessian ``Hess g - Hess h`` in ``objective``, and
    the metric PL ratio ``|grad f|^2_{(Hess g)^{-1}} / (2 (f - f_star))`` must
    be at least ``sigma``, each up to that point's roundoff; points whose
    gap ``f - f_star`` lies within the roundoff of ``f`` judge no ratio.
    Samples can show a constant wrong but never certify one.

    ``box`` may be a list of boxes, with one count or one per box in
    ``n_samples``: one stacked sweep returns their list of constants.  Each
    box maps its own prefix of one Halton set, each oracle reads all boxes'
    points at once, and each box is judged on its own points in the order
    given, so the first that disagrees raises its one-box sweep's error.
    RateCertify so sweeps the box its runs span with its local box.

    The sweep reads ``g_hess`` and ``h_hess`` once per row block of at most
    ``core._HESS_BLOCK_BYTES`` of Hessians, takes their eigenvalues and the
    metric solve there, and keeps only each point's extreme eigenvalues and
    metric speed, so memory stays bounded in the dimension.  Blocks change
    no bit and no verdict.  Two :class:`~dcflow.core.Diagonal` answers keep
    the block diagonal unless their difference has a zero or non-finite entry.

    A box of another dimension or a problem without closed-form box
    constants raises ``ValueError``, as samples alone certify nothing.  A
    sampled metric eigenvalue that is not positive, or a point that
    disagrees with a constant, raises :class:`~dcflow.core.DcError` naming
    the constant, the worst probe point and the box.
    """
    one = isinstance(box, Box)
    boxes = [box] if one else list(box)
    counts = [int(k) for k in np.broadcast_to(n_samples, len(boxes))]
    if any(b.dim != p.dim for b in boxes):
        raise ValueError("box dimension does not match the problem")
    if p.box_constants is None:
        raise ValueError(f"problem {p.label!r} has no closed-form box constants")
    constants = [p.box_constants(b) for b in boxes]
    unit = _halton(max(counts), p.dim)
    pts = np.vstack([
        part for b, k in zip(boxes, counts)
        for part in (b.center()[None, :], b.lower + unit[:k] * (b.upper - b.lower))
    ])
    del unit
    grads = p.f_grad(pts)
    f, noise = p.f_value_and_roundoff(pts)
    gap, noise = f - p.f_star, noise + ROUNDOFF * abs(p.f_star)
    w, v, msq = np.empty((len(pts), 2)), np.empty((len(pts), 2)), np.full(len(pts), np.nan)
    for block in _row_blocks(len(pts), p.dim):
        metric = p.g_hess(pts[block])
        eigs = _eigvalsh(metric)
        w[block] = eigs[:, [0, -1]]
        # Rows with a metric eigenvalue <= 0 fail their box's positivity
        # check; they skip the solve, which could raise first.
        keep = ~(eigs[:, 0] <= 0.0)
        rows = np.arange(len(pts))[block][keep]
        sol = _solve_metric(metric if keep.all() else metric[keep], grads[rows])
        msq[rows] = np.einsum("ij,ij->i", grads[rows], sol)
        v[block] = _objective_extremes(metric, p.h_hess(pts[block]))
    ends = np.cumsum([k + 1 for k in counts])
    for b, bc, r in zip(boxes, constants, map(slice, ends - counts - 1, ends)):
        _judge_box(p, b, bc, pts[r], w[r], v[r], msq[r], gap[r], noise[r])
    return constants[0] if one else constants


# Kept because bench/tracing.py's probe site wraps these two names; the CLI
# calls its span sweeps by the first, so that site spans them.
metric_bounds_on_box = estimate_metric_pl_constant = checked_box_constants


# ---------------------------------------------------------------------------
# KL exponent diagnostic


def kl_exponent_diagnostic(
    trace: Union[IterateTrace, FlowTrace], f_star: float
) -> KlDiagnostic:
    """Fit the power-law exponent relating gradient size to the value gap.

    Regresses log gradient norm against log value gap over the tail half
    of the usable samples: those with a nonzero gradient and a gap above
    the roundoff of their own objective value (``trace.f_roundoff``).
    For discrete traces the Euclidean gradient norms are logged already;
    flow traces store the metric speed, whose square root serves the same
    purpose since the two norms differ by bounded factors that only shift
    the intercept.
    """
    if isinstance(trace, IterateTrace):
        grads = trace.grad_norms
    else:
        grads = np.sqrt(np.maximum(trace.metric_speed_sq, 0.0))
    gaps = trace.f_values - f_star
    usable = np.flatnonzero((gaps > trace.f_roundoff) & (grads > 0.0))
    tail = usable[usable.size // 2 :]
    if tail.size < 10:
        raise InsufficientDataError(
            f"need at least 10 usable tail points, found {tail.size}"
        )
    slope, _, r2 = _loglog_fit(gaps[tail], grads[tail])
    return KlDiagnostic(theta_hat=slope, r_squared=r2, n_points=int(tail.size))


# ---------------------------------------------------------------------------
# local exponential certificate


def local_exp_certificate(p: DcProblem, x_star, box: Box, constants=None) -> LocalExpCertificate:
    """Decay rate and overshoot from the Hessian ranges over the box.

    Returns ``lam = m_f / M`` and ``c1 = sqrt(L_f / m_f)`` where ``m_f``
    and ``L_f`` bound the objective Hessian over the box and ``M`` bounds
    the metric.  Trajectories started in the box then obey
    ``|x(t) - x_star| <= c1 * exp(-lam t) * |x(0) - x_star|``.  The ranges
    come from :func:`checked_box_constants` on 200 probe points; a problem
    without box constants raises ``ValueError``.  ``constants``, if given,
    are the box's, already checked in one sweep with RateCertify's span box.
    """
    x_star = _critical_point(p, x_star)
    if not box.contains(x_star, atol=1e-12):
        raise ValueError("box must contain x_star")
    bc = checked_box_constants(p, box, _LOCAL_PROBES) if constants is None else constants
    m_f, l_f = bc.objective
    if m_f <= 0.0:
        raise BoxTooLargeError("objective Hessian is indefinite somewhere on the box; shrink it")
    return LocalExpCertificate(m_f / bc.metric[1], math.sqrt(l_f / m_f), m_f, l_f)


def local_exp_bound_margin(
    trace: FlowTrace,
    x_star,
    cert: LocalExpCertificate,
) -> float:
    """Worst margin of the certified envelope along a flow trace.

    Nonnegative return means
    ``|x(t) - x_star| <= c1 exp(-lam t) |x(0) - x_star| (1 + 1e-3)``
    held at every sample.
    """
    x_star = np.asarray(x_star, dtype=float)
    dists = np.linalg.norm(trace.x_states - x_star, axis=1)
    envelope = cert.c1 * np.exp(-cert.lam * trace.times) * dists[0] * (1.0 + _LOCAL_EXP_SLACK)
    return float(np.min(envelope - dists))
