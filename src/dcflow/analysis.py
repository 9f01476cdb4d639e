"""Certified constants and measured behavior, checked against each other.

Every routine here either computes a theoretical constant from problem
oracles (rate bounds, linearization spectra, metric eigenvalue bounds,
local exponential certificates) or measures the corresponding quantity on
a logged trace (energy residuals, per-step value ratios, contraction
factors, decay slopes).  The pairing is deliberate: each report carries
both sides so a single comparison decides pass or fail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .core import (
    Box,
    DcError,
    DcProblem,
    NewtonConfig,
    central_diff_jacobian,
    flow_velocity,
    invert_grad_g,
)
from .flow import FlowTrace
from .schemes import IterateTrace, damped_target

__all__ = [
    "BoxTooLargeError",
    "DegenerateMinimumError",
    "FlowRateCheck",
    "InsufficientDataError",
    "KlDiagnostic",
    "LinearizationReport",
    "LocalExpCertificate",
    "LocalityError",
    "MetricBounds",
    "RateReport",
    "damped_pl_report",
    "energy_residual",
    "energy_residuals",
    "estimate_metric_pl_constant",
    "flow_rate_check",
    "kl_exponent_diagnostic",
    "linearize_at",
    "local_exp_bound_margin",
    "local_exp_certificate",
    "measure_local_contraction",
    "metric_bounds_on_box",
    "pl_constant_conversion",
]


class LocalityError(DcError):
    """Iterates left the neighborhood where a local measurement is valid."""


class InsufficientDataError(DcError):
    """Too few usable trace points for a regression-based estimate."""


class DegenerateMinimumError(DcError):
    """The objective Hessian is not positive definite at the probed point."""


class BoxTooLargeError(DcError):
    """The objective Hessian fails to stay positive definite over the box."""


# ---------------------------------------------------------------------------
# sampling helpers


def _primes(count: int) -> list[int]:
    """The first ``count`` primes, by trial division."""
    primes: list[int] = []
    k = 2
    while len(primes) < count:
        if all(k % q for q in primes if q * q <= k):
            primes.append(k)
        k += 1
    return primes


def _halton(n: int, dim: int) -> np.ndarray:
    out = np.empty((n, dim))
    for j, base in enumerate(_primes(dim)):
        for i in range(n):
            f, r, k = 1.0, 0.0, i + 1
            while k > 0:
                f /= base
                r += f * (k % base)
                k //= base
            out[i, j] = r
    return out


def _probe_points(box: Box, n_samples: int) -> np.ndarray:
    """Corners, center and a low-discrepancy fill of the box.

    Corners are included deliberately: for coordinate-monotone Hessian
    families the eigenvalue extremes sit on them.
    """
    pts = [box.corners(), box.center()[None, :]]
    if n_samples > 0:
        u = _halton(int(n_samples), box.dim)
        pts.append(box.lower + u * (box.upper - box.lower))
    return np.vstack(pts)


def _loglog_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    lx, ly = np.log(x), np.log(y)
    slope, intercept = np.polyfit(lx, ly, 1)
    pred = slope * lx + intercept
    ss_res = float(np.sum((ly - pred) ** 2))
    ss_tot = float(np.sum((ly - np.mean(ly)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), r2


def _sym_isqrt(m: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(0.5 * (m + m.T))
    if w[0] <= 0.0:
        raise DegenerateMinimumError("matrix is not positive definite")
    return v @ ((1.0 / np.sqrt(w))[:, None] * v.T)


# ---------------------------------------------------------------------------
# report types


@dataclass(frozen=True)
class RateReport:
    """Per-step contraction bound for the damped scheme next to its measurement."""

    eta: float
    mu: float
    sigma: float
    lg: float
    contraction_bound: float  # max{0, 1 - (mu*sigma/lg) * eta * (1-eta)}
    measured_ratio_geomean: float
    decay_rate: float  # flow decay constant, 2*sigma
    theta: float
    hypothesis_certified: bool
    violation: bool
    degenerate: bool = False


@dataclass(frozen=True)
class FlowRateCheck:
    """Envelope check of the value gap along a flow trace."""

    passed: Optional[bool]
    worst_margin: float
    measured_decay_rate: Optional[float]
    c: float
    theta: float


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
class MetricBounds:
    """Certified eigenvalue range of the metric over a box."""

    lower: float
    upper: float
    box: Box


@dataclass(frozen=True)
class LocalExpCertificate:
    """Local exponential decay certificate near a nondegenerate minimum."""

    lam: float  # decay rate m_f / M
    c1: float  # overshoot sqrt(L_f / m_f)
    hess_f_lower: float
    hess_f_upper: float
    metric_upper: float


@dataclass(frozen=True)
class KlDiagnostic:
    """Power-type desingularization exponent fitted from a trace tail."""

    theta_hat: float
    r_squared: float
    n_points: int


# ---------------------------------------------------------------------------
# energy identity


def energy_residual(p: DcProblem, trace: FlowTrace, i: int) -> float:
    """Defect of the dissipation identity at interior sample ``i``.

    Compares the central-difference time derivative of the objective with
    ``-grad f' (Hess g)^{-1} grad f`` at the sample; the quadratic term is
    one symmetric positive-definite solve.
    """
    m = trace.times.size
    if not 1 <= i <= m - 2:
        raise IndexError(f"interior index required: 1 <= i <= {m - 2}")
    h1 = trace.times[i] - trace.times[i - 1]
    h2 = trace.times[i + 1] - trace.times[i]
    f_prev, f_mid, f_next = trace.f_values[i - 1 : i + 2]
    dfdt = (
        h1 * h1 * f_next - h2 * h2 * f_prev + (h2 * h2 - h1 * h1) * f_mid
    ) / (h1 * h2 * (h1 + h2))
    _, _, quad = flow_velocity(p, trace.x_states[i])
    return abs(dfdt + quad)


def energy_residuals(p: DcProblem, trace: FlowTrace) -> np.ndarray:
    """All interior residuals, NaN at the two boundary samples.

    Also stores the result on ``trace.energy_residuals``.
    """
    m = trace.times.size
    out = np.full(m, np.nan)
    for i in range(1, m - 1):
        out[i] = energy_residual(p, trace, i)
    trace.energy_residuals = out
    return out


# ---------------------------------------------------------------------------
# damped-scheme rate


def damped_pl_report(
    p: DcProblem,
    trace: IterateTrace,
    sigma: float,
    lg: float,
    f_star: float,
    certified: bool = True,
) -> RateReport:
    """Contraction bound ``1 - (mu*sigma/lg) eta (1-eta)`` versus measured ratios.

    The geometric mean is taken over the tail half of the usable steps
    (both gaps above the floating floor).  ``violation`` flags any single
    step whose ratio exceeds the bound beyond slack; it only carries
    weight when the metric PL hypothesis is certified on the instance.
    """
    eta = trace.eta
    if not 0.0 < eta < 1.0:
        raise ValueError("rate report requires a damped trace with eta in (0, 1)")
    if sigma <= 0.0 or lg <= 0.0:
        raise ValueError("sigma and lg must be positive")

    bound = max(0.0, 1.0 - (p.mu * sigma / lg) * eta * (1.0 - eta))
    floor = 1e-12 * (1.0 + abs(f_star))
    gaps = trace.f_values - f_star

    def report(ratio_geomean: float, violation: bool, degenerate: bool) -> RateReport:
        return RateReport(
            eta=eta,
            mu=p.mu,
            sigma=sigma,
            lg=lg,
            contraction_bound=bound,
            measured_ratio_geomean=ratio_geomean,
            decay_rate=2.0 * sigma,
            theta=0.5,
            hypothesis_certified=certified,
            violation=violation,
            degenerate=degenerate,
        )

    if gaps[0] <= floor:
        return report(math.nan, violation=False, degenerate=True)

    usable = np.flatnonzero((gaps[:-1] > floor) & (gaps[1:] > floor))
    if usable.size == 0:
        return report(math.nan, violation=False, degenerate=True)
    ratios = gaps[usable + 1] / gaps[usable]
    violation = bool(np.any(ratios > bound + 1e-9))
    tail = ratios[ratios.size // 2 :]
    geomean = float(np.exp(np.mean(np.log(np.maximum(tail, 1e-300)))))
    return report(geomean, violation=violation, degenerate=False)


# ---------------------------------------------------------------------------
# flow rate envelopes


def flow_rate_check(
    p: DcProblem,
    trace: FlowTrace,
    c: float,
    theta: float,
    f_star: float,
    certified: bool = True,
    report_only: bool = False,
) -> FlowRateCheck:
    """Check the value gap against its certified decay envelope.

    For exponent one half the envelope is exponential,
    ``V(0) exp(-c^2 t)``; for larger exponents it is the polynomial curve
    ``(V(0)^{1-2 theta} + c^2 (2 theta - 1) t)^{-1/(2 theta - 1)}``.  A
    multiplicative slack of ``1e-6`` absorbs integrator error.  With
    ``certified=False`` the call refuses unless ``report_only`` is set, in
    which case margins are reported without a verdict.
    """
    if not 0.5 <= theta < 1.0:
        raise ValueError("theta must lie in [1/2, 1)")
    if c <= 0.0:
        raise ValueError("c must be positive")
    if not certified and not report_only:
        raise ValueError(
            "constants are not certified on this instance; pass report_only=True"
        )

    t = trace.times
    v = trace.f_values - f_star
    v0 = float(v[0])
    floor = 1e-13 * (1.0 + abs(f_star))
    if v0 <= floor:
        # Started at the optimum: every envelope contains the zero curve.
        return FlowRateCheck(
            passed=None if (report_only and not certified) else True,
            worst_margin=0.0,
            measured_decay_rate=None,
            c=c,
            theta=theta,
        )

    c_sq = c * c
    if theta == 0.5:
        envelope = v0 * np.exp(-c_sq * t)
    else:
        power = 2.0 * theta - 1.0
        envelope = (v0 ** (-power) + c_sq * power * t) ** (-1.0 / power)

    margins = envelope * (1.0 + 1e-6) - v
    worst = float(np.min(margins))
    passed: Optional[bool] = worst >= 0.0
    if report_only and not certified:
        passed = None

    fit_mask = v > max(floor, 1e-14 * v0)
    measured = None
    if np.count_nonzero(fit_mask) >= 3:
        slope, _ = np.polyfit(t[fit_mask], np.log(v[fit_mask]), 1)
        measured = float(-slope)

    return FlowRateCheck(
        passed=passed,
        worst_margin=worst,
        measured_decay_rate=measured,
        c=c,
        theta=theta,
    )


# ---------------------------------------------------------------------------
# linearization at a nondegenerate minimum


def linearize_at(p: DcProblem, x_star, fd_step: float = 1e-4) -> LinearizationReport:
    """Spectrum of the linearized flow and a finite-difference cross-check.

    The field ``F(x) = -(Hess g)^{-1} grad f`` linearizes at a critical
    point to minus ``metric^{-1} hess_f``; its eigenvalues are computed on
    the symmetrized form so they are real in floating point.  The
    central-difference Jacobian of ``F`` must agree with the analytic
    linearization to ``100 * fd_step**2`` in Frobenius norm, otherwise the
    oracles are inconsistent and the call raises.
    """
    x_star = p.check_point(x_star)
    if fd_step <= 0.0:
        raise ValueError("fd_step must be positive")
    gnorm = float(np.linalg.norm(p.f_grad(x_star)))
    if gnorm > 1e-8:
        raise ValueError(f"x_star is not critical: gradient norm {gnorm:g}")

    hess_f = p.f_hess(x_star)
    hess_f = 0.5 * (hess_f + hess_f.T)
    if np.linalg.eigvalsh(hess_f)[0] <= 0.0:
        raise DegenerateMinimumError(
            "objective Hessian is not positive definite at x_star"
        )
    metric = np.asarray(p.g_hess(x_star), dtype=float)
    metric = 0.5 * (metric + metric.T)

    isqrt = _sym_isqrt(metric)
    sym = isqrt @ hess_f @ isqrt
    sym = 0.5 * (sym + sym.T)
    spectrum, vecs = np.linalg.eigh(sym)
    slow = isqrt @ vecs[:, 0]
    slow /= float(np.linalg.norm(slow))

    fd_jacobian = central_diff_jacobian(
        lambda x: flow_velocity(p, x)[1], x_star, fd_step
    )

    analytic = np.linalg.solve(metric, hess_f)
    fd_error = float(np.linalg.norm(fd_jacobian + analytic, "fro"))
    if fd_error > 100.0 * fd_step * fd_step:
        raise DcError(
            f"finite-difference Jacobian disagrees with the analytic "
            f"linearization ({fd_error:g} > {100.0 * fd_step**2:g}); "
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


def measure_local_contraction(
    p: DcProblem,
    x_star,
    eta: float,
    radius: float = 1e-3,
    n_steps: int = 20,
    newton: Optional[NewtonConfig] = None,
) -> float:
    """Empirical per-step distance contraction of the damped scheme near a minimum.

    Starts on the slowest eigendirection of the linearization at distance
    ``radius``, iterates, and returns the geometric mean of consecutive
    distance ratios over the tail half.  The Newton tolerance is tightened
    well below ``radius`` times the final contraction so the measurement
    is not limited by the inner solver.
    """
    if not 0.0 < eta <= 1.0:
        raise ValueError("eta must lie in (0, 1]")
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    if n_steps < 2:
        raise ValueError("n_steps must be at least 2")
    rep = linearize_at(p, x_star)
    x_star = rep.x_star
    if newton is None:
        newton = NewtonConfig(tol_grad=1e-13, max_iter=200)

    x = x_star + radius * rep.slow_direction
    dists = [radius]
    dist_floor = 1e3 * np.finfo(float).eps * (1.0 + float(np.linalg.norm(x_star)))
    for _ in range(n_steps):
        x = invert_grad_g(p, damped_target(p, x, eta), x, newton)
        d = float(np.linalg.norm(x - x_star))
        if d > 10.0 * radius:
            raise LocalityError(
                f"iterates left the 10*radius ball (distance {d:g}); "
                "the linearized regime does not apply"
            )
        dists.append(d)
        if d < dist_floor:
            break

    ratios = [
        dists[k + 1] / dists[k]
        for k in range(len(dists) - 1)
        if dists[k] > dist_floor and dists[k + 1] > 0.0
    ]
    if not ratios:
        raise InsufficientDataError("no usable distance ratios above the noise floor")
    tail = ratios[len(ratios) // 2 :]
    return float(np.exp(np.mean(np.log(tail))))


# ---------------------------------------------------------------------------
# metric bounds and constant conversions


def _hess_extremes(
    p: DcProblem, box: Box, n_samples: int, objective: bool = False
) -> list[tuple[float, float]]:
    """Sampled eigenvalue range of the metric over the box's probe points.

    With ``objective`` the range of the symmetrized objective Hessian
    follows; it reuses each point's metric, so every point costs one
    ``g_hess`` call either way.
    """
    if box.dim != p.dim:
        raise ValueError("box dimension does not match the problem")
    pts = _probe_points(box, n_samples)
    lows = np.empty((pts.shape[0], 2 if objective else 1))
    highs = np.empty_like(lows)
    for i, x in enumerate(pts):
        metric = np.asarray(p.g_hess(x), dtype=float)
        w = np.linalg.eigvalsh(metric)
        lows[i, 0], highs[i, 0] = w[0], w[-1]
        if objective:
            hf = metric - np.asarray(p.h_hess(x), dtype=float)
            w = np.linalg.eigvalsh(0.5 * (hf + hf.T))
            lows[i, 1], highs[i, 1] = w[0], w[-1]
    return [(float(lo.min()), float(hi.max())) for lo, hi in zip(lows.T, highs.T)]


def _metric_bounds(box: Box, lo: float, hi: float) -> MetricBounds:
    margin = 0.01 * (hi - lo)
    lower = lo - margin
    upper = hi + margin
    if lower <= 0.0:
        raise DcError(
            "sampled metric lower bound is not positive; the strong-convexity "
            "constant of g looks violated on this box"
        )
    return MetricBounds(lower=lower, upper=upper, box=box)


def metric_bounds_on_box(p: DcProblem, box: Box, n_samples: int = 200) -> MetricBounds:
    """Sampled eigenvalue range of the metric over the box, with a 1% margin.

    The margin is one percent of the sampled spread, so constant metrics
    come out exact.
    """
    [(lo, hi)] = _hess_extremes(p, box, n_samples)
    return _metric_bounds(box, lo, hi)


def pl_constant_conversion(mb: MetricBounds, mu_euclidean: float) -> tuple[float, float]:
    """Convert a Euclidean PL constant into the metric one and back.

    Returns ``(mu_euclidean / upper, lower * mu_euclidean / upper)``; the
    round trip can only lose, never gain, since ``lower <= upper``.
    """
    if mu_euclidean <= 0.0:
        raise ValueError("mu_euclidean must be positive")
    metric_mu = mu_euclidean / mb.upper
    return metric_mu, mb.lower * metric_mu


def estimate_metric_pl_constant(
    p: DcProblem,
    box: Box,
    f_star: float,
    n_samples: int = 400,
) -> float:
    """Sampled infimum of ``|grad f|^2_{metric^{-1}} / (2 (f - f_star))`` on the box.

    An empirical stand-in for instances without an analytic constant;
    reports built on it must be labeled accordingly.
    """
    pts = _probe_points(box, n_samples)
    best = math.inf
    floor = 1e-10 * (1.0 + abs(f_star))
    for x in pts:
        gap = p.f_value(x) - f_star
        if gap <= floor:
            continue
        _, _, msq = flow_velocity(p, x)
        best = min(best, msq / (2.0 * gap))
    if not math.isfinite(best):
        raise InsufficientDataError("no box sample had a positive value gap")
    return best


# ---------------------------------------------------------------------------
# KL exponent diagnostic


def kl_exponent_diagnostic(
    trace: Union[IterateTrace, FlowTrace], f_star: float
) -> KlDiagnostic:
    """Fit the power-law exponent relating gradient size to the value gap.

    Regresses log gradient norm against log value gap over the tail half
    of the usable samples.  For discrete traces the Euclidean gradient
    norms are logged already; flow traces store the metric speed, whose
    square root serves the same purpose since the two norms differ by
    bounded factors that only shift the intercept.
    """
    if isinstance(trace, IterateTrace):
        grads = trace.grad_norms
    else:
        grads = np.sqrt(np.maximum(trace.metric_speed_sq, 0.0))
    gaps = trace.f_values - f_star

    floor = 1e-12 * (1.0 + abs(f_star))
    usable = np.flatnonzero((gaps > floor) & (grads > 0.0))
    tail = usable[usable.size // 2 :]
    if tail.size < 10:
        raise InsufficientDataError(
            f"need at least 10 usable tail points, found {tail.size}"
        )
    slope, _, r2 = _loglog_fit(gaps[tail], grads[tail])
    return KlDiagnostic(theta_hat=slope, r_squared=r2, n_points=int(tail.size))


# ---------------------------------------------------------------------------
# local exponential certificate


def local_exp_certificate(
    p: DcProblem,
    x_star,
    box: Box,
    n_samples: int = 200,
) -> LocalExpCertificate:
    """Decay rate and overshoot certified from sampled Hessian extremes.

    Returns ``lam = m_f / M`` and ``c1 = sqrt(L_f / m_f)`` where ``m_f``
    and ``L_f`` bound the objective Hessian over the box and ``M`` bounds
    the metric (with margin).  Trajectories started in the box then obey
    ``|x(t) - x_star| <= c1 * exp(-lam t) * |x(0) - x_star|``.
    """
    x_star = p.check_point(x_star)
    if not box.contains(x_star, atol=1e-12):
        raise ValueError("box must contain x_star")
    gnorm = float(np.linalg.norm(p.f_grad(x_star)))
    if gnorm > 1e-8:
        raise ValueError(f"x_star is not critical: gradient norm {gnorm:g}")

    (lo, hi), (m_f, l_f) = _hess_extremes(p, box, n_samples, objective=True)
    if m_f <= 0.0:
        raise BoxTooLargeError(
            "objective Hessian is indefinite somewhere on the box; shrink it"
        )
    mb = _metric_bounds(box, lo, hi)
    return LocalExpCertificate(
        lam=m_f / mb.upper,
        c1=math.sqrt(l_f / m_f),
        hess_f_lower=m_f,
        hess_f_upper=l_f,
        metric_upper=mb.upper,
    )


def local_exp_bound_margin(
    trace: FlowTrace,
    x_star,
    cert: LocalExpCertificate,
    slack: float = 1e-3,
) -> float:
    """Worst margin of the certified envelope along a flow trace.

    Nonnegative return means
    ``|x(t) - x_star| <= c1 exp(-lam t) |x(0) - x_star| (1 + slack)``
    held at every sample.
    """
    x_star = np.asarray(x_star, dtype=float)
    dists = np.linalg.norm(trace.x_states - x_star, axis=1)
    envelope = cert.c1 * np.exp(-cert.lam * trace.times) * dists[0] * (1.0 + slack)
    return float(np.min(envelope - dists))
