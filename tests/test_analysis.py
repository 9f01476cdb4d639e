"""Theoretical constants against measured behavior: the full analysis surface."""

import dataclasses
import math

import numpy as np
import pytest

from dcflow import (
    Box,
    FlowConfig,
    SchemeConfig,
    integrate_flow,
    make_double_well,
    make_quadratic,
    make_shifted_decomposition,
    run_scheme,
)
from dcflow.analysis import (
    BoxTooLargeError,
    DegenerateMinimumError,
    InsufficientDataError,
    LocalityError,
    checked_box_constants,
    damped_pl_report,
    energy_residuals,
    flow_rate_check,
    kl_exponent_diagnostic,
    linearize_at,
    local_exp_bound_margin,
    local_exp_certificate,
    measure_local_contraction,
)
from dcflow import analysis, core
from dcflow.core import (
    BoxConstants,
    ConvergenceError,
    DcError,
    DcProblem,
    NumericError,
    flow_velocity,
)
from dcflow.flow import FlowTrace
from dcflow.problems import _per_point
from dcflow.schemes import IterateTrace, Termination
from helpers import halton_while_digits_left, newton_only, off_closed_form

RNG = np.random.default_rng(20240505)


def flow_cfg(t_end, stride, rel=1e-9, abs_=1e-12):
    return FlowConfig(t_end=t_end, record_stride=stride, rel_tol=rel, abs_tol=abs_)


# ---------------------------------------------------------------------------
# energy identity


def test_energy_residual_zero_on_constant_trace(dw_unit):
    x_star = np.array([1.0, 1.0])
    trace = FlowTrace(
        times=np.array([0.0, 0.5, 1.0]),
        y_states=np.tile(dw_unit.g_grad(x_star), (3, 1)),
        x_states=np.tile(x_star, (3, 1)),
        f_values=np.full(3, dw_unit.f_value(x_star)),
        f_roundoff=np.full(3, dw_unit.f_value_and_roundoff(x_star)[1]),
        metric_speed_sq=np.zeros(3),
    )
    assert energy_residuals(trace)[1] <= 1e-14


def test_energy_residual_quadratic(quad_canonical):
    # Closed form: f(t) = e^{-t}/2, so the central-difference defect is
    # exactly f(t) * (sinh(h)/h - 1); the residual must match it.
    h = 1e-2
    trace = integrate_flow(
        quad_canonical, np.array([1.0, 0.0]), flow_cfg(2.0, h, rel=1e-10, abs_=1e-12)
    )
    res = energy_residuals(trace)
    truncation = 0.5 * np.exp(-trace.times) * (np.sinh(h) / h - 1.0)
    np.testing.assert_allclose(res[1:-1], truncation[1:-1], rtol=1e-2)
    assert np.nanmax(res[1:-1]) <= 1e-5


def test_energy_residual_quadratic_fine_stride(quad_canonical):
    trace = integrate_flow(
        quad_canonical, np.array([1.0, 0.0]), flow_cfg(1.0, 1e-3, rel=1e-9, abs_=1e-12)
    )
    res = energy_residuals(trace)
    assert np.nanmax(res[1:-1]) <= 1e-6


def test_energy_residual_double_well_fine_stride(dw_unit):
    trace = integrate_flow(
        dw_unit, np.array([0.5, 0.7]), flow_cfg(2.0, 1e-3, rel=1e-8, abs_=1e-10)
    )
    res = energy_residuals(trace)
    assert np.nanmax(res[1:-1]) <= 1e-5


def test_energy_residuals_match_per_sample_reference(dw_aniso):
    # Reference: the defect at each interior sample from its own three-point
    # stencil and a fresh metric-speed solve; the vectorized residuals read
    # the stored speeds and must agree bit for bit.
    trace = integrate_flow(dw_aniso, np.array([0.5, 0.5]), flow_cfg(1.0, 1e-2))
    t, f = trace.times, trace.f_values
    expected = np.full(t.size, np.nan)
    for i in range(1, t.size - 1):
        h1, h2 = t[i] - t[i - 1], t[i + 1] - t[i]
        dfdt = (
            h1 * h1 * f[i + 1] - h2 * h2 * f[i - 1] + (h2 * h2 - h1 * h1) * f[i]
        ) / (h1 * h2 * (h1 + h2))
        expected[i] = abs(dfdt + flow_velocity(dw_aniso, trace.x_states[i])[2])
    np.testing.assert_array_equal(energy_residuals(trace), expected)


def test_dissipation_sandwich_along_flow(dw_unit):
    # Finite-difference df/dt must sit between the bounds set by the metric
    # eigenvalue range on the box the trajectory lives in.
    trace = integrate_flow(dw_unit, np.array([0.5, 0.7]), flow_cfg(2.0, 1e-3))
    lo, hi = checked_box_constants(dw_unit, Box.cube(1.5, 2)).metric
    t, f = trace.times, trace.f_values
    for i in range(1, trace.n_samples - 1, 50):
        dfdt = (f[i + 1] - f[i - 1]) / (t[i + 1] - t[i - 1])
        gsq = float(np.linalg.norm(dw_unit.f_grad(trace.x_states[i])) ** 2)
        assert -(1.0 / lo) * gsq - 1e-5 <= dfdt <= -(1.0 / hi) * gsq + 1e-5


# ---------------------------------------------------------------------------
# damped-scheme rate report


def test_rate_report_canonical_bound(quad_canonical):
    trace = run_scheme(
        quad_canonical, np.array([1.5, -0.8]), SchemeConfig(eta=0.5, max_iter=400)
    )
    constants = quad_canonical.box_constants(quad_canonical.region)
    rep = damped_pl_report(trace, constants, 0.0)
    assert rep.contraction_bound == pytest.approx(0.875, abs=1e-12)
    assert rep.measured_ratio_geomean == pytest.approx(0.5625, rel=1e-8)
    assert not rep.violation


def test_rate_report_bound_holds_across_etas(quad_canonical):
    constants = quad_canonical.box_constants(quad_canonical.region)
    for eta in np.arange(0.1, 0.95, 0.1):
        trace = run_scheme(
            quad_canonical,
            np.array([1.5, -0.8]),
            SchemeConfig(eta=float(eta), max_iter=600),
        )
        rep = damped_pl_report(trace, constants, 0.0)
        assert not rep.violation
        assert rep.measured_ratio_geomean <= rep.contraction_bound + 1e-9


def test_rate_bound_minimized_at_half():
    p = make_quadratic(2.0 * np.eye(2), np.eye(2))
    constants = p.box_constants(p.region)
    mu, lg = constants.metric
    etas = [0.1 * k for k in range(1, 10)]
    bounds = [
        max(0.0, 1.0 - (mu * constants.sigma / lg) * e * (1.0 - e)) for e in etas
    ]
    assert etas[int(np.argmin(bounds))] == pytest.approx(0.5)


def test_rate_report_degenerate_at_minimizer(quad_canonical):
    trace = run_scheme(quad_canonical, np.zeros(2), SchemeConfig(eta=0.5))
    rep = damped_pl_report(trace, quad_canonical.box_constants(quad_canonical.region), 0.0)
    assert math.isnan(rep.measured_ratio_geomean)
    assert not rep.violation


def test_rate_report_rejects_full_step(quad_canonical):
    trace = run_scheme(quad_canonical, np.array([1.0, 1.0]), SchemeConfig(eta=1.0))
    with pytest.raises(ValueError):
        damped_pl_report(trace, quad_canonical.box_constants(quad_canonical.region), 0.0)


# The roundoff bound of every value in the hand-built traces below.
_TRACE_ROUNDOFF = 1e-9


def _gaps_with_noise_below_roundoff():
    """Gaps 2^-k over f* = 0 and their gradient norms sqrt(2 gap), a KL
    exponent of 1/2; each gap within ``_TRACE_ROUNDOFF`` is replaced by
    noise there, alternately 0.3 and 0.9 of it, and above an absolute
    floor of 1e-12 (1 + |f*|)."""
    gaps = 0.5 ** np.arange(50.0)
    grads = np.sqrt(2.0 * gaps)
    noise = np.flatnonzero(gaps <= _TRACE_ROUNDOFF)
    gaps[noise] = _TRACE_ROUNDOFF * np.where(noise % 2, 0.9, 0.3)
    assert noise.size >= 15 and np.all(gaps[noise] > 1e-12)
    return gaps, grads


def _trace_with_noisy_tail(kind: str):
    gaps, grads = _gaps_with_noise_below_roundoff()
    m = gaps.size
    if kind == "scheme":
        points = np.zeros((m, 1))
        return IterateTrace(
            points=points,
            y_states=points,
            f_values=gaps,
            f_roundoff=np.full(m, _TRACE_ROUNDOFF),
            grad_norms=grads,
            bregman_steps=np.zeros(m - 1),
            step_norms=np.zeros(m - 1),
            eta=0.5,
            termination=Termination.MAX_ITER,
        )
    return FlowTrace(
        times=np.arange(float(m)),
        y_states=np.zeros((m, 1)),
        x_states=np.zeros((m, 1)),
        f_values=gaps,
        f_roundoff=np.full(m, _TRACE_ROUNDOFF),
        metric_speed_sq=grads**2,
    )


def test_rate_report_judges_only_gaps_above_their_roundoff():
    constants = BoxConstants(metric=(1.0, 1.0), objective=(1.0, 1.0), sigma=1.0)
    rep = damped_pl_report(_trace_with_noisy_tail("scheme"), constants, 0.0)
    assert rep.contraction_bound == 0.75
    assert rep.measured_ratio_geomean == 0.5
    assert not rep.violation


# ---------------------------------------------------------------------------
# flow rate envelopes


def test_flow_envelope_tight_on_canonical_instance(quad_canonical):
    trace = integrate_flow(quad_canonical, np.array([1.0, 0.0]), flow_cfg(8.0, 0.05))
    chk = flow_rate_check(trace, c=1.0, theta=0.5, f_star=0.0)
    assert chk.passed
    assert chk.worst_margin >= 0.0
    # The envelope is attained: the measured decay matches the constant.
    assert chk.measured_decay_rate == pytest.approx(1.0, rel=1e-4)


def test_flow_envelope_weaker_exponent_holds(quad_canonical):
    trace = integrate_flow(quad_canonical, np.array([1.0, 0.0]), flow_cfg(8.0, 0.05))
    # An exponent-1/2 bound on a bounded sublevel set implies the 3/4 bound
    # with constant c * V(0)^{-1/4}.
    v0 = trace.f_values[0]
    chk = flow_rate_check(trace, c=0.999 * v0**-0.25, theta=0.75, f_star=0.0)
    assert chk.passed
    assert chk.worst_margin > 0.0


def test_flow_envelope_equilibrium_start(quad_canonical):
    trace = integrate_flow(quad_canonical, np.zeros(2), flow_cfg(1.0, 0.1))
    chk = flow_rate_check(trace, c=1.0, theta=0.5, f_star=0.0)
    assert chk.passed


def test_flow_envelope_detects_violation(quad_canonical):
    trace = integrate_flow(quad_canonical, np.array([1.0, 0.0]), flow_cfg(4.0, 0.05))
    chk = flow_rate_check(trace, c=1.3, theta=0.5, f_star=0.0)
    assert chk.passed is False
    assert chk.worst_margin < 0.0


def test_flow_rate_check_validates_inputs(quad_canonical):
    trace = integrate_flow(quad_canonical, np.array([1.0, 0.0]), flow_cfg(1.0, 0.1))
    with pytest.raises(ValueError):
        flow_rate_check(trace, c=0.0, theta=0.5, f_star=0.0)
    with pytest.raises(ValueError):
        flow_rate_check(trace, c=1.0, theta=1.0, f_star=0.0)


def test_distance_bound_under_quadratic_growth(quad_canonical):
    # dist <= sqrt(2/alpha) V^{1/2} with alpha = 1 on this instance.
    trace = integrate_flow(quad_canonical, np.array([0.8, -0.6]), flow_cfg(6.0, 0.05))
    dists = np.linalg.norm(trace.x_states, axis=1)
    v = trace.f_values
    assert np.all(dists <= np.sqrt(2.0 * np.maximum(v, 0.0)) * (1.0 + 1e-9) + 1e-12)


# ---------------------------------------------------------------------------
# linearization


def test_linearize_double_well_spectrum(dw_aniso):
    rep = linearize_at(dw_aniso, np.array([1.0, 1.0]))
    np.testing.assert_allclose(rep.spectrum, [2.0 / 7.0, 0.5], atol=1e-12)
    np.testing.assert_allclose(rep.hess_f, 2.0 * np.eye(2), atol=1e-12)
    np.testing.assert_allclose(rep.metric, np.diag([4.0, 7.0]), atol=1e-12)


def test_linearize_unit_double_well(dw_unit):
    rep = linearize_at(dw_unit, np.array([1.0, 1.0]))
    np.testing.assert_allclose(rep.spectrum, [0.5, 0.5], atol=1e-12)
    assert rep.lambda_min == pytest.approx(0.5, abs=1e-12)


def test_linearize_fd_jacobian_consistency(dw_aniso):
    rep = linearize_at(dw_aniso, np.array([1.0, 1.0]))
    assert rep.fd_error <= 100.0 * analysis._FD_STEP**2
    target = -np.diag([0.5, 2.0 / 7.0])
    assert np.linalg.norm(rep.fd_jacobian - target, "fro") <= 1e-5


def test_linearize_proportional_metric():
    # With b = (1 - 1/alpha) a the metric is alpha times the curvature, so
    # every mode contracts at the same rate 1/alpha.
    alpha = 4.0
    a = np.array([[3.0, 1.0], [1.0, 2.0]])
    p = make_quadratic(a, (1.0 - 1.0 / alpha) * a)
    rep = linearize_at(p, np.zeros(2))
    np.testing.assert_allclose(rep.spectrum, [0.25, 0.25], atol=1e-12)


def test_linearize_local_factor_table(dw_unit):
    rep = linearize_at(dw_unit, np.array([1.0, 1.0]))
    assert rep.local_factor(1.0) == pytest.approx(1.0 - rep.lambda_min)
    factors = [rep.local_factor(e) for e in (0.25, 0.5, 0.75, 1.0)]
    assert all(a > b for a, b in zip(factors, factors[1:]))


def test_linearize_rejects_noncritical_point(dw_unit):
    with pytest.raises(ValueError):
        linearize_at(dw_unit, np.array([0.5, 0.5]))


def test_linearize_rejects_degenerate_point(dw_unit):
    # The origin is a local maximum: hess f = -I there.
    with pytest.raises(DegenerateMinimumError):
        linearize_at(dw_unit, np.zeros(2))


def test_linearize_rejects_an_indefinite_metric(quad_canonical):
    # hess f = I stays positive definite; only the metric diag(-1, 2) fails.
    metric = np.diag([-1.0, 2.0])
    p = dataclasses.replace(
        quad_canonical,
        g_hess=lambda x: _per_point(metric, np.asarray(x)),
        h_hess=lambda x: _per_point(metric - np.eye(2), np.asarray(x)),
    )
    with pytest.raises(DcError, match="not positive definite") as exc:
        linearize_at(p, np.zeros(2))
    assert not isinstance(exc.value, DegenerateMinimumError)


def test_spectrum_contained_in_unit_interval(quad_canonical, dw_unit, dw_aniso):
    for p in (quad_canonical, dw_unit, dw_aniso):
        rep = linearize_at(p, p.minimizer)
        assert np.all(rep.spectrum > 0.0)
        assert np.all(rep.spectrum <= 1.0 + 1e-12)


# ---------------------------------------------------------------------------
# measured local contraction


@pytest.mark.parametrize("eta", [0.25, 0.5, 1.0])
def test_contraction_exact_on_linear_map(quad_canonical, eta):
    factor = measure_local_contraction(
        quad_canonical, linearize_at(quad_canonical, np.zeros(2)), eta
    )
    assert factor == pytest.approx(1.0 - eta / 2.0, rel=1e-9)


@pytest.mark.parametrize("eta", [0.25, 0.5, 1.0])
def test_contraction_matches_linearization(dw_unit, eta):
    factor = measure_local_contraction(dw_unit, linearize_at(dw_unit, np.ones(2)), eta)
    assert factor == pytest.approx(1.0 - eta * 0.5, rel=0.05)


@pytest.mark.parametrize("eta", [0.25, 0.5, 1.0])
@pytest.mark.parametrize(
    "p, rel",
    [
        (make_double_well([1.0, 4.0]), 1e-6),
        (make_double_well([1.0, 2.0, 0.5, 4.0, 1.5]), 1e-6),
        (make_shifted_decomposition(make_double_well([1.0, 1.0]), [0.5, 2.0]), 1e-6),
        (make_quadratic(np.array([[3.0, 1.0], [1.0, 2.0]]), np.eye(2)), 1e-6),
        (make_double_well([0.2, 0.2]), 1e-5),
    ],
    ids=["dw2", "dw5", "dw-shifted", "quadratic", "dw-fast"],
)
def test_contraction_without_closed_form_pullback_matches_it(p, rel, eta):
    # A warm-started Newton step overshoots INVERSION_TOL quadratically:
    # dropping the closed form moves the factor by at most 2.8e-7 relative
    # on the first four, 4.6e-6 on dw-fast at eta = 1.  That run contracts
    # by 0.375 and from distance 2.1e-11 on its warm start already meets the
    # tolerance, so it stops moving; its distances must end there, or the
    # factor reads 0.456.
    lin = linearize_at(p, p.minimizer)
    closed_form = measure_local_contraction(p, lin, eta)
    assert measure_local_contraction(newton_only(p), lin, eta) == pytest.approx(
        closed_form, rel=rel
    )


def test_contraction_ignores_a_stop_after_the_distances_end():
    # g = |x|^2/2, h = |x|^2/20 contracts by 0.1 per step at eta = 1: the
    # distance 1e-13 lies below the floor, and a NaN objective within 5e-14
    # of the minimum stops the run (NUMERIC_ERROR) only after it.
    p = make_quadratic(np.eye(2), 0.1 * np.eye(2))
    p = dataclasses.replace(
        p,
        g_value=lambda x, g=p.g_value: np.where(
            np.linalg.norm(x, axis=-1) < 5e-14, np.nan, g(x)
        ),
    )
    factor = measure_local_contraction(p, linearize_at(p, np.zeros(2)), 1.0)
    assert factor == pytest.approx(0.1, rel=1e-9)


def test_contraction_radius_refinement(dw_unit, monkeypatch):
    # Shrinking the radius moves the measurement toward the linearized value.
    lin = linearize_at(dw_unit, np.ones(2))
    errs = []
    for radius in (1e-2, 1e-4):
        monkeypatch.setattr(analysis, "_CONTRACTION_RADIUS", radius)
        factor = measure_local_contraction(dw_unit, lin, 1.0)
        errs.append(abs(factor - 0.5))
    assert errs[1] < errs[0]


def test_contraction_locality_error_on_expanding_map():
    # h strongly concave makes the fixed point repelling; iterates must be
    # rejected once they leave the trust ball.
    p = DcProblem(
        dim=1,
        g_value=lambda x: 0.5 * x[..., 0] ** 2,
        h_value=lambda x: -(x[..., 0] ** 2),
        g_grad=lambda x: x.copy(),
        h_grad=lambda x: -2.0 * x,
        g_hess=lambda x: np.broadcast_to(np.eye(1), x.shape[:-1] + (1, 1)),
        h_hess=lambda x: np.broadcast_to(-2.0 * np.eye(1), x.shape[:-1] + (1, 1)),
    )
    with pytest.raises(LocalityError):
        measure_local_contraction(p, linearize_at(p, np.zeros(1)), 1.0)


def test_contraction_inversion_failure_names_its_step(dw_unit, monkeypatch):
    p = newton_only(dw_unit)
    lin = linearize_at(p, np.ones(2))
    monkeypatch.setattr(core, "_MAX_NEWTON_ITER", 0)
    with pytest.raises(ConvergenceError) as info:
        measure_local_contraction(p, lin, 0.5)
    assert "(residual " in str(info.value)
    assert str(info.value).endswith(
        "in scheme iteration 0 (eta=0.5) of the local contraction at radius 0.001"
    )


def test_contraction_numeric_error_names_its_step(dw_unit):
    lin = linearize_at(dw_unit, np.ones(2))
    p = off_closed_form(dw_unit, np.nan, threshold=-np.inf)
    with pytest.raises(NumericError) as info:
        measure_local_contraction(p, lin, 0.5)
    assert str(info.value) == (
        "non-finite gradient residual at the start point in scheme iteration 0 (eta=0.5) "
        "of the local contraction at radius 0.001"
    )


# ---------------------------------------------------------------------------
# box constants


def _halton_digit_loop(n, dim):
    """Point by point, digit by digit: the reference for the vectorized form."""
    out = np.empty((n, dim))
    for j, base in enumerate(analysis._primes(dim)):
        for i in range(n):
            f, r, k = 1.0, 0.0, i + 1
            while k > 0:
                f /= base
                r += f * (k % base)
                k //= base
            out[i, j] = r
    return out


def test_halton_points_equal_the_digit_loop():
    np.testing.assert_array_equal(analysis._halton(400, 13), _halton_digit_loop(400, 13))


def test_halton_digit_count_from_n_changes_no_bit():
    # Around powers of the bases, where the digit count of n steps up.
    sizes = [0, 1, 2, 3, 4, 7, 8, 9, 24, 25, 26, 48, 49, 50, 121, 200, 243, 400, 401, 2187]
    for n in sizes:
        for dim in (1, 2, 5, 12, 30):
            got, want = analysis._halton(n, dim), halton_while_digits_left(n, dim)
            assert got.tobytes() == want.tobytes(), (n, dim)


def test_metric_bounds_constant_hessian(quad_canonical):
    lo, hi = checked_box_constants(quad_canonical, Box.cube(1.0, 2)).metric
    assert lo == pytest.approx(2.0, abs=1e-12)
    assert hi == pytest.approx(2.0, abs=1e-12)


def test_metric_bounds_double_well_unit_box(dw_unit):
    lo, hi = checked_box_constants(dw_unit, Box.cube(1.0, 2)).metric
    assert lo == pytest.approx(1.0, abs=0.05)
    assert hi == pytest.approx(4.0, abs=0.05)
    assert 0.0 < lo <= hi


def test_metric_bounds_rejects_mismatched_box(dw_unit):
    with pytest.raises(ValueError):
        checked_box_constants(dw_unit, Box.cube(1.0, 3))


def test_box_routines_refuse_problems_without_box_constants(dw_unit):
    # Samples alone certify nothing, so there is no sampled fallback.
    p = dataclasses.replace(dw_unit, box_constants=None)
    box = Box(np.full(2, 0.9), np.full(2, 1.1))
    with pytest.raises(ValueError, match="no closed-form box constants"):
        checked_box_constants(p, box)
    with pytest.raises(ValueError, match="no closed-form box constants"):
        local_exp_certificate(p, np.ones(2), box)


def test_box_sweeps_past_twelve_dimensions():
    # 13-D needs a 13th Halton base.
    p = make_double_well(np.ones(13))
    lo, hi = checked_box_constants(p, Box.cube(1.0, 13), n_samples=20).metric
    assert lo == pytest.approx(1.0, abs=0.05)
    assert hi == pytest.approx(4.0, abs=0.05)
    box = Box(p.minimizer - 0.1, p.minimizer + 0.1)
    est = checked_box_constants(p, box, n_samples=20).sigma
    assert 0.0 < est <= 1.0


def test_checked_box_constants_reads_each_oracle_once_per_sweep(dw_aniso):
    # One stacked call per oracle covers the center and the 30 samples.
    calls = {name: [] for name in ("g_value", "h_value", "g_grad", "h_grad", "g_hess", "h_hess")}

    def counted(name):
        fn = getattr(dw_aniso, name)

        def wrapper(x):
            calls[name].append(np.shape(x))
            return fn(x)

        return wrapper

    p = dataclasses.replace(dw_aniso, **{name: counted(name) for name in calls})
    checked_box_constants(p, Box(np.full(2, 0.5), np.full(2, 1.5)), n_samples=30)
    assert calls == dict.fromkeys(calls, [(31, 2)])


def _cross_check_failures(p, box, n_samples):
    """The messages of the cross-check on ``box`` when the box constants
    claim 5% more than the oracles deliver, one constant at a time."""
    honest = p.box_constants(box)
    (mu, lg), (lo, hi) = honest.metric, honest.objective
    messages = []
    for fields in (
        dict(sigma=1.05 * honest.sigma),
        dict(metric=(mu, 0.95 * lg)),
        dict(objective=(1.05 * lo, hi)),
    ):
        wrong = dataclasses.replace(honest, **fields)
        lying = dataclasses.replace(p, box_constants=lambda b: wrong)
        with pytest.raises(DcError) as info:
            checked_box_constants(lying, box, n_samples)
        messages.append(str(info.value))
    return messages


@pytest.mark.parametrize("block_rows", [64, 7, 1])
def test_checked_box_constants_reads_the_hessians_once_per_block(dw_aniso, monkeypatch, block_rows):
    # Blocks change neither the constants nor the worst point that a failed
    # cross-check names.
    box = Box(np.array([0.9, -1.1]), np.array([1.1, -0.9]))
    one_block = _cross_check_failures(dw_aniso, box, 100)
    monkeypatch.setattr(core, "_HESS_BLOCK_BYTES", 8 * 2 * 2 * block_rows)
    calls = {"g_hess": [], "h_hess": []}

    def counted(name, fn):
        def wrapper(x):
            calls[name].append(np.shape(x))
            return fn(x)

        return wrapper

    p = dataclasses.replace(
        dw_aniso, **{name: counted(name, getattr(dw_aniso, name)) for name in calls}
    )
    assert checked_box_constants(p, box, n_samples=100) == dw_aniso.box_constants(box)
    blocks = [(min(block_rows, 101 - start), 2) for start in range(0, 101, block_rows)]
    assert calls == {"g_hess": blocks, "h_hess": blocks}
    assert _cross_check_failures(p, box, 100) == one_block


def test_box_constants_cross_check_catches_inconsistent_oracles(dw_unit):
    # Closed forms that claim 5% more than the oracles deliver are caught on
    # Halton samples alone, and the run stops rather than certify them.  The
    # message names the constant, the worst probe point and the box.
    box = Box(np.full(2, 0.9), np.full(2, 1.1))
    honest = dw_unit.box_constants(box)
    assert checked_box_constants(dw_unit, box) == honest

    def claiming(**fields):
        wrong = dataclasses.replace(honest, **fields)
        return dataclasses.replace(dw_unit, box_constants=lambda b: wrong)

    on_box = r"on the box \[\[0\.9, 0\.9\], \[1\.1, 1\.1\]\]"
    mu, lg = honest.metric
    lo, hi = honest.objective
    with pytest.raises(DcError, match=r"PL ratio .* at probe point \[.*\] .* sigma .* " + on_box):
        checked_box_constants(claiming(sigma=1.05 * honest.sigma), box)
    with pytest.raises(DcError, match=r"metric eigenvalues .* at probe point .* " + on_box):
        checked_box_constants(claiming(metric=(mu, 0.95 * lg)), box)
    with pytest.raises(DcError, match=r"metric eigenvalues .* at probe point .* " + on_box):
        checked_box_constants(claiming(metric=(1.05 * mu, lg)), box)
    with pytest.raises(DcError, match=r"objective Hessian eigenvalues .* " + on_box):
        checked_box_constants(claiming(objective=(1.05 * lo, hi)), box)
    with pytest.raises(DcError, match="objective Hessian eigenvalues"):
        local_exp_certificate(claiming(objective=(1.05 * lo, hi)), np.ones(2), box)
    with pytest.raises(DcError, match=r"metric eigenvalue -1 at probe point .* not positive " + on_box):
        checked_box_constants(
            dataclasses.replace(dw_unit, g_hess=lambda x: -np.eye(2) * np.ones(x.shape[:-1] + (1, 1))),
            box,
        )


def test_metric_pl_identity_on_canonical_instance(quad_canonical):
    # |grad f|^2_{G^{-1}} = 2 * sigma * V exactly here, with sigma = 1/2.
    for x in quad_canonical.region.sample(RNG, 20):
        grad = quad_canonical.f_grad(x)
        msq = float(grad @ np.linalg.solve(quad_canonical.g_hess(x), grad))
        v = quad_canonical.f_value(x)
        assert msq == pytest.approx(2.0 * 0.5 * v, rel=1e-12)


def test_estimated_sigma_close_to_analytic(quad_canonical):
    est = checked_box_constants(quad_canonical, Box.cube(1.5, 2)).sigma
    assert est == pytest.approx(0.5, rel=1e-6)


# ---------------------------------------------------------------------------
# KL exponent diagnostic


def test_kl_theta_half_on_quadratic(quad_canonical):
    trace = run_scheme(
        quad_canonical,
        np.array([1.3, -0.7]),
        SchemeConfig(eta=0.6, stop_grad_tol=1e-9),
    )
    diag = kl_exponent_diagnostic(trace, 0.0)
    assert diag.theta_hat == pytest.approx(0.5, abs=0.05)
    assert diag.r_squared >= 0.99


def test_kl_theta_half_on_double_well(dw_unit):
    trace = run_scheme(
        dw_unit, np.array([1.3, 0.8]), SchemeConfig(eta=0.5, stop_grad_tol=1e-9)
    )
    diag = kl_exponent_diagnostic(trace, -0.5)
    assert diag.theta_hat == pytest.approx(0.5, abs=0.05)
    assert diag.r_squared >= 0.99


def test_kl_works_on_flow_traces(dw_unit):
    trace = integrate_flow(dw_unit, np.array([0.5, 0.7]), flow_cfg(8.0, 0.1))
    diag = kl_exponent_diagnostic(trace, -0.5)
    assert diag.theta_hat == pytest.approx(0.5, abs=0.05)


@pytest.mark.parametrize("kind", ["scheme", "flow"])
def test_kl_fits_only_gaps_above_their_roundoff(kind):
    diag = kl_exponent_diagnostic(_trace_with_noisy_tail(kind), 0.0)
    assert diag.n_points == 15
    assert diag.theta_hat == pytest.approx(0.5, abs=1e-12)
    assert diag.r_squared == pytest.approx(1.0, abs=1e-12)


def test_kl_insufficient_data_at_optimum(quad_canonical):
    trace = run_scheme(quad_canonical, np.zeros(2), SchemeConfig(eta=0.5))
    with pytest.raises(InsufficientDataError):
        kl_exponent_diagnostic(trace, 0.0)


# ---------------------------------------------------------------------------
# local exponential certificate


def test_certificate_exact_on_canonical_instance(quad_canonical):
    cert = local_exp_certificate(quad_canonical, np.zeros(2), Box.cube(1.0, 2))
    assert cert.lam == pytest.approx(0.5, abs=1e-12)
    assert cert.c1 == pytest.approx(1.0, abs=1e-12)
    trace = integrate_flow(quad_canonical, np.array([0.8, -0.6]), flow_cfg(8.0, 0.05))
    assert local_exp_bound_margin(trace, np.zeros(2), cert) >= 0.0


def test_certificate_double_well_box(dw_unit):
    box = Box(np.array([0.9, 0.9]), np.array([1.1, 1.1]))
    cert = local_exp_certificate(dw_unit, np.ones(2), box)
    # Corner extremes: hess f range [1.43, 2.63], metric upper 4.63 + margin.
    assert cert.hess_f_lower == pytest.approx(1.43, abs=1e-10)
    assert cert.hess_f_upper == pytest.approx(2.63, abs=1e-10)
    assert cert.lam == pytest.approx(1.43 / 4.63, abs=0.01)
    for _ in range(5):
        x0 = box.sample(RNG, 1)[0]
        trace = integrate_flow(dw_unit, x0, flow_cfg(4.0, 0.05))
        assert local_exp_bound_margin(trace, np.ones(2), cert) >= 0.0


def test_certificate_rejects_indefinite_box(dw_unit):
    # A box around the origin straddles the local maximum.
    with pytest.raises(BoxTooLargeError):
        local_exp_certificate(dw_unit, np.ones(2), Box.cube(1.5, 2))


def test_certificate_requires_critical_center(dw_unit):
    box = Box(np.array([0.4, 0.4]), np.array([0.6, 0.6]))
    with pytest.raises(ValueError):
        local_exp_certificate(dw_unit, np.array([0.5, 0.5]), box)
