"""Batch experiment runner.

Parses a JSON experiment config, executes the requested schemes, flows and
analyses, and emits CSV traces plus a JSON report whose pass/fail flags
each correspond to one named property of the method.  Exit codes follow a
CI-friendly contract: 0 success, 2 config error, 3 oracle or convergence
failure, 4 check failure in certify mode.

Command shape::

    dcflow run <config.json> [--out DIR] [--certify | --report-only] [--seed N]

The ``scheme`` and ``flow`` objects map one to one onto the fields of
:class:`~dcflow.schemes.SchemeConfig` (``eta``, ``max_iter``,
``stop_grad_tol``) and :class:`~dcflow.flow.FlowConfig` (``t_end``,
``record_stride``, ``rel_tol``, ``abs_tol``), so a key that is not a field
there, or a value out of its range, exits 2.  The gradient inversion has no
config keys: its tolerance is :data:`~dcflow.core.INVERSION_TOL`.
Top-level keys an experiment does not read are ignored.  The ``problem``
object takes ``name``, ``params`` and ``shift`` only, and ``params`` only
the family's parameters (``a`` and ``b`` for ``quadratic``, ``q`` for
``double_well``); any other key exits 2.  A ``ValueError``
raised while an experiment runs is an argument check failing on config
input and exits 2; numpy's ``LinAlgError``, though a ``ValueError`` too, is
a numerical failure and exits 3.

Failure policy: an inner-solver failure (a ``DcError`` such as
``ConvergenceError`` from the gradient inversion) anywhere in an experiment
ends the whole run with exit 3 and writes no ``report.json``.  In an
``EtaSweep`` this holds for every member: one failing eta ends the sweep,
and only the CSV traces of the members that finished before it remain.  A
scheme run whose objective turns non-finite or rises is not a failure of
this kind; it stops with termination ``numeric_error`` in its results.

A ``report.json`` that an earlier run left in the output directory is
removed before anything else is checked, so a run that fails there leaves
none, whether it exits 3 or 2.  With ``--out`` that holds for a config file
that does not load too; without it such a file names no directory, and
none is touched.  An output path that is a file, or lies under one, is a
config error.  Every file a run writes replaces the one of the same
name, but CSVs that it does not write, such as the traces of an earlier run
of another experiment or of one that failed before writing them, stay.

Byte identity: CSV floats are written with 17 significant digits, and a
run repeated with the same config and seed writes the same bytes (in
``report.json``, all but ``generated_at``) at a fixed BLAS thread count
and a fixed numpy SIMD dispatch.  A problem whose Hessians are not
diagonal, of dimension about 128 or more, can write different bytes at
``OPENBLAS_NUM_THREADS`` 1 and 2: above some size OpenBLAS splits
products and factorizations across threads, which changes the order of
their sums.  The double-well oracles are products, whose bits do not
depend on the dispatch; ``arcsinh`` and ``sinh`` in the double well's
closed-form pullback and ``theta ** np.arange(1, 5)`` in the flow's dense
output round differently with numpy's AVX-512 kernels on and off
(``NPY_DISABLE_CPU_FEATURES``).
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional

import numpy as np

from . import analysis
from .core import INVERSION_TOL, Box, BoxConstants, DcError, DcProblem, NumericError, flow_velocity
from .flow import FlowConfig, FlowTrace, euler_refinement_study, integrate_flow
from .problems import make_double_well, make_quadratic, make_shifted_decomposition
from .schemes import (
    IterateTrace,
    Mode,
    SchemeConfig,
    descent_margins,
    gradient_identity_margin,
    run_scheme,
)

__all__ = ["ConfigError", "load_config", "main", "run_experiment"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3
EXIT_CHECK_FAILED = 4

# Half-width of RateCertify's local-certificate cube around the minimizer;
# DecompositionCompare's required flow gap (an absolute sup-norm distance)
# and objective-invariance samples.
_LOCAL_BOX_RADIUS = 0.1
_MIN_DYNAMICS_GAP = 1e-2
_N_INVARIANCE_POINTS = 100


class ConfigError(Exception):
    """The experiment config failed to parse or validate."""


@dataclass
class Check:
    """One named pass/fail flag."""

    name: str
    passed: bool
    details: dict


# ---------------------------------------------------------------------------
# config handling


def load_config(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    if cfg.get("schema_version") != 1:
        raise ConfigError("config must declare schema_version 1")
    _experiment(cfg.get("experiment"))
    if not isinstance(cfg.get("problem"), dict):
        raise ConfigError("config must carry a problem object")
    if "seed" in cfg:
        _check_seed(cfg["seed"])
    if not isinstance(cfg.get("output_dir", ""), str):
        raise ConfigError(f"output_dir must be a string, got {cfg['output_dir']!r}")
    return cfg


def _check_seed(seed) -> int:
    # A JSON true is a bool, which Python counts as an int.
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed!r}")
    return seed


# problem name -> (constructor, its parameters in call order)
_FAMILIES = {
    "quadratic": (make_quadratic, ("a", "b")),
    "double_well": (make_double_well, ("q",)),
}


def _reject_unknown_keys(what: str, obj, allowed) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"{what} must be an object")
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown {what} keys {unknown}; expected some of {list(allowed)}")


def build_problem(spec: dict) -> DcProblem:
    name = spec.get("name")
    if name not in _FAMILIES:
        raise ConfigError(f"unknown problem name {name!r}")
    make, keys = _FAMILIES[name]
    _reject_unknown_keys("problem", spec, ("name", "params", "shift"))
    params = spec.get("params", {})
    _reject_unknown_keys(f"{name} params", params, keys)
    try:
        p = make(*(np.asarray(params[k]) for k in keys))
        if "shift" in spec:
            p = make_shifted_decomposition(p, np.asarray(spec["shift"]))
    except (KeyError, ValueError, TypeError) as exc:
        raise ConfigError(f"invalid problem spec: {exc}") from exc
    return p


_SECTIONS = {"scheme": SchemeConfig, "flow": FlowConfig}


def _section_config(cfg: dict, section: str):
    """The ``scheme`` or ``flow`` object of a config, as its config class."""
    fields = cfg.get(section, {})
    try:
        if section == "flow" and "t_end" not in fields:
            raise ConfigError("flow config requires t_end")
        return _SECTIONS[section](**fields)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {section} config: {exc}") from exc


def _start_point(cfg: dict, p: DcProblem, rng: np.random.Generator) -> np.ndarray:
    if "x0" in cfg:
        try:
            return p.check_point(np.asarray(cfg["x0"], dtype=float))
        except ValueError as exc:
            raise ConfigError(f"invalid x0: {exc}") from exc
    return p.region.sample(rng, 1)[0]


def _etas(cfg: dict, default: list[float]) -> list[float]:
    etas = cfg.get("etas", default)
    if not (isinstance(etas, list) and etas and all(type(e) in (int, float) for e in etas)):
        raise ConfigError(f"etas must be a nonempty list of numbers, got {etas!r}")
    return [float(e) for e in etas]


# ---------------------------------------------------------------------------
# CSV output, 17 significant digits for exact double round-trips


def _write_file(path: Path, text: str) -> None:
    """Write ``text`` to a fresh file at ``path`` in one call.

    An old file there is unlinked first, not truncated in place: closing a
    file truncated to zero makes some file systems (ext4's ``auto_da_alloc``)
    start writing it back at once, which a new file does not.
    """
    Path(path).unlink(missing_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _write_csv(path: Path, header: list[str], table, int_cols: int = 0) -> None:
    """Write the rows of ``table`` under ``header``, the first ``int_cols``
    columns as integers (``%d``), every other one with ``%.17g``; all rows
    are formatted by one ``%`` and written by one call."""
    table = np.asarray(table, dtype=float)
    if table.ndim != 2 or table.shape[1] != len(header):
        raise ValueError(f"table of shape {table.shape} does not match {len(header)} columns")
    row = ",".join(["%d"] * int_cols + ["%.17g"] * (len(header) - int_cols)) + "\n"
    rows = row * table.shape[0] % tuple(table.ravel().tolist())
    _write_file(path, ",".join(header) + "\n" + rows)


def write_iterate_csv(path: Path, trace: IterateTrace) -> None:
    n = trace.points.shape[1]
    header = (
        ["k"]
        + [f"x_{j}" for j in range(n)]
        + ["f", "grad_norm", "step_norm", "bregman_step"]
    )
    # Step k describes the move into iterate k; iterate 0 has none.
    table = np.column_stack(
        [
            np.arange(trace.n_points),
            trace.points,
            trace.f_values,
            trace.grad_norms,
            np.concatenate([[math.nan], trace.step_norms]),
            np.concatenate([[math.nan], trace.bregman_steps]),
        ]
    )
    _write_csv(path, header, table, int_cols=1)


def write_flow_csv(path: Path, trace: FlowTrace, residuals: np.ndarray) -> None:
    n = trace.x_states.shape[1]
    header = (
        ["t"]
        + [f"y_{j}" for j in range(n)]
        + [f"x_{j}" for j in range(n)]
        + ["f", "metric_speed_sq", "energy_residual"]
    )
    table = np.column_stack(
        [
            trace.times,
            trace.y_states,
            trace.x_states,
            trace.f_values,
            trace.metric_speed_sq,
            residuals,
        ]
    )
    _write_csv(path, header, table)


# ---------------------------------------------------------------------------
# shared check builders


def _scheme_checks(p: DcProblem, trace: IterateTrace) -> list[Check]:
    # strong_descent takes mu from the box constants of the iterates' span.
    analysis.checked_box_constants(p, Box.spanning(trace.points))
    relaxed, strong = descent_margins(p, trace)
    # Each step's deviation is scaled by max(1, |grad g|), as the inversion's residuals are.
    grad_dev = gradient_identity_margin(p, trace)
    allowed = 10.0 * INVERSION_TOL
    return [
        Check(
            "descent_certificate",
            relaxed >= 0.0,
            {"worst_margin": relaxed},
        ),
        Check(
            "strong_descent",
            strong >= 0.0,
            {"worst_margin": strong},
        ),
        Check(
            "gradient_difference_identity",
            grad_dev <= allowed,
            {"worst_deviation": grad_dev, "allowed": allowed},
        ),
    ]


def _flow_checks(
    trace: FlowTrace, residuals: np.ndarray, flow_cfg: FlowConfig
) -> list[Check]:
    f = trace.f_values
    slack = 10.0 * flow_cfg.rel_tol * (1.0 + np.abs(f[:-1]))
    mono_margin = (
        float(np.min(f[:-1] + slack - f[1:])) if f.size > 1 else math.inf
    )
    interior = residuals[1:-1]
    if interior.size:
        stride = float(np.median(np.diff(trace.times)))
        d2f = np.abs(np.diff(f, 2)) / stride**2
        allowed = max(1e-5, 10.0 * stride**2 * float(np.max(d2f)))
        worst = float(np.nanmax(interior))
        energy_ok = worst <= allowed
        energy_details = {"worst_residual": worst, "allowed": allowed}
    else:
        energy_ok = True
        energy_details = {"worst_residual": 0.0, "allowed": 1e-5}
    return [
        Check("flow_monotonicity", mono_margin >= 0.0, {"worst_margin": mono_margin}),
        Check("energy_identity", energy_ok, energy_details),
    ]


def _constants_on_span(
    p: DcProblem, paths: list[np.ndarray], *local: Box
) -> tuple[list[BoxConstants], dict]:
    """``p.box_constants`` on the box each coordinate of the points of
    ``paths`` (arrays of shape ``(k, dim)``) spans, so every point a rate
    check uses lies in the box its constants hold on, then on each ``local``
    box; and the span box as the report field ``sigma_box``.  One sweep
    cross-checks every constant on samples, the span box's first; a zero
    ``sigma`` there is refused.  The sweep runs as
    ``analysis.metric_bounds_on_box``, which the bench tracer spans.
    """
    box = Box.spanning(np.vstack(paths))
    counts = [400] + [analysis._LOCAL_PROBES] * len(local)
    constants = analysis.metric_bounds_on_box(p, [box, *local], counts)
    if constants[0].sigma <= 0.0:
        raise ConfigError(
            "metric PL constant is zero on the box the runs span; "
            "the rate hypotheses do not hold there"
        )
    fields = {"sigma_box": {"lower": box.lower.tolist(), "upper": box.upper.tolist()}}
    return constants, fields


# ---------------------------------------------------------------------------
# experiments


def _run_scheme_experiment(p, cfg, out_dir, rng) -> tuple[list[Check], dict]:
    scheme_cfg = _section_config(cfg, "scheme")
    mode = Mode(cfg.get("mode", "primal"))
    x0 = _start_point(cfg, p, rng)
    trace = run_scheme(p, x0, scheme_cfg, mode)
    write_iterate_csv(out_dir / "scheme_trace.csv", trace)
    checks = _scheme_checks(p, trace)
    results = {
        "x0": x0.tolist(),
        "mode": mode.value,
        "iterations": trace.n_points - 1,
        "termination": trace.termination.value,
        "final_f": float(trace.f_values[-1]),
        "final_grad_norm": float(trace.grad_norms[-1]),
        "max_point_norm": trace.max_point_norm,
        "path_length": trace.path_length,
    }
    return checks, results


def _run_flow_experiment(p, cfg, out_dir, rng) -> tuple[list[Check], dict]:
    flow_cfg = _section_config(cfg, "flow")
    x0 = _start_point(cfg, p, rng)
    trace = integrate_flow(p, x0, flow_cfg)
    residuals = analysis.energy_residuals(trace)
    checks = _flow_checks(trace, residuals, flow_cfg)
    write_flow_csv(out_dir / "flow_trace.csv", trace, residuals)
    results = {
        "x0": x0.tolist(),
        "samples": trace.n_samples,
        "final_time": float(trace.times[-1]),
        "final_f": float(trace.f_values[-1]),
        "max_dual_norm": trace.max_dual_norm,
        "path_length": trace.path_length,
    }
    return checks, results


def _eta_sweep_experiment(p, cfg, out_dir, rng) -> tuple[list[Check], dict]:
    etas = _etas(cfg, [0.1 * k for k in range(1, 10)])
    names = [f"eta_{eta:.3f}_trace.csv" for eta in etas]
    if len(set(names)) < len(names):
        raise ConfigError(f"etas {etas} share trace file names: {names}")
    scheme_cfg = _section_config(cfg, "scheme")
    x0 = _start_point(cfg, p, rng)

    traces = []
    for eta, name in zip(etas, names):
        trace = run_scheme(p, x0, dataclasses.replace(scheme_cfg, eta=eta))
        write_iterate_csv(out_dir / name, trace)
        traces.append(trace)
    (constants,), box_fields = _constants_on_span(p, [t.points for t in traces])
    reports = {
        eta: analysis.damped_pl_report(t, constants, p.f_star)
        for eta, t in zip(etas, traces)
        if 0.0 < eta < 1.0
    }

    lin = analysis.linearize_at(p, p.minimizer)
    measured_factors = [analysis.measure_local_contraction(p, lin, eta) for eta in etas]

    rows = []
    for eta, mf in zip(etas, measured_factors):
        row = {
            "eta": eta,
            "predicted_local_factor": lin.local_factor(eta),
            "measured_local_factor": mf,
        }
        if eta in reports:
            ratio = reports[eta].measured_ratio_geomean
            row["contraction_bound"] = reports[eta].contraction_bound
            row["measured_ratio_geomean"] = None if math.isnan(ratio) else ratio
        rows.append(row)
    bounds = [row.get("contraction_bound", 1.0) for row in rows]

    checks = [
        Check(
            "contraction_bound",
            not any(rep.violation for rep in reports.values()),
            {"certified": True, "sigma": constants.sigma},
        )
    ]
    if any(abs(e - 0.5) < 1e-12 for e in etas):
        argmin_eta = etas[int(np.argmin(bounds))]
        checks.append(
            Check(
                "contraction_bound_argmin_half",
                abs(argmin_eta - 0.5) < 1e-12,
                {"argmin_eta": argmin_eta},
            )
        )
    if len(etas) > 1:
        argmin_idx = int(np.argmin(measured_factors))
        checks.append(
            Check(
                "local_factor_decreasing",
                argmin_idx == len(etas) - 1,
                {"argmin_eta": etas[argmin_idx]},
            )
        )
    results = {
        "x0": x0.tolist(),
        "table": rows,
        "lambda_min": lin.lambda_min,
        **box_fields,
    }
    return checks, results


def _refinement_experiment(p, cfg, out_dir, rng) -> tuple[list[Check], dict]:
    etas = _etas(cfg, [0.2, 0.1, 0.05])
    flow_cfg = _section_config(cfg, "flow")
    x0 = _start_point(cfg, p, rng)
    rows = euler_refinement_study(p, x0, etas, flow_cfg)
    _write_csv(
        out_dir / "refinement.csv",
        ["eta", "sup_deviation"],
        rows,
    )
    results = {"x0": x0.tolist(), "rows": [{"eta": e, "deviation": d} for e, d in rows]}
    checks = []
    if len(rows) >= 2 and all(d > 0.0 for _, d in rows):
        slope = analysis._loglog_fit(*np.array(rows).T)[0]
        checks.append(
            Check(
                "first_order_euler_convergence",
                0.8 <= slope <= 1.2,
                {"loglog_slope": slope},
            )
        )
        results["loglog_slope"] = slope
    return checks, results


def _linearize_experiment(p, cfg, out_dir, rng) -> tuple[list[Check], dict]:
    x_star = np.asarray(cfg["x_star"], dtype=float) if "x_star" in cfg else p.minimizer
    rep = analysis.linearize_at(p, x_star)
    # Absolute slack: the eigenvalues of (Hess g)^{-1} Hess f are dimensionless.
    spectrum_ok = bool(
        np.all(rep.spectrum > 0.0) and np.all(rep.spectrum <= 1.0 + 1e-9)
    )
    checks = [Check("spectrum_containment", spectrum_ok, {"spectrum": rep.spectrum.tolist()})]
    results = {
        "x_star": rep.x_star.tolist(),
        "fd_error": rep.fd_error,
        "spectrum": rep.spectrum.tolist(),
        "lambda_min": rep.lambda_min,
        "local_factors": {
            f"{eta:.2f}": rep.local_factor(eta) for eta in (0.25, 0.5, 0.75, 1.0)
        },
    }
    return checks, results


def _rate_certify_experiment(p, cfg, out_dir, rng) -> tuple[list[Check], dict]:
    scheme_cfg = _section_config(cfg, "scheme")
    flow_cfg = _section_config(cfg, "flow")
    x0 = _start_point(cfg, p, rng)

    trace = run_scheme(p, x0, scheme_cfg)
    write_iterate_csv(out_dir / "scheme_trace.csv", trace)
    ftrace = integrate_flow(p, x0, flow_cfg)
    write_flow_csv(out_dir / "flow_trace.csv", ftrace, analysis.energy_residuals(ftrace))
    local_box = Box(p.minimizer - _LOCAL_BOX_RADIUS, p.minimizer + _LOCAL_BOX_RADIUS)
    (constants, local_constants), box_fields = _constants_on_span(
        p, [trace.points, ftrace.x_states], local_box
    )

    checks: list[Check] = []
    results: dict[str, Any] = {
        "x0": x0.tolist(),
        "sigma": constants.sigma,
        "sigma_source": "analytic",
        **box_fields,
    }

    if 0.0 < scheme_cfg.eta < 1.0:
        rep = analysis.damped_pl_report(trace, constants, p.f_star)
        checks.append(
            Check(
                "contraction_bound",
                not rep.violation,
                {
                    "eta": rep.eta,
                    "bound": rep.contraction_bound,
                    "measured_ratio_geomean": rep.measured_ratio_geomean,
                    "certified": True,
                },
            )
        )

    rate = analysis.flow_rate_check(
        ftrace, c=math.sqrt(2.0 * constants.sigma), theta=0.5, f_star=p.f_star
    )
    checks.append(
        Check(
            "metric_pl_envelope",
            rate.passed,
            {
                "worst_margin": rate.worst_margin,
                "measured_decay_rate": rate.measured_decay_rate,
                "decay_rate_bound": 2.0 * constants.sigma,
            },
        )
    )

    try:
        kl = analysis.kl_exponent_diagnostic(ftrace, p.f_star)
        results["kl_theta_hat"] = kl.theta_hat
        results["kl_r_squared"] = kl.r_squared
    except analysis.InsufficientDataError:
        results["kl_theta_hat"] = None

    cert = analysis.local_exp_certificate(p, p.minimizer, local_box, local_constants)
    ltrace = integrate_flow(
        p, p.minimizer + _LOCAL_BOX_RADIUS * np.ones(p.dim) / math.sqrt(p.dim), flow_cfg
    )
    margin = analysis.local_exp_bound_margin(ltrace, p.minimizer, cert)
    details = {"lambda": cert.lam, "c1": cert.c1, "worst_margin": margin}
    checks.append(Check("local_exp_bound", margin >= 0.0, details))
    results["local_exp"] = {"lambda": cert.lam, "c1": cert.c1}
    return checks, results


def _decomposition_compare_experiment(p, cfg, out_dir, rng) -> tuple[list[Check], dict]:
    alt_spec = cfg.get("alt")
    if not isinstance(alt_spec, dict):
        raise ConfigError("DecompositionCompare requires an alt problem object")
    family_params = _FAMILIES[cfg["problem"]["name"]][1]
    _reject_unknown_keys("alt", alt_spec, ("shift", *family_params))
    if "shift" in alt_spec:
        if len(alt_spec) > 1:
            raise ConfigError("alt takes either shift or the family's params, not both")
        p_alt = make_shifted_decomposition(p, np.asarray(alt_spec["shift"]))
    else:
        alt = dict(cfg["problem"])
        alt_params = dict(alt.get("params", {}))
        alt_params.update(alt_spec)
        alt["params"] = alt_params
        p_alt = build_problem(alt)

    flow_cfg = _section_config(cfg, "flow")
    x0 = _start_point(cfg, p, rng)

    pts = p.region.sample(rng, _N_INVARIANCE_POINTS)
    f_base = p.f_value(pts)
    worst_gap = float(np.max(np.abs(f_base - p_alt.f_value(pts))))
    scale = max(1.0, float(np.max(np.abs(f_base))))

    t1 = integrate_flow(p, x0, flow_cfg)
    t2 = integrate_flow(p_alt, x0, flow_cfg)
    k = min(t1.n_samples, t2.n_samples)
    sup_diff = float(np.max(np.linalg.norm(t1.x_states[:k] - t2.x_states[:k], axis=1)))
    write_flow_csv(out_dir / "flow_trace_base.csv", t1, analysis.energy_residuals(t1))
    write_flow_csv(
        out_dir / "flow_trace_alt.csv", t2, analysis.energy_residuals(t2)
    )

    checks = [
        Check(
            "objective_invariance",
            worst_gap <= 1e-12 * scale,
            {"worst_gap": worst_gap, "allowed": 1e-12 * scale},
        ),
        Check(
            "dynamics_differ",
            sup_diff >= _MIN_DYNAMICS_GAP,
            {"sup_norm_gap": sup_diff, "required": _MIN_DYNAMICS_GAP},
        ),
    ]
    results = {
        "x0": x0.tolist(),
        "base_label": p.label,
        "alt_label": p_alt.label,
        "initial_velocity_base": flow_velocity(p, x0)[1].tolist(),
        "initial_velocity_alt": flow_velocity(p_alt, x0)[1].tolist(),
        "sup_norm_gap": sup_diff,
    }
    try:
        lam1 = analysis.linearize_at(p, p.minimizer).lambda_min
        lam2 = analysis.linearize_at(p_alt, p.minimizer).lambda_min
        results["lambda_min_base"] = lam1
        results["lambda_min_alt"] = lam2
    except DcError:
        pass
    return checks, results


_EXPERIMENTS = {
    "RunScheme": _run_scheme_experiment,
    "RunFlow": _run_flow_experiment,
    "EtaSweep": _eta_sweep_experiment,
    "RefinementStudy": _refinement_experiment,
    "Linearize": _linearize_experiment,
    "RateCertify": _rate_certify_experiment,
    "DecompositionCompare": _decomposition_compare_experiment,
}


def _experiment(name):
    if not isinstance(name, str) or name not in _EXPERIMENTS:
        raise ConfigError(
            f"unknown experiment {name!r}; expected one of {', '.join(_EXPERIMENTS)}"
        )
    return _EXPERIMENTS[name]


# ---------------------------------------------------------------------------
# driver


def _remove_report(out_dir: Path) -> None:
    """Remove the ``report.json`` an earlier run left in ``out_dir``, if any."""
    try:
        (out_dir / "report.json").unlink(missing_ok=True)
    except NotADirectoryError as exc:
        raise ConfigError(f"output directory {str(out_dir)!r} is not a directory") from exc


def run_experiment(
    cfg: dict,
    out_dir,
    certify: bool = True,
    seed: Optional[int] = None,
) -> tuple[int, dict]:
    """Execute one experiment config; returns ``(exit_code, report)``.

    ``seed``, or the config's ``seed`` when it is ``None``, must be a
    non-negative integer; any other value raises :class:`ConfigError`
    before ``out_dir`` is made.  A ``report.json`` that an earlier run left
    in ``out_dir`` is removed first, so a run that raises leaves none.  An
    ``out_dir`` that is a file, or lies under one, raises
    :class:`ConfigError`.
    """
    out_dir = Path(out_dir)
    _remove_report(out_dir)
    seed = _check_seed(cfg.get("seed", 0) if seed is None else seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    experiment = cfg["experiment"]
    run = _experiment(experiment)
    p = build_problem(cfg["problem"])
    try:
        checks, results = run(p, cfg, out_dir, rng)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"linear algebra failure in {experiment}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    failed = [c.name for c in checks if not c.passed]
    report = {
        "schema_version": 1,
        "generated_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "experiment": experiment,
        "problem": {"label": p.label, "spec": cfg["problem"]},
        "seed": seed,
        "mode": "certify" if certify else "report-only",
        "checks": [
            {"name": c.name, "passed": c.passed, **c.details} for c in checks
        ],
        "results": results,
    }
    _write_file(out_dir / "report.json", json.dumps(report, indent=2, sort_keys=True) + "\n")

    exit_code = EXIT_CHECK_FAILED if (certify and failed) else EXIT_OK
    return exit_code, report


def _print_summary(report: dict) -> None:
    print(f"experiment: {report['experiment']}  problem: {report['problem']['label']}")
    for check in report["checks"]:
        tag = "PASS" if check["passed"] else "FAIL"
        extras = {
            k: v for k, v in check.items() if k not in ("name", "passed")
        }
        print(f"  [{tag}] {check['name']} {extras}")


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="dcflow",
        description="Run difference-of-convex scheme/flow experiments from a JSON config.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="execute one experiment config")
    run_p.add_argument("config", help="path to the JSON experiment config")
    run_p.add_argument("--out", default=None, help="output directory")
    mode = run_p.add_mutually_exclusive_group()
    mode.add_argument(
        "--certify",
        action="store_true",
        default=True,
        help="fail (exit 4) when a named check fails [default]",
    )
    mode.add_argument(
        "--report-only",
        dest="certify",
        action="store_false",
        help="record check outcomes without failing the run",
    )
    run_p.add_argument("--seed", type=int, default=None, help="override the config seed")
    args = parser.parse_args(argv)

    try:
        if args.out is not None:
            _remove_report(Path(args.out))
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    out_dir = args.out or cfg.get("output_dir", "dcflow_out")
    try:
        code, report = run_experiment(cfg, out_dir, certify=args.certify, seed=args.seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DcError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME

    _print_summary(report)
    return code


if __name__ == "__main__":
    sys.exit(main())
