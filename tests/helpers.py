"""Shared test helpers built on the library's public entry points."""

import dataclasses

import numpy as np

from dcflow.core import central_diff_jacobian
from dcflow.schemes import Mode, SchemeConfig, run_scheme


def central_diff_grad(fun, x, step: float) -> np.ndarray:
    """Central-difference gradient of a scalar function, O(step^2) accurate.

    ``fun`` takes one point; it is called on each row of the stack that
    :func:`central_diff_jacobian` sweeps."""
    return central_diff_jacobian(lambda zs: [[fun(z)] for z in zs], x, step)[0]


def newton_only(p):
    """``p`` without its closed-form pullback: every inversion runs Newton
    from the caller's warm start, as for a hand-built problem."""
    return dataclasses.replace(p, g_conj_grad=None)


def primal_dual_sup_gap(p, x0, cfg: SchemeConfig, n_iter: int) -> float:
    """Sup-norm disagreement between primal and dual runs of ``n_iter`` steps."""
    fixed = dataclasses.replace(cfg, max_iter=n_iter, stop_grad_tol=1e-300)
    tp = run_scheme(p, x0, fixed, Mode.PRIMAL)
    td = run_scheme(p, x0, fixed, Mode.DUAL)
    k = min(tp.points.shape[0], td.points.shape[0])
    return float(np.max(np.abs(tp.points[:k] - td.points[:k])))
