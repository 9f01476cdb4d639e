"""Shared test helpers built on the library's public entry points."""

import dataclasses

import numpy as np

from dcflow import core, flow, schemes
from dcflow.core import DcError, central_diff_jacobian
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


def reject_closed_forms(monkeypatch):
    """Make the flow step's and the scheme's check of closed-form pullbacks
    fail every time, so every stage and iterate is pulled back through
    ``invert_grad_g``, as it is without that check."""
    for module in (flow, schemes):
        monkeypatch.setattr(module, "_meets_start_goal", lambda rnorm, ynorm: False)


def count_point_inversions(monkeypatch, module):
    """Count the single targets that ``module`` pulls back through
    ``invert_grad_g``; the count is the list's one entry."""
    count = [0]

    def pullback(p, y, warm_start):
        count[0] += np.ndim(y) == 1
        return core.invert_grad_g(p, y, warm_start)

    monkeypatch.setattr(module, "invert_grad_g", pullback)
    return count


def off_closed_form(p, defect: float, threshold: float):
    """``p`` with a closed form that adds ``defect`` to its answer at every
    target whose first coordinate exceeds ``threshold``."""

    def g_conj_grad(y):
        x = np.array(p.g_conj_grad(y), dtype=float)
        x[np.asarray(y)[..., 0] > threshold] += defect
        return x

    return dataclasses.replace(p, g_conj_grad=g_conj_grad)


def outcome(run, fields):
    """The ``fields`` of what ``run()`` returns, arrays as their bytes, or
    the type and message of the :class:`~dcflow.core.DcError` it raises."""
    try:
        result = run()
    except DcError as exc:
        return type(exc), str(exc)
    values = (getattr(result, name) for name in fields)
    return tuple(v.tobytes() if isinstance(v, np.ndarray) else v for v in values)
