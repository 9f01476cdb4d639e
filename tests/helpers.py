"""Shared test helpers built on the library's public entry points."""

import dataclasses
import warnings

import numpy as np

from dcflow import analysis, core, flow, schemes
from dcflow.core import DcError, DcProblem, central_diff_jacobian, invert_grad_g
from dcflow.schemes import (
    _DIVERGENCE_SLACK,
    IterateTrace,
    Mode,
    SchemeConfig,
    Termination,
    run_scheme,
)


def central_diff_grad(fun, x, step: float) -> np.ndarray:
    """Central-difference gradient of a scalar function, O(step^2) accurate.

    ``fun`` takes one point; it is called on each row of the stack that
    :func:`central_diff_jacobian` sweeps."""
    return central_diff_jacobian(lambda zs: [[fun(z)] for z in zs], x, step)[0]


def halton_while_digits_left(n, dim):
    """Halton points as ``analysis._halton`` built them while any index had
    digits left, with ``%`` and ``//=`` per digit: the reference for its
    digit count taken from ``n``."""
    out = np.empty((n, dim))
    for j, base in enumerate(analysis._primes(dim)):
        k, f, r = np.arange(1, n + 1), 1.0, np.zeros(n)
        while k.any():
            f /= base
            r += f * (k % base)
            k //= base
        out[:, j] = r
    return out


def newton_only(p):
    """``p`` without its closed-form pullback: every inversion runs Newton
    from the caller's warm start, as for a hand-built problem."""
    return dataclasses.replace(p, g_conj_grad=None)


def dense_hessians(p):
    """``p`` with both Hessian oracles' answers made dense arrays by
    ``np.asarray``, as an oracle that builds them itself returns them."""
    g_hess, h_hess = p.g_hess, p.h_hess
    return dataclasses.replace(
        p, g_hess=lambda x: np.asarray(g_hess(x)), h_hess=lambda x: np.asarray(h_hess(x))
    )


def primal_dual_sup_gap(p, x0, cfg: SchemeConfig, n_iter: int) -> float:
    """Sup-norm disagreement between primal and dual runs of ``n_iter`` steps."""
    fixed = dataclasses.replace(cfg, max_iter=n_iter, stop_grad_tol=1e-300)
    tp = run_scheme(p, x0, fixed, Mode.PRIMAL)
    td = run_scheme(p, x0, fixed, Mode.DUAL)
    k = min(tp.points.shape[0], td.points.shape[0])
    return float(np.max(np.abs(tp.points[:k] - td.points[:k])))


def reject_closed_forms(monkeypatch):
    """Make the flow step's and the scheme's block check of closed-form
    pullbacks, ``core._check_block`` as they call it, fail every time once
    it has run, so every stage and iterate is pulled back through
    ``invert_grad_g``, as it is without that check."""

    def reject(*args):
        core._check_block(*args)
        raise core._CheckFailed

    for module in (flow, schemes):
        monkeypatch.setattr(module, "_check_block", reject)


def single_closed_form_pass(monkeypatch):
    """Make the flow step and the schemes run their closed-form pass once,
    its numpy floating-point errors reported as they happen, and again
    through ``invert_grad_g`` when anything raises in it: the policy of
    ``core._closed_form_first`` without its recording."""

    def once(p, run):
        if p.g_conj_grad is None:
            return run(False)
        try:
            return run(True)
        except Exception:
            return run(False)

    for module in (flow, schemes):
        monkeypatch.setattr(module, "_closed_form_first", once)


def overflowing_h_grad(p):
    """``p`` whose ``h_grad`` overflows a throwaway product at each call and
    answers as before."""

    def h_grad(x):
        np.multiply(1e308, 10.0)
        return p.h_grad(x)

    return dataclasses.replace(p, h_grad=h_grad)


def warnings_of(run):
    """What ``run()`` returns, and the category, message and line of each
    warning it issues, repeats included."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = run()
    return result, [(w.category, str(w.message), w.filename, w.lineno) for w in caught]


def count_point_inversions(monkeypatch, module):
    """Count the single targets that ``module`` pulls back through
    ``invert_grad_g``; the count is the list's one entry."""
    count = [0]

    def pullback(p, y, warm_start):
        count[0] += np.ndim(y) == 1
        return core.invert_grad_g(p, y, warm_start)

    monkeypatch.setattr(module, "invert_grad_g", pullback)
    return count


def inversion_shapes(monkeypatch, module):
    """Log the shape of every target, single or stacked, that ``module``
    pulls back through ``invert_grad_g``."""
    shapes = []

    def pullback(p, y, warm_start):
        shapes.append(np.shape(y))
        return core.invert_grad_g(p, y, warm_start)

    monkeypatch.setattr(module, "invert_grad_g", pullback)
    return shapes


def blowing_up(limit: float):
    """The 1-D split ``g = x^2/2``, ``h = x^2/2 + x + x^3/3``, whose dual
    field ``1 + y^2`` blows up in finite time, with its closed form
    ``grad g* = id`` and an ``h_grad`` that raises
    :class:`~dcflow.core.NumericError` at any point past ``limit``."""

    def h_grad(x):
        if (x > limit).any():
            raise core.NumericError(f"h_grad past {limit:g}")
        return x + 1.0 + x**2

    return DcProblem(
        dim=1,
        g_value=lambda x: 0.5 * np.vecdot(x, x),
        h_value=lambda x: np.sum(0.5 * x**2 + x + x**3 / 3.0, axis=-1),
        g_grad=lambda x: x.copy(),
        h_grad=h_grad,
        g_hess=lambda x: np.ones(x.shape[:-1] + (1, 1)),
        h_hess=lambda x: (1.0 + 2.0 * x)[..., None],
        g_conj_grad=lambda y: np.array(y, dtype=float),
    )


def off_closed_form(p, defect: float, threshold: float):
    """``p`` with a closed form that adds ``defect`` to its answer at every
    target whose first coordinate exceeds ``threshold``."""

    def g_conj_grad(y):
        x = np.array(p.g_conj_grad(y), dtype=float)
        x[np.asarray(y)[..., 0] > threshold] += defect
        return x

    return dataclasses.replace(p, g_conj_grad=g_conj_grad)


def off_at_targets(p, targets, defect: float):
    """``p`` with a closed form that adds ``defect`` to its answer at every
    target equal, bit for bit, to a row of ``targets``."""
    targets = np.asarray(targets, dtype=float)

    def g_conj_grad(y):
        x = np.array(p.g_conj_grad(y), dtype=float)
        x[(np.asarray(y)[..., None, :] == targets).all(axis=-1).any(axis=-1)] += defect
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


def run_scheme_loop(p, x0, cfg, mode):
    """Per-iterate reference for :func:`run_scheme`: every oracle is read
    where a formula needs it, and each step is logged inside the loop."""
    x = p.check_point(x0)
    eta = cfg.eta
    f, f_err = p.f_value_and_roundoff(x)
    points, f_values, f_errs = [x], [f], [f_err]
    grad_norms = [float(np.linalg.norm(p.f_grad(x)))]
    bregman_steps, step_norms = [], []
    y = np.asarray(p.g_grad(x), dtype=float)
    y_states = [y]
    termination = Termination.MAX_ITER
    for _ in range(cfg.max_iter):
        if grad_norms[-1] <= cfg.stop_grad_tol:
            termination = Termination.GRAD_TOL
            break
        grad_h = np.asarray(p.h_grad(x), dtype=float)
        if mode is Mode.PRIMAL:
            target = (1.0 - eta) * np.asarray(p.g_grad(x), dtype=float) + eta * grad_h
        else:
            target = (1.0 - eta) * y + eta * grad_h
        x_next = invert_grad_g(p, target, x)
        f_next, err_next = p.f_value_and_roundoff(x_next)
        slack = _DIVERGENCE_SLACK * (1.0 + abs(f_values[-1])) + f_err + err_next
        if not np.isfinite(f_next) or f_next > f_values[-1] + slack:
            termination = Termination.NUMERIC_ERROR
            break
        f_err = err_next
        gx = np.asarray(p.g_grad(x), dtype=float)
        bregman_steps.append(float(p.g_value(x_next) - p.g_value(x) - gx @ (x_next - x)))
        step_norms.append(float(np.linalg.norm(x_next - x)))
        x, y = x_next, target
        points.append(x)
        y_states.append(y)
        f_values.append(f_next)
        f_errs.append(err_next)
        grad_norms.append(float(np.linalg.norm(p.f_grad(x))))
    else:
        if grad_norms[-1] <= cfg.stop_grad_tol:
            termination = Termination.GRAD_TOL
    return IterateTrace(
        points=np.asarray(points),
        y_states=np.asarray(y_states),
        f_values=np.asarray(f_values),
        f_roundoff=np.asarray(f_errs),
        grad_norms=np.asarray(grad_norms),
        bregman_steps=np.asarray(bregman_steps),
        step_norms=np.asarray(step_norms),
        eta=eta,
        termination=termination,
    )


TRACE_ARRAYS = (
    "points", "y_states", "f_values", "f_roundoff", "grad_norms", "bregman_steps", "step_norms"
)


def assert_same_trace(trace, reference):
    """Every array of two scheme traces equal bit for bit, and the rest equal."""
    for name in TRACE_ARRAYS:
        got, want = getattr(trace, name), getattr(reference, name)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name
    assert trace.termination is reference.termination
    assert trace.eta == reference.eta
