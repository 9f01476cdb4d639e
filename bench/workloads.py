"""Seeded experiment configs for the benchmark workloads.

Each workload is a fixed list of 15 job slots: the experiment, the problem
family and dimension, and the run lengths never change.  The seed draws only
the numbers inside the slots (double-well weights ``q``, SPD quadratic
splits, starting points, shifts, per-job config seeds), so one pass costs
nearly the same for every seed and timings from different seeds compare.

Job times are pooled over passes, so each job contributes one cluster of
similar times.  With 15 jobs per pass the pooled median falls on the
8th-cheapest job and the 90th percentile on the 14th.  Each workload lays
out its cost classes so that ranks 6 to 10 form one class of similar jobs
and rank 14 is the middle of a class or a class of its own: both
percentiles then read the middle of a class.  Near a class edge a slower or
faster spell of the host would decide which class a percentile reads.
"""

from __future__ import annotations

import numpy as np

__all__ = ["WORKLOADS", "generate"]

FINE_STRIDE = 1e-3


def _seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


def _jitter(rng: np.random.Generator, values, rel: float = 0.05) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    return values * rng.uniform(1.0 - rel, 1.0 + rel, size=values.shape)


def _q(rng: np.random.Generator, n: int, anisotropic: bool) -> list[float]:
    """Double-well weights around a fixed pattern, jittered and permuted.

    The anisotropic pattern spreads the weights from 1 to 4 (in 2-D the
    pair ``[1, 4]``); the isotropic one puts every weight near 1.5.
    """
    pattern = np.linspace(1.0, 4.0, n) if anisotropic else np.full(n, 1.5)
    return rng.permutation(_jitter(rng, pattern)).tolist()


def _start(rng: np.random.Generator, n: int, low: float, high: float) -> list[float]:
    """Start with coordinate magnitudes in ``[low, high]`` and random signs.

    The double well's cost is symmetric under sign flips, so the signs vary
    the start without varying the work.  Magnitudes stay away from zero,
    the saddle set, where escape would take a start-dependent number of
    iterations.
    """
    mag = rng.uniform(low, high, size=n)
    sign = rng.choice([-1.0, 1.0], size=n)
    return (mag * sign).tolist()


def _orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def _spd_split(rng: np.random.Generator, n: int) -> tuple[list, list]:
    """Random ``a`` SPD and ``b = a^{1/2} C a^{1/2}`` with ``C`` SPD, ``C < I``.

    Eigenvectors are random rotations; eigenvalues are jittered fixed
    ladders (``a`` in [1, 4], ``C`` in [0.1, 0.8]).  The generalized
    eigenvalues of ``a - b`` against ``a`` are ``1 - eig(C)``, so every flow
    decays at a bounded rate, no flow reaches the integrator's equilibrium
    cut-off within its horizon, and ``b`` and ``a - b`` are PSD by
    construction.
    """
    u = _orthogonal(rng, n)
    lam = _jitter(rng, np.geomspace(1.0, 4.0, n))
    a = (u * lam) @ u.T
    sqrt_a = (u * np.sqrt(lam)) @ u.T
    v = _orthogonal(rng, n)
    c = (v * _jitter(rng, np.linspace(0.1, 0.8, n))) @ v.T
    b = sqrt_a @ c @ sqrt_a
    a = 0.5 * (a + a.T)
    b = 0.5 * (b + b.T)
    return a.tolist(), b.tolist()


def _quad_start(rng: np.random.Generator, n: int, radius: float) -> list[float]:
    """Random direction at a jittered fixed distance from the minimizer."""
    d = rng.standard_normal(n)
    return (_jitter(rng, radius) * d / np.linalg.norm(d)).tolist()


def _config(experiment: str, problem: dict, rng: np.random.Generator, **extra) -> dict:
    cfg = {
        "schema_version": 1,
        "problem": problem,
        "experiment": experiment,
        "seed": _seed(rng),
    }
    cfg.update(extra)
    return cfg


def _double_well(q) -> dict:
    return {"name": "double_well", "params": {"q": q}}


def _quadratic(a, b) -> dict:
    return {"name": "quadratic", "params": {"a": a, "b": b}}


def flow_fine(rng: np.random.Generator) -> list[tuple[str, dict]]:
    """Fine-stride flows: every DP5 step is clipped at a record time.

    Cost classes, cheapest first: 1 RefinementStudy and 4 short quadratic
    RunFlow jobs; 5 double-well RunFlow jobs over ``t = 0.2`` (the median
    sits in their middle); 2 over ``t = 0.3``; 3 over ``t = 0.45`` (the
    90th percentile sits in their middle).  Double-well starts lie outside
    the wells (magnitudes 1.4 to 1.8), where the flow is fast and each warm
    pullback takes the same one or two Newton steps.
    """
    jobs = [
        (
            "refine_dw2",
            _config(
                "RefinementStudy",
                _double_well(_q(rng, 2, anisotropic=True)),
                rng,
                x0=_start(rng, 2, 1.4, 1.8),
                etas=[0.05, 0.025, 0.0125],
                t_end=0.1,
                flow={"t_end": 0.1, "record_stride": FINE_STRIDE},
            ),
        )
    ]
    for i, n in enumerate((2, 3, 3, 4)):
        jobs.append(
            (
                f"flow_quad{n}_{i}",
                _config(
                    "RunFlow",
                    _quadratic(*_spd_split(rng, n)),
                    rng,
                    x0=_quad_start(rng, n, 1.5),
                    flow={"t_end": 0.1, "record_stride": FINE_STRIDE},
                ),
            )
        )
    for i, t_end in enumerate((0.2,) * 5 + (0.3,) * 2 + (0.45,) * 3):
        jobs.append(
            (
                f"flow_dw2_{i}",
                _config(
                    "RunFlow",
                    _double_well(_q(rng, 2, anisotropic=i % 2 == 0)),
                    rng,
                    x0=_start(rng, 2, 1.4, 1.8),
                    flow={"t_end": t_end, "record_stride": FINE_STRIDE},
                ),
            )
        )
    return jobs


def certify_box(rng: np.random.Generator) -> list[tuple[str, dict]]:
    """Box-probe certification on 8- to 12-D double wells.

    5 Linearize jobs (cheapest), 5 DecompositionCompare jobs (the median)
    and 5 RateCertify jobs with a coarse record stride (the 90th
    percentile).  12-D is the ceiling of the sampled box probes.
    """
    dims = (8, 9, 10, 11, 12)
    jobs = []
    for n in dims:
        jobs.append(
            (
                f"linearize_dw{n}",
                _config("Linearize", _double_well(_q(rng, n, anisotropic=True)), rng),
            )
        )
    for n in dims:
        if n % 2 == 0:
            alt = {"shift": _jitter(rng, np.full(n, 1.0)).tolist()}
        else:
            alt = {"q": _q(rng, n, anisotropic=False)}
        jobs.append(
            (
                f"decompose_dw{n}",
                _config(
                    "DecompositionCompare",
                    _double_well(_q(rng, n, anisotropic=True)),
                    rng,
                    x0=_start(rng, n, 1.4, 1.8),
                    alt=alt,
                    flow={"t_end": 0.5, "record_stride": 0.1},
                ),
            )
        )
    for n in dims:
        jobs.append(
            (
                f"certify_dw{n}",
                _config(
                    "RateCertify",
                    _double_well(_q(rng, n, anisotropic=True)),
                    rng,
                    x0=_start(rng, n, 1.4, 1.8),
                    scheme={"eta": 0.5},
                    flow={"t_end": 1.0, "record_stride": 0.1},
                ),
            )
        )
    return jobs


WORKLOADS = {
    "flow_fine": flow_fine,
    "certify_box": certify_box,
}


def generate(workload: str, seed: int) -> list[tuple[str, dict]]:
    """The ``(job name, config)`` list of one workload for one seed."""
    try:
        make = WORKLOADS[workload]
    except KeyError:
        raise ValueError(
            f"unknown workload {workload!r}; expected one of {', '.join(WORKLOADS)}"
        ) from None
    return make(np.random.default_rng(seed))
