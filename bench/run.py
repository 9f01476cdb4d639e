#!/usr/bin/env python3
"""dcflow benchmark: seeded experiment workloads in a closed loop, one client.

Run from the repository root::

    python3 bench/run.py --workload flow_fine --seed 1 --seconds 55 --trace 0

One run of one workload:

1. generates the workload's configs from ``--seed`` (``workloads.py``) and
   writes them under ``.bench_out/``;
2. runs one untimed pass over all jobs through ``dcflow.cli.run_experiment``
   and checks its outputs: exit paths, named checks, flow states of the
   quadratic jobs against ``closed_form_linear_flow``, energy-identity
   residuals; it records a SHA-256 digest of every CSV and of
   ``report.json`` without ``generated_at``;
3. repeats timed passes, each job started when the previous one returns,
   until ``--seconds`` have passed and enough job times are pooled.  Every
   pass must reproduce the digests of step 2.  After each pass it times
   set-up (import ``dcflow``, ``load_config`` every config,
   ``build_problem`` every problem) in a fresh interpreter, so the set-up
   samples span the same stretch of time as the passes.

Job times are reported in ``ref`` units: a job's seconds divided by the time
of a fixed reference routine (``reference_seconds``, no dcflow code) run just
before and just after it, outside the job's timing.  On a shared host the
speed of the same code drifts by tens of percent within seconds and between
minutes; the reference drifts with it, so the ratio stays put while a change
to dcflow moves it.  Raw seconds are printed beside them and kept in
``result.json``.

With ``--trace 0`` it reports the end-to-end metrics.  With ``--trace 1``
timed passes alternate untraced and traced (``tracing.py``) and it reports
the per-layer metrics, per pass; a layer that the workload bypasses reads 0
(ratios with a zero base included).  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
lines before it list every metric with its unit and sample count, and the
machine record.  ``.bench_out/<workload>-seed<n>-trace<t>/`` keeps the
configs, the last pass's outputs, ``result.json`` and, when traced,
``spans.csv``.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import hashlib
import importlib
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT_ROOT = ROOT / ".bench_out"
MIN_PASSES = 3
# The 90th percentile has at least ten job times beyond it from 100 on.
MIN_JOB_SAMPLES = 100
# Tolerance of acceptance criterion 04 (flow against the closed form).
CLOSED_FORM_TOL = 1e-6
# Reference routine: small dense solves and an interpreted loop, the kind of
# work dcflow's kernels do; about 4 ms on a 2-vCPU cloud host.
REF_ITERS = 400
REF_A = np.array([[2.0, 0.5], [0.5, 1.0]])
REF_B = np.array([1.0, -0.5])
THREAD_VARS = (
    "DCFLOW_THREADS",
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
MODULES = ("cli", "core", "flow", "schemes", "analysis")

# metric name -> unit, for both the end-to-end and the per-layer metrics
UNITS = {
    m["name"]: m["unit"]
    for kind in ("end_to_end", "per_layer")
    for m in json.loads((ROOT / "BENCHMARK.json").read_text())[kind]
}


class BenchError(Exception):
    """The benchmark cannot run here (no source tree, set-up failed)."""


@dataclasses.dataclass
class Job:
    name: str
    config: dict
    out_dir: Path


@dataclasses.dataclass
class JobResult:
    seconds: float
    exit_code: int
    error: Optional[str]
    report: Optional[dict]


@dataclasses.dataclass
class Tally:
    """Exit paths and named checks over every job run."""

    attempted: int = 0
    errors: int = 0
    failed_jobs: int = 0
    checks_judged: int = 0
    checks_failed: int = 0

    def add(self, results: list[JobResult]) -> None:
        for r in results:
            self.attempted += 1
            self.errors += r.error is not None
            self.failed_jobs += r.error is not None or r.exit_code != 0
            if r.report is not None:
                judged = [c["passed"] for c in r.report["checks"] if c["passed"] is not None]
                self.checks_judged += len(judged)
                self.checks_failed += judged.count(False)


# ---------------------------------------------------------------------------
# the program under test


def import_dcflow(root: Path) -> dict:
    """Import the package from ``root/src``, never from an installed copy."""
    src = root / "src"
    if not (src / "dcflow" / "__init__.py").is_file():
        raise BenchError(f"no dcflow source tree under {src}")
    sys.path.insert(0, str(src))
    mods = {name: importlib.import_module(f"dcflow.{name}") for name in MODULES}
    if not Path(mods["cli"].__file__).resolve().is_relative_to(src.resolve()):
        raise BenchError(f"imported dcflow from {mods['cli'].__file__}, not from {src}")
    return mods


def run_job(cli, job: Job) -> JobResult:
    start = time.perf_counter()
    try:
        code, report = cli.run_experiment(job.config, job.out_dir)
    except cli.ConfigError as exc:
        return JobResult(time.perf_counter() - start, cli.EXIT_CONFIG, repr(exc), None)
    except cli.DcError as exc:
        return JobResult(time.perf_counter() - start, cli.EXIT_RUNTIME, repr(exc), None)
    return JobResult(time.perf_counter() - start, code, None, report)


def reference_seconds() -> float:
    """Time one run of the fixed reference routine."""
    start = time.perf_counter()
    x = REF_B.copy()
    total = 0.0
    for _ in range(REF_ITERS):
        x = np.linalg.solve(REF_A, REF_B + 1e-3 * x)
        total += float(x @ x) + sum(k * k for k in range(20))
    return time.perf_counter() - start


def run_pass(cli, jobs: list[Job]) -> tuple[float, list[JobResult], list[float]]:
    """One closed-loop pass: each job starts when the previous one returns.

    The reference routine runs before the first job and after each job,
    outside the job times.  Returns the pass's job seconds, the results and
    each job's time in ``ref`` units: its seconds over the mean of the two
    reference times around it.
    """
    refs = [reference_seconds()]
    results = []
    for job in jobs:
        results.append(run_job(cli, job))
        refs.append(reference_seconds())
    in_ref = [r.seconds / (0.5 * (a + b)) for r, a, b in zip(results, refs, refs[1:])]
    return sum(r.seconds for r in results), results, in_ref


def time_setup(src: Path, config_paths: list[Path]) -> float:
    probe = Path(__file__).with_name("setup_probe.py")
    proc = subprocess.run(
        [sys.executable, str(probe), str(src), *map(str, config_paths)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


# ---------------------------------------------------------------------------
# output checks


_GENERATED_AT = re.compile(rb'^\s*"generated_at": .*\n', re.MULTILINE)


def digest_outputs(out_dir: Path) -> dict[str, str]:
    """SHA-256 of every CSV and of ``report.json`` minus ``generated_at``."""
    digests = {}
    for path in sorted(out_dir.iterdir()):
        data = path.read_bytes()
        if path.name == "report.json":
            data = _GENERATED_AT.sub(b"", data)
        elif path.suffix != ".csv":
            continue
        digests[path.name] = hashlib.sha256(data).hexdigest()
    return digests


def closed_form_errors(mods: dict, jobs: list[Job]) -> tuple[Optional[float], int]:
    """Worst distance of quadratic flow states from the closed form, over the
    tolerance of criterion 04, and the number of states compared."""
    worst, rows = None, 0
    for job in jobs:
        cfg = job.config
        if cfg["experiment"] != "RunFlow" or cfg["problem"]["name"] != "quadratic":
            continue
        a, b = cfg["problem"]["params"]["a"], cfg["problem"]["params"]["b"]
        data = np.loadtxt(job.out_dir / "flow_trace.csv", delimiter=",", skiprows=1, ndmin=2)
        n = len(cfg["x0"])
        for row in data:
            ref = mods["flow"].closed_form_linear_flow(a, b, cfg["x0"], row[0])
            err = float(np.linalg.norm(row[1 + n : 1 + 2 * n] - ref)) / CLOSED_FORM_TOL
            worst = err if worst is None else max(worst, err)
        rows += len(data)
    return worst, rows


def energy_residual_ratio(results: list[JobResult]) -> tuple[Optional[float], int]:
    """Worst ``worst_residual / allowed`` over the energy-identity checks."""
    ratios = [
        c["worst_residual"] / c["allowed"]
        for r in results
        if r.report is not None
        for c in r.report["checks"]
        if c["name"] == "energy_identity"
    ]
    return (max(ratios) if ratios else None), len(ratios)


# ---------------------------------------------------------------------------
# metrics


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_sample(tracer: tracing.Tracer) -> tuple[dict, dict]:
    """Counts and busy times of one traced pass."""
    c = tracer.counts()
    spans = tracer.spans
    selfs = tracing.self_times(spans)
    counts = {
        "core.invert.calls": c["core.invert.calls"],
        "core.newton_iters": c["invert.g_hess"],
        "core.armijo_evals": c["invert.g_value"],
        "core.oracle.calls": c["oracle.calls"],
        "schemes.iters": c["schemes.iters"],
        "schemes.invert": c["schemes.invert"],
        "flow.samples": c["flow.samples"],
        "flow.invert": c["flow.invert"],
        "analysis.energy.samples": c["energy.samples"],
        "analysis.probe.points": c["probe.points"],
        "cli.bytes_written": c["cli.bytes"],
    }
    busy = {group: tracing.busy_seconds(spans, group) for group in tracing.SITES}
    times = {
        "core.invert.busy_s": busy["core.invert"],
        "core.oracle.busy_s": tracer.oracle_seconds(),
        "schemes.run.busy_s": busy["schemes.run"],
        "flow.integrate.busy_s": busy["flow.integrate"],
        "flow.interp.busy_s": busy["flow.interp"],
        "analysis.energy.busy_s": busy["analysis.energy"],
        "analysis.probe.busy_s": busy["analysis.probe"],
        "analysis.local.busy_s": busy["analysis.local"],
        "problems.build_s": busy["problems.build"],
        "cli.write.busy_s": busy["cli.write"],
        "cli.self_s": sum(selfs[s.id] for s in spans if s.group == "cli.run"),
    }
    return counts, times


def per_layer_metrics(
    samples: list[tuple[dict, dict]], traced_passes: list[float], untraced_passes: list[float]
) -> dict[str, float]:
    """Per-pass counts (identical in every traced pass) and median times.

    ``trace.overhead`` compares pass times in ``ref`` units.
    """
    counts = samples[0][0]
    times = {k: statistics.median(s[1][k] for s in samples) for k in samples[0][1]}
    m = {
        "core.invert.calls": counts["core.invert.calls"],
        "core.invert.busy_s": times["core.invert.busy_s"],
        "core.invert.us_per_call": 1e6
        * _ratio(times["core.invert.busy_s"], counts["core.invert.calls"]),
        "core.newton_iters_per_invert": _ratio(
            counts["core.newton_iters"], counts["core.invert.calls"]
        ),
        "core.armijo_evals_per_iter": _ratio(
            counts["core.armijo_evals"], counts["core.newton_iters"]
        ),
        "core.oracle.calls": counts["core.oracle.calls"],
        "core.oracle.us_per_call": 1e6
        * _ratio(times["core.oracle.busy_s"], counts["core.oracle.calls"]),
        "schemes.run.busy_s": times["schemes.run.busy_s"],
        "schemes.iters": counts["schemes.iters"],
        "schemes.us_per_iter": 1e6 * _ratio(times["schemes.run.busy_s"], counts["schemes.iters"]),
        "schemes.invert_per_iter": _ratio(counts["schemes.invert"], counts["schemes.iters"]),
        "flow.integrate.busy_s": times["flow.integrate.busy_s"],
        "flow.samples": counts["flow.samples"],
        "flow.invert_per_sample": _ratio(counts["flow.invert"], counts["flow.samples"]),
        "flow.interp.busy_s": times["flow.interp.busy_s"],
        "analysis.energy.busy_s": times["analysis.energy.busy_s"],
        "analysis.energy.us_per_sample": 1e6
        * _ratio(times["analysis.energy.busy_s"], counts["analysis.energy.samples"]),
        "analysis.probe.busy_s": times["analysis.probe.busy_s"],
        "analysis.probe.points": counts["analysis.probe.points"],
        "analysis.probe.us_per_point": 1e6
        * _ratio(times["analysis.probe.busy_s"], counts["analysis.probe.points"]),
        "analysis.local.busy_s": times["analysis.local.busy_s"],
        "problems.build_s": times["problems.build_s"],
        "cli.write.busy_s": times["cli.write.busy_s"],
        "cli.bytes_written": counts["cli.bytes_written"],
        "cli.self_s": times["cli.self_s"],
        "trace.overhead": statistics.median(traced_passes) / statistics.median(untraced_passes),
    }
    return m


def timing_summary(passes: list[float], jobs: list[float]) -> tuple[float, float, float]:
    """Median pass, median job and 90th-percentile job."""
    return statistics.median(passes), statistics.median(jobs), statistics.quantiles(jobs, n=10)[-1]


def end_to_end_metrics(
    pass_refs: list[float], job_refs: list[float], setup_times: list[float], peak_rss_mb: float
) -> dict[str, float]:
    wall, p50, p90 = timing_summary(pass_refs, job_refs)
    return {
        "wall_ref": wall,
        "job_ref_p50": p50,
        "job_ref_p90": p90,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb,
    }


def machine_record() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "env": {name: os.environ.get(name) for name in THREAD_VARS},
    }


def write_spans(path: Path, spans: list[tracing.Span]) -> None:
    selfs = tracing.self_times(spans)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "group", "name", "parent", "thread", "start", "end", "self_s"])
        t0 = spans[0].start if spans else 0.0
        for s in spans:
            writer.writerow(
                [s.id, s.group, s.name, s.parent, s.thread, s.start - t0, s.end - t0, selfs[s.id]]
            )


# ---------------------------------------------------------------------------
# entry point


def prepare(workload: str, seed: int, out_dir: Path) -> tuple[list[Job], list[Path]]:
    shutil.rmtree(out_dir, ignore_errors=True)
    (out_dir / "configs").mkdir(parents=True)
    jobs, paths = [], []
    for i, (name, cfg) in enumerate(workloads.generate(workload, seed)):
        path = out_dir / "configs" / f"{i:02d}_{name}.json"
        path.write_text(json.dumps(cfg, indent=1) + "\n")
        paths.append(path)
        jobs.append(Job(name, cfg, out_dir / "jobs" / f"{i:02d}_{name}"))
    return jobs, paths


def measure(
    mods: dict,
    jobs: list[Job],
    seconds: float,
    trace: bool,
    setup_probe: Optional[Callable[[], float]] = None,
) -> dict:
    """Verification pass, then timed passes; returns everything measured.

    ``setup_probe`` runs after every untraced timed pass, outside its timing.
    """
    cli = mods["cli"]
    tally = Tally()
    _, first, _ = run_pass(cli, jobs)
    tally.add(first)
    reference = [digest_outputs(job.out_dir) for job in jobs]
    closed_form, closed_form_rows = closed_form_errors(mods, jobs)
    energy, energy_checks = energy_residual_ratio(first)

    walls: dict[bool, list[float]] = {False: [], True: []}
    pass_refs: dict[bool, list[float]] = {False: [], True: []}
    job_times: list[float] = []
    job_refs: list[float] = []
    setup_times: list[float] = []
    layers: list[tuple[dict, dict]] = []
    last_spans: list[tracing.Span] = []
    digests_stable = True
    start = time.perf_counter()
    while True:
        traced = trace and len(walls[False]) > len(walls[True])
        if traced:
            tracer = tracing.Tracer()
            tracer.install(mods)
            try:
                wall, results, in_ref = run_pass(cli, jobs)
            finally:
                tracer.uninstall()
            layers.append(layer_sample(tracer))
            last_spans = tracer.spans
        else:
            wall, results, in_ref = run_pass(cli, jobs)
            job_times.extend(r.seconds for r in results)
            job_refs.extend(in_ref)
            if setup_probe is not None:
                setup_times.append(setup_probe())
        walls[traced].append(wall)
        pass_refs[traced].append(sum(in_ref))
        tally.add(results)
        digests_stable &= [digest_outputs(job.out_dir) for job in jobs] == reference
        enough = (
            len(walls[False]) >= MIN_PASSES
            and (len(walls[True]) >= MIN_PASSES if trace else len(job_times) >= MIN_JOB_SAMPLES)
        )
        if enough and time.perf_counter() - start >= seconds:
            break
    return {
        "tally": tally,
        "walls": walls,
        "pass_refs": pass_refs,
        "job_times": job_times,
        "job_refs": job_refs,
        "setup_times": setup_times,
        "layers": layers,
        "spans": last_spans,
        "digests": {job.name: d for job, d in zip(jobs, reference)},
        "digests_stable": digests_stable,
        "counts_stable": all(s[0] == layers[0][0] for s in layers),
        "closed_form": (closed_form, closed_form_rows),
        "energy": (energy, energy_checks),
    }


def _show(name: str, value, unit: str, samples: str) -> None:
    shown = "n/a" if value is None else f"{value:.6g}"
    print(f"  {name:32s} {shown:>14s} {unit:12s} {samples}")


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    out_dir = OUT_ROOT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        mods = import_dcflow(ROOT)
        jobs, config_paths = prepare(args.workload, args.seed, out_dir)
        cli = mods["cli"]
        for job, path in zip(jobs, config_paths):
            job.config = cli.load_config(path)
            cli.build_problem(job.config["problem"])
        probe = None if args.trace else functools.partial(time_setup, ROOT / "src", config_paths)
        m = measure(mods, jobs, args.seconds, bool(args.trace), probe)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    setup_times = m["setup_times"]
    tally: Tally = m["tally"]
    walls = m["walls"]
    closed_form, closed_form_rows = m["closed_form"]
    energy, energy_checks = m["energy"]
    correct = (
        tally.failed_jobs == 0
        and tally.checks_failed == 0
        and m["digests_stable"]
        and m["counts_stable"]
        and (closed_form is None or closed_form <= 1.0)
        and (energy is None or energy <= 1.0)
    )

    machine = machine_record()
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  jobs/pass {len(jobs)}")
    print("machine " + json.dumps(machine, sort_keys=True))
    print("correctness:")
    _show("error_ratio", _ratio(tally.errors, tally.attempted), "ratio", f"n={tally.attempted} jobs")
    _show(
        "check_fail_ratio",
        _ratio(tally.checks_failed, tally.checks_judged),
        "ratio",
        f"n={tally.checks_judged} judged checks",
    )
    _show("closed_form_err", closed_form, "x1e-6", f"n={closed_form_rows} flow states")
    _show("energy_residual_ratio", energy, "ratio", f"n={energy_checks} energy checks")
    _show("outputs_repeat_byte_identical", float(m["digests_stable"]), "bool", "every pass")

    if args.trace:
        metrics = per_layer_metrics(m["layers"], m["pass_refs"][True], m["pass_refs"][False])
        print(f"per-layer metrics (per pass; {len(walls[True])} traced, {len(walls[False])} untraced passes):")
        for name, value in metrics.items():
            _show(name, value, UNITS[name], f"n={len(walls[True])} passes")
        write_spans(out_dir / "spans.csv", m["spans"])
    else:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = end_to_end_metrics(m["pass_refs"][False], m["job_refs"], setup_times, peak_rss_mb)
        counts = {
            "wall_ref": f"n={len(walls[False])} passes (median)",
            "job_ref_p50": f"n={len(m['job_refs'])} jobs",
            "job_ref_p90": f"n={len(m['job_refs'])} jobs",
            "setup_s": f"n={len(setup_times)} fresh interpreters (median)",
            "peak_rss_mb": "n=1 process",
        }
        print("end-to-end metrics (1 ref = one reference routine run next to the job):")
        for name, value in metrics.items():
            _show(name, value, UNITS[name], counts[name])
        print("raw seconds (host speed not factored out):")
        raw = timing_summary(walls[False], m["job_times"])
        for name, ref_name, value in zip(("wall_s", "job_s_p50", "job_s_p90"), counts, raw):
            _show(name, value, "s", counts[ref_name])

    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed_jobs,
        "metrics": {name: {"value": v, "unit": UNITS[name]} for name, v in metrics.items()},
    }
    detail = dict(
        result,
        workload=args.workload,
        seed=args.seed,
        trace=args.trace,
        jobs=[job.name for job in jobs],
        machine=machine,
        tally=dataclasses.asdict(tally),
        walls={"untraced": walls[False], "traced": walls[True]},
        pass_refs={"untraced": m["pass_refs"][False], "traced": m["pass_refs"][True]},
        job_times=m["job_times"],
        job_refs=m["job_refs"],
        setup_times=setup_times,
        closed_form_err=closed_form,
        energy_residual_ratio=energy,
        digests=m["digests"],
    )
    (out_dir / "result.json").write_text(json.dumps(detail, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
