"""Tests of the benchmark itself: generator, tracer and metric assembly."""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run as bench  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
DW2 = {"name": "double_well", "params": {"q": [1.0, 4.0]}}
QUAD2 = {"name": "quadratic", "params": {"a": [[2.0, 0.5], [0.5, 1.0]], "b": [[0.5, 0.0], [0.0, 0.25]]}}


@pytest.fixture(scope="module")
def mods():
    return bench.import_dcflow(BENCH.parent)


def tiny_jobs(tmp_path):
    """One small job per layer; EtaSweep and DecompositionCompare use the pool."""
    base = {"schema_version": 1, "seed": 5}
    configs = [
        dict(base, experiment="RunFlow", problem=QUAD2, x0=[1.0, -0.5],
             flow={"t_end": 0.05, "record_stride": 0.01}),
        dict(base, experiment="RefinementStudy", problem=DW2, x0=[1.5, -1.5],
             etas=[0.1, 0.05], t_end=0.2, flow={"t_end": 0.2, "record_stride": 0.02}),
        dict(base, experiment="EtaSweep", problem=QUAD2, x0=[1.0, 1.0], etas=[0.25, 0.5, 0.75]),
        dict(base, experiment="RateCertify", problem=DW2, x0=[1.5, 1.6], scheme={"eta": 0.5},
             flow={"t_end": 0.5, "record_stride": 0.1}),
        dict(base, experiment="DecompositionCompare", problem=DW2, x0=[1.5, -1.6],
             alt={"shift": [1.0, 1.0]}, flow={"t_end": 0.5, "record_stride": 0.1}),
    ]
    return [
        bench.Job(cfg["experiment"], cfg, tmp_path / f"{i}_{cfg['experiment']}")
        for i, cfg in enumerate(configs)
    ]


def site_attributes(mods):
    return {
        (mod, attr): getattr(mods[mod], attr)
        for sites in tracing.SITES.values()
        for mod, attr in sites
    }


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic_per_seed(workload):
    first = json.dumps(workloads.generate(workload, 7))
    assert first == json.dumps(workloads.generate(workload, 7))
    assert first != json.dumps(workloads.generate(workload, 8))
    assert len(workloads.generate(workload, 7)) == 15


def test_generated_configs_validate(mods, tmp_path):
    cli = mods["cli"]
    for workload in workloads.WORKLOADS:
        _, paths = bench.prepare(workload, 3, tmp_path / workload)
        for path in paths:
            cli.build_problem(cli.load_config(path)["problem"])


def test_self_time_on_synthetic_span_tree():
    S = tracing.Span
    spans = [
        S(0, "cli.run", "run", None, 1, 0.0, 10.0),
        S(1, "flow.integrate", "a", 0, 1, 1.0, 4.0),
        S(2, "core.invert", "b", 1, 1, 2.0, 3.0),
        S(3, "schemes.run", "c", 0, 2, 3.0, 6.0),  # other thread, overlaps span 1
        S(4, "schemes.run", "d", 0, 3, 8.0, 12.0),  # outlasts its parent
    ]
    selfs = tracing.self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 5.0 - 2.0)
    assert selfs[1] == pytest.approx(2.0)
    assert selfs[2] == pytest.approx(1.0)
    assert selfs[3] == pytest.approx(3.0)
    assert tracing.busy_seconds(spans, "schemes.run") == pytest.approx(7.0)


def test_traced_run_reports_every_layer_metric_and_restores_sites(mods, tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "MIN_PASSES", 2)
    before = site_attributes(mods)
    m = bench.measure(mods, tiny_jobs(tmp_path), 0.0, trace=True)
    assert site_attributes(mods) == before
    assert m["tally"].failed_jobs == 0 and m["digests_stable"] and m["counts_stable"]
    metrics = bench.per_layer_metrics(m["layers"], m["walls"][True], m["walls"][False])
    assert list(metrics) == [x["name"] for x in SPEC["per_layer"]]
    for name in ("core.invert.calls", "schemes.iters", "flow.samples", "analysis.probe.points",
                 "cli.bytes_written", "flow.interp.busy_s", "analysis.local.busy_s",
                 "analysis.energy.busy_s", "problems.build_s", "cli.self_s"):
        assert metrics[name] > 0, name


def test_pool_threads_are_traced(mods, tmp_path):
    tracer = tracing.Tracer()
    tracer.install(mods)
    try:
        bench.run_pass(mods["cli"], tiny_jobs(tmp_path))
    finally:
        tracer.uninstall()
    counts = tracer.counts()
    # three EtaSweep members on pool threads plus RateCertify's own run
    assert counts["schemes.run.calls"] == 4
    jobs = {s.id for s in tracer.spans if s.group == "cli.run"}
    assert all(s.parent in jobs for s in tracer.spans if s.group == "schemes.run")


def test_untraced_run_installs_no_wrapper(mods, tmp_path, monkeypatch):
    def refuse(self, modules):
        raise AssertionError("untraced run installed wrappers")

    monkeypatch.setattr(tracing.Tracer, "install", refuse)
    monkeypatch.setattr(bench, "MIN_PASSES", 1)
    monkeypatch.setattr(bench, "MIN_JOB_SAMPLES", 1)
    before = site_attributes(mods)
    m = bench.measure(mods, tiny_jobs(tmp_path), 0.0, trace=False, setup_probe=lambda: 0.25)
    assert site_attributes(mods) == before
    assert m["layers"] == [] and m["walls"][True] == []
    assert m["setup_times"] == [0.25] * len(m["walls"][False])
    assert len(m["job_refs"]) == len(m["job_times"]) and all(r > 0 for r in m["job_refs"])
    metrics = bench.end_to_end_metrics(m["pass_refs"][False], m["job_refs"] * 2, m["setup_times"], 50.0)
    assert list(metrics) == [x["name"] for x in SPEC["end_to_end"]]
