"""Tests of the benchmark itself.  Run from the repository root with

    python3 -m pytest perfbench -q

The tracer test runs every distinct job of every workload twice, so the file
takes a few minutes.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from isometry import Isometry, transform_text  # noqa: E402
from tracer import Tracer, _scavenger_namespaces, aggregate  # noqa: E402

CORPUS = sorted(p.name for p in (ROOT / "data").iterdir())


def _bindings() -> dict:
    import scavenger.cli  # noqa: F401  (loads every module of the program)

    return {(id(owner), attr): value for owner, ns in _scavenger_namespaces() for attr, value in ns.items()}


def _distinct_jobs(workload: str, tmp_path):
    jobs = workloads.build_jobs(workload, 0, workloads.load_goldens(), tmp_path)
    return list({job.name: job for job in jobs}.values())


def test_tracer_restores_every_patched_attribute(tmp_path):
    from scavenger import cli, graph, hunts, numtheory

    before = _bindings()
    job = _distinct_jobs("verify", tmp_path)[0]
    with Tracer() as tracer:
        patched = {(owner, attr) for owner, attr, _ in tracer._patched}
        assert {(graph, "k_colorable"), (hunts, "k_colorable")} <= patched
        assert (numtheory.ChainCertificate, "validate") in patched
        assert cli.verify_certificate is not hunts.verify_certificate
        assert workloads.run_job(job, []).error is None
    # The cli binding wraps the hunts label, so hunts.verify_certificate counts
    # every call and cli.verify_certificate the ones made through scavenger.cli.
    agg = aggregate(tracer.spans, tracer.names)
    assert agg["hunts.verify_certificate"]["calls"] >= agg["cli.verify_certificate"]["calls"] == 1
    cli_span = next(sp for sp in tracer.spans if tracer.names[sp[1]] == "cli.verify_certificate")
    assert any(tracer.names[sp[1]] == "hunts.verify_certificate" and sp[4] == cli_span[0] for sp in tracer.spans)
    after = _bindings()
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []


@pytest.mark.parametrize("workload", ["verify", "hunt", "sweep"])
def test_output_identical_with_and_without_tracer(workload, tmp_path):
    jobs = _distinct_jobs(workload, tmp_path)
    caches = workloads.program_caches()
    plain = [workloads.run_job(job, caches) for job in jobs]
    with Tracer():
        traced = [workloads.run_job(job, caches) for job in jobs]
    for a, b in zip(plain, traced):
        assert (a.job.name, a.error, b.error) == (a.job.name, None, None)
        assert a.output == b.output, a.job.name


def test_traced_counts_repeat_exactly():
    goldens = workloads.load_goldens()
    jobs = [job for job in workloads.hunt_jobs(0, goldens) if job.name == "greedy_d3"][:1]
    jobs += workloads.sweep_jobs(0, goldens)[:6]
    caches = workloads.program_caches()
    counts = []
    for _ in range(2):
        with Tracer() as tracer:
            for job in jobs:
                workloads.run_job(job, caches)
        calls = {label: row["calls"] for label, row in aggregate(tracer.spans, tracer.names).items()}
        outcomes = {label: {k: v for k, v in row.items() if not k.endswith("_s")} for label, row in tracer.counts.items()}
        counts.append((calls, outcomes))
    assert counts[0] == counts[1]
    assert counts[0][0]["graph.k_colorable"] > 0


def test_self_time_subtracts_direct_children_only():
    # a(0..100) holds b(10..40) and b(50..70); b(10..40) holds a(20..30).
    spans = [(0, 0, 0, 100, -1), (1, 1, 10, 40, 0), (2, 1, 50, 70, 0), (3, 0, 20, 30, 1)]
    agg = aggregate(spans, ["a", "b"])
    assert agg["a"]["calls"] == 2
    assert agg["a"]["total_s"] == pytest.approx(110e-9)
    assert agg["a"]["self_s"] == pytest.approx(60e-9)
    assert agg["b"]["total_s"] == pytest.approx(50e-9)
    assert agg["b"]["self_s"] == pytest.approx(40e-9)


def test_corrupted_golden_counts_exactly_one_failure():
    goldens = workloads.load_goldens()
    text = goldens["hunt"]["greedy_d3"]["text"]
    goldens["hunt"]["greedy_d3"]["text"] = text.replace("order=53", "order=54", 1)
    assert goldens["hunt"]["greedy_d3"]["text"] != text
    jobs = list({job.name: job for job in workloads.hunt_jobs(0, goldens) if job.name.startswith("greedy_d")}.values())
    results = [workloads.run_job(job, workloads.program_caches()) for job in jobs]
    assert len(results) == 2
    assert sum(r.error is not None for r in results) == 1


@pytest.mark.parametrize("name", CORPUS)
def test_isometry_preserves_corpus_verdict(name, tmp_path):
    source = ROOT / "data" / name
    want = workloads.verdict_of(*workloads.cli_call(["verify", str(source)]))
    assert want == workloads.load_goldens()["verify"][f"data/{name}"]
    text = source.read_text(encoding="utf-8")
    rng = random.Random(name)
    for i in range(5):
        moved = transform_text(text, Isometry.random(rng))
        assert moved != text
        path = tmp_path / f"{i}-{name}"
        path.write_text(moved, encoding="utf-8")
        assert workloads.verdict_of(*workloads.cli_call(["verify", str(path)])) == want


def test_metric_lists_match_benchmark_json():
    import json

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [(n, run.layer_unit(n)) for n in run.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.KINDS)


def test_seed_is_a_failing_five_cycle():
    # The program is right: the seed 5-cycle is 3-colorable.
    assert workloads.load_goldens()["verify"]["data/t22_seed.txt"]["exit"] == 1
