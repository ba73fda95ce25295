"""Benchmark scavenger end to end on one of three closed-loop workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {verify,hunt,sweep} --seed N --seconds S --trace {0,1}

One client, `workers=1`: each job starts only after the previous one has
returned.  Every job's output is checked against the golden outputs, and a
mismatch, a wrong exit code or an exception counts as a failed operation.

--trace 0 runs passes over the workload's jobs while a further pass still
fits in S seconds (always at least one), and reports the end-to-end metrics:
setup_s, the median of the run's own set-up and of further set-ups each in a
fresh interpreter (--setup-only); peak_rss_mb; and kind1_s..kind3_s, the
summed wall time of each job kind in one pass (see README.md for what the
kinds are per workload).

--trace 1 runs each distinct job once untraced and then once with every
traced function wrapped (tracer.py), and reports the per-layer metrics and
the tracing overhead.  Spans are written to perfbench/out/trace-<workload>.jsonl.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_SAMPLES = 5  # set-ups per run: its own and four in fresh interpreters

END_TO_END = (("setup_s", "s"), ("peak_rss_mb", "MB"), ("kind1_s", "s"), ("kind2_s", "s"), ("kind3_s", "s"))

PER_LAYER = (
    "cli.import_s",
    "cli.dispatch.self_s",
    "cli.verify_certificate.calls",
    "cli.verify_certificate.total_s",
    "hunts.verify_certificate.calls",
    "hunts.verify_certificate.total_s",
    "hunts.verify_certificate.self_s",
    "hunts.greedy_hunt.self_s",
    "hunts.grotzsch_type_hunt.self_s",
    "hunts.grotzsch_subgraph_hunt.self_s",
    "hunts.circle_plane_intersections.calls",
    "hunts.circle_plane_intersections.total_s",
    "hunts.circle_plane_intersections.nonempty",
    "hunts.read_certificate.total_s",
    "cycles.parallel_first.calls",
    "cycles.parallel_first.total_s",
    "cycles.parallel_first.candidates",
    "cycles.gen_vectors.calls",
    "cycles.gen_vectors.total_s",
    "cycles.gen_vectors.vectors",
    "cycles.find_5cycle.calls",
    "cycles.find_5cycle.total_s",
    "cycles.find_symmetric_5cycle.calls",
    "cycles.find_symmetric_5cycle.total_s",
    "cycles.scan_d.calls",
    "cycles.scan_d.total_s",
    "geom.conic_point.calls",
    "geom.conic_point.total_s",
    "geom.apex_points_detailed.calls",
    "geom.apex_points_detailed.total_s",
    "geom.apex_points_detailed.ok",
    "geom.apex_points_detailed.too_far",
    "geom.apex_points_detailed.irrational",
    "geom.equidistant_circle.calls",
    "geom.equidistant_circle.total_s",
    "geom.rational_point_on_circle.calls",
    "geom.rational_point_on_circle.total_s",
    "graph.build_graph.calls",
    "graph.build_graph.total_s",
    "graph.k_colorable.sat_calls",
    "graph.k_colorable.sat_s",
    "graph.k_colorable.unsat_calls",
    "graph.k_colorable.unsat_s",
    "graph.forced_relations.calls",
    "graph.forced_relations.total_s",
    "numtheory.construct_chain.calls",
    "numtheory.construct_chain.total_s",
    "numtheory.construct_chain.steps",
    "numtheory.ChainCertificate.validate.calls",
    "numtheory.ChainCertificate.validate.total_s",
    "numtheory.legendre_solution.calls",
    "numtheory.legendre_solution.total_s",
    "numtheory.eq_pair_feasible.calls",
    "numtheory.eq_pair_feasible.total_s",
    "numtheory.eq_pair_feasible.feasible",
    "qcore.factorize.calls",
    "qcore.factorize.total_s",
    "qcore.rational_square_root.calls",
    "qcore.rational_square_root.total_s",
    "qcore.rational_square_root.rational",
    "qcore.parse_rational.calls",
    "trace.untraced_pass_s",
    "trace.traced_pass_s",
    "trace.overhead_pct",
    "trace.spans",
)


def layer_unit(name: str) -> str:
    if name.endswith("_pct"):
        return "%"
    return "s" if name.endswith("_s") else "count"


def check_tree() -> None:
    """Refuse to run outside a full checkout: the program is built from its
    sources in src/, never from an installed copy."""
    missing = [p for p in ("src/scavenger/cli.py", "data/t22_seed.txt") if not (ROOT / p).is_file()]
    if missing:
        sys.exit(f"error: {', '.join(missing)} missing under {ROOT}; run from the root of a full checkout")
    sys.path.insert(0, str(ROOT / "src"))
    os.environ.pop("SCAVENGER_WORKERS", None)  # the benchmark measures workers=1


def setup(workload: str, seed: int, workdir: Path):
    """Import the program, then load and transform the inputs.  Returns the
    jobs, the import time and the whole set-up time."""
    start = time.perf_counter()
    import scavenger.cli

    import_s = time.perf_counter() - start
    if not Path(scavenger.cli.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"error: imported scavenger from {scavenger.cli.__file__}, not from {ROOT / 'src'}")
    import workloads

    jobs = workloads.build_jobs(workload, seed, workloads.load_goldens(), workdir)
    return jobs, import_s, time.perf_counter() - start


def fresh_workdir(tag: str) -> Path:
    path = OUT / f"work-{tag}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def setup_in_fresh_interpreters(workload: str, seed: int, count: int) -> list[float]:
    samples = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only", "--workload", workload, "--seed", str(seed)],
            capture_output=True,
            text=True,
            timeout=120,
            check=False,
        )
        if proc.returncode != 0:
            sys.exit(f"error: set-up failed:\n{proc.stderr}")
        samples.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return samples


def run_pass(jobs, caches):
    import workloads

    return [workloads.run_job(job, caches) for job in jobs]


def closed_loop(jobs, caches, seconds: float):
    """Passes over `jobs` while another pass still fits in `seconds`."""
    passes = []
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        passes.append(run_pass(jobs, caches))
        now = time.perf_counter()
        if now - start + (now - pass_start) > seconds:
            return passes


def kind_totals(passes) -> list[float]:
    """Per kind, the summed wall time of one pass's jobs, each job counted at
    the median of its samples: a source verified in 30 copies counts 30 times
    its median copy time, so one copy slowed by the machine does not move it."""
    samples: dict[tuple[int, str], list[float]] = {}
    for results in passes:
        for r in results:
            samples.setdefault((r.job.kind, r.job.name), []).append(r.seconds)
    totals = [0.0, 0.0, 0.0]
    for (kind, _), values in samples.items():
        totals[kind] += statistics.median(values) * len(values) / len(passes)
    return totals


def report_failures(results) -> None:
    failed = [r for r in results if r.error is not None]
    for r in failed[:10]:
        sys.stderr.write(f"FAILED {r.job.name}: {r.error}\n")
    if len(failed) > 10:
        sys.stderr.write(f"... and {len(failed) - 10} more\n")


def measure(workload: str, seconds: float, jobs, caches, setup_samples) -> dict:
    import workloads

    passes = closed_loop(jobs, caches, seconds)
    results = [r for p in passes for r in p]
    report_failures(results)
    totals = kind_totals(passes)
    values = {
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    for k in range(3):
        values[f"kind{k + 1}_s"] = totals[k]
    print(f"passes {len(passes)}, jobs per pass {len(jobs)}")
    names = dict(zip(("kind1_s", "kind2_s", "kind3_s"), workloads.KINDS[workload]))
    for name, unit in END_TO_END:
        shown = f"{name} ({names[name]})" if name in names else name
        print(f"  {shown:<32} {values[name]:.6f} {unit}")
    failed = sum(r.error is not None for r in results)
    print(f"  {'ops':<32} {len(results)} count")
    print(f"  {'ops_failed':<32} {failed} count")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return {"correct": failed == 0, "attempted": len(results), "failed": failed, "metrics": metrics}


def measure_traced(workload: str, jobs, caches, import_s: float) -> dict:
    from tracer import Tracer, aggregate, write_spans

    untraced = run_pass(jobs, caches)
    with Tracer() as tracer:
        traced = run_pass(jobs, caches)
    report_failures(untraced + traced)
    # The tracer must not change what the program prints.
    changed = sum(a.output != b.output for a, b in zip(untraced, traced))
    if changed:
        sys.stderr.write(f"FAILED {changed} jobs printed different output under the tracer\n")
    failed = sum(r.error is not None for r in untraced + traced) + changed
    OUT.mkdir(exist_ok=True)
    write_spans(OUT / f"trace-{workload}.jsonl", tracer.spans, tracer.names)

    agg = aggregate(tracer.spans, tracer.names)
    untraced_s = sum(r.seconds for r in untraced)
    traced_s = sum(r.seconds for r in traced)
    values = {
        "cli.import_s": import_s,
        "trace.untraced_pass_s": untraced_s,
        "trace.traced_pass_s": traced_s,
        "trace.overhead_pct": 100 * (traced_s - untraced_s) / untraced_s,
        "trace.spans": len(tracer.spans),
    }
    for name in PER_LAYER:
        if name not in values:
            label, stat = name.rsplit(".", 1)
            row = agg.get(label, {}) if stat in ("calls", "total_s", "self_s") else tracer.counts.get(label, {})
            values[name] = row.get(stat, 0)
    print(f"jobs per pass {len(jobs)}; spans in perfbench/out/trace-{workload}.jsonl")
    for name in PER_LAYER:
        print(f"  {name:<44} {values[name]:.6f} {layer_unit(name)}")
    metrics = {name: {"value": values[name], "unit": layer_unit(name)} for name in PER_LAYER}
    attempted = len(untraced) + len(traced)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("verify", "hunt", "sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help="time one set-up, print it as JSON and exit")
    args = parser.parse_args()
    check_tree()

    workdir = fresh_workdir(args.workload)
    try:
        if args.setup_only:
            print(json.dumps({"setup_s": setup(args.workload, args.seed, workdir)[2]}))
            return 0
        print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: closed loop, 1 client, workers=1")
        jobs, import_s, setup_s = setup(args.workload, args.seed, workdir)
        if not args.trace:
            samples = [setup_s] + setup_in_fresh_interpreters(args.workload, args.seed, SETUP_SAMPLES - 1)
        import workloads

        caches = workloads.program_caches()
        if args.trace:
            distinct = list({job.name: job for job in jobs}.values())
            result = measure_traced(args.workload, distinct, caches, import_s)
        else:
            result = measure(args.workload, args.seconds, jobs, caches, samples)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
