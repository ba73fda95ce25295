"""The benchmark's three workloads: their jobs, golden outputs and checks.

A job is one verify, hunt or search call.  It returns an exit code and the
text it produced, and its check compares both with the golden outputs in
perfbench/golden/, which the seed program produced (see make_inputs.py).
Imports of the program happen inside functions, so that set-up timing starts
before `scavenger.cli` is imported.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import math
import random
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from isometry import Isometry, transform_text

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
INPUTS = BENCH / "inputs"
GOLDEN = BENCH / "golden"

# The three job kinds of each workload, in the order of the kind1_s, kind2_s
# and kind3_s metrics, with the name each kind has in the benchmark's README.
KINDS = {
    "verify": ("verify_direct_s", "verify_order25_s", "verify_device_s"),
    "hunt": ("hunt_greedy_s", "hunt_order25_s", "hunt_device_s"),
    "sweep": ("sweep_cycle_s", "sweep_scan_d_s", "sweep_legendre_s"),
}

# verify: (kind index, source file, copies per pass).  Small files repeat under
# fresh isometries so that each kind's total is long enough to be steady; the
# large greedy certificates and the fresh device run once per pass.
VERIFY_SOURCES = (
    (0, "data/t22_vertices.txt", 30),
    (0, "data/t22_seed.txt", 30),
    (0, "data/t22_direct.cert", 30),
    (0, "perfbench/inputs/t22_greedy144.cert", 1),
    (0, "perfbench/inputs/t22_greedy682.cert", 1),
    (1, "data/t34_order25.cert", 30),
    (1, "data/t34_order25_uncorrected.cert", 30),
    (1, "data/t66_order25.cert", 30),
    (1, "data/t66_order25_uncorrected.cert", 30),
    (2, "data/t30_device.cert", 30),
    (2, "perfbench/inputs/t30_device_fresh.cert", 1),
)


@dataclass(frozen=True)
class Job:
    kind: int  # index into KINDS[workload]
    name: str
    call: Callable[[], tuple[int, str]]
    check: Callable[[int, str], str | None]  # None when right, else why not


@dataclass(frozen=True)
class Result:
    job: Job
    seconds: float
    output: str
    error: str | None  # None when the job's output passed its check


# --- running -------------------------------------------------------------------------


def program_caches() -> list:
    """Every memoised function of the loaded program (`functools.lru_cache`)."""
    found = {}
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("scavenger"):
            continue
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)) and hasattr(value, "cache_info"):
                found[id(value)] = value
    return list(found.values())


def run_job(job: Job, caches) -> Result:
    """Run one job from cold program caches, as a fresh CLI process would,
    timing only the call itself.  A full garbage collection first keeps the
    previous job's garbage out of this job's time."""
    for cache in caches:
        cache.cache_clear()
    gc.collect()
    start = time.perf_counter()
    try:
        code, text = job.call()
    except Exception as exc:  # a job that raises is a failed operation, not a crash
        return Result(job, time.perf_counter() - start, "", f"raised {type(exc).__name__}: {exc}")
    seconds = time.perf_counter() - start
    return Result(job, seconds, text, job.check(code, text))


def cli_call(argv: list[str]) -> tuple[int, str]:
    from scavenger import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.dispatch(argv)
    return code, out.getvalue() + err.getvalue()


def _expect(code_want: int, text_want: str):
    def check(code: int, text: str) -> str | None:
        if code != code_want:
            return f"exit {code}, want {code_want}"
        if text != text_want:
            return "output differs from the golden output"
        return None

    return check


# --- goldens ---------------------------------------------------------------------------


def load_goldens() -> dict:
    goldens = json.loads((GOLDEN / "golden.json").read_text(encoding="utf-8"))
    for name in goldens["hunt"]:
        goldens["hunt"][name]["text"] = (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
    return goldens


def verdict_of(code: int, text: str) -> dict:
    """Exit code plus the sequence of CHECK names and statuses and the verdict."""
    checks, verdict = [], None
    for line in text.splitlines():
        parts = line.split()
        if len(parts) >= 3 and parts[0] == "CHECK":
            checks.append([parts[1], parts[2]])
        elif len(parts) == 2 and parts[0] == "VERDICT":
            verdict = parts[1]
    return {"exit": code, "checks": checks, "verdict": verdict}


# --- verify ----------------------------------------------------------------------------


def verify_jobs(seed: int, goldens: dict, workdir: Path) -> list[Job]:
    """Each source file, `copies` times per pass, each copy under its own seeded
    isometry and written to `workdir`; the pass order is shuffled by the seed."""
    rng = random.Random(f"verify-{seed}")
    jobs = []
    for kind, source, copies in VERIFY_SOURCES:
        text = (ROOT / source).read_text(encoding="utf-8")
        want = goldens["verify"][source]
        for _ in range(copies):
            path = workdir / f"{len(jobs):04d}-{Path(source).name}"
            path.write_text(transform_text(text, Isometry.random(rng)), encoding="utf-8")
            jobs.append(Job(kind, source, _verify_call(str(path)), _verdict_check(want)))
    rng.shuffle(jobs)
    return jobs


def _verify_call(path: str):
    return lambda: cli_call(["verify", path])


def _verdict_check(want: dict):
    def check(code: int, text: str) -> str | None:
        got = verdict_of(code, text)
        return None if got == want else f"verdict {got}, want {want}"

    return check


# --- hunt ------------------------------------------------------------------------------


def _reference_cycle(cert_name: str):
    from scavenger.hunts import read_certificate

    return read_certificate(ROOT / "data" / cert_name).points[:5]


def _parameters(name: str):
    from scavenger.geom import INF

    out = []
    for raw in (INPUTS / name).read_text(encoding="utf-8").splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append(INF if line == "inf" else Fraction(line))
    return tuple(out)


def _order25_call(t: int, cycle, params):
    def call():
        from scavenger import hunts

        out = hunts.grotzsch_type_hunt(t, list(cycle), params)
        return (1, "no result\n") if out is None else (0, hunts.format_certificate(out[1]))

    return call


def hunt_calls() -> dict:
    """name -> (kind index, call) for the fixed hunt jobs."""
    seed_file = str(ROOT / "data" / "t22_seed.txt")
    return {
        "greedy_d3": (0, lambda: cli_call(["hunt-greedy", seed_file, "--denominator", "3"])),
        "greedy_d9": (0, lambda: cli_call(["hunt-greedy", seed_file, "--denominator", "9"])),
        "greedy144": (
            0,
            lambda: cli_call(["hunt-greedy", str(INPUTS / "t22_seed_x_my_mz.txt"), "--denominator", "9"]),
        ),
        "order25_t34": (1, _order25_call(34, _reference_cycle("t34_order25.cert"), _parameters("t34_params.txt"))),
        "order25_t66": (1, _order25_call(66, _reference_cycle("t66_order25.cert"), _parameters("t66_params.txt"))),
        "device30": (2, lambda: cli_call(["hunt-grotzsch-subgraph", "30"])),
    }


# The greedy hunts are the shortest, so they run more than once per pass and
# count at their median (see run.kind_totals).
HUNT_COPIES = {"greedy_d3": 3, "greedy_d9": 3, "greedy144": 2}


def hunt_jobs(seed: int, goldens: dict) -> list[Job]:
    """The fixed hunt jobs; the seed only shuffles their order, because hunts
    depend on orientation by design."""
    jobs = []
    for name, (kind, call) in hunt_calls().items():
        want = goldens["hunt"][name]
        jobs += [Job(kind, name, call, _expect(want["exit"], want["text"]))] * HUNT_COPIES.get(name, 1)
    random.Random(f"hunt-{seed}").shuffle(jobs)
    return jobs


# --- sweep -----------------------------------------------------------------------------


def _points_text(points) -> str:
    from scavenger.qcore import format_point

    return "".join(format_point(p) + "\n" for p in points)


def cycle_call(t: int):
    def call():
        from scavenger import cycles

        found = cycles.find_5cycle(t, cycles.gen_vectors(t, {1, 3}, 60))
        return (1, "none\n") if found is None else (0, _points_text(found))

    return call


def scan_call(t: int):
    def call():
        from scavenger import cycles

        d = cycles.scan_d(t, 4 * t - 1)
        sym = cycles.find_symmetric_5cycle(t)
        if d is None or sym is None:
            return 1, f"d={d} sym={sym}\n"
        return 0, f"d={d}\nsym d={sym.base_dist_sq}\n" + _points_text(sym.points())

    return call


def legendre_call(p: int, q: int, r: int):
    def call():
        from scavenger import numtheory

        x, y, z = numtheory.legendre_solution(numtheory.TernaryForm(p, q, -r))
        return 0, f"{x} {y} {z}\n"

    return call


def _legendre_check(p: int, q: int, r: int):
    """Any primitive nontrivial zero is right; the solver may change which one
    it finds."""

    def check(code: int, text: str) -> str | None:
        x, y, z = (int(v) for v in text.split())
        if code != 0 or p * x * x + q * y * y - r * z * z != 0:
            return f"({x}, {y}, {z}) is not a zero of {p}x^2 + {q}y^2 - {r}z^2"
        if (x, y, z) == (0, 0, 0) or math.gcd(math.gcd(x, y), z) != 1:
            return f"({x}, {y}, {z}) is trivial or not primitive"
        return None

    return check


def sweep_inputs() -> dict:
    return json.loads((INPUTS / "sweep.json").read_text(encoding="utf-8"))


def sweep_jobs(seed: int, goldens: dict) -> list[Job]:
    """The committed samples of t and of forms; the seed shuffles the order."""
    spec = sweep_inputs()
    jobs = []
    for t in spec["cycle_t"]:
        want = goldens["sweep"]["cycle"][str(t)]
        jobs.append(Job(0, f"cycle t={t}", cycle_call(t), _expect(0, want)))
    for t in spec["scan_t"]:
        want = goldens["sweep"]["scan_d"][str(t)]
        jobs.append(Job(1, f"scan_d t={t}", scan_call(t), _expect(0, want)))
    for p, q, r in spec["forms"]:
        jobs.append(Job(2, f"legendre {p} {q} -{r}", legendre_call(p, q, r), _legendre_check(p, q, r)))
    random.Random(f"sweep-{seed}").shuffle(jobs)
    return jobs


def build_jobs(workload: str, seed: int, goldens: dict, workdir: Path) -> list[Job]:
    if workload == "verify":
        return verify_jobs(seed, goldens, workdir)
    if workload == "hunt":
        return hunt_jobs(seed, goldens)
    return sweep_jobs(seed, goldens)
