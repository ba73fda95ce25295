"""Regenerate the committed benchmark inputs and golden outputs.

Usage, from the repository root:  python3 perfbench/make_inputs.py

Inputs (perfbench/inputs/): each text file starts with a `#` comment naming
the command that made it.  The 682-vertex greedy certificate takes over a
minute to build, which is why these files are committed and never rebuilt
during a benchmark run.  The order-25 parameter lists are computed here once,
through `CircleParam.param_for_point`; the benchmark itself only reads them.
`sweep.json` holds the sweep's fixed samples of t and of Legendre forms.

Goldens (perfbench/golden/): the outputs of the program at the commit that
made them, one verdict per verify source and the exact output of every hunt
and sweep job.  Run this again only when a change to the program is meant to
change its output.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
INPUTS = BENCH / "inputs"
GOLDEN = BENCH / "golden"
sys.path.insert(0, str(ROOT / "src"))

from scavenger import cli  # noqa: E402
from scavenger.cycles import gen_vectors  # noqa: E402
from scavenger.geom import INF, circle_param, equidistant_circle, rational_point_on_circle  # noqa: E402
from scavenger.hunts import farey_parameters, read_certificate  # noqa: E402
from scavenger.numtheory import TernaryForm, in_T, legendre_solvable  # noqa: E402
from scavenger.qcore import format_point, format_rational, point  # noqa: E402

import workloads  # noqa: E402

FORMS = 40  # Legendre forms in the sweep
FORM_SEED = 2003  # fixed, so every run of the benchmark solves the same forms


def _write(path: Path, header: str, body: str) -> None:
    path.write_text(f"# made by: {header}\n{body}", encoding="utf-8")
    print(f"wrote {path.relative_to(ROOT)}")


def seed_images() -> None:
    seed = cli.parse_vertex_file(ROOT / "data" / "t22_seed.txt")
    for name, signs in (("t22_seed_x_my_mz.txt", (1, -1, -1)), ("t22_seed_mx_y_z.txt", (-1, 1, 1))):
        pts = [point(*(s * c for s, c in zip(signs, p.coords()))) for p in seed.points]
        body = "t=22\n" + "".join(format_point(p) + "\n" for p in pts)
        label = "(" + ", ".join(f"{'-' if s < 0 else ''}{a}" for s, a in zip(signs, "xyz")) + ")"
        _write(INPUTS / name, f"python3 perfbench/make_inputs.py  # {label} image of data/t22_seed.txt", body)


def _cli_out(argv: list[str], out: Path) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.dispatch(argv + ["--out", str(out)])
    if code != 0:
        raise SystemExit(f"{' '.join(argv)} exited {code}")
    shown = " ".join(str(Path(a).relative_to(ROOT)) if a.startswith(str(ROOT)) else a for a in argv)
    _write(out, f"scavenger {shown} --out {out.relative_to(ROOT)}", out.read_text(encoding="utf-8"))


def order25_parameters(cert_name: str, out_name: str) -> None:
    """farey_parameters(2) plus the chart parameters of the reference X, Y, Z
    points, ascending, with INF last."""
    cert = read_certificate(ROOT / "data" / cert_name)
    cycle, t = cert.points[:5], cert.t
    params = set(farey_parameters(2))
    for i in range(5):
        circle = equidistant_circle(cycle[(i - 1) % 5], cycle[(i + 1) % 5], t)
        chart = circle_param(circle, rational_point_on_circle(circle))
        for ring in (cert.points[5:10], cert.points[10:15], cert.points[15:20]):
            params.add(chart.param_for_point(ring[i]))
    params.discard(INF)
    body = "".join(format_rational(s) + "\n" for s in sorted(params)) + "inf\n"
    _write(
        INPUTS / out_name,
        f"python3 perfbench/make_inputs.py  # farey_parameters(2) + chart parameters of data/{cert_name}",
        body,
    )


def sweep_samples() -> None:
    """cycle_t: the admissible t < 500 ordered by vector-pool size, every
    second one from the largest pool down, so every pool size is represented
    and t=426 (the largest pool) is in.  scan_t: every second admissible
    t < 2000.  forms: solvable p x^2 + q y^2 - r z^2 with p, q, r distinct
    primes in [1000, 3900], drawn with a fixed seed."""
    small = [t for t in range(2, 500) if in_T(t)]
    by_pool = sorted(small, key=lambda t: (-len(gen_vectors(t, {1, 3}, 60).vectors), t))
    cycle_t = sorted(by_pool[::2])
    scan_t = [t for t in range(2, 2000) if in_T(t)][::2]
    primes = [p for p in range(1000, 3901) if all(p % d for d in range(2, int(p**0.5) + 1))]
    rng = random.Random(FORM_SEED)
    forms: list[list[int]] = []
    while len(forms) < FORMS:
        p, q, r = rng.sample(primes, 3)
        if legendre_solvable(TernaryForm(p, q, -r)):
            forms.append([p, q, r])
    spec = {
        "made_by": "python3 perfbench/make_inputs.py",
        "cycle_t": cycle_t,
        "scan_t": scan_t,
        "forms": forms,
    }
    (INPUTS / "sweep.json").write_text(json.dumps(spec, indent=1) + "\n", encoding="utf-8")
    print(f"wrote perfbench/inputs/sweep.json ({len(cycle_t)} + {len(scan_t)} t, {len(forms)} forms)")


def goldens() -> None:
    out: dict = {"verify": {}, "hunt": {}, "sweep": {"cycle": {}, "scan_d": {}}}
    for _, source, _ in workloads.VERIFY_SOURCES:
        out["verify"][source] = workloads.verdict_of(*workloads.cli_call(["verify", str(ROOT / source)]))
    # The program is right here: the seed 5-cycle is 3-colorable.
    assert out["verify"]["data/t22_seed.txt"]["exit"] == 1
    for name, (_, call) in workloads.hunt_calls().items():
        code, text = call()
        out["hunt"][name] = {"exit": code}
        (GOLDEN / f"{name}.txt").write_text(text, encoding="utf-8")
        print(f"golden {name}: exit {code}")
    spec = workloads.sweep_inputs()
    for t in spec["cycle_t"]:
        code, text = workloads.cycle_call(t)()
        assert code == 0, t
        out["sweep"]["cycle"][str(t)] = text
    for t in spec["scan_t"]:
        code, text = workloads.scan_call(t)()
        assert code == 0, t
        out["sweep"]["scan_d"][str(t)] = text
    (GOLDEN / "golden.json").write_text(json.dumps(out, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print("wrote perfbench/golden/golden.json")


def main() -> None:
    INPUTS.mkdir(exist_ok=True)
    GOLDEN.mkdir(exist_ok=True)
    seed_images()
    order25_parameters("t34_order25.cert", "t34_params.txt")
    order25_parameters("t66_order25.cert", "t66_params.txt")
    _cli_out(["hunt-grotzsch-subgraph", "30"], INPUTS / "t30_device_fresh.cert")
    _cli_out(
        ["hunt-greedy", str(INPUTS / "t22_seed_x_my_mz.txt"), "--denominator", "9"],
        INPUTS / "t22_greedy144.cert",
    )
    _cli_out(
        ["hunt-greedy", str(INPUTS / "t22_seed_mx_y_z.txt"), "--denominator", "9"],
        INPUTS / "t22_greedy682.cert",
    )
    sweep_samples()
    goldens()


if __name__ == "__main__":
    main()
