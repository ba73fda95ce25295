"""Regenerate the reference data files under data/ from the inline tables.

The corrected order-25 tables verify cleanly; the *_uncorrected variants
carry known data errors and are kept as fixtures for the verifier's
failure-reporting paths.  The t=30 device file deliberately claims an
inconsistent squared radius so that verification exercises the
recompute-and-warn path.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from scavenger.graph import build_graph  # noqa: E402
from scavenger.hunts import (  # noqa: E402
    Certificate,
    gt_structural_edges,
    h_edges,
    write_certificate,
)
from scavenger.qcore import format_point, parse_point  # noqa: E402
import verify_corpus  # noqa: E402

DATA = Path(__file__).resolve().parent.parent / "data"

T22_VERTICES = """\
-4 5/3 -1
-7/3 7/3 10/3
-2 -4/3 2
-1 11/3 2
-1/3 -2/3 1/3
0 0 0
2/3 1/3 1/3
1 -10/3 -1
1 5/3 4
4/3 4/3 -4/3
8/3 -8/3 10/3
8/3 -5/3 5/3
8/3 10/3 -8/3
3 -19/3 2
3 -3 -2
3 -2 -3
3 3 2
10/3 -5/3 5/3
11/3 10/3 7/3
4 -4/3 2
14/3 1/3 1/3
16/3 0 0
17/3 -14/3 1/3
17/3 1/3 16/3
17/3 4/3 1/3
6 0 0
19/3 -1/3 14/3
23/3 10/3 7/3
26/3 -5/3 7/3"""

T22_SEED = """\
0 0 0
14/3 1/3 1/3
19/3 -1/3 14/3
6 0 0
3 3 2"""

T34_TABLE = {
    "v": ["0 0 0", "-5 0 3", "-8 5 3", "-4 2 0", "-4 -3 3"],
    "X": ["-36/7 -12/7 60/7", "-39/7 -1/7 12/7", "-16/3 17/3 13/3", "-64/7 -4/7 30/7", "0 5 3"],
    "Y": ["-9/13 -3/13 -12/13", "-3 5 0", "-11/3 -11/3 -4/3", "-8/3 8/3 8/3", "-5/3 5/3 16/3"],
    "Z": ["-108/11 -36/11 36/11", "-39/7 -1/7 12/7", "-16/3 17/3 13/3", "-80/9 -4/9 44/9", "0 5 3"],
    "Q": ["-159/227 -106/227 1113/227", "-2613/803 236/803 2757/803", "-429/61 -344/61 3",
          "-375/103 724/103 -111/103", "-460/111 -395/111 509/111"],
}
# Known-bad variant: X4 off both focal spheres, Q4 off all three apex spheres.
T34_UNCORRECTED = {
    **T34_TABLE,
    "X": T34_TABLE["X"][:4] + ["0 5 4"],
    "Q": T34_TABLE["Q"][:4] + ["-460/11 -395/11 509/11"],
}

T66_TABLE = {
    "v": ["0 0 0", "4 7 1", "-1 11 6", "4 6 2", "-4 7 1"],
    "X": ["0 2 -4", "13/3 20/3 5/3", "-11/3 25/3 10/3", "-167/307 912/307 2195/307",
          "-4/45 19/9 353/45"],
    "Y": ["0 8 8", "4/93 743/93 -137/93", "215/33 394/33 229/33", "-36/5 72/5 2",
          "20/3 5/3 -13/3"],
    "Z": ["0 2 -4", "-5 4 5", "-387/97 719/97 234/97", "380/129 536/129 530/129",
          "-104/27 193/27 7/27"],
    "Q": ["829/491 2565/491 272/491", "-7 6 -5",
          "-5354323/3766147 122492179/11298441 21080450/3766147",
          "4643/11837 165532/11837 -10191/11837", "1061/307 -623/307 660/307"],
}
# Known-bad variant: Y2 and Q2 each carry one sign error.
T66_UNCORRECTED = {
    **T66_TABLE,
    "Y": T66_TABLE["Y"][:2] + ["215/33 394/33 -229/33"] + T66_TABLE["Y"][3:],
    "Q": T66_TABLE["Q"][:2]
    + ["-5354323/3766147 -122492179/11298441 21080450/3766147"]
    + T66_TABLE["Q"][3:],
}

T30_DEVICE = [
    "0 0 0",       # x0
    "-1 -2 5",     # x1
    "1 3 4",       # x2
    "16/3 8/15 94/15",   # x3
    "5 2 1",       # x4
    "-8/21 52/21 40/21",     # y0
    "146/63 -145/63 277/63", # y1
    "74/21 -191/105 487/105",   # y3
    "187/63 1202/315 811/315",  # y4
    "37/11 -31/55 -38/55",      # z
]


def _pts(rows):
    return tuple(parse_point(r) for r in rows)


def write_vertex_file(path: Path, t, rows, notes: str = "") -> None:
    lines = [f"t={t}"]
    if notes:
        lines.insert(0, f"# {notes}")
    lines.extend(format_point(p) for p in _pts(rows))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def order25_cert(t: int, table) -> Certificate:
    pts = _pts(table["v"] + table["X"] + table["Y"] + table["Z"] + table["Q"])
    return Certificate("grotzsch-type-structural", t, pts, gt_structural_edges(), {})


def main() -> None:
    DATA.mkdir(exist_ok=True)

    rows = T22_VERTICES.splitlines()
    write_vertex_file(DATA / "t22_vertices.txt", 22, rows,
                      "order-29 4-chromatic vertex set at squared distance 22")
    write_vertex_file(DATA / "t22_seed.txt", 22, T22_SEED.splitlines(),
                      "5-cycle seed for the greedy accumulator")

    g = build_graph(list(_pts(rows)), 22)
    direct = Certificate("direct-chromatic", 22, g.vertices, tuple(sorted(g.edges)), {})
    write_certificate(direct, DATA / "t22_direct.cert")

    write_certificate(order25_cert(34, T34_TABLE), DATA / "t34_order25.cert")
    write_certificate(order25_cert(34, T34_UNCORRECTED), DATA / "t34_order25_uncorrected.cert")
    write_certificate(order25_cert(66, T66_TABLE), DATA / "t66_order25.cert")
    write_certificate(order25_cert(66, T66_UNCORRECTED), DATA / "t66_order25_uncorrected.cert")

    pts = _pts(T30_DEVICE)
    device = Certificate(
        "h-device",
        30,
        pts,
        h_edges(),
        {"z": pts[9], "radius_sq": Fraction(1081, 10), "h": Fraction(1078, 15)},
    )
    write_certificate(device, DATA / "t30_device.cert")

    # re-check every verdict, the vertex files too, against verify_corpus.EXPECTED
    if verify_corpus.main(DATA):
        raise SystemExit(1)


if __name__ == "__main__":
    main()
