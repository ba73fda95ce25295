"""Verdicts do not change under exact isometries.

Each reference file in data/ is mapped by two seeded isometries of Q^3: a
signed axis permutation followed by a rational translation, and an
Euler–Rodrigues rotation from a rational quaternion followed by a rational
translation.  Every point line and every point-valued `[data]` entry (`z=`)
is mapped; the point order and all other lines stay.  The mapped file must
give the exit code, the sequence of CHECK names and statuses, and the VERDICT
pinned for the original in tests/golden/<name>.out.
"""

from __future__ import annotations

import random
from fractions import Fraction as F
from pathlib import Path

import pytest

from scavenger import cli
from scavenger.qcore import content_lines, format_point, parse_point, point

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
CORPUS = sorted(p.name for p in (ROOT / "data").iterdir())
EXIT_OF = {"PASS": 0, "FAIL": 1, "PASS-WITH-WARNINGS": 2}


def _shift(rng: random.Random):
    return [F(rng.randint(-50, 50), rng.randint(1, 7)) for _ in range(3)]


def signed_permutation(rng: random.Random):
    perm = rng.sample(range(3), 3)
    signs = [rng.choice((1, -1)) for _ in range(3)]
    shift = _shift(rng)

    def apply(p):
        c = p.coords()
        return point(*(signs[i] * c[perm[i]] + shift[i] for i in range(3)))

    return apply


def rotation(rng: random.Random):
    """The rotation of the quaternion w + xi + yj + zk (Euler–Rodrigues),
    exact because every entry is a rational over w² + x² + y² + z²."""
    w, x, y, z = 0, 0, 0, 0
    while (x, y, z) == (0, 0, 0):
        w, x, y, z = (rng.randint(-4, 4) for _ in range(4))
    n = w * w + x * x + y * y + z * z
    m = [
        [w * w + x * x - y * y - z * z, 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), w * w - x * x + y * y - z * z, 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), w * w - x * x - y * y + z * z],
    ]
    m = [[F(v, n) for v in row] for row in m]
    for i in range(3):
        for j in range(3):
            assert sum(m[i][k] * m[j][k] for k in range(3)) == (i == j)
    shift = _shift(rng)

    def apply(p):
        c = p.coords()
        return point(*(sum(m[i][k] * c[k] for k in range(3)) + shift[i] for i in range(3)))

    return apply


def transform(text: str, f) -> str:
    """`text` (a vertex file or a certificate) with `f` applied to its points."""
    out: list[str] = []
    section = None
    for _, line in content_lines(text):
        if not out:
            section = "[vertices]" if line.startswith("t=") else None
            out.append(line)
        elif line in ("[vertices]", "[edges]", "[data]"):
            section = line
            out.append(line)
        elif section == "[vertices]":
            out.append(format_point(f(parse_point(line))))
        elif section == "[data]" and len(line.partition("=")[2].split()) == 3:
            key, _, value = line.partition("=")
            out.append(f"{key}={format_point(f(parse_point(value)))}")
        else:
            out.append(line)
    return "\n".join(out) + "\n"


def outline(text: str) -> list[tuple[str, ...]]:
    """(name, status) of each CHECK line, then the VERDICT."""
    shape = []
    for line in text.splitlines():
        words = line.split()
        if words[0] == "CHECK":
            shape.append(tuple(words[1:3]))
        elif words[0] == "VERDICT":
            shape.append(tuple(words))
    return shape


def test_rotation_preserves_squared_distances():
    f = rotation(random.Random(7))
    p, q = point(1, F(2, 3), -5), point(F(-1, 2), 4, 0)
    assert (f(p) - f(q)).norm_sq() == (p - q).norm_sq()


@pytest.mark.parametrize("make", [signed_permutation, rotation])
@pytest.mark.parametrize("name", CORPUS)
def test_verdict_is_invariant_under_isometry(capsys, tmp_path, name, make):
    golden = (GOLDEN / f"{name}.out").read_text(encoding="utf-8")
    f = make(random.Random(f"{name}:{make.__name__}"))
    mapped = tmp_path / name
    mapped.write_text(transform((ROOT / "data" / name).read_text(encoding="utf-8"), f))
    code = cli.dispatch(["verify", str(mapped)])
    out = capsys.readouterr().out
    assert mapped.read_text() != (ROOT / "data" / name).read_text()
    assert outline(out) == outline(golden)
    assert code == EXIT_OF[outline(golden)[-1][1]]
