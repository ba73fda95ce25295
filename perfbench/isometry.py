"""Seeded exact isometries of Q^3, applied to vertex-file and certificate text.

An isometry here is a signed axis permutation followed by an integer
translation.  It maps every point line (and every point-valued ``[data]``
entry such as ``z=``) and leaves everything else alone, so the point order,
the edge list and the distance claims are unchanged.  Distances, and with
them every verdict and the amount of verification work, stay the same while
the file's bytes change.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction


MAX_SHIFT = 50  # translations are drawn from [-MAX_SHIFT, MAX_SHIFT]^3


@dataclass(frozen=True)
class Isometry:
    perm: tuple[int, int, int]
    signs: tuple[int, int, int]
    shift: tuple[int, int, int]

    @classmethod
    def random(cls, rng: random.Random) -> Isometry:
        perm = tuple(rng.sample(range(3), 3))
        signs = tuple(rng.choice((1, -1)) for _ in range(3))
        shift = tuple(rng.randint(-MAX_SHIFT, MAX_SHIFT) for _ in range(3))
        return cls(perm, signs, shift)

    def apply(self, coords) -> tuple[Fraction, Fraction, Fraction]:
        return tuple(self.signs[i] * coords[self.perm[i]] + self.shift[i] for i in range(3))


def _map_point(text: str, iso: Isometry) -> str:
    coords = [Fraction(tok) for tok in text.split()]
    if len(coords) != 3:
        raise ValueError(f"expected three coordinates, got {text!r}")
    return " ".join(str(c) for c in iso.apply(coords))


def transform_text(text: str, iso: Isometry) -> str:
    """The vertex file or certificate `text` with `iso` applied to its points.

    Comments and blank lines are dropped; every other line keeps its place.
    """
    out: list[str] = []
    section = None
    is_certificate = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if is_certificate is None:
            is_certificate = line.startswith("certificate ")
            section = None if is_certificate else "[vertices]"
            out.append(line)
            continue
        if line in ("[vertices]", "[edges]", "[data]"):
            section = line
            out.append(line)
        elif section == "[vertices]":
            out.append(_map_point(line, iso))
        elif section == "[data]":
            key, _, value = line.partition("=")
            out.append(f"{key}={_map_point(value, iso)}" if len(value.split()) == 3 else line)
        else:
            out.append(line)
    return "\n".join(out) + "\n"
