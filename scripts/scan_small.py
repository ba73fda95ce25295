"""Sweep the admissible distances t < LIMIT and report the minimal feasible d.

For each t both triangles of the pair are built with exact rational vertices
and their squared side lengths checked before printing, so the scan is
re-certified by construction, not by its own decision.
Usage: python scripts/scan_small.py [LIMIT]   (default 200)
"""

from __future__ import annotations

import sys
from fractions import Fraction

from scavenger.cycles import scan_d
from scavenger.geom import embed_isosceles
from scavenger.numtheory import in_T
from scavenger.qcore import dist_sq


def main() -> int:
    limit = int(sys.argv[1]) if len(sys.argv) > 1 else 200
    for t in range(2, limit):
        if not in_T(t):
            continue
        d = scan_d(t)
        if d is None:
            print(f"t={t}: no feasible d in {t}/4 < d < {4 * t}")
            return 1
        for base, legs in ((Fraction(t), Fraction(d)), (Fraction(d), Fraction(t))):
            b1, b2, apex = embed_isosceles(base, legs)
            if (dist_sq(b1, b2), dist_sq(b1, apex), dist_sq(b2, apex)) != (base, legs, legs):
                print(f"t={t}: triangle ({base}, {legs}, {legs}) does not embed")
                return 1
        note = "" if Fraction(d).denominator == 1 else "  (non-integer)"
        print(f"t={t}: d={d}{note}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
