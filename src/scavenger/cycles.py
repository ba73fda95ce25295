"""Rational vectors of fixed squared norm, 5-cycle search, and the
feasibility scan for symmetric-cycle base distances.

All searches are exact: vector pools hold integer triples over one common
denominator, meet-in-the-middle keys are integer triples, and every result is
re-validated before it is returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations, product
from math import gcd, isqrt, lcm

from .geom import (
    Plane,
    bisector_plane,
    circle_param,
    equidistant_circle,
    embed_isosceles,
    rational_point_on_circle,
    reflect_point,
)
from .numtheory import eq_pair_feasible, in_T
from .qcore import QPoint3, Rational, _frac, dist_sq, midpoint, point


@dataclass(frozen=True)
class VectorPool:
    """All rational vectors of squared norm t with denominators from a fixed
    set and bounded numerator height, closed under signed permutation.  Each
    is an integer triple (x, y, z) standing for (x, y, z)/scale, with scale
    the lcm of the admissible denominators; they are ordered by the largest
    reduced denominator of a component, then by value."""

    t: int
    scale: int
    vectors: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        target = self.t * self.scale * self.scale
        for x, y, z in self.vectors:
            if x * x + y * y + z * z != target:
                raise ValueError(f"pool vector ({x}, {y}, {z})/{self.scale} is off norm {self.t}")


def gen_vectors(t: int, denominators, height_bound: int) -> VectorPool:
    """Enumerate integer solutions a²+b²+c² = t·k² per admissible denominator
    k and emit (a/k, b/k, c/k) in every signed permutation, over the pool's
    scale and in the pool's order.

    Only triples whose content is coprime to k are kept, so each vector
    appears for exactly one denominator.  Even k are excluded when
    t ≡ 2 (mod 4): then t·k² ≡ 0 (mod 4) forces a, b, c all even.
    """
    t = int(t)
    if not in_T(t):
        raise ValueError(f"{t} is not an admissible squared distance")
    denoms = sorted({int(k) for k in denominators})
    if not denoms:
        raise ValueError("empty denominator set")
    if any(k <= 0 for k in denoms):
        raise ValueError(f"denominators must be positive, got {denoms}")
    if height_bound <= 0:
        raise ValueError(f"height bound must be positive, got {height_bound}")
    admissible = [k for k in denoms if t % 4 != 2 or k % 2 == 1]
    scale = lcm(*admissible)
    vectors: list[tuple[int, int, int]] = []
    for k in admissible:
        m = scale // k
        target = t * k * k
        a_max = min(height_bound, isqrt(target))
        for a in range(a_max, -1, -1):
            rest = target - a * a
            for b in range(min(a, isqrt(rest)), -1, -1):
                c_sq = rest - b * b
                c = isqrt(c_sq)
                if c * c != c_sq or c > b:
                    continue
                if gcd(gcd(gcd(a, b), c), k) != 1:
                    continue
                for arr in set(permutations((a * m, b * m, c * m))):
                    choices = [(x,) if x == 0 else (x, -x) for x in arr]
                    vectors.extend(product(*choices))
    vectors.sort(key=lambda w: (max(scale // gcd(x, scale) for x in w), w))
    return VectorPool(t, scale, tuple(vectors))


# --- 5-cycle search -------------------------------------------------------------------


def _collinear(p: QPoint3, q: QPoint3, r: QPoint3) -> bool:
    return (q - p).cross(r - q).is_zero()


def is_5cycle(points: list[QPoint3], t: Rational) -> bool:
    """Five distinct points, consecutive (cyclic) squared distances all t,
    no three cyclically consecutive points collinear."""
    t = _frac(t)
    if len(points) != 5 or len(set(points)) != 5:
        return False
    for i in range(5):
        if dist_sq(points[i], points[(i + 1) % 5]) != t:
            return False
    return all(
        not _collinear(points[(i - 1) % 5], points[i], points[(i + 1) % 5])
        for i in range(5)
    )


def _canon(w: tuple[int, int, int]) -> tuple[int, int, int]:
    """w's orbit representative under signed coordinate permutation."""
    return tuple(sorted((abs(w[0]), abs(w[1]), abs(w[2])), reverse=True))


def find_5cycle(t: int, pool: VectorPool) -> list[QPoint3] | None:
    """Five pool vectors summing to zero, realized as a closed walk from the
    origin; meet-in-the-middle over the pool's integer triples.

    The pool must be closed under signed coordinate permutation (checked on
    three generators), so the first step w1 ranges only over canonical
    vectors, and the sums of two distinct pool vectors are closed too: a probe
    is one exactly when its canonical form is that of some c + w, c canonical
    and w ≠ c, a table of |canonical|·n sums in place of n²/2.  Each
    (w1,w2,w3) triple sum probes it for its negation, and a hit is read back
    as the pairs (i, j), i < j, with w_j = probe − w_i, in ascending i, each
    tried as (i, j) and (j, i).
    """
    if pool.t != t:
        raise ValueError(f"pool was built for t={pool.t}, not {t}")
    scale, ints = pool.scale, pool.vectors
    n = len(ints)
    index_of = {w: i for i, w in enumerate(ints)}
    for x, y, z in ints:
        if (-x, y, z) not in index_of or (y, x, z) not in index_of or (y, z, x) not in index_of:
            raise ValueError(f"pool for t={t} is not closed under signed permutation")
    neg = {i: index_of[(-w[0], -w[1], -w[2])] for i, w in enumerate(ints)}
    canonical = sorted({_canon(w) for w in ints})
    pair_sums = {
        _canon((c[0] + w[0], c[1] + w[1], c[2] + w[2])) for c in canonical for w in ints if w != c
    }

    def realize(steps: tuple[int, ...]) -> list[QPoint3] | None:
        walk = [point(0, 0, 0)]
        for s in steps[:-1]:
            w = ints[s]
            prev = walk[-1]
            walk.append(
                point(
                    prev.x + Fraction(w[0], scale),
                    prev.y + Fraction(w[1], scale),
                    prev.z + Fraction(w[2], scale),
                )
            )
        return walk if is_5cycle(walk, t) else None

    for w1 in canonical:
        i1 = index_of[w1]
        for i2 in range(n):
            if i2 == neg[i1]:
                continue
            w2 = ints[i2]
            s12 = (w1[0] + w2[0], w1[1] + w2[1], w1[2] + w2[2])
            for i3 in range(n):
                if i3 == neg[i2]:
                    continue
                w3 = ints[i3]
                probe = (-s12[0] - w3[0], -s12[1] - w3[1], -s12[2] - w3[2])
                if _canon(probe) not in pair_sums:
                    continue
                for i, w in enumerate(ints):
                    j = index_of.get((probe[0] - w[0], probe[1] - w[1], probe[2] - w[2]))
                    if j is None or j <= i:
                        continue
                    for i4, i5 in ((i, j), (j, i)):
                        if i4 == neg[i3] or i5 == neg[i1]:
                            continue
                        walk = realize((i1, i2, i3, i4, i5))
                        if walk is not None:
                            return walk
    return None


# --- symmetric 5-cycles ---------------------------------------------------------------


@dataclass(frozen=True)
class SymCycle:
    """A 5-cycle x0..x4 at squared edge length t that is mirror-symmetric
    across the bisector plane of (x0, x4): x2 and midpoint(x1, x3) both lie
    on the plane.  `base` is the solved rational point of the circle about
    (x0, x2) at √t that x1 was charted from."""

    x0: QPoint3
    x1: QPoint3
    x2: QPoint3
    x3: QPoint3
    x4: QPoint3
    t: Rational
    plane: Plane
    base: QPoint3

    def __post_init__(self):
        pts = self.points()
        if len(set(pts)) != 5:
            raise ValueError("symmetric 5-cycle requires five distinct points")
        for i in range(5):
            d = dist_sq(pts[i], pts[(i + 1) % 5])
            if d != self.t:
                raise ValueError(
                    f"edge ({i},{(i + 1) % 5}) has squared length {d}, expected {self.t}"
                )
        if self.plane != bisector_plane(self.x0, self.x4):
            raise ValueError("plane is not the bisector plane of (x0, x4)")
        if not self.plane.contains(self.x2):
            raise ValueError("x2 is off the mirror plane")
        if not self.plane.contains(midpoint(self.x1, self.x3)):
            raise ValueError("midpoint of (x1, x3) is off the mirror plane")
        if dist_sq(self.base, self.x0) != self.t or dist_sq(self.base, self.x2) != self.t:
            raise ValueError("base is off the circle about (x0, x2)")

    def points(self) -> tuple[QPoint3, ...]:
        return (self.x0, self.x1, self.x2, self.x3, self.x4)

    @property
    def base_dist_sq(self) -> Rational:
        """Squared distance from x2 to each of x0, x4."""
        return dist_sq(self.x0, self.x2)


D_DENOMINATOR_BOUND = 12  # largest denominator of a candidate d


def _d_candidates(t: int, d_bound: int | None):
    """Candidate values of d in scan order, as reduced pairs (p, q): for each
    denominator q = 1..D_DENOMINATOR_BOUND the p with t/4 < p/q < 4t (and
    p/q <= d_bound unless it is None), by ascending numerator.  No d outside
    t/4 < d < 4t embeds both triangles: each needs a positive apex height."""
    for q in range(1, D_DENOMINATOR_BOUND + 1):
        top = 4 * t * q - 1 if d_bound is None else min(d_bound * q, 4 * t * q - 1)
        for p in range(t * q // 4 + 1, top + 1):
            if gcd(p, q) == 1:
                yield p, q


def find_symmetric_5cycle(
    t: int,
    *,
    d: Rational | None = None,
    d_bound: int | None = None,
) -> SymCycle | None:
    """Construct a symmetric 5-cycle: take the leg length d from `scan_d`
    (d_bound None scans the whole window) or check a forced one, embed the
    isosceles triangle (x0, x4, x2) with |x0-x4|² = t and legs² = d, then take
    x1 rational on the circle equidistant from x0 and x2 at √t, off the mirror
    plane, and x3 as its mirror image."""
    t = int(t)
    if not in_T(t):
        raise ValueError(f"{t} is not an admissible squared distance")
    if d is None:
        d = scan_d(t, d_bound)
    elif not eq_pair_feasible(t, _frac(d).as_integer_ratio()):
        return None
    return None if d is None else _symmetric_cycle_for(t, d)


def _symmetric_cycle_for(t: int, d: Rational) -> SymCycle:
    x0, x4, x2 = embed_isosceles(t, d)
    mirror = bisector_plane(x0, x4)
    circle = equidistant_circle(x0, x2, t)
    base = rational_point_on_circle(circle)
    chart = circle_param(circle, base)
    # distinct parameters chart distinct points and at most three are refused:
    # x4, and where the circle meets the mirror (its plane bisects (x0, x2),
    # the mirror (x0, x4), and x2 ≠ x4), so one of four parameters serves
    for s in (0, 1, -1, 2):
        x1 = chart.point_at(Fraction(s))
        if mirror.contains(x1) or x1 == x4:
            continue
        # x1 off the mirror and not x4 makes the five points distinct
        return SymCycle(x0, x1, x2, reflect_point(x1, mirror), x4, Fraction(t), mirror, base)
    raise AssertionError(f"all four chart parameters refused at t={t}, d={d}")


# --- feasibility scan over d ------------------------------------------------------------


def parallel_first(candidates, predicate):
    """`(candidate, value)` for the first candidate (in order) whose
    `value = predicate(candidate)` is truthy, or None.

    One sequential pass.  The name outlives the process pool it once drove:
    the benchmark traces `scavenger.cycles:parallel_first` and counts
    predicate calls through its second argument.
    """
    for x in candidates:
        value = predicate(x)
        if value:
            return x, value
    return None


def scan_d(t: int, d_bound: int | None = None) -> Rational | None:
    """The first d = p/q in `_d_candidates` order with eq_pair_feasible(t, (p, q)):
    the smallest feasible integer d ≤ d_bound when there is one, else the
    first feasible rational by ascending denominator (then ascending
    numerator), or None.  d_bound None scans the whole window t/4 < d < 4t."""
    t = int(t)
    if not in_T(t):
        raise ValueError(f"{t} is not an admissible squared distance")
    if d_bound is not None and d_bound < 1:
        raise ValueError(f"d bound must be at least 1, got {d_bound}")
    hit = parallel_first(_d_candidates(t, d_bound), lambda pq: eq_pair_feasible(t, pq))
    return None if hit is None else Fraction(*hit[0])
