"""Vector pools, 5-cycle searches, and the d-feasibility scan."""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations, product
from math import gcd, isqrt, lcm
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scavenger import cycles
from scavenger.cycles import (
    SymCycle,
    VectorPool,
    _collinear,
    find_5cycle,
    find_symmetric_5cycle,
    gen_vectors,
    is_5cycle,
    parallel_first,
    scan_d,
)
from scavenger.geom import bisector_plane
from scavenger.numtheory import eq_pair_feasible, in_T
from scavenger.qcore import dist_sq, format_point, midpoint, parse_point, point
from symcycles import solved_base
from test_numtheory import _fraction_eq_pair

SEED_22 = [
    parse_point(s)
    for s in ["0 0 0", "14/3 1/3 1/3", "19/3 -1/3 14/3", "6 0 0", "3 3 2"]
]
CHART_30 = [
    parse_point(s)
    for s in ["0 0 0", "-1 -2 5", "1 3 4", "16/3 8/15 94/15", "5 2 1"]
]


# --- vector pools ---------------------------------------------------------------------


def test_pool_anchors_t22():
    pool = gen_vectors(22, {1, 3}, 60)
    assert pool.scale == 3
    assert (9, 9, 6) in pool.vectors  # (3, 3, 2)
    assert (14, 1, 1) in pool.vectors  # (14/3, 1/3, 1/3)
    assert all(x * x + y * y + z * z == 22 * 9 for x, y, z in pool.vectors)


def test_pool_parity_exclusion():
    assert gen_vectors(22, {2}, 60).vectors == ()
    mixed = gen_vectors(22, {1, 2}, 60)
    only_odd = gen_vectors(22, {1}, 60)
    assert mixed.vectors == only_odd.vectors


def test_pool_closed_under_signed_permutation():
    pool = gen_vectors(22, {1, 3}, 60)
    triples = set(pool.vectors)
    for w in triples:
        for arr in permutations(w):
            for signs in product(*[(1,) if x == 0 else (1, -1) for x in arr]):
                assert tuple(s * x for s, x in zip(signs, arr)) in triples


def test_pool_heights_and_denominators():
    pool = gen_vectors(22, {1, 3}, 4)
    assert pool.scale == 3 and pool.vectors
    for w in pool.vectors:
        assert all(abs(x) <= 4 * pool.scale for x in w)  # numerators up to 4 at denominator 1
    # height 4 excludes every denominator-3 vector (needs numerators up to 14)
    assert all(x % pool.scale == 0 for w in pool.vectors for x in w)


def test_pool_deterministic_and_duplicate_free():
    a = gen_vectors(34, {1, 3}, 30)
    b = gen_vectors(34, {1, 3}, 30)
    assert a.vectors == b.vectors
    assert len(set(a.vectors)) == len(a.vectors)


def test_pool_rejections():
    with pytest.raises(ValueError):
        gen_vectors(22, set(), 60)
    with pytest.raises(ValueError):
        gen_vectors(22, {0, 1}, 60)
    with pytest.raises(ValueError):
        gen_vectors(22, {1}, 0)
    with pytest.raises(ValueError):
        gen_vectors(21, {1}, 60)  # odd, not an open case
    with pytest.raises(ValueError):
        VectorPool(22, 1, ((1, 0, 0),))
    with pytest.raises(ValueError):
        VectorPool(22, 3, ((3, 3, 2),))  # norm 22 only at scale 1
    assert VectorPool(22, 3, ((9, 9, 6),)).vectors == ((9, 9, 6),)


@settings(max_examples=10, deadline=None)
@given(st.sampled_from([10, 22, 30, 34, 46, 58, 66, 70]))
def test_pool_vectors_reduced_to_listed_denominators(t):
    pool = gen_vectors(t, {1, 3}, 45)
    assert pool.scale == 3
    assert {pool.scale // gcd(*w, pool.scale) for w in pool.vectors} == {1, 3}


@pytest.mark.parametrize("denominators", [{1, 3}, {1, 3, 9}, {1, 15}, {1, 3, 5, 15}])
@pytest.mark.parametrize("t", [22, 30])
def test_pool_matches_brute_force_enumeration(t, denominators):
    """Every rational vector of squared norm t whose reduced denominator is
    listed, with numerators over it of height at most 60, sorted by the
    largest reduced denominator of a component and then by value."""
    height = 60
    expected = set()
    for k in denominators:
        for a in range(-height, height + 1):
            for b in range(-height, height + 1):
                c_sq = t * k * k - a * a - b * b
                c = isqrt(c_sq) if c_sq >= 0 else -1
                if c * c != c_sq or c > height:
                    continue
                for cc in {c, -c}:
                    v = (Fraction(a, k), Fraction(b, k), Fraction(cc, k))
                    if lcm(*(c.denominator for c in v)) == k:
                        expected.add(v)
    expected = sorted(expected, key=lambda v: (max(c.denominator for c in v), v))
    pool = gen_vectors(t, denominators, height)
    assert [tuple(Fraction(x, pool.scale) for x in w) for w in pool.vectors] == expected


FIND_CYCLE = Path(__file__).resolve().parent / "golden" / "find_cycle.txt"


def test_first_cycles_match_golden():
    """The first 5-cycle at height 60 for every admissible t < 500 over
    denominators {1, 3}, and for (426, {1, 3, 9}) and (22, {1, 3, 5, 7})."""
    lines = FIND_CYCLE.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 63
    for line in lines:
        head, walk = line.split(": ", 1)
        t_field, denominators_field = head.split()
        t = int(t_field.removeprefix("t="))
        denominators = {int(k) for k in denominators_field.removeprefix("denominators=").split(",")}
        cycle = find_5cycle(t, gen_vectors(t, denominators, 60))
        assert cycle is not None, line
        assert "  ".join(format_point(p) for p in cycle) == walk, line


# --- 5-cycle search -------------------------------------------------------------------


def test_collinearity_predicate():
    assert _collinear(point(0, 0, 0), point(1, 1, 0), point(2, 2, 0))
    assert not _collinear(point(0, 0, 0), point(1, 1, 0), point(2, 2, 1))


def test_cycle_validator():
    assert is_5cycle(SEED_22, 22)
    assert is_5cycle(CHART_30, 30)
    assert not is_5cycle(SEED_22, 23)
    assert not is_5cycle(SEED_22[:4], 22)
    assert not is_5cycle(SEED_22[:4] + [SEED_22[0]], 22)


def test_find_5cycle_t22():
    pool = gen_vectors(22, {1, 3}, 60)
    walk = find_5cycle(22, pool)
    assert walk is not None
    assert walk[0] == point(0, 0, 0)
    assert is_5cycle(walk, 22)


def test_find_5cycle_exhausted_pool():
    pool = gen_vectors(22, {1}, 2)  # no integer triple of height <= 2 reaches 22
    assert pool.vectors == ()
    assert find_5cycle(22, pool) is None


def test_find_5cycle_exhausted_nonempty_pool():
    pool = gen_vectors(58, {3}, 60)
    assert len(pool.vectors) == 96
    assert find_5cycle(58, pool) is None


def test_find_5cycle_rejects_a_pool_not_closed_under_signed_permutation():
    pool = VectorPool(22, 3, ((9, 9, 6),))
    with pytest.raises(ValueError, match="t=22"):
        find_5cycle(22, pool)


def _find_5cycle_full_table(t, pool):
    """The same search over the table of all n(n-1)/2 pair sums: the oracle
    for the table kept up to signed permutation."""
    scale, ints = pool.scale, pool.vectors
    n = len(ints)
    pair_sums = {
        (wi[0] + wj[0], wi[1] + wj[1], wi[2] + wj[2])
        for i, wi in enumerate(ints)
        for wj in ints[i + 1 :]
    }
    canonical = sorted({tuple(sorted(map(abs, w), reverse=True)) for w in ints})
    index_of = {w: i for i, w in enumerate(ints)}
    neg = {i: index_of[(-w[0], -w[1], -w[2])] for i, w in enumerate(ints)}

    def realize(steps):
        walk = [point(0, 0, 0)]
        for s in steps[:-1]:
            prev = walk[-1]
            walk.append(point(*(c + Fraction(x, scale) for c, x in zip(prev.coords(), ints[s]))))
        return walk if is_5cycle(walk, t) else None

    for w1 in canonical:
        i1 = index_of[w1]
        for i2 in range(n):
            if i2 == neg[i1]:
                continue
            s12 = tuple(a + b for a, b in zip(w1, ints[i2]))
            for i3 in range(n):
                if i3 == neg[i2]:
                    continue
                probe = tuple(-a - b for a, b in zip(s12, ints[i3]))
                if probe not in pair_sums:
                    continue
                for i, w in enumerate(ints):
                    j = index_of.get(tuple(a - b for a, b in zip(probe, w)))
                    if j is None or j <= i:
                        continue
                    for i4, i5 in ((i, j), (j, i)):
                        if i4 == neg[i3] or i5 == neg[i1]:
                            continue
                        walk = realize((i1, i2, i3, i4, i5))
                        if walk is not None:
                            return walk
    return None


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from([t for t in range(1, 200) if in_T(t)]),
    st.sampled_from([{1}, {3}, {1, 3}, {1, 5}, {1, 3, 9}]),
    st.integers(4, 25),
)
def test_find_5cycle_matches_the_full_pair_sum_table(t, denominators, height):
    pool = gen_vectors(t, denominators, height)
    assert find_5cycle(t, pool) == _find_5cycle_full_table(t, pool)


def test_find_5cycle_pool_mismatch():
    pool = gen_vectors(22, {1}, 60)
    with pytest.raises(ValueError):
        find_5cycle(30, pool)


@settings(max_examples=6, deadline=None)
@given(st.sampled_from([10, 30, 34, 46, 66, 70]))
def test_find_5cycle_small_open_cases(t):
    walk = find_5cycle(t, gen_vectors(t, {1, 3}, 60))
    assert walk is not None
    assert is_5cycle(walk, t)


# --- symmetric 5-cycles ---------------------------------------------------------------


def test_chart_30_is_a_symmetric_cycle():
    x0, x1, x2, x3, x4 = CHART_30
    plane = bisector_plane(x0, x4)
    cycle = SymCycle(x0, x1, x2, x3, x4, Fraction(30), plane, solved_base(x0, x2, 30))
    assert cycle.base_dist_sq == 26
    assert dist_sq(x2, x4) == 26
    m = midpoint(x1, x3)
    assert m == point(Fraction(13, 6), Fraction(-11, 15), Fraction(169, 30))
    assert dist_sq(m, x0) == dist_sq(m, x4) == Fraction(33270, 900)


def test_symcycle_rejects_broken_invariants():
    x0, x1, x2, x3, x4 = CHART_30
    plane = bisector_plane(x0, x4)
    base = solved_base(x0, x2, 30)
    with pytest.raises(ValueError):
        SymCycle(x0, x1, x2, x3, x4, Fraction(22), plane, base)
    with pytest.raises(ValueError):
        SymCycle(x0, x1, x2, x3, x4, Fraction(30), bisector_plane(x0, x2), base)
    with pytest.raises(ValueError):
        SymCycle(x0, x1, x4, x3, x4, Fraction(30), plane, base)
    with pytest.raises(ValueError, match="base is off the circle"):
        SymCycle(x0, x1, x2, x3, x4, Fraction(30), plane, x0)


def test_find_symmetric_5cycle_t30():
    cycle = find_symmetric_5cycle(30)
    assert cycle is not None
    assert cycle.base_dist_sq == 26  # minimal feasible leg, matching the chart
    assert is_5cycle(list(cycle.points()), 30)
    assert cycle.plane.contains(cycle.x2)
    assert cycle.plane.contains(midpoint(cycle.x1, cycle.x3))
    assert cycle.base == solved_base(cycle.x0, cycle.x2, 30)


@settings(max_examples=5, deadline=None)
@given(st.sampled_from([10, 22, 34, 46, 66]))
def test_find_symmetric_5cycle_small_open_cases(t):
    cycle = find_symmetric_5cycle(t)
    assert cycle is not None
    assert cycle.t == t
    # mirror symmetry: x3 and x1 are reflections, so legs about x2 agree
    assert dist_sq(cycle.x0, cycle.x2) == dist_sq(cycle.x4, cycle.x2)


def test_find_symmetric_5cycle_fixed_d():
    cycle = find_symmetric_5cycle(30, d=26)
    assert cycle is not None
    assert cycle.base_dist_sq == 26


def test_find_symmetric_5cycle_rejects_bad_t():
    with pytest.raises(ValueError):
        find_symmetric_5cycle(12)


@pytest.mark.parametrize("d", [0, -26, Fraction(-1, 3)])
def test_find_symmetric_5cycle_rejects_non_positive_d(d):
    # the forced d is decided by isosceles_embeddable, which refuses it
    with pytest.raises(ValueError, match="positive"):
        find_symmetric_5cycle(30, d=d)


# --- the d scan -----------------------------------------------------------------------


def test_scan_d_t30_minimal_integer():
    d = scan_d(30, 119)
    assert d == 26
    for smaller in range(1, 26):
        assert not eq_pair_feasible(30, (smaller, 1))


def test_scan_d_t10():
    d = scan_d(10, 100)
    assert d is not None
    assert eq_pair_feasible(10, d.as_integer_ratio())


def test_scan_d_rational_fallback():
    # no integer d works here; the scan falls through to denominator 9
    d = scan_d(58, 231)
    assert d == Fraction(314, 9)
    assert eq_pair_feasible(58, (314, 9))
    for smaller in range(1, 232):
        assert not eq_pair_feasible(58, (smaller, 1))


def test_scan_d_decides_each_candidate_once_through_eq_pair_feasible(monkeypatch):
    candidates, decided = [], []
    monkeypatch.setattr(
        cycles,
        "parallel_first",
        lambda xs, predicate: parallel_first(xs, lambda x: candidates.append(x) or predicate(x)),
    )
    monkeypatch.setattr(
        cycles,
        "eq_pair_feasible",
        lambda t, d: decided.append((t, d)) or eq_pair_feasible(t, d),
    )
    assert scan_d(58) == Fraction(314, 9)
    assert decided == [(58, d) for d in candidates]
    assert decided[-1] == (58, (314, 9))


def test_scan_d_none_below_window():
    # every admissible d exceeds t/4; a bound below that must fail cleanly
    assert scan_d(10, 2) is None


def _scan_d_before_window(t, d_bound):
    """The scan as it was before the window: every integer 1..d_bound, then
    for q = 2..12 the reduced p/q with t/4 < p/q < 4t and p/q <= d_bound by
    ascending numerator, each decided by the Fraction-form oracle."""
    integers = (Fraction(d) for d in range(1, d_bound + 1))
    rationals = (
        Fraction(p, q)
        for q in range(2, 13)
        for p in range(t * q // 4 + 1, min(d_bound * q, 4 * t * q - 1) + 1)
        if gcd(p, q) == 1
    )
    for d in (*integers, *rationals):
        if _fraction_eq_pair(t, d):
            return d
    return None


OPEN_BELOW_200 = [t for t in range(200) if in_T(t)]


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(OPEN_BELOW_200).flatmap(lambda t: st.tuples(st.just(t), st.integers(1, 6 * t))))
@example((58, 348))  # the rational fallback d = 314/9, with a bound past 4t
@example((58, 34))  # exhausted
def test_scan_d_matches_scan_before_window(case):
    t, d_bound = case
    assert scan_d(t, d_bound) == _scan_d_before_window(t, d_bound)


def test_scan_d_rejections():
    with pytest.raises(ValueError):
        scan_d(12, 100)
    with pytest.raises(ValueError):
        scan_d(10, 0)


def test_parallel_first_matches_sequential():
    items = list(range(200))
    assert parallel_first(items, _over_150) == (151, 1)
    assert parallel_first(items, _never) is None


def _over_150(x):
    """The predicate's own truthy value, not just its truth, is handed back."""
    return x - 150 if x > 150 else 0


def _never(x):
    return False
