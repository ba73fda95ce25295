"""Tests for exact scalar/point/vector arithmetic and integer kernels.

Factorization and square-free parts are checked against naive trial-division
oracles; parsing is checked by roundtrip and by rejection tables.
"""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from scavenger.qcore import (
    QPoint3,
    QVec3,
    dist_sq,
    factorize,
    format_point,
    format_rational,
    is_square,
    midpoint,
    parse_point,
    parse_rational,
    point,
    rational_square_root,
    squarefree_part,
    vec,
)

rationals = st.fractions(min_value=-1000, max_value=1000, max_denominator=200)


# --- parsing -------------------------------------------------------------------


@pytest.mark.parametrize(
    "text,value",
    [
        ("0", Fraction(0)),
        ("-4", Fraction(-4)),
        ("7/3", Fraction(7, 3)),
        ("-10/4", Fraction(-5, 2)),
        ("539/30", Fraction(539, 30)),
    ],
)
def test_parse_rational_accepts(text, value):
    assert parse_rational(text) == value


@pytest.mark.parametrize("text", ["", "1.5", "1/0", "1/-2", "+3", "3 /2", "a", "1//2", "0x3"])
def test_parse_rational_rejects(text):
    with pytest.raises(ValueError):
        parse_rational(text)


@settings(max_examples=200, deadline=None)
@given(rationals)
def test_rational_roundtrip(q):
    assert parse_rational(format_rational(q)) == q


def test_parse_point_roundtrip():
    p = point(Fraction(-159, 227), Fraction(-106, 227), Fraction(1113, 227))
    assert parse_point(format_point(p)) == p
    with pytest.raises(ValueError):
        parse_point("1 2")
    with pytest.raises(ValueError):
        parse_point("1 2 3 4")


# --- vector algebra ------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(*(rationals for _ in range(6)))
def test_cross_product_is_orthogonal(a, b, c, d, e, f):
    u, v = vec(a, b, c), vec(d, e, f)
    w = u.cross(v)
    assert w.dot(u) == 0
    assert w.dot(v) == 0


@settings(max_examples=100, deadline=None)
@given(*(rationals for _ in range(6)))
def test_point_vector_laws(a, b, c, d, e, f):
    p, q = point(a, b, c), point(d, e, f)
    assert p + (q - p) == q
    assert dist_sq(p, q) == dist_sq(q, p)
    m = midpoint(p, q)
    assert dist_sq(p, m) == dist_sq(q, m)
    assert (q - p).norm_sq() == dist_sq(p, q)


def test_norm_sq_zero_only_at_origin():
    assert vec(0, 0, 0).norm_sq() == 0
    assert vec(0, 0, 0).is_zero()
    assert not vec(Fraction(1, 7), 0, 0).is_zero()


def test_exact_norm_example():
    assert vec(Fraction(19, 3), Fraction(38, 15), Fraction(19, 15)).norm_sq() == Fraction(722, 15)


def test_vector_scale_and_dataclass_equality():
    v = vec(1, -2, 3).scale(Fraction(1, 3))
    assert v == QVec3(Fraction(1, 3), Fraction(-2, 3), 1)
    p = point(0, 0, 0) + v
    assert isinstance(p, QPoint3)


# --- integer kernels -----------------------------------------------------------


def factorize_brute(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=1, max_value=10**6))
def test_factorize_matches_trial_division(n):
    assert factorize(n) == factorize_brute(n)


def test_factorize_large_semiprime():
    p, q = 1_000_003, 1_000_033
    assert factorize(p * q) == {p: 1, q: 1}


@pytest.mark.parametrize(
    "n",
    [
        100_003 * 100_019,  # both primes above the trial-division bound
        100_003**2,
        9_999_999_967,  # a prime below 10^10: no factor up to its root
        7 * 100_003 * 100_019,
        100_003 * 100_019 * 100_043,
    ],
)
def test_factorize_at_the_trial_division_bound(n):
    assert factorize(n) == factorize_brute(n)


def test_factorize_rejects_nonpositive():
    with pytest.raises(ValueError):
        factorize(0)


def squarefree_brute(n: int) -> int:
    best = 1
    for k in range(1, math.isqrt(n) + 1):
        if n % (k * k) == 0:
            best = k
    return n // (best * best)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=20000))
def test_squarefree_part_matches_brute(n):
    assert squarefree_part(n) == squarefree_brute(n)


@pytest.mark.parametrize("n,expected", [(40, 10), (16170, 330), (1, 1), (30, 30), (49, 1)])
def test_squarefree_part_values(n, expected):
    assert squarefree_part(n) == expected


# --- rational square roots and distance reduction --------------------------------


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=10**20), st.sampled_from([-1, 0, 1]))
def test_is_square_near_squares(k, delta):
    n = max(k * k + delta, 0)
    assert is_square(n) == (math.isqrt(n) ** 2 == n)


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=10**40))
def test_is_square_matches_isqrt(n):
    assert is_square(n) == (math.isqrt(n) ** 2 == n)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=0, max_value=10**20),
    st.integers(min_value=0, max_value=40),
    st.sampled_from([1, 2]),
    st.integers(min_value=0, max_value=10**30),
)
def test_is_square_on_powers_of_two(k, j, twice, n):
    # k²·4^j is a square and 2·k²·4^j is not (k > 0): the power of two is
    # decided before the residue screen, and 0 stays a square
    for m in (twice * k * k * 4**j, n):
        assert is_square(m) == (math.isqrt(m) ** 2 == m)


def test_is_square_edge_cases():
    assert is_square(0) and is_square(1) and is_square(4**30) and is_square(9 * 4**7)
    assert not is_square(2) and not is_square(2 * 4**30) and not is_square(8) and not is_square(4**30 * 3)


@settings(max_examples=200, deadline=None)
@given(st.fractions(min_value=0, max_value=500, max_denominator=100))
def test_square_root_of_square(q):
    assert rational_square_root(q * q) == abs(q)


@pytest.mark.parametrize("q", [Fraction(2), Fraction(3, 5), Fraction(1081, 10)])
def test_square_root_none_for_nonsquares(q):
    assert rational_square_root(q) is None


def test_square_root_rejects_negative():
    with pytest.raises(ValueError):
        rational_square_root(Fraction(-4))
