"""Oracle-backed tests for the Diophantine layer.

Brute-force oracles are deliberately independent of the implementations:
quadratic residues by exhaustive squaring, three-squares by full descending
scan, form solvability by bounded lattice search plus explicit plugged-in
solutions, chains by step-by-step exact recomputation.
"""

from __future__ import annotations

import math
import re
import time
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, given, settings, strategies as st

from scavenger import numtheory
from scavenger.cycles import _d_candidates
from scavenger.numtheory import (
    ChainCertificate,
    TernaryForm,
    UnsolvableFormError,
    antipodal_dist_sq,
    construct_chain,
    eq_pair_feasible,
    in_T,
    isosceles_embeddable,
    legendre_solution,
    legendre_solvable,
    normalize_form,
    phi_criteria,
    three_rational_squares,
    three_squares,
)
from scavenger.qcore import factorize, vec


# --- membership in the open-case distance set --------------------------------


def test_open_case_set_prefix():
    members = [t for t in range(1, 71) if in_T(t)]
    assert members == [10, 22, 30, 34, 46, 58, 66, 70]


@pytest.mark.parametrize(
    "t,expected",
    [
        (2, False),  # no odd prime factor 2 mod 3
        (6, False),  # 3 is 0 mod 3
        (14, False),  # 7 is 1 mod 3
        (20, False),  # not square-free
        (15, False),  # odd
        (30, True),
        (34, True),
        (0, False),
        (-10, False),
    ],
)
def test_open_case_membership(t, expected):
    assert in_T(t) is expected


def test_open_case_members_are_2_mod_4():
    for t in range(1, 200):
        if in_T(t):
            assert t % 4 == 2


# --- quadratic residues -------------------------------------------------------


def test_sqrt_mod_matches_exhaustive_squaring():
    """Every root r in [0, m) of r^2 = k, for each square-free m <= 300 and each
    unit k mod m (the empty list when k is no square)."""
    for m in range(1, 301):
        primes = factorize(m)
        if any(e > 1 for e in primes.values()):
            continue
        roots = {k: [] for k in range(m)}
        for r in range(m):
            roots[r * r % m].append(r)
        for k in range(m):
            if math.gcd(k, m) == 1:
                assert numtheory._sqrt_mod(k, primes) == roots[k], (k, m)
                assert numtheory._sqrt_mod(k - m, primes) == roots[k], (k - m, m)


# --- three squares ------------------------------------------------------------


def three_squares_brute(n: int) -> tuple[int, int, int] | None:
    best = None
    for a in range(math.isqrt(n), -1, -1):
        for b in range(a, -1, -1):
            c2 = n - a * a - b * b
            if c2 < 0:
                continue
            if c2 > b * b:
                break
            c = math.isqrt(c2)
            if c * c == c2 and math.gcd(math.gcd(a, b), c) == 1:
                triple = (a, b, c)
                if best is None or triple > best:
                    best = triple
    return best


def test_three_squares_matches_brute_force_prefix():
    for n in range(1, 2001):
        assert three_squares(n) == three_squares_brute(n), n


def test_three_squares_none_exactly_on_residues_0_4_7_mod_8():
    for n in range(1, 5001):
        assert (three_squares(n) is None) == (n % 8 in (0, 4, 7)), n


@pytest.mark.parametrize(
    "n,expected",
    [
        (1, (1, 0, 0)),
        (2, (1, 1, 0)),
        (3, (1, 1, 1)),
        (198, (14, 1, 1)),
        (16170, (127, 5, 4)),
    ],
)
def test_three_squares_canonical_values(n, expected):
    assert three_squares(n) == expected


def test_three_rational_squares_exactness():
    for q in (Fraction(722, 15), Fraction(2, 3), Fraction(30), Fraction(539, 30)):
        rep = three_rational_squares(q)
        assert rep is not None
        a, b, c = rep
        assert a >= b >= c >= 0
        assert a * a + b * b + c * c == q


def test_three_rational_squares_obstruction():
    assert three_rational_squares(Fraction(7)) is None
    assert three_rational_squares(Fraction(7, 9)) is None
    assert three_rational_squares(Fraction(1, 7)) is None  # 7 stays in the product


# --- form normalization and Legendre solvability ------------------------------


def test_normalize_form_strips_squares_and_shares():
    reduced = normalize_form(TernaryForm(9, -25, 4))[0]
    assert reduced == (1, -1, 1)
    reduced = normalize_form(TernaryForm(2, -4, 6))[0]
    a, b, c = reduced
    assert math.gcd(a, b) == math.gcd(a, c) == math.gcd(b, c) == 1


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=-40, max_value=40).filter(lambda x: x != 0),
    st.integers(min_value=-40, max_value=40).filter(lambda x: x != 0),
    st.integers(min_value=-40, max_value=40).filter(lambda x: x != 0),
)
def test_normalize_form_output_is_reduced(a, b, c):
    (x, y, z), _, primes = normalize_form(TernaryForm(a, b, c))
    for v in (x, y, z):
        assert v != 0
        assert all(e == 1 for e in factorize(abs(v)).values())
    assert math.gcd(x, y) == math.gcd(x, z) == math.gcd(y, z) == 1
    assert primes == tuple(tuple(factorize(abs(v))) for v in (x, y, z))


def _square_part(n: int) -> int:
    """Largest k with k^2 dividing |n|."""
    return math.prod(p ** (e // 2) for p, e in factorize(abs(n)).items())


def _normalize_form_refactoring_each_pass(form):
    """`normalize_form` as it was before it factorized only once: every pass
    strips the square part of all three coefficients again."""
    g = math.gcd(*form.coeffs())
    coeffs = [x // g for x in form.coeffs()]
    mult = [1, 1, 1]
    while True:
        for i in range(3):
            k = _square_part(coeffs[i])
            if k > 1:
                coeffs[i] //= k * k
                mult = [m if j == i else m * k for j, m in enumerate(mult)]
        for i, j in ((0, 1), (0, 2), (1, 2)):
            g = math.gcd(coeffs[i], coeffs[j])
            if g > 1:
                k = 3 - i - j
                coeffs[i] //= g
                coeffs[j] //= g
                coeffs[k] *= g
                mult[k] *= g
                break
        else:
            return tuple(coeffs), tuple(mult)


# products of shared small primes, so that squares and gcd moves both happen
_SMOOTH = st.builds(
    lambda sign, exps: sign * math.prod(p**e for p, e in zip((2, 3, 5, 7, 11), exps)),
    st.sampled_from((1, -1)),
    st.lists(st.integers(min_value=0, max_value=3), min_size=5, max_size=5),
)


@settings(max_examples=400, deadline=None)
@given(_SMOOTH, _SMOOTH, _SMOOTH)
def test_normalize_form_matches_refactoring_oracle(a, b, c):
    form = TernaryForm(a, b, c)
    assert normalize_form(form)[:2] == _normalize_form_refactoring_each_pass(form)


def brute_nontrivial_zero(form: TernaryForm, bound: int) -> tuple[int, int, int] | None:
    for x in range(bound + 1):
        for y in range(bound + 1):
            for z in range(bound + 1):
                if x == y == z == 0:
                    continue
                if form.value(x, y, z) == 0:
                    return (x, y, z)
    return None


@pytest.mark.parametrize(
    "coeffs,solvable",
    [
        ((1, 1, -2), True),
        ((1, 1, -1), True),
        ((1, 2, -3), True),
        ((2, 3, -5), True),
        ((3, 5, -2), True),
        ((2, 5, -7), True),
        ((1, 1, -3), False),
        ((1, 1, -7), False),
        ((1, 1, 1), False),
        ((-2, -3, -5), False),
    ],
)
def test_legendre_solvable_known_forms(coeffs, solvable):
    form = TernaryForm(*coeffs)
    assert legendre_solvable(form) is solvable
    if solvable:
        x, y, z = legendre_solution(form)
        assert form.value(x, y, z) == 0
        assert (x, y, z) != (0, 0, 0)
        assert math.gcd(math.gcd(abs(x), abs(y)), abs(z)) == 1
    else:
        with pytest.raises(UnsolvableFormError):
            legendre_solution(form)


# Pinned outputs of the Holzer search, pulled back to the original form.  The
# comment names the normalization steps each form takes: a common factor, a
# square stripped from a coefficient, a gcd shared by two coefficients moved
# onto the third.
PINNED_SOLUTIONS = [
    ((1, 1, -2), (1, 1, 1)),  # none (the README example)
    ((41, -199, -181), (85, 38, 7)),  # none
    ((3, 3, -6), (1, 1, 1)),  # common
    ((12, 18, -30), (1, 1, 1)),  # common
    ((1, 1, -8), (2, 2, 1)),  # square
    ((4, 9, -13), (9, 4, 6)),  # square, square
    ((94, -14, -185), (13, 17, 8)),  # shared gcd
    ((6, 10, -15), (5, 3, 4)),  # shared gcd, three times
    ((-45, 38, -70), (8, 15, 9)),  # square, shared gcd twice
    ((138, 78, -162), (3, 6, 5)),  # common, square
    ((128, 30, -80), (5, 8, 8)),  # common, square, shared gcd
    ((36, 50, -36), (1, 0, 1)),  # common, three squares, shared gcd
    ((1237, 3727, -3557), (1571, 523, 1070)),  # slow perfbench sweep form
    ((1439, 3037, -2531), (2491, 350, 1917)),  # slow perfbench sweep form
    ((1531, 3449, -1439), (585, 149, 646)),  # slow perfbench sweep form
    ((3187, 1878, -2137), (325, 2103, 2011)),  # solved coefficient 1878 = 2*3*313
    ((4217, 2701, -2438), (67, 1277, 1347)),  # solved coefficient -2438 = -2*23*53
]


@pytest.mark.parametrize("coeffs,solution", PINNED_SOLUTIONS)
def test_legendre_solution_matches_pinned_table(coeffs, solution):
    assert legendre_solution(TernaryForm(*coeffs)) == solution


def _holzer_full_box(a, b, c):
    """`_holzer_search` as it was before the residue classes: every w of the
    box is tried, in (u, w) order, and tested for divisibility."""
    coeffs = (a, b, c)
    bounds = (math.isqrt(abs(b * c)), math.isqrt(abs(a * c)), math.isqrt(abs(a * b)))
    solve_idx = min(range(3), key=lambda i: (abs(coeffs[i]), i))
    scan = [i for i in range(3) if i != solve_idx]
    ca, cb = coeffs[scan[0]], coeffs[scan[1]]
    cs = coeffs[solve_idx]
    for u in range(bounds[scan[0]] + 1):
        for w in range(bounds[scan[1]] + 1):
            rhs = -(ca * u * u + cb * w * w)
            if rhs % cs != 0:
                continue
            s2 = rhs // cs
            if s2 < 0:
                continue
            s = math.isqrt(s2)
            if s * s != s2 and s2 != 0:
                continue
            if u == 0 and w == 0 and s2 == 0:
                continue
            out = [0, 0, 0]
            out[scan[0]], out[scan[1]], out[solve_idx] = u, w, s
            return (out[0], out[1], out[2])
    return None


# normalized solvable forms, one or more per kind of solved coefficient (the
# first coefficient of least absolute value, as the search picks it)
@pytest.mark.parametrize(
    "coeffs,solved",
    [
        ((1, 1, -2), 1),
        ((155, 1, -1), 1),
        ((11, 166, -1), -1),
        ((2, 37, -5), 2),
        ((7, 5, -3), -3),  # the least w is not in the first class scanned
        ((11, 10, -21), 10),  # the least w is not in the first class scanned
        ((57, 167, -230), 57),  # the least w is not in the first class scanned
        ((277, 5, -2), -2),
        ((345, 199, -274), 199),  # odd prime
        ((251, 347, -199), -199),  # negative odd prime
        ((367, 195, -283), 195),  # 3*5*13
        ((353, 194, -283), 194),  # 2*97
        ((215, 209, -194), -194),  # -2*97
        ((113, 73, -42), -42),  # -2*3*7
        ((1531, 3449, -1439), -1439),  # perfbench sweep form
        ((3187, 1878, -2137), 1878),  # 2*3*313
        ((4217, 2701, -2438), -2438),  # -2*23*53
    ],
)
def test_holzer_search_matches_full_box_scan(coeffs, solved):
    assert normalize_form(TernaryForm(*coeffs))[0] == coeffs
    assert legendre_solvable(TernaryForm(*coeffs))
    assert min(coeffs, key=abs) == solved
    assert numtheory._holzer_search(coeffs, [factorize(abs(c)) for c in coeffs]) == _holzer_full_box(*coeffs)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=1, max_value=300),
    st.integers(min_value=1, max_value=300),
    st.integers(min_value=-300, max_value=-1),
    st.permutations(range(3)),
)
def test_holzer_search_matches_full_box_scan_on_random_forms(a, b, c, order):
    reduced, _, _ = normalize_form(TernaryForm(a, b, c))
    coeffs = tuple(reduced[i] for i in order)
    assume(legendre_solvable(TernaryForm(*coeffs)))
    assert numtheory._holzer_search(coeffs, [factorize(abs(c)) for c in coeffs]) == _holzer_full_box(*coeffs)


def test_legendre_solution_normalizes_once(monkeypatch):
    seen = []

    def counted(form):
        seen.append(form)
        return normalize_form(form)

    monkeypatch.setattr(numtheory, "normalize_form", counted)
    legendre_solution(TernaryForm(128, 30, -80))
    with pytest.raises(UnsolvableFormError):
        legendre_solution(TernaryForm(4, 9, -12))
    assert seen == [TernaryForm(128, 30, -80), TernaryForm(4, 9, -12)]


def test_legendre_solvable_factorizes_each_coefficient_once(monkeypatch):
    seen = []

    def counted(n):
        seen.append(n)
        return factorize(n)

    monkeypatch.setattr(numtheory, "factorize", counted)
    # the gcd 2 comes out, 64 is a square and 15, -40 share the prime 5
    assert legendre_solvable(TernaryForm(128, 30, -80))
    assert seen == [64, 15, 40]


def test_legendre_solution_factorizes_each_coefficient_once(monkeypatch):
    seen = []

    def counted(n):
        seen.append(n)
        return factorize(n)

    monkeypatch.setattr(numtheory, "factorize", counted)
    # the Holzer search takes the solved coefficient's primes from the normalization
    assert legendre_solution(TernaryForm(128, 30, -80)) is not None
    assert seen == [64, 15, 40]


@settings(max_examples=120, deadline=None)
@given(
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=-12, max_value=-1),
)
def test_legendre_decision_is_certified_both_ways(a, b, c):
    form = TernaryForm(a, b, c)
    if legendre_solvable(form):
        x, y, z = legendre_solution(form)
        assert form.value(x, y, z) == 0
        assert (x, y, z) != (0, 0, 0)
    else:
        assert brute_nontrivial_zero(form, 25) is None


@pytest.mark.parametrize(
    "coeffs,reason",
    [
        ((1, 1, -2), None),
        ((1, 1, -3), "-ab = -1 not a QR of 3"),
        ((1, 1, 1), "definite form, only the trivial zero"),
        ((-2, -3, -5), "definite form, only the trivial zero"),
        ((4, 9, 12), "definite form, only the trivial zero"),
        ((1, -3, 7), "-ab = 3 not a QR of 7"),
        ((-13, -11, 1), "-ac = 13 not a QR of 11"),
        ((3, -5, 7), "-bc = 35 not a QR of 3"),
        ((3, 7, -29), "-ab = -21 not a QR of 29"),  # all three conditions fail
        ((3, 5, -34), "-ac = 102 not a QR of 5"),  # -ac and -bc fail
        ((4, 4, -12), "-ab = -1 not a QR of 3"),  # named on the normalized form (1, 1, -3)
        ((3, 11, -10), "-ab = -33 not a QR of 10"),
    ],
)
def test_legendre_obstruction_names_the_failing_condition(coeffs, reason):
    assert legendre_solvable(TernaryForm(*coeffs)) is (reason is None)
    if reason is not None:
        with pytest.raises(UnsolvableFormError) as info:
            legendre_solution(TernaryForm(*coeffs))
        assert str(info.value) == reason


_BIG = st.integers(min_value=-10**12, max_value=10**12).filter(lambda x: x != 0)


@settings(max_examples=150, deadline=None)
@given(_BIG, _BIG, _BIG)
def test_unsolvable_big_forms_are_refused_before_any_search(a, b, c):
    # the Holzer box of such a form can hold 10^24 points; the decision
    # needs only the factorizations of the coefficients
    form = TernaryForm(a, b, c)
    if legendre_solvable(form):
        return
    start = time.perf_counter()
    with pytest.raises(UnsolvableFormError) as info:
        legendre_solution(form)
    assert time.perf_counter() - start < 1.0
    assert re.fullmatch(r"definite form, only the trivial zero|-(ab|ac|bc) = -?\d+ not a QR of \d+", str(info.value))


# --- the decision against Legendre's conditions on the normalized form ---------


def _legendre_conditions(coeffs: tuple[int, int, int], primes) -> str | None:
    """Legendre's conditions on a normalized form with the primes of each
    coefficient, kept apart from the Hilbert-symbol decision as its oracle:
    the definite refusal, else the first of -ab mod |c|, -ac mod |b| and
    -bc mod |a| that is no square by Euler's criterion at an odd prime,
    else None."""
    a, b, c = coeffs
    if (a > 0) == (b > 0) == (c > 0):
        return "definite form, only the trivial zero"
    for name, value, k in (("-ab", -a * b, 2), ("-ac", -a * c, 1), ("-bc", -b * c, 0)):
        if any(pow(value, (p - 1) // 2, p) != 1 for p in primes[k] if p > 2):
            return f"{name} = {value} not a QR of {abs(coeffs[k])}"
    return None


def _normalized_decision(form: TernaryForm) -> bool:
    """Legendre's decision on the form's normalization."""
    return _legendre_conditions(*normalize_form(form)[::2]) is None


def _scan_forms(limit: int) -> set[TernaryForm]:
    """Every form the d scan decides for the admissible t < limit: both
    isosceles forms of each candidate d, up to and including the first
    feasible one."""
    forms: set[TernaryForm] = set()

    def record(form):
        forms.add(form)
        return _normalized_decision(form)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(numtheory, "legendre_solvable", record)
        for t in filter(in_T, range(2, limit)):
            for pq in _d_candidates(t, None):
                first = isosceles_embeddable((t, 1), pq)
                if isosceles_embeddable(pq, (t, 1)) and first:
                    break
    return forms


def test_legendre_solvable_matches_normalized_decision_on_the_d_scan():
    forms = _scan_forms(2000)
    assert len(forms) > 40_000
    assert [f for f in forms if legendre_solvable(f) != _normalized_decision(f)] == []


# a prime p = 3 (mod 4) at odd valuation in two coefficients, with and without a share of 2
_SHARED_ODD = [s * 3**i * 7**j * 2**k for s in (1, -1) for i in (0, 1, 3) for j in (0, 1) for k in (0, 1)]


def test_legendre_solvable_matches_normalized_decision_on_shared_odd_valuations():
    forms = [TernaryForm(*cs) for cs in product(_SHARED_ODD, repeat=3)]
    assert [f for f in forms if legendre_solvable(f) != _normalized_decision(f)] == []


@settings(max_examples=400, deadline=None)
@given(_SMOOTH, _SMOOTH, _SMOOTH)
def test_legendre_solvable_matches_normalized_decision_on_smooth_forms(a, b, c):
    form = TernaryForm(a, b, c)
    assert legendre_solvable(form) == _normalized_decision(form)


@settings(max_examples=150, deadline=None)
@given(_BIG, _BIG, _BIG)
def test_legendre_solvable_matches_normalized_decision_on_big_forms(a, b, c):
    form = TernaryForm(a, b, c)
    assert legendre_solvable(form) == _normalized_decision(form)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.tuples(_SMOOTH, _SMOOTH, _SMOOTH), st.tuples(_BIG, _BIG, _BIG)))
def test_unsolvable_form_names_the_first_failing_legendre_condition(coeffs):
    form = TernaryForm(*coeffs)
    reason = _legendre_conditions(*normalize_form(form)[::2])
    if reason is None:
        return
    with pytest.raises(UnsolvableFormError) as info:
        legendre_solution(form)
    assert str(info.value) == reason


# --- step-length criteria ------------------------------------------------------


@pytest.mark.parametrize(
    "h,expected",
    [
        (Fraction(2), True),
        (Fraction(1), True),
        (Fraction(3), False),
        (Fraction(4), False),
        (Fraction(5), True),
        (Fraction(6), True),
        (Fraction(1, 2), True),
        (Fraction(3, 4), False),
        (Fraction(722, 15), True),
        (Fraction(1078, 15), True),
        (Fraction(2216, 55), False),
    ],
)
def test_step_length_criteria(h, expected):
    assert phi_criteria(h) is expected


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=1, max_value=60),
    st.integers(min_value=1, max_value=30),
    st.sampled_from([1, 3, 5, 7, 9, 11]),
)
def test_criteria_invariant_under_odd_square_scaling(m, n, d):
    h = Fraction(m, n)
    assert phi_criteria(h) == phi_criteria(h * d * d)


def test_antipodal_distance_exact():
    assert antipodal_dist_sq(Fraction(539, 30)) == Fraction(1078, 15)
    assert antipodal_dist_sq(Fraction(3, 2)) == Fraction(6, 1)
    with pytest.raises(ValueError):
        antipodal_dist_sq(Fraction(5, 4))
    with pytest.raises(ValueError):
        antipodal_dist_sq(Fraction(5, 3))


# --- chain construction ---------------------------------------------------------


def recompute_chain(cert: ChainCertificate) -> None:
    total = vec(0, 0, 0)
    for s in cert.steps:
        assert s.norm_sq() == cert.step_norm_sq
        total = total + s
    assert total == cert.target


def bfs_reachable(target: tuple[int, int, int], steps: list[tuple[int, int, int]], radius: int) -> bool:
    from collections import deque

    seen = {(0, 0, 0)}
    queue = deque([(0, 0, 0)])
    while queue:
        p = queue.popleft()
        if p == target:
            return True
        for s in steps:
            q = (p[0] + s[0], p[1] + s[1], p[2] + s[2])
            if q not in seen and all(abs(x) <= radius for x in q):
                seen.add(q)
                queue.append(q)
    return False


def test_chain_reaches_integer_target_with_unit_steps_of_length_sq_2():
    v = vec(1, 2, 5)
    cert = construct_chain(v, Fraction(2))
    recompute_chain(cert)
    perms = set()
    for sx in (1, -1):
        for sy in (1, -1):
            perms.update({(sx, sy, 0), (sx, 0, sy), (0, sx, sy)})
    assert bfs_reachable((1, 2, 5), sorted(perms), radius=8)


def test_chain_with_fractional_step_length():
    v = vec(1, 2, 5)
    cert = construct_chain(v, Fraction(1078, 15))
    recompute_chain(cert)
    assert len(cert.steps) < 100_000


def test_chain_to_rational_target():
    v = vec(Fraction(1, 3), Fraction(13, 3), Fraction(10, 3))
    assert v.norm_sq() == 30
    cert = construct_chain(v, Fraction(2))
    recompute_chain(cert)


def test_chain_to_rational_target_with_rational_steps():
    v = vec(Fraction(1, 3), Fraction(13, 3), Fraction(10, 3))
    cert = construct_chain(v, Fraction(722, 15))
    recompute_chain(cert)


def test_chain_single_step_when_lengths_agree():
    v = vec(3, 3, 2)
    assert v.norm_sq() == 22
    cert = construct_chain(v, Fraction(22))
    assert tuple(cert.steps) == (v,)


def test_chain_with_odd_step_product():
    # step length 5/9: product after stripping is 45, odd branch
    v = vec(1, 2, 5)
    assert phi_criteria(Fraction(5, 9))
    cert = construct_chain(v, Fraction(5, 9))
    recompute_chain(cert)


def test_chain_rejects_failing_step_length():
    with pytest.raises(ValueError):
        construct_chain(vec(1, 2, 5), Fraction(3))
    with pytest.raises(ValueError):
        construct_chain(vec(1, 2, 5), Fraction(2216, 55))


def test_chain_rejects_target_outside_open_case_set():
    with pytest.raises(ValueError):
        construct_chain(vec(1, 1, 0), Fraction(2))  # norm 2 not in the set
    with pytest.raises(ValueError):
        construct_chain(vec(Fraction(1, 2), 0, 0), Fraction(2))


# --- run-length chains ----------------------------------------------------------


def _rotate(v, q):
    """Euler-Rodrigues rotation of v by the integer quaternion q: exact, norm
    preserving, with denominators dividing the quaternion norm."""
    a, b, c, d = q
    n = a * a + b * b + c * c + d * d
    rows = (
        (a * a + b * b - c * c - d * d, 2 * (b * c - a * d), 2 * (b * d + a * c)),
        (2 * (b * c + a * d), a * a - b * b + c * c - d * d, 2 * (c * d - a * b)),
        (2 * (b * d - a * c), 2 * (c * d + a * b), a * a - b * b - c * c + d * d),
    )
    x = (v.dx, v.dy, v.dz)
    return vec(*(sum(Fraction(r[i]) * x[i] for i in range(3)) / n for r in rows))


# drawn from precomputed lists, so no draw is filtered away
admissible_targets = st.sampled_from(
    [vec(*u) for u in product(range(-7, 8), repeat=3) if in_T(sum(x * x for x in u))]
)
odd_quaternions = st.sampled_from(
    [q for q in product(range(-2, 3), repeat=4) if sum(x * x for x in q) % 2 == 1]
)
step_lengths = st.sampled_from(
    sorted(h for h in {Fraction(p, q) for p in range(1, 41) for q in range(1, 13)} if phi_criteria(h))
)


def _passes(check, cert: ChainCertificate) -> bool:
    try:
        check(cert)
    except AssertionError:
        return False
    return True


def _with_run(cert: ChainCertificate, i: int, run) -> ChainCertificate:
    runs = cert.runs[:i] + (run,) + cert.runs[i + 1 :]
    return ChainCertificate(cert.target, cert.step_norm_sq, runs)


@settings(max_examples=40, deadline=None)
@given(admissible_targets, odd_quaternions, step_lengths, st.data())
def test_run_length_chain_matches_step_by_step_oracle(u, q, h, data):
    v = _rotate(u, q)
    assert v.norm_sq() == u.norm_sq()
    cert = construct_chain(v, h)
    assert len(cert.steps) == sum(k for _, k in cert.runs)
    assert all(k >= 1 for _, k in cert.runs)
    assert _passes(ChainCertificate.validate, cert) and _passes(recompute_chain, cert)

    i = data.draw(st.integers(0, len(cert.runs) - 1), label="run")
    step, k = cert.runs[i]
    mutants = [_with_run(cert, i, (step, k + 1)), _with_run(cert, i, (step.scale(2), k))]
    if k > 1:
        mutants.append(_with_run(cert, i, (step, k - 1)))
    mutants.append(ChainCertificate(v + step, h, cert.runs))
    for bad in mutants:
        assert not _passes(ChainCertificate.validate, bad)
        assert not _passes(recompute_chain, bad)

    for k_bad in (0, -1, -k):
        with pytest.raises(AssertionError, match="multiplicity"):
            _with_run(cert, i, (step, k_bad)).validate()
    # a cancelling pair of wrong-length steps keeps the sum but not the length
    off = step.scale(2)
    padded = ChainCertificate(v, h, cert.runs + ((off, 1), (-off, 1)))
    with pytest.raises(AssertionError, match="squared length"):
        padded.validate()
    assert not _passes(recompute_chain, padded)


def test_chain_steps_expand_runs_in_order():
    a, b = vec(1, 1, 0), vec(0, 1, -1)
    cert = ChainCertificate(vec(2, 3, -1), Fraction(2), ((a, 2), (b, 1)))
    cert.validate()
    assert len(cert.steps) == 3
    assert list(cert.steps) == [a, a, b]


def test_device_chain_is_19_runs_of_257_step_multiples():
    # each atom move is 257 micro-steps, and a Bezout count of n cancelling
    # pairs is two runs of n moves each, not 2n runs
    v = vec(*three_rational_squares(Fraction(30)))
    cert = construct_chain(v, Fraction(1462, 257))
    assert len(cert.steps) == 189409
    assert len(cert.runs) == 19
    assert all(k % 257 == 0 for _, k in cert.runs)
    assert len({s for s, _ in cert.runs}) == 16


def test_chain_with_huge_bezout_counts_is_quick():
    # a fuzzed wrong device's |x2-z|^2; listing its cancelling pairs one by
    # one did not finish in 30 s
    v = vec(*three_rational_squares(Fraction(30)))
    start = time.perf_counter()
    cert = construct_chain(v, Fraction(603232589, 6604900))
    assert time.perf_counter() - start < 1.0
    assert len(cert.runs) < 100
    assert len(cert.steps) > 10**12


# --- chain moves against a frozen reference ----------------------------------------
# A copy of the Bezout solver and the atom-move builder with a separate c = 0
# branch and the moves placed by helpers: any restructuring of chain
# construction must return the same moves in the same order.


def _ref_solve_linear3(g, a, b, c):
    if b == 0 and c == 0:
        return (g, 0, 0)
    if c == 0:
        s, t = numtheory._ext_gcd(a, b)
        d1, d2 = s * g, t * g
        q = numtheory._balanced_div(d2, a)
        d2 -= q * a
        d1 += q * b
        return (d1, d2, 0)
    g3 = math.gcd(b, c)
    s, t = numtheory._ext_gcd(b // g3, c // g3)
    p, q = numtheory._ext_gcd(a, g3)
    d1 = p * g
    d2 = q * g * s
    d3 = q * g * t
    step = b // g3
    r = numtheory._balanced_div(d3, step)
    d3 -= r * step
    d2 += r * (c // g3)
    gab = math.gcd(a, b)
    step = a // gab
    r = numtheory._balanced_div(d2, step)
    d2 -= r * step
    d1 += r * (b // gab)
    return (d1, d2, d3)


def _ref_place(axis, value, others, signs):
    out = [0, 0, 0]
    out[axis] = value
    rest = [i for i in range(3) if i != axis]
    out[rest[0]] = signs[0] * others[0]
    out[rest[1]] = signs[1] * others[1]
    return tuple(out)


def _ref_atom_moves_for_axis(axis, count, comp_idx, rep):
    others = tuple(rep[i] for i in range(3) if i != comp_idx)
    sign = 1 if count > 0 else -1
    first = _ref_place(axis, sign * rep[comp_idx], others, (1, 1))
    second = _ref_place(axis, sign * rep[comp_idx], others, (-1, -1))
    return [(first, abs(count)), (second, abs(count))]


def _ref_even_moves(w, rep):
    moves = []
    for axis in range(3):
        if w[axis] == 0:
            continue
        for comp_idx, count in enumerate(_ref_solve_linear3(w[axis] // 2, *rep)):
            if count != 0 and rep[comp_idx] != 0:
                moves.extend(_ref_atom_moves_for_axis(axis, count, comp_idx, rep))
            elif count != 0 and rep[comp_idx] == 0:
                raise AssertionError("solver assigned weight to a zero component")
    return moves


_component = st.integers(0, 60) | st.integers(0, 10**12)
# primitive a >= b >= c >= 0, with c = 0 and b = c = 0 drawn on purpose
primitive_reps = (
    st.tuples(_component, _component, _component)
    | st.tuples(_component, _component, st.just(0))
    | st.just((1, 0, 0))
).map(lambda r: tuple(sorted(r, reverse=True))).filter(lambda r: math.gcd(*r) == 1)
even_vectors = st.tuples(*[st.integers(-10**9, 10**9).map(lambda x: 2 * x)] * 3)


@settings(max_examples=400, deadline=None)
@given(primitive_reps, st.integers(-10**12, 10**12))
def test_solve_linear3_matches_reference(rep, g):
    assert numtheory._solve_linear3(g, *rep) == _ref_solve_linear3(g, *rep)


@settings(max_examples=400, deadline=None)
@given(primitive_reps, even_vectors)
def test_even_moves_match_reference(rep, w):
    moves = numtheory._even_moves(w, rep)
    assert moves == _ref_even_moves(w, rep)
    assert tuple(sum(m[i] * k for m, k in moves) for i in range(3)) == w


# --- isosceles embeddability -----------------------------------------------------


def _clear_denominators(coeffs):
    l = math.lcm(*(c.denominator for c in coeffs))
    return TernaryForm(*(int(c * l) for c in coeffs))


def _fraction_isosceles(r, d, rep=None):
    """The Fraction-form decision the integer test replaced, kept as its
    oracle: it takes any representation r = a^2 + b^2 + c^2 with (a, b) != 0."""
    if rep is None:
        rep = three_rational_squares(r)
        if rep is None:
            return False
    a, b, c = rep
    assert a * a + b * b + c * c == r and (a, b) != (0, 0)
    if three_rational_squares(d) is None or 4 * d - r <= 0:
        return False
    return legendre_solvable(_clear_denominators((Fraction(1), r, -(4 * d - r) * (a * a + b * b))))


def _fraction_eq_pair(t, d):
    if d <= 0 or 4 * d - t <= 0 or 4 * Fraction(t) - d <= 0:
        return False
    if three_rational_squares(d) is None:
        return False
    return _fraction_isosceles(Fraction(t), d) and _fraction_isosceles(d, Fraction(t))


OPEN_BELOW_400 = [t for t in range(400) if in_T(t)]


def _pair(x):
    return (x.numerator, x.denominator)


def _agrees_with_fraction_oracle(t, d):
    for r, legs in ((Fraction(t), d), (d, Fraction(t))):
        assert isosceles_embeddable(_pair(r), _pair(legs)) == _fraction_isosceles(r, legs), (r, legs)
    assert eq_pair_feasible(t, _pair(d)) == _fraction_eq_pair(t, d), (t, d)


@st.composite
def open_t_and_d(draw):
    t = draw(st.sampled_from(OPEN_BELOW_400))
    q = draw(st.integers(1, 12))
    return t, Fraction(draw(st.integers(1, (4 * t + 1) * q)), q)


@settings(max_examples=400, deadline=None)
@given(open_t_and_d())
def test_integer_isosceles_test_matches_fraction_oracle(case):
    _agrees_with_fraction_oracle(*case)


@pytest.mark.parametrize(
    "t,d",
    [
        (30, Fraction(15, 2)),  # 4d = t: no apex height
        (30, Fraction(120)),  # d = 4t
        (58, Fraction(29, 2)),  # 4d = t at the rational-fallback t
        (10, Fraction(15)),  # d ≡ 7 mod 8
        (10, Fraction(28, 9)),  # p·q = 4·63, and 63 ≡ 7 mod 8
        (10, Fraction(63, 16)),  # p·q = 16·63
        (58, Fraction(314, 9)),  # scan_d's rational fallback at t=58
        (58, Fraction(34)),  # the last integer the exhausted `--d-bound 34` scan tries
    ],
)
def test_integer_isosceles_test_matches_fraction_oracle_at_edges(t, d):
    _agrees_with_fraction_oracle(t, d)


def test_isosceles_embeddable_is_representation_independent():
    # the Fraction oracle gives one verdict for every representation of 30,
    # the integer test's among them
    reps = [
        (Fraction(5), Fraction(2), Fraction(1)),
        (Fraction(13, 3), Fraction(10, 3), Fraction(1, 3)),
        (Fraction(26, 5), Fraction(7, 5), Fraction(1)),
    ]
    for d in (Fraction(9), Fraction(11), Fraction(19), Fraction(25), Fraction(49, 4)):
        verdicts = {_fraction_isosceles(Fraction(30), d, rep) for rep in reps}
        assert verdicts == {isosceles_embeddable((30, 1), _pair(d))}, d


def test_isosceles_degenerate_cases():
    assert isosceles_embeddable((30, 1), (7, 1)) is False  # 4d - r < 0
    assert isosceles_embeddable((36, 1), (9, 1)) is False  # flat triangle
    assert isosceles_embeddable((28, 1), (9, 1)) is False  # base length unrealizable
    for r, d in ((36, 9), (28, 9)):
        assert _fraction_isosceles(Fraction(r), Fraction(d)) is False


@pytest.mark.parametrize("t", [6, 12, 28, 44])
def test_eq_pair_matches_fraction_oracle_outside_T(t):
    # eq_pair_feasible does not check t's membership in T; its callers do.
    # Off T it still agrees with the oracle, inside the window t/4 < d < 4t
    # and outside it (d = t/4, d = 4t and past both ends).
    for q in (1, 3):
        for p in range(1, (4 * t + 2) * q + 1):
            _agrees_with_fraction_oracle(t, Fraction(p, q))


def test_eq_pair_is_symmetric_sanity():
    # a feasible pair embeds both triangles; verify via the two one-sided tests
    for d in range(1, 60):
        fd = Fraction(d)
        if 4 * fd - 30 <= 0 or 120 - fd <= 0 or three_rational_squares(fd) is None:
            continue
        both = isosceles_embeddable((30, 1), (d, 1)) and isosceles_embeddable((d, 1), (30, 1))
        assert eq_pair_feasible(30, _pair(fd)) == both
