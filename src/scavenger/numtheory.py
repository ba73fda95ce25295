"""Diophantine decision procedures and constructive same-color chain certificates.

Covers: membership in the open-case distance set T, square roots modulo
square-free moduli, solvability of diagonal ternary forms (decided by one
Hilbert-symbol test, on the form's own coefficients or, for a constructive
solve, on the normalized form, where the failing prime names the failing
Legendre condition before the search within the Holzer bounds), sums of
three squares, the additive-closure criteria for step sets, and
embeddability tests for isosceles triangles in Q^3.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .qcore import QVec3, _frac, factorize, squarefree_part, vec


class UnsolvableFormError(ValueError):
    """Raised when a constructive solution is requested for an unsolvable form."""


def in_T(t: int) -> bool:
    """Membership in the open-case distance set: square-free, even, with an
    odd prime factor congruent to 2 mod 3."""
    if t < 1:
        return False
    factors = factorize(t)
    if any(e > 1 for e in factors.values()):
        return False
    if 2 not in factors:
        return False
    return any(p % 3 == 2 for p in factors if p != 2)


# --- quadratic residues ------------------------------------------------------


def _sqrt_mod_prime(a: int, p: int) -> int:
    """A square root of the unit quadratic residue a mod the odd prime p (Tonelli-Shanks)."""
    q, e, z = p - 1, 0, 2
    while q % 2 == 0:
        q, e = q // 2, e + 1
    while pow(z, (p - 1) // 2, p) == 1:
        z += 1
    c, t, r = pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2, i = t2 * t2 % p, i + 1
        b = pow(c, 1 << (e - i - 1), p)
        e, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


def _sqrt_mod(k: int, primes: Sequence[int]) -> list[int]:
    """Sorted r in [0, m) with r^2 = k (mod m), for m the square-free product
    of `primes` and k a unit mod m: the roots modulo each prime, combined by
    CRT, and none when Euler's criterion fails at an odd prime (every unit is
    a square mod 2)."""
    roots, mod = [0], 1
    for p in primes:
        if p > 2 and pow(k, (p - 1) // 2, p) != 1:
            return []
        r = _sqrt_mod_prime(k % p, p) if p > 2 else 1
        inv = pow(mod, -1, p)
        roots = [x + mod * ((y - x) * inv % p) for x in roots for y in {r, p - r}]
        mod *= p
    return sorted(roots)


# --- Legendre's theorem on ax^2 + by^2 + cz^2 = 0 ---------------------------


@dataclass(frozen=True)
class TernaryForm:
    """Diagonal ternary quadratic form a*x^2 + b*y^2 + c*z^2."""

    a: int
    b: int
    c: int

    def __post_init__(self):
        if self.a == 0 or self.b == 0 or self.c == 0:
            raise ValueError(f"zero coefficient in ternary form {(self.a, self.b, self.c)}")

    def value(self, x: int, y: int, z: int) -> int:
        return self.a * x * x + self.b * y * y + self.c * z * z

    def coeffs(self) -> tuple[int, int, int]:
        return (self.a, self.b, self.c)


def normalize_form(
    form: TernaryForm,
) -> tuple[tuple[int, int, int], tuple[int, int, int], tuple[tuple[int, ...], ...]]:
    """Reduce to an equivalent form with square-free, pairwise-coprime
    coefficients, factorizing each coefficient once.  Returns the reduced
    coefficients, one multiplier per coordinate (a zero (x, y, z) of the
    reduced form gives the zero (mx*x, my*y, mz*z) of the original) and the
    sorted primes of each reduced coefficient.

    Dividing out the gcd g changes no zero.  With S_i the primes of odd
    exponent in |c_i|/g and r_i its square root, stripping r_i^2 from
    coefficient i multiplies the other two coordinates by r_i.  No prime then
    divides all three coefficients, so each prime of S_i & S_j moves onto the
    third coefficient k exactly once, in any order of moves, multiplying
    coordinate k by it: k becomes sign(c_k) * prod((S_k - S_i - S_j) | (S_i & S_j))
    and its multiplier is r_i * r_j * prod(S_i & S_j).
    """
    cs = form.coeffs()
    g = math.gcd(*cs)
    odd, roots = [], []
    for c in cs:
        s, r = set(), 1
        for p, e in factorize(abs(c) // g).items():
            if e % 2:
                s.add(p)
            r *= p ** (e // 2)
        odd.append(s)
        roots.append(r)
    coeffs, mult, primes = [], [], []
    for k, (i, j) in enumerate(((1, 2), (0, 2), (0, 1))):
        shared = odd[i] & odd[j]
        ps = tuple(sorted((odd[k] - odd[i] - odd[j]) | shared))
        coeffs.append(math.prod(ps) if cs[k] > 0 else -math.prod(ps))
        mult.append(roots[i] * roots[j] * math.prod(shared))
        primes.append(ps)
    return (coeffs[0], coeffs[1], coeffs[2]), (mult[0], mult[1], mult[2]), tuple(primes)


def _failing_prime(
    a: int, b: int, c: int, fa: dict[int, int], fb: dict[int, int], fc: dict[int, int]
) -> int | None:
    """The first odd prime p at which the Hilbert symbol (-ab, -ac)_p is -1,
    trying the primes of c, then of b, then of a, or None; fa, fb and fc map
    the primes of |a|, |b| and |c| to their exponents, and gcd(a, b, c) = 1.

    With -ab = p^alpha * u and -ac = p^beta * v, u and v prime to p, the
    symbol is Euler's criterion of (-1)^(alpha*beta) * u^beta * v^alpha
    modulo p.  Each p-free part is taken from the whole of -ab or -ac,
    never from a value another prime was divided out of."""
    x, y = -a * b, -a * c
    for p in {**fc, **fb, **fa}:
        e = fa.get(p, 0)
        alpha, beta = e + fb.get(p, 0), e + fc.get(p, 0)
        if p == 2 or not (alpha | beta) & 1:
            continue
        w = -1 if alpha & beta & 1 else 1
        if beta & 1:
            w *= x // p**alpha
        if alpha & 1:
            w *= y // p**beta
        if pow(w, (p - 1) // 2, p) != 1:
            return p
    return None


def legendre_solvable(form: TernaryForm) -> bool:
    """Exact decision for nontrivial integer solvability of a*x^2+b*y^2+c*z^2 = 0,
    by the local test on the form's own coefficients: nothing is normalized.

    By Hasse-Minkowski the form has a nontrivial zero exactly when it is
    indefinite and, with g = gcd(a, b, c) divided out, `_failing_prime`
    finds no odd prime of abc at which (-ab, -ac)_p = -1; the product
    formula then covers p = 2."""
    a, b, c = form.coeffs()
    if (a > 0) == (b > 0) == (c > 0):
        return False
    g = math.gcd(a, b, c)
    a, b, c = a // g, b // g, c // g
    fa, fb, fc = factorize(abs(a)), factorize(abs(b)), factorize(abs(c))
    return _failing_prime(a, b, c, fa, fb, fc) is None


def _holzer_search(coeffs: tuple[int, int, int], primes: Sequence[Sequence[int]]) -> tuple[int, int, int] | None:
    """The first nontrivial zero of a normalized form (a, b, c), given the
    primes of each coefficient, within the Holzer bounds |x| <= sqrt|bc|,
    |y| <= sqrt|ac|, |z| <= sqrt|ab|.

    Searches a box known to hold a solution: Holzer's theorem puts a zero of
    every solvable normalized form inside these bounds, so callers decide
    solvability first and None means a broken search, not an unsolvable form.
    The coefficient cs of least |cs| is solved for.  The coefficients being
    square-free and pairwise coprime, cs divides ca*u^2 + cb*w^2 exactly when
    w = R*u mod |cs| for a square root R of -ca/cb, so only those classes of w
    are scanned.
    """
    a, b, c = coeffs
    bounds = (
        math.isqrt(abs(b * c)),
        math.isqrt(abs(a * c)),
        math.isqrt(abs(a * b)),
    )
    # solve for the coordinate with the largest bound, scan the other two
    solve_idx = min(range(3), key=lambda i: (abs(coeffs[i]), i))
    scan = [i for i in range(3) if i != solve_idx]
    ca, cb = coeffs[scan[0]], coeffs[scan[1]]
    cs = coeffs[solve_idx]
    m = abs(cs)
    roots = _sqrt_mod(-ca * pow(cb, -1, m), primes[solve_idx])
    for u in range(bounds[scan[0]] + 1):
        hit, top = None, bounds[scan[1]]
        for start in {r * u % m for r in roots}:
            for w in range(start, top + 1, m):
                s2 = -(ca * u * u + cb * w * w) // cs
                if s2 < 0:
                    continue
                s = math.isqrt(s2)
                if s * s == s2 and (u or w):
                    hit, top = (w, s), w - 1
                    break
        if hit is not None:
            w, s = hit
            out = [0, 0, 0]
            out[scan[0]], out[scan[1]], out[solve_idx] = u, w, s
            return (out[0], out[1], out[2])
    return None


def legendre_solution(form: TernaryForm) -> tuple[int, int, int]:
    """A primitive nontrivial solution of the form: the form is normalized
    and decided once, raising UnsolvableFormError with the failing condition,
    and only a solvable form is searched within the Holzer bounds; the zero
    found is scaled back by the normalization's multipliers.

    The decision is `_failing_prime` on the normalized form, where each odd
    prime divides one coefficient once.  The symbol at p is then Euler's
    criterion of -ab when p | c, of -ac when p | b and of -bc*(a/p)^2 when
    p | a, so the failing prime names the first of Legendre's conditions
    (-ab a square mod |c|, -ac mod |b|, -bc mod |a|) that fails."""
    coeffs, (mx, my, mz), primes = normalize_form(form)
    a, b, c = coeffs
    if (a > 0) == (b > 0) == (c > 0):
        raise UnsolvableFormError("definite form, only the trivial zero")
    p = _failing_prime(a, b, c, *(dict.fromkeys(ps, 1) for ps in primes))
    if p is not None:
        name, value, m = (
            ("-ab", -a * b, c) if c % p == 0 else ("-ac", -a * c, b) if b % p == 0 else ("-bc", -b * c, a)
        )
        raise UnsolvableFormError(f"{name} = {value} not a QR of {abs(m)}")
    sol = _holzer_search(coeffs, primes)
    if sol is None:
        raise AssertionError(f"no zero of the solvable form {coeffs} within the Holzer bounds")
    x, y, z = sol[0] * mx, sol[1] * my, sol[2] * mz
    g = math.gcd(x, y, z)
    x, y, z = x // g, y // g, z // g
    assert form.value(x, y, z) == 0, "pullback must preserve the zero"
    return (x, y, z)


# --- sums of three squares ---------------------------------------------------


@lru_cache(maxsize=None)
def three_squares(n: int) -> tuple[int, int, int] | None:
    """Lexicographically largest primitive triple a >= b >= c >= 0 with
    a^2+b^2+c^2 = n, or None when no primitive representation exists."""
    if n < 1:
        raise ValueError(f"three_squares expects n >= 1, got {n}")
    for a in range(math.isqrt(n), -1, -1):
        rem = n - a * a
        if rem > 2 * a * a:
            break
        for b in range(min(a, math.isqrt(rem)), -1, -1):
            c2 = rem - b * b
            if c2 > b * b:
                break
            c = math.isqrt(c2)
            if c * c == c2 and math.gcd(math.gcd(a, b), c) == 1:
                return (a, b, c)
    return None


def _four_free(n: int) -> int:
    """n with every factor of 4 divided out."""
    while n % 4 == 0:
        n //= 4
    return n


def three_rational_squares(q: Fraction) -> tuple[Fraction, Fraction, Fraction] | None:
    """Canonical a >= b >= c >= 0 in Q with a^2+b^2+c^2 = q, or None."""
    q = _frac(q)
    if q <= 0:
        raise ValueError(f"expected positive rational, got {q}")
    m, n = q.numerator, q.denominator
    core = _four_free(m * n)
    rep = three_squares(core)
    if rep is None:
        # stripped of 4s, only residue 7 mod 8 remains unrepresentable
        return None
    scale = Fraction(math.isqrt(m * n // core), n)  # 2^alpha/n, with m*n = 4^alpha * core
    return tuple(x * scale for x in rep)  # type: ignore[return-value]


# --- step-set additive closure criteria and chain construction ---------------


def phi_criteria(h: Fraction) -> bool:
    """Sufficient test that every vector of admissible squared length t is a
    finite sum of vectors of squared length h = m/n (lowest terms): m = 2
    (mod 4), or the square-free part n0 of n is even, or n0 is odd with
    m*n0 = 1 (mod 4)."""
    h = _frac(h)
    if h <= 0:
        raise ValueError(f"squared length must be positive, got {h}")
    m, n = h.numerator, h.denominator
    if m % 4 == 2:
        return True
    n0 = squarefree_part(n)
    if n0 % 2 == 0:
        return True
    return (m * n0) % 4 == 1


def antipodal_dist_sq(radius_sq: Fraction) -> Fraction:
    """Squared distance between antipodal points of a circle of squared
    radius m/n with n = 2 (mod 4), returned as 2m/(n/2)."""
    radius_sq = _frac(radius_sq)
    if radius_sq <= 0:
        raise ValueError(f"squared radius must be positive, got {radius_sq}")
    if radius_sq.denominator % 4 != 2:
        raise ValueError(
            f"denominator of {radius_sq} is not 2 mod 4; antipodal device does not apply"
        )
    return Fraction(2 * radius_sq.numerator, radius_sq.denominator // 2)


class ChainSteps:
    """Read-only view of a run-length walk: each `(step, k)` run expands to
    k copies of `step`, in run order, without materializing the walk."""

    __slots__ = ("_runs",)

    def __init__(self, runs: tuple[tuple[QVec3, int], ...]):
        self._runs = runs

    def __len__(self) -> int:
        return sum(k for _, k in self._runs)

    def __iter__(self):
        for step, k in self._runs:
            yield from itertools.repeat(step, k)


@dataclass(frozen=True)
class ChainCertificate:
    """A finite walk of exact steps, all of one squared length, from the
    origin to `target`, stored as `(step, multiplicity)` runs in walk order."""

    target: QVec3
    step_norm_sq: Fraction
    runs: tuple[tuple[QVec3, int], ...]

    @property
    def steps(self) -> ChainSteps:
        return ChainSteps(self.runs)

    def validate(self) -> None:
        """Exact check in O(runs): every run has a positive multiplicity and a
        step of the right squared length, and the runs sum to the target."""
        total = vec(0, 0, 0)
        for i, (s, k) in enumerate(self.runs):
            if k < 1:
                raise AssertionError(f"run {i} has multiplicity {k}")
            if s.norm_sq() != self.step_norm_sq:
                raise AssertionError(f"run {i} has step squared length {s.norm_sq()}")
            total = total + s.scale(k)
        if total != self.target:
            raise AssertionError(f"chain sums to {total}, not {self.target}")


def _balanced_div(x: int, m: int) -> int:
    # quotient q with x - q*m in [-m/2, m/2)
    return (x + m // 2) // m


def _solve_linear3(g: int, a: int, b: int, c: int) -> tuple[int, int, int]:
    """Small integers (d1,d2,d3) with d1*a + d2*b + d3*c = g, for
    a >= b >= c >= 0, gcd(a,b,c) = 1, a > 0."""
    if b == 0:  # then c = 0 as well, and gcd(b, c) would be 0
        return (g, 0, 0)
    g3 = math.gcd(b, c)
    s, t = _ext_gcd(b // g3, c // g3)
    p, q = _ext_gcd(a, g3)
    # g = (p*g)*a + (q*g)*(s*(b/g3) + t*(c/g3))*g3
    d1 = p * g
    d2 = q * g * s
    d3 = q * g * t
    step = b // g3
    r = _balanced_div(d3, step)
    d3 -= r * step
    d2 += r * (c // g3)
    gab = math.gcd(a, b)
    step = a // gab
    r = _balanced_div(d2, step)
    d2 -= r * step
    d1 += r * (b // gab)
    assert d1 * a + d2 * b + d3 * c == g
    return (d1, d2, d3)


def _ext_gcd(a: int, b: int) -> tuple[int, int]:
    """(s, t) with s*a + t*b = gcd(a, b)."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_s, old_t = -old_s, -old_t
    return old_s, old_t


def _even_moves(
    w: tuple[int, int, int], rep: tuple[int, int, int]
) -> list[tuple[tuple[int, int, int], int]]:
    """Atom moves, as (move, multiplicity), summing exactly to the all-even
    integer vector w.  Each Bezout count n of a component r of rep is |n|
    cancelling pairs along the axis: ±r on the axis, and the other two
    components of rep signed (1, 1) in the first move, (-1, -1) in the
    second."""
    moves: list[tuple[tuple[int, int, int], int]] = []
    for axis in range(3):
        if w[axis] == 0:
            continue
        assert w[axis] % 2 == 0
        for comp_idx, count in enumerate(_solve_linear3(w[axis] // 2, *rep)):
            if count == 0:
                continue
            on_axis = rep[comp_idx] if count > 0 else -rep[comp_idx]
            p, q = (rep[i] for i in range(3) if i != comp_idx)
            for move in ([p, q], [-p, -q]):
                move.insert(axis, on_axis)
                moves.append((tuple(move), abs(count)))
    return moves


def _parity_permutation(rep: tuple[int, int, int], target_parity: tuple[int, int, int]) -> tuple[int, ...]:
    """First permutation sigma (lexicographic) with rep[sigma[i]] = target_parity[i] mod 2."""
    for sigma in itertools.permutations(range(3)):
        if all(rep[sigma[i]] % 2 == target_parity[i] for i in range(3)):
            return sigma
    raise AssertionError("no parity-aligning permutation exists")


def construct_chain(v: QVec3, h: Fraction) -> ChainCertificate:
    """Constructive witness that v (of admissible squared length) is a finite
    sum of vectors of squared length h, when `phi_criteria(h)` holds.

    Follows the constructive closure proof: a primitive three-squares
    representation of the relevant product supplies the step direction, sign
    and permutation closure plus the doubling trick yield axis moves of even
    integers, and Bezout combinations assemble the target.  Rational targets
    with odd denominator d are built by scaling the integer construction for
    d*v with step length h*d^2, which satisfies the same criteria bullet.
    """
    h = _frac(h)
    t = v.norm_sq()
    if t.denominator != 1 or not in_T(t.numerator):
        raise ValueError(f"target squared length {t} is not in the open-case set")
    if not phi_criteria(h):
        raise ValueError(f"criteria fail for step squared length {h}; no chain is promised")
    if t == h:
        cert = ChainCertificate(v, h, ((v, 1),))
        cert.validate()
        return cert

    d = math.lcm(v.dx.denominator, v.dy.denominator, v.dz.denominator)
    u = (int(v.dx * d), int(v.dy * d), int(v.dz * d))
    scaled = h * d * d
    m, n = scaled.numerator, scaled.denominator
    alpha = 0
    while n % 4 == 0:
        n //= 4
        alpha += 1
    # n now has 2-adic valuation 0 or 1; product parity decides the assembly
    product = m * n
    k = scaled.denominator // (2**alpha)
    rep = three_squares(product)
    assert rep is not None, "criteria guarantee a primitive representation"

    u_parity = tuple(x % 2 for x in u)
    atom_moves: list[tuple[tuple[int, int, int], int]] = []
    if product % 4 == 2:
        sigma = _parity_permutation(rep, u_parity)  # type: ignore[arg-type]
        base = tuple(rep[sigma[i]] for i in range(3))
        atom_moves.append((base, 1))
        rest = tuple(u[i] - base[i] for i in range(3))
        atom_moves.extend(_even_moves(rest, rep))  # type: ignore[arg-type]
    else:
        odd_axes = [i for i in range(3) if u[i] % 2 == 1]
        assert len(odd_axes) == 2, "admissible targets have exactly two odd entries"
        reached = [0, 0, 0]
        for axis in odd_axes:
            unit_parity = tuple(1 if i == axis else 0 for i in range(3))
            sigma = _parity_permutation(rep, unit_parity)  # type: ignore[arg-type]
            base = tuple(rep[sigma[i]] for i in range(3))
            atom_moves.append((base, 1))
            correction = tuple((1 if i == axis else 0) - base[i] for i in range(3))
            atom_moves.extend(_even_moves(correction, rep))  # type: ignore[arg-type]
            reached[axis] = 1
        rest = tuple(u[i] - reached[i] for i in range(3))
        atom_moves.extend(_even_moves(rest, rep))  # type: ignore[arg-type]

    # an atom move repeated `count` times is k*count equal micro-steps of squared length h
    denom = k * d
    runs = tuple(
        (QVec3(Fraction(w[0], denom), Fraction(w[1], denom), Fraction(w[2], denom)), k * count)
        for w, count in atom_moves
    )
    cert = ChainCertificate(v, h, runs)
    cert.validate()
    return cert


# --- isosceles embeddability and the equation pair ---------------------------


def isosceles_embeddable(r: tuple[int, int], d: tuple[int, int]) -> bool:
    """Whether a triangle with side lengths sqrt(r), sqrt(d), sqrt(d) embeds
    in Q^3, decided on the reduced pairs (R, S) of r = R/S and (P, Q) of
    d = P/Q, with S, Q > 0.

    r must be a sum of three rational squares (R*S stripped of factors of 4
    is not 7 mod 8) and the apex height positive (4PS > RQ).  The same test on
    P*Q only rejects early: a zero of the form below places the apex.  With
    r = a^2 + b^2 + c^2 the representation of `three_rational_squares`, the
    triangle embeds exactly when x^2 + r*y^2 - (4d - r)(a^2 + b^2) z^2 = 0 has
    a nontrivial zero.  That form times S*Q, with the rational square
    (2^alpha/S)^2 of a = A*2^alpha/S and b = B*2^alpha/S taken into z, is
    <S*Q, R*Q, -(4PS - RQ)(A^2 + B^2)> over the primitive three-squares triple
    (A, B, C) of R*S/4^alpha."""
    (R, S), (P, Q) = r, d
    if R <= 0 or P <= 0:
        raise ValueError("side squared lengths must be positive")
    core = _four_free(R * S)
    if core % 8 == 7 or _four_free(P * Q) % 8 == 7 or 4 * P * S <= R * Q:
        return False
    A, B, _ = three_squares(core)
    return legendre_solvable(TernaryForm(S * Q, R * Q, -(4 * P * S - R * Q) * (A * A + B * B)))


def eq_pair_feasible(t: int, d: tuple[int, int]) -> bool:
    """Whether both isosceles triangles T(sqrt t, sqrt d, sqrt d) and
    T(sqrt d, sqrt t, sqrt t) embed in Q^3, for the reduced pair (p, q), q > 0,
    of d = p/q.  Their apex heights are both positive exactly on
    t/4 < d < 4t, so no other d is feasible."""
    return isosceles_embeddable((t, 1), d) and isosceles_embeddable(d, (t, 1))
