"""Exact rational scalars, points and vectors in Q^3.

Everything downstream works over `fractions.Fraction` (aliased `Rational`),
which is always stored in lowest terms with a positive denominator.  No
floating point is used anywhere.
"""

from __future__ import annotations

import math
import re
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

Rational = Fraction

_RATIONAL_RE = re.compile(r"^-?\d+(?:/[1-9]\d*)?$", re.ASCII)


def parse_rational(text: str) -> Fraction:
    """Parse ASCII `a` or `a/b` with optional leading minus; reject anything else."""
    s = text.strip()
    if not _RATIONAL_RE.match(s):
        raise ValueError(f"not a rational literal: {text!r}")
    return Fraction(s)


def format_rational(q: Fraction) -> str:
    """Canonical text form: `a/b` in lowest terms, or `a` for integers."""
    return str(q)


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return parse_rational(x)
    raise TypeError(f"expected rational, got {type(x).__name__}")


@dataclass(frozen=True)
class QVec3:
    """Displacement vector with exact rational components."""

    dx: Fraction
    dy: Fraction
    dz: Fraction

    def __add__(self, other: "QVec3") -> "QVec3":
        return QVec3(self.dx + other.dx, self.dy + other.dy, self.dz + other.dz)

    def __sub__(self, other: "QVec3") -> "QVec3":
        return QVec3(self.dx - other.dx, self.dy - other.dy, self.dz - other.dz)

    def __neg__(self) -> "QVec3":
        return QVec3(-self.dx, -self.dy, -self.dz)

    def scale(self, k) -> "QVec3":
        k = _frac(k)
        return QVec3(self.dx * k, self.dy * k, self.dz * k)

    def dot(self, other: "QVec3") -> Fraction:
        return self.dx * other.dx + self.dy * other.dy + self.dz * other.dz

    def cross(self, other: "QVec3") -> "QVec3":
        return QVec3(
            self.dy * other.dz - self.dz * other.dy,
            self.dz * other.dx - self.dx * other.dz,
            self.dx * other.dy - self.dy * other.dx,
        )

    def norm_sq(self) -> Fraction:
        return self.dot(self)

    def is_zero(self) -> bool:
        return self.dx == 0 and self.dy == 0 and self.dz == 0

    def components(self) -> tuple[Fraction, Fraction, Fraction]:
        return (self.dx, self.dy, self.dz)


@dataclass(frozen=True)
class QPoint3:
    """Point of Q^3 with exact rational coordinates."""

    x: Fraction
    y: Fraction
    z: Fraction

    def __sub__(self, other: "QPoint3") -> QVec3:
        return QVec3(self.x - other.x, self.y - other.y, self.z - other.z)

    def __add__(self, v: QVec3) -> "QPoint3":
        return QPoint3(self.x + v.dx, self.y + v.dy, self.z + v.dz)

    def coords(self) -> tuple[Fraction, Fraction, Fraction]:
        return (self.x, self.y, self.z)


def vec(a, b, c) -> QVec3:
    return QVec3(_frac(a), _frac(b), _frac(c))


def point(a, b, c) -> QPoint3:
    return QPoint3(_frac(a), _frac(b), _frac(c))


def dist_sq(p: QPoint3, q: QPoint3) -> Fraction:
    return (p - q).norm_sq()


def integral(p: QPoint3) -> tuple[int, int, int, int]:
    """p as integers (X, Y, Z, D) with p = (X/D, Y/D, Z/D), D the lcm of
    its coordinates' denominators."""
    d = math.lcm(p.x.denominator, p.y.denominator, p.z.denominator)
    return (*(c.numerator * (d // c.denominator) for c in p.coords()), d)


def from_integral(form: tuple[int, int, int, int]) -> QPoint3:
    """The point (X/D, Y/D, Z/D) of an `integral` form (X, Y, Z, D)."""
    *xyz, d = form
    return QPoint3(*(Fraction(c, d) for c in xyz))


def integral_dist_sq(p, q) -> tuple[int, int]:
    """|pq|² of two `integral` points as an unreduced (numerator,
    denominator) pair."""
    (x, y, z, d), (u, v, w, e) = p, q
    return (x * e - u * d) ** 2 + (y * e - v * d) ** 2 + (z * e - w * d) ** 2, (d * e) ** 2


def midpoint(p: QPoint3, q: QPoint3) -> QPoint3:
    half = Fraction(1, 2)
    return QPoint3((p.x + q.x) * half, (p.y + q.y) * half, (p.z + q.z) * half)


def parse_point(text: str) -> QPoint3:
    """Parse three whitespace-separated rationals into a point."""
    parts = text.split()
    if len(parts) != 3:
        raise ValueError(f"expected three rationals, got {len(parts)}: {text!r}")
    a, b, c = (parse_rational(p) for p in parts)
    return QPoint3(a, b, c)


def content_lines(text: str) -> Iterator[tuple[int, str]]:
    """(1-based line number, content) for every line of `text` that keeps
    some content once its `#` comment and surrounding blanks are stripped."""
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def parse_point_line(line: str, lineno: int) -> QPoint3:
    """A content line holding one point; errors name `line N`, and a bad
    token also its `column C`, counted from the start of the content."""
    tokens = list(re.finditer(r"\S+", line))
    if len(tokens) != 3:
        raise ValueError(f"line {lineno}: expected three coordinates, got {len(tokens)}")
    coords = []
    for tok in tokens:
        try:
            coords.append(parse_rational(tok.group()))
        except ValueError as exc:
            raise ValueError(f"line {lineno}, column {tok.start() + 1}: {exc}") from None
    return QPoint3(*coords)


def format_point(p: QPoint3) -> str:
    return f"{p.x} {p.y} {p.z}"


# --- integer factorization helpers -----------------------------------------

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_probable_prime(n: int) -> bool:
    # deterministic Miller-Rabin for n < 3.3e24 with this witness set
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    # Brent's cycle-finding variant; n must be odd composite, not a prime power base case
    if n % 2 == 0:
        return 2
    seed = 1
    while True:
        seed += 1
        y, c, m = seed, seed + 1, 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as {prime: exponent}."""
    if n < 1:
        raise ValueError(f"factorize expects n >= 1, got {n}")
    return dict(_factorize_cached(n))


@lru_cache(maxsize=65536)
def _factorize_cached(n: int) -> tuple[tuple[int, int], ...]:
    factors: dict[int, int] = {}
    for p in (2, 3, 5):
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    # wheel mod 30 trial division
    increments = (4, 2, 4, 2, 4, 6, 2, 6)
    p, i = 7, 0
    while p * p <= n and p < 100_000:
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
        p += increments[i]
        i = (i + 1) % 8
    if n > 1:
        stack = [n]
        while stack:
            m = stack.pop()
            if m == 1:
                continue
            # m has no factor below p, so m < p² is prime without Miller–Rabin
            if m < p * p or _is_probable_prime(m):
                factors[m] = factors.get(m, 0) + 1
                continue
            d = _pollard_rho(m)
            stack.append(d)
            stack.append(m // d)
    return tuple(sorted(factors.items()))


def squarefree_part(n: int) -> int:
    """The square-free kernel of n > 0: product of primes with odd exponent."""
    if n <= 0:
        raise ValueError(f"squarefree_part expects n > 0, got {n}")
    out = 1
    for p, e in factorize(n).items():
        if e % 2 == 1:
            out *= p
    return out


_SQ63, _SQ65, _SQ11 = (frozenset(k * k % m for k in range(m)) for m in (63, 65, 11))


def is_square(n: int) -> bool:
    """Whether the integer n >= 0 is a perfect square.  An odd power of two
    rejects it; once an even one is shifted out, the odd part must be 1 mod 8
    and a square mod 63, 65 and 11, which rejects all but about 0.8% of
    non-squares before `isqrt`."""
    if n == 0:
        return True
    twos = (n & -n).bit_length() - 1
    if twos & 1:
        return False
    n >>= twos
    residue = n & 7 == 1 and n % 63 in _SQ63 and n % 65 in _SQ65 and n % 11 in _SQ11
    return residue and math.isqrt(n) ** 2 == n


def rational_square_root(q: Fraction) -> Fraction | None:
    """Exact square root of q >= 0, or None when q is not a rational square."""
    q = _frac(q)
    if q < 0:
        raise ValueError(f"square root of negative rational {q}")
    if q == 0:
        return Fraction(0)
    rn = math.isqrt(q.numerator)
    rd = math.isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None
