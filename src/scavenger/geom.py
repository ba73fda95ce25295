"""Exact rational geometry in Q^3.

Planes, reflections, equidistant circles charted by the lines through a
rational base point, circumcenters, apex points over triangles, and exact
isosceles-triangle embeddings.  Nothing is approximated: it is Fraction
arithmetic, or integers where a search loops (chart points, the apex test).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .numtheory import TernaryForm, legendre_solution, three_rational_squares
from .qcore import (
    QPoint3,
    QVec3,
    Rational,
    _frac,
    dist_sq,
    from_integral,
    integral,
    is_square,
    midpoint,
    point,
    rational_square_root,
    vec,
)


class _Infinity:
    """The point at infinity of a parameter line: the parameter 1/0."""

    numerator, denominator = 1, 0

    def __repr__(self) -> str:
        return "inf"


INF = _Infinity()

_AXES = ("x", "y", "z")


# --- planes and reflections ---------------------------------------------------


@dataclass(frozen=True)
class Plane:
    """Plane normal . X = offset."""

    normal: QVec3
    offset: Rational

    def __post_init__(self):
        if self.normal.is_zero():
            raise ValueError("plane normal must be nonzero")

    def eval(self, p: QPoint3) -> Fraction:
        """Signed affine value normal . p - offset (zero exactly on the plane)."""
        n = self.normal
        return n.dx * p.x + n.dy * p.y + n.dz * p.z - self.offset

    def contains(self, p: QPoint3) -> bool:
        return self.eval(p) == 0


def reflect_point(p: QPoint3, plane: Plane) -> QPoint3:
    """Mirror image of p across the plane."""
    n = plane.normal
    coeff = 2 * plane.eval(p) / n.dot(n)
    return p + n.scale(-coeff)


def bisector_plane(p: QPoint3, q: QPoint3) -> Plane:
    """The plane of points equidistant from p and q."""
    if p == q:
        raise ValueError("coincident points have no bisector plane")
    n = q - p
    m = midpoint(p, q)
    return Plane(n, n.dx * m.x + n.dy * m.y + n.dz * m.z)


# --- circles -------------------------------------------------------------------


@dataclass(frozen=True)
class RCircle:
    """Circle in Q^3 held as center + squared radius + carrier plane."""

    center: QPoint3
    radius_sq: Rational
    plane: Plane

    def __post_init__(self):
        if self.radius_sq < 0:
            raise ValueError(f"negative squared radius {self.radius_sq}")
        if not self.plane.contains(self.center):
            raise ValueError("circle center must lie on its carrier plane")

    @property
    def degenerate(self) -> bool:
        return self.radius_sq == 0

    def contains(self, p: QPoint3) -> bool:
        return self.plane.contains(p) and dist_sq(p, self.center) == self.radius_sq


def equidistant_circle(p: QPoint3, q: QPoint3, t: Rational) -> RCircle:
    """The circle of points at squared distance t from both p and q.

    Its center is the midpoint, its plane the bisector plane, and its squared
    radius t - |pq|^2/4; an empty locus (negative squared radius) is an error,
    a single point (zero) is allowed and flagged degenerate.
    """
    t = _frac(t)
    if t <= 0:
        raise ValueError(f"squared distance must be positive, got {t}")
    plane = bisector_plane(p, q)
    radius_sq = t - dist_sq(p, q) / 4
    if radius_sq < 0:
        raise ValueError(
            f"no points at squared distance {t} from both ends of a segment of squared length {dist_sq(p, q)}"
        )
    return RCircle(midpoint(p, q), radius_sq, plane)


# --- circles as one-parameter rational families -----------------------------------


@dataclass(frozen=True)
class CircleParam:
    """A circle charted by the lines through a rational base point on it:
    parameter s = p/q (INF is 1/0) names the line with direction
    D(s) = q·U + p·V in the circle's plane, U = n_k·e_i − n_i·e_k and
    V = n_k·e_j − n_j·e_k for the plane normal n, the eliminated axis k and
    the kept axes i < j; its chart point is the line's second point on the
    circle (the base on the tangent).
    """

    circle: RCircle
    base: QPoint3
    eliminated_axis: str
    _consts: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # integers, once per chart: U and V from the normal made integral,
        # the base as B/b and base − center as W/w
        k = _AXES.index(self.eliminated_axis)
        i, j = (m for m in range(3) if m != k)
        *n, _ = integral(QPoint3(*self.circle.plane.normal.components()))
        u, v = [0] * 3, [0] * 3
        u[i], u[k], v[j], v[k] = n[k], -n[i], n[k], -n[j]
        *b, bd = integral(self.base)
        *w, wd = integral(QPoint3(*(self.base - self.circle.center).components()))
        object.__setattr__(self, "_consts", (u, v, b, bd, w, wd))

    def point_at(self, s: Rational | _Infinity) -> QPoint3:
        return conic_point(self, s)

    def form_at(self, s: Rational | _Infinity) -> tuple[int, int, int, int]:
        """integral(point_at(s)), in integers: base + λ·D(s) with
        λ = −2 (base − center)·D(s) / |D(s)|², over the common denominator
        b·w·|D(s)|² and reduced by one gcd."""
        s = s if s is INF else _frac(s)
        p, q = s.numerator, s.denominator
        u, v, b, bd, w, wd = self._consts
        d = [q * x + p * y for x, y in zip(u, v)]
        e = wd * sum(x * x for x in d)
        f = 2 * bd * sum(x * y for x, y in zip(w, d))
        x, y, z = (c * e - f * dc for c, dc in zip(b, d))
        g = math.gcd(x, y, z, bd * e)
        return x // g, y // g, z // g, bd * e // g

    def param_for_point(self, p: QPoint3) -> Fraction | _Infinity:
        """The s with point_at(s) = p, for p on the circle: the s whose D(s)
        is parallel to p − base, or to the tangent n × (base − center) when
        p is the base."""
        if not self.circle.contains(p):
            raise ValueError(f"{p} is not on the circle")
        n = self.circle.plane.normal
        d = n.cross(self.base - self.circle.center) if p == self.base else p - self.base
        u, v = (vec(*x) for x in self._consts[:2])
        slope = v.cross(d).dot(n)
        return INF if slope == 0 else d.cross(u).dot(n) / slope


def conic_point(chart: CircleParam, s: Rational | _Infinity) -> QPoint3:
    """The chart point at s, built from its integer form `chart.form_at(s)`."""
    return from_integral(chart.form_at(s))


def circle_param(c: RCircle, known_point: QPoint3) -> CircleParam:
    """Chart a circle by the lines through a known rational point on it.

    The eliminated axis is the one with the largest absolute normal
    component (ties prefer z, then y, then x), so the lines are named by
    slopes over the other two.
    """
    if c.degenerate:
        raise ValueError("degenerate circle has a single point; nothing to parameterize")
    if not c.contains(known_point):
        raise ValueError(f"{known_point} is not on the circle")
    n = c.plane.normal.components()
    biggest = max(abs(x) for x in n)
    k = max(i for i in range(3) if abs(n[i]) == biggest)
    return CircleParam(c, known_point, _AXES[k])


# --- circumcenters and apexes ------------------------------------------------------


def circumcenter(p1: QPoint3, p2: QPoint3, p3: QPoint3) -> tuple[QPoint3, Fraction, QVec3]:
    """Center, squared circumradius, and plane normal of a nondegenerate triangle."""
    u = p2 - p1
    v = p3 - p1
    normal = u.cross(v)
    if normal.is_zero():
        raise ValueError("collinear points have no circumcenter")
    uu, vv, uv = u.dot(u), v.dot(v), u.dot(v)
    det = uu * vv - uv * uv
    x = (uu * vv - uv * vv) / (2 * det)
    y = (uu * vv - uv * uu) / (2 * det)
    center = p1 + u.scale(x) + v.scale(y)
    radius_sq = dist_sq(center, p1)
    assert dist_sq(center, p2) == radius_sq and dist_sq(center, p3) == radius_sq
    return center, radius_sq, normal


APEX_OK = "ok"
APEX_TOO_FAR = "circumradius-exceeds-t"
APEX_IRRATIONAL = "irrational-apex"


def apex_points_detailed(
    p1: QPoint3, p2: QPoint3, p3: QPoint3, t: Rational
) -> tuple[list[QPoint3], str]:
    """Rational points at squared distance t from all of p1, p2, p3, with a
    reason when there are none: the circumradius already exceeding t is
    distinguished from the apex offset not being a rational square."""
    t = _frac(t)
    if t <= 0:
        raise ValueError(f"squared distance must be positive, got {t}")
    center, radius_sq, normal = circumcenter(p1, p2, p3)
    if radius_sq > t:
        return [], APEX_TOO_FAR
    s_sq = (t - radius_sq) / normal.dot(normal)
    s = rational_square_root(s_sq)
    if s is None:
        return [], APEX_IRRATIONAL
    if s == 0:
        return [center], APEX_OK
    return [center + normal.scale(s), center + normal.scale(-s)], APEX_OK


def has_rational_apex(a: int, b: int, c: int, m: int, t: int) -> bool:
    """Whether three rational points p1, p2, p3 have a rational point at
    squared distance t from all three (those apex_points_detailed returns),
    decided from their squared distances alone: |p1p2|² = a/m, |p1p3|² = b/m
    and |p2p3|² = c/m, integers over one common denominator m that is a
    square.

    D = 4ab − (a+b−c)² (over m²) is sixteen times the squared area, so it is
    zero exactly when two points coincide or all three are collinear; such a
    triple is rejected (apex_points_detailed raises on it).  Otherwise the
    squared circumradius is abc/D and the squared apex offset along the
    normal (p2−p1) × (p3−p1) is 4(tD − abc)/D², so a rational apex exists iff
    tD − abc is a non-negative rational square: the Cayley–Menger volume of
    the tetrahedron with three edges √t.  Over m³, a square, that is the
    integer square test of t·m·D − abc.
    """
    s = a + b - c
    area = 4 * a * b - s * s  # D·m²
    if area == 0:
        return False
    volume = t * m * area - a * b * c  # (tD − abc)·m³
    return volume >= 0 and is_square(volume)


# --- exact isosceles embedding -------------------------------------------------------


def _plane_frame(n: QVec3) -> tuple[QVec3, QVec3]:
    """An orthogonal rational basis (e1, e2) of the plane normal to n."""
    for axis in (vec(1, 0, 0), vec(0, 1, 0), vec(0, 0, 1)):
        e1 = n.cross(axis)
        if not e1.is_zero():
            return e1, n.cross(e1)
    raise AssertionError("nonzero vector has a nonzero cross product with some axis")


def _clear_denominators(coeffs: tuple[Fraction, Fraction, Fraction]) -> TernaryForm:
    l = math.lcm(*(c.denominator for c in coeffs))
    return TernaryForm(*(int(c * l) for c in coeffs))


def rational_point_on_circle(c: RCircle) -> QPoint3:
    """Some rational point of the circle, constructed exactly.

    Writes the circle as lambda^2 |e1|^2 + mu^2 |e2|^2 = radius_sq over an
    orthogonal plane frame and solves the homogenized ternary form.  The form
    is decided before any search, so a circle with no rational points raises
    UnsolvableFormError at once, naming the failing Legendre condition.
    """
    if c.degenerate:
        return c.center
    e1, e2 = _plane_frame(c.plane.normal)
    X, Y, Z = legendre_solution(_clear_denominators((e1.dot(e1), e2.dot(e2), -c.radius_sq)))
    assert Z != 0, "definite part forces a nonzero third coordinate"
    lam = Fraction(X, Z)
    mu = Fraction(Y, Z)
    p = c.center + e1.scale(lam) + e2.scale(mu)
    assert c.contains(p)
    return p


def embed_isosceles(r: Rational, d: Rational) -> tuple[QPoint3, QPoint3, QPoint3]:
    """Three rational points (b1, b2, apex) realizing the triangle with base
    squared length r and equal legs squared length d.

    The base is a three-rational-squares representation of r from the origin;
    the apex is an exact rational point on the equidistant circle.  Raises
    UnsolvableFormError when the triangle does not embed, ValueError when r
    is not a rational point distance at all.
    """
    r, d = _frac(r), _frac(d)
    if r <= 0 or d <= 0:
        raise ValueError("squared side lengths must be positive")
    rep = three_rational_squares(r)
    if rep is None:
        raise ValueError(f"no segment of squared length {r} exists over the rationals")
    b1 = point(0, 0, 0)
    b2 = point(*rep)
    circle = equidistant_circle(b1, b2, d)
    apex = rational_point_on_circle(circle)
    assert dist_sq(b1, apex) == d and dist_sq(b2, apex) == d and dist_sq(b1, b2) == r
    return b1, b2, apex
