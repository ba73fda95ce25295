"""Tests for exact rational geometry.

Every assertion is exact Fraction equality; named anchor values come from the
published coordinate tables this library reproduces (re-derived here by
independent substitution, not trusted blindly).
"""

from __future__ import annotations

import math
from fractions import Fraction as F
from itertools import permutations, product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from scavenger.geom import (
    INF,
    APEX_IRRATIONAL,
    APEX_OK,
    APEX_TOO_FAR,
    Plane,
    RCircle,
    apex_points_detailed,
    bisector_plane,
    circle_param,
    circumcenter,
    conic_point,
    embed_isosceles,
    equidistant_circle,
    has_rational_apex,
    rational_point_on_circle,
    reflect_point,
)
from scavenger.cycles import find_symmetric_5cycle
from scavenger.hunts import farey_parameters
from scavenger.numtheory import UnsolvableFormError
from scavenger.qcore import dist_sq, integral, midpoint, parse_point, parse_rational, point, vec

rationals = st.fractions(min_value=-30, max_value=30, max_denominator=12)


# --- planes ---------------------------------------------------------------------


def test_bisector_plane_examples():
    p = bisector_plane(point(0, 0, 0), point(2, 0, 0))
    assert p.normal == vec(2, 0, 0) and p.offset == 2  # 2x = 2, i.e. x = 1
    p = bisector_plane(point(0, 0, 0), point(5, 2, 1))
    assert p.normal == vec(5, 2, 1) and p.offset == 15
    p = bisector_plane(point(1, 1, 1), point(1, 1, 3))
    assert p.normal == vec(0, 0, 2) and p.offset == 4  # z = 2


def test_bisector_plane_rejects_coincident():
    with pytest.raises(ValueError):
        bisector_plane(point(1, 2, 3), point(1, 2, 3))


@settings(max_examples=100, deadline=None)
@given(*(rationals for _ in range(6)))
def test_bisector_plane_is_equidistant_locus(a, b, c, d, e, f):
    p, q = point(a, b, c), point(d, e, f)
    if p == q:
        return
    plane = bisector_plane(p, q)
    assert plane.contains(midpoint(p, q))
    # any point on the plane is equidistant; sample by projecting test points
    for probe in (point(1, 0, 0), point(0, 1, 0), point(f, a, c)):
        mirrored = reflect_point(probe, plane)
        assert dist_sq(probe, p) == dist_sq(mirrored, q)


def test_plane_rejects_zero_normal():
    with pytest.raises(ValueError):
        Plane(vec(0, 0, 0), 1)


# --- reflections ------------------------------------------------------------------


def test_reflect_examples():
    # planes through the origin act on points as reflections of vectors
    assert reflect_point(point(1, 0, 0), Plane(vec(1, -1, 0), 0)) == point(0, 1, 0)
    assert reflect_point(point(1, 0, 0), Plane(vec(0, 0, 1), 0)) == point(1, 0, 0)


def test_reflect_swaps_equal_norm_vectors():
    p1, p2 = point(3, 3, 2), point(F(14, 3), F(1, 3), F(1, 3))
    origin = point(0, 0, 0)
    assert dist_sq(origin, p1) == dist_sq(origin, p2) == 22
    mirror = bisector_plane(p1, p2)
    assert mirror.contains(origin)
    assert reflect_point(p1, mirror) == p2
    assert reflect_point(p2, mirror) == p1


@settings(max_examples=150, deadline=None)
@given(*(rationals for _ in range(6)))
def test_reflect_is_norm_preserving_involution(a, b, c, d, e, f):
    p, m = point(a, b, c), vec(d, e, f)
    if m.is_zero():
        return
    mirror = Plane(m, 0)
    r = reflect_point(p, mirror)
    origin = point(0, 0, 0)
    assert dist_sq(origin, r) == dist_sq(origin, p)
    assert reflect_point(r, mirror) == p


@settings(max_examples=100, deadline=None)
@given(*(rationals for _ in range(6)))
def test_reflect_point_fixes_plane_and_involutes(a, b, c, d, e, f):
    p, q = point(a, b, c), point(d, e, f)
    if p == q:
        return
    plane = bisector_plane(p, q)
    assert reflect_point(p, plane) == q
    assert reflect_point(reflect_point(point(1, 2, 3), plane), plane) == point(1, 2, 3)


# --- equidistant circles ------------------------------------------------------------


def test_equidistant_circle_named_values():
    c = equidistant_circle(point(-1, -2, 5), point(F(16, 3), F(8, 15), F(94, 15)), 30)
    assert c.center == point(F(13, 6), F(-11, 15), F(169, 30))
    assert c.radius_sq == F(539, 30)
    assert not c.degenerate

    c = equidistant_circle(point(0, 0, 0), point(-8, 5, 3), 34)
    assert c.center == point(-4, F(5, 2), F(3, 2))
    assert c.radius_sq == F(19, 2)


def test_equidistant_circle_degenerate_and_empty():
    c = equidistant_circle(point(0, 0, 0), point(2, 0, 0), 1)
    assert c.degenerate and c.center == point(1, 0, 0)
    with pytest.raises(ValueError):
        equidistant_circle(point(0, 0, 0), point(4, 0, 0), 1)
    with pytest.raises(ValueError):
        equidistant_circle(point(0, 0, 0), point(0, 0, 0), 5)


# --- charts by lines through a base point ---------------------------------------------

UNIT_CIRCLE = RCircle(point(0, 0, 0), F(1), Plane(vec(0, 0, 1), 0))


def test_conic_point_unit_circle_values():
    chart = circle_param(UNIT_CIRCLE, point(-1, 0, 0))
    assert conic_point(chart, 1) == point(0, 1, 0)
    assert conic_point(chart, 0) == point(1, 0, 0)
    assert conic_point(chart, INF) == point(-1, 0, 0)


def test_conic_point_stays_on_circle():
    chart = circle_param(UNIT_CIRCLE, point(F(3, 5), F(4, 5), 0))
    for k in range(-12, 13):
        assert UNIT_CIRCLE.contains(conic_point(chart, F(k, 5)))
    assert UNIT_CIRCLE.contains(conic_point(chart, INF))


def test_tangent_parameter_returns_base():
    chart = circle_param(UNIT_CIRCLE, point(0, 1, 0))
    s = chart.param_for_point(point(0, 1, 0))
    assert s == 0
    assert conic_point(chart, s) == point(0, 1, 0)
    # at a vertical-tangency point the tangent parameter is the infinite one
    chart = circle_param(UNIT_CIRCLE, point(-1, 0, 0))
    assert chart.param_for_point(point(-1, 0, 0)) is INF


def test_inf_reprs_as_inf():
    assert repr(INF) == "inf"


def _fraction_chart_point(chart, s):
    """The chart point at s in Fraction arithmetic: base + λ·D(s) with
    λ = −2 (base − center)·D(s) / |D(s)|², where D(s) has 1 and s on the two
    kept axes in x,y,z order (0 and 1 for INF) and lies in the circle's plane."""
    k = "xyz".index(chart.eliminated_axis)
    i, j = (m for m in range(3) if m != k)
    n = chart.circle.plane.normal.components()
    d = [F(0)] * 3
    d[i], d[j] = (F(0), F(1)) if s is INF else (F(1), F(s))
    d[k] = -(n[i] * d[i] + n[j] * d[j]) / n[k]
    d = vec(*d)
    lam = -2 * (chart.base - chart.circle.center).dot(d) / d.norm_sq()
    return chart.base + d.scale(lam)


def _oracle_charts():
    yield circle_param(UNIT_CIRCLE, point(F(3, 5), F(4, 5), 0))
    for t in (10, 22, 30, 34, 58, 66, 94):
        sym = find_symmetric_5cycle(t)
        yield circle_param(equidistant_circle(sym.x4, sym.x1, sym.t), sym.x0)
        yield circle_param(equidistant_circle(sym.x0, sym.x2, sym.t), sym.base)


def test_chart_forms_match_the_fraction_formula():
    """form_at is integral() of the Fraction chart point, and conic_point is
    that point, on the unit circle and both device charts of seven cycles."""
    checked = 0
    for chart in _oracle_charts():
        for s in farey_parameters(6) + (INF,):
            expected = _fraction_chart_point(chart, s)
            assert chart.form_at(s) == integral(expected), (chart, s)
            assert conic_point(chart, s) == expected
            checked += 1
    assert checked == 15 * (len(farey_parameters(6)) + 1)


small_vectors = st.builds(vec, *[st.integers(min_value=-5, max_value=5)] * 3)


@settings(max_examples=100, deadline=None)
@given(st.builds(point, rationals, rationals, rationals), small_vectors, small_vectors, rationals)
def test_chart_roundtrips_on_constructed_circles(center, normal, other, s):
    """A circle about `center` in the plane normal to `normal`, through
    center + normal × other: every chart point lies on it, and
    param_for_point inverts point_at at rational s, inf and the tangent."""
    w = normal.cross(other)
    if w.is_zero():
        return
    chart, base = _hand_chart(center.coords(), normal.components(), w.components())
    for param in (s, INF, chart.param_for_point(base)):
        p = chart.point_at(param)
        assert chart.circle.contains(p)
        assert chart.param_for_point(p) == param
    assert chart.point_at(chart.param_for_point(base)) == base


# --- circles as rational families ------------------------------------------------------


def test_circle_param_unit_circle_orientation():
    c = RCircle(point(0, 0, 0), F(1), Plane(vec(0, 0, 1), 0))
    cp = circle_param(c, point(1, 0, 0))
    assert cp.eliminated_axis == "z"
    assert cp.point_at(-1) == point(0, 1, 0)
    assert cp.point_at(1) == point(0, -1, 0)
    assert cp.point_at(0) == point(-1, 0, 0)  # slope-0 chord exits at the antipode
    # the base itself sits at the vertical tangent, the infinite parameter
    assert cp.param_for_point(point(1, 0, 0)) is INF
    assert cp.point_at(INF) == point(1, 0, 0)


def test_circle_param_focal_distances_stay_exact():
    v0, v2 = point(0, 0, 0), point(-8, 5, 3)
    c = equidistant_circle(v0, v2, 34)
    cp = circle_param(c, point(-5, 0, 3))
    params = [F(k, 3) for k in range(-15, 16)] + [INF]
    for s in params:
        p = cp.point_at(s)
        assert dist_sq(p, v0) == 34
        assert dist_sq(p, v2) == 34


def test_circle_param_roundtrip_parameters():
    v0, v2 = point(0, 0, 0), point(-8, 5, 3)
    c = equidistant_circle(v0, v2, 34)
    cp = circle_param(c, point(-5, 0, 3))
    for s in (F(0), F(2), F(-7, 2), F(13, 9)):
        assert cp.param_for_point(cp.point_at(s)) == s
    assert cp.param_for_point(cp.point_at(INF)) is INF
    base_param = cp.param_for_point(point(-5, 0, 3))
    assert cp.point_at(base_param) == point(-5, 0, 3)


def test_circle_param_rejects_bad_inputs():
    c = RCircle(point(0, 0, 0), F(1), Plane(vec(0, 0, 1), 0))
    with pytest.raises(ValueError):
        circle_param(c, point(2, 0, 0))
    degenerate = RCircle(point(1, 0, 0), F(0), Plane(vec(1, 0, 0), 1))
    with pytest.raises(ValueError):
        circle_param(degenerate, point(1, 0, 0))


def test_circle_param_elimination_tie_breaking():
    c = RCircle(point(0, 0, 0), F(6), Plane(vec(1, 1, 1), 0))
    cp = circle_param(c, rational_point_on_circle(c))
    assert cp.eliminated_axis == "z"
    c = RCircle(point(0, 0, 0), F(3), Plane(vec(1, 1, 0), 0))
    cp2 = circle_param(c, rational_point_on_circle(c))
    assert cp2.eliminated_axis == "y"


# --- pinned chart table ---------------------------------------------------------------

CHART_TABLE = Path(__file__).resolve().parent / "golden" / "chart_table.txt"


def _hand_chart(center, normal, w):
    """The circle about `center` in the plane normal to `normal`, through
    center + w (w orthogonal to the normal), charted from that point."""
    c, n, w = point(*center), vec(*normal), vec(*w)
    circle = RCircle(c, w.dot(w), Plane(n, n.dot(vec(*c.coords()))))
    return circle_param(circle, c + w), c + w


def _pinned_charts():
    """Name -> (chart, base): three hand-made circles eliminating x, y and z,
    and the two device circles of the first symmetric 5-cycle at t=30, based
    as the device hunt bases them."""
    sym = find_symmetric_5cycle(30)
    c02 = equidistant_circle(sym.x0, sym.x2, 30)
    b02 = rational_point_on_circle(c02)
    return {
        "elim-x": _hand_chart((1, -2, F(1, 2)), (3, 1, 2), (1, -1, -1)),
        "elim-y": _hand_chart((0, F(1, 3), 2), (1, -4, 2), (2, 0, -1)),
        "elim-z": _hand_chart((-1, 0, F(3, 4)), (2, -1, 5), (1, 2, 0)),
        "x0x2": (circle_param(c02, b02), b02),
        "x4x1": (circle_param(equidistant_circle(sym.x4, sym.x1, 30), sym.x0), sym.x0),
    }


def test_chart_matches_pinned_table():
    """Each table row `<circle> <s> <x> <y> <z>` is a chart point, both ways:
    point_at(s) is the point and param_for_point(point) is s.  Each circle's
    rows cover farey_parameters(3), inf and the base's own parameter."""
    charts = _pinned_charts()
    assert [chart.eliminated_axis for chart, _ in charts.values()] == ["x", "y", "z", "y", "z"]
    covered = {name: set() for name in charts}
    for line in CHART_TABLE.read_text(encoding="utf-8").splitlines():
        name, s_text, coords = line.split(" ", 2)
        chart, _ = charts[name]
        s = INF if s_text == "inf" else parse_rational(s_text)
        p = parse_point(coords)
        assert chart.point_at(s) == p, line
        assert chart.param_for_point(p) == s, line
        covered[name].add(s)
    for name, (chart, base) in charts.items():
        own = chart.param_for_point(base)
        assert chart.point_at(own) == base
        assert covered[name] == {*farey_parameters(3), INF, own}, name


# --- circumcenters and apexes -------------------------------------------------------


def test_circumcenter_values():
    center, r2, normal = circumcenter(point(0, 0, 0), point(1, 0, 0), point(0, 1, 0))
    assert (center, r2, normal) == (point(F(1, 2), F(1, 2), 0), F(1, 2), vec(0, 0, 1))
    center, r2, normal = circumcenter(point(1, 0, 0), point(0, 1, 0), point(0, 0, 1))
    assert (center, r2, normal) == (point(F(1, 3), F(1, 3), F(1, 3)), F(2, 3), vec(1, 1, 1))


def test_circumcenter_rejects_collinear():
    with pytest.raises(ValueError):
        circumcenter(point(0, 0, 0), point(1, 1, 1), point(2, 2, 2))


@settings(max_examples=80, deadline=None)
@given(*(st.fractions(min_value=-8, max_value=8, max_denominator=4) for _ in range(9)))
def test_circumcenter_equidistance(a, b, c, d, e, f, g, h, i):
    p1, p2, p3 = point(a, b, c), point(d, e, f), point(g, h, i)
    if (p2 - p1).cross(p3 - p1).is_zero():
        return
    center, r2, normal = circumcenter(p1, p2, p3)
    assert dist_sq(center, p1) == dist_sq(center, p2) == dist_sq(center, p3) == r2
    assert normal.dot(p2 - p1) == 0 and normal.dot(p3 - p1) == 0


def test_apex_points_tetrahedral_example():
    pts, _ = apex_points_detailed(point(1, 0, 0), point(0, 1, 0), point(0, 0, 1), 1)
    assert pts == [point(F(2, 3), F(2, 3), F(2, 3)), point(0, 0, 0)]
    for p in pts:
        for q in (point(1, 0, 0), point(0, 1, 0), point(0, 0, 1)):
            assert dist_sq(p, q) == 1


def test_apex_points_named_anchor():
    # three circle points from three different equidistant circles share one apex
    x4 = point(0, 5, 3)
    y0 = point(F(-9, 13), F(-3, 13), F(-12, 13))
    z1 = point(F(-39, 7), F(-1, 7), F(12, 7))
    q0 = point(F(-159, 227), F(-106, 227), F(1113, 227))
    pts, _ = apex_points_detailed(x4, y0, z1, 34)
    assert q0 in pts
    for p in pts:
        assert dist_sq(p, x4) == dist_sq(p, y0) == dist_sq(p, z1) == 34


def test_apex_points_over_concyclic_triple_returns_foci():
    # three points on one equidistant circle: the only equidistant points are the foci
    v0, v2 = point(0, 0, 0), point(-8, 5, 3)
    c = equidistant_circle(v0, v2, 34)
    cp = circle_param(c, point(-5, 0, 3))
    a, b, d = cp.point_at(0), cp.point_at(1), cp.point_at(-2)
    pts, _ = apex_points_detailed(a, b, d, 34)
    assert set(pts) == {v0, v2}


def test_apex_points_reasons():
    pts, reason = apex_points_detailed(point(0, 0, 0), point(1, 0, 0), point(0, 1, 0), F(1, 4))
    assert pts == [] and reason == APEX_TOO_FAR
    pts, reason = apex_points_detailed(point(0, 0, 0), point(1, 0, 0), point(0, 1, 0), F(2))
    assert reason in (APEX_OK, APEX_IRRATIONAL)
    with pytest.raises(ValueError):
        apex_points_detailed(point(0, 0, 0), point(1, 1, 1), point(2, 2, 2), 1)


def test_apex_points_irrational_case():
    # equilateral side^2=2 triangle: apex over it at t=2 needs s^2 = (2 - 2/3)/|n|^2
    pts, reason = apex_points_detailed(point(1, 1, 0), point(1, 0, 1), point(0, 1, 1), 3)
    assert reason == APEX_IRRATIONAL and pts == []


def _decide(p1, p2, p3, t):
    """has_rational_apex on the three squared distances of the points, over
    the square of the lcm of the points' denominators."""
    m = math.lcm(*(integral(p)[3] for p in (p1, p2, p3))) ** 2
    sides = [d * m for d in (dist_sq(p1, p2), dist_sq(p1, p3), dist_sq(p2, p3))]
    assert all(side.denominator == 1 for side in sides)
    return has_rational_apex(*(int(side) for side in sides), m, t)


def test_has_rational_apex_examples():
    assert _decide(point(1, 0, 0), point(0, 1, 0), point(0, 0, 1), 1)
    assert _decide(
        point(0, 5, 3),
        point(F(-9, 13), F(-3, 13), F(-12, 13)),
        point(F(-39, 7), F(-1, 7), F(12, 7)),
        34,
    )
    assert not _decide(point(1, 1, 0), point(1, 0, 1), point(0, 1, 1), 3)  # irrational
    assert not _decide(point(0, 0, 0), point(3, 0, 0), point(0, 3, 0), 1)  # too far
    assert not _decide(point(0, 0, 0), point(1, 1, 1), point(2, 2, 2), 3)  # collinear
    assert not _decide(point(0, 0, 0), point(0, 0, 0), point(1, 0, 0), 1)  # coincident


# vectors of squared norm 9, so that three of them from one center have an apex at t=9
NORM_9 = sorted(
    {
        vec(*(s * c for s, c in zip(signs, perm)))
        for base in ((3, 0, 0), (2, 2, 1))
        for perm in permutations(base)
        for signs in product((1, -1), repeat=3)
    },
    key=lambda v: v.components(),
)
small_points = st.builds(point, *[st.fractions(min_value=-4, max_value=4, max_denominator=3)] * 3)


@st.composite
def triples_and_t(draw):
    if draw(st.booleans()):
        return draw(small_points), draw(small_points), draw(small_points), draw(st.integers(1, 40))
    center = draw(small_points)
    return (*(center + draw(st.sampled_from(NORM_9)) for _ in range(3)), 9)


@settings(max_examples=200, deadline=None)
@given(triples_and_t())
def test_has_rational_apex_matches_apex_solve(case):
    p1, p2, p3, t = case
    if len({p1, p2, p3}) != 3 or (p2 - p1).cross(p3 - p1).is_zero():
        expected = False  # apex_points_detailed raises on collinear points
    else:
        expected = bool(apex_points_detailed(p1, p2, p3, t)[0])
    assert _decide(p1, p2, p3, t) == expected


@settings(max_examples=200, deadline=None)
@given(triples_and_t(), st.integers(2, 30))
def test_has_rational_apex_ignores_the_choice_of_square_denominator(case, k):
    # the same sides over m and over m·k²
    p1, p2, p3, t = case
    m = math.lcm(*(integral(p)[3] for p in (p1, p2, p3))) ** 2
    sides = [int(d * m) for d in (dist_sq(p1, p2), dist_sq(p1, p3), dist_sq(p2, p3))]
    scaled = [side * k * k for side in sides]
    assert has_rational_apex(*scaled, m * k * k, t) == has_rational_apex(*sides, m, t)


# --- exact isosceles embedding --------------------------------------------------------


def test_embed_isosceles_right_triangle():
    b1, b2, apex = embed_isosceles(2, 1)
    assert dist_sq(b1, b2) == 2
    assert dist_sq(b1, apex) == dist_sq(b2, apex) == 1


@pytest.mark.parametrize("r,d", [(26, 30), (30, 26), (22, 50), (10, 14), (34, 18)])
def test_embed_isosceles_realizes_requested_lengths(r, d):
    b1, b2, apex = embed_isosceles(r, d)
    assert dist_sq(b1, b2) == r
    assert dist_sq(b1, apex) == d
    assert dist_sq(b2, apex) == d


def test_embed_isosceles_raises_for_unembeddable():
    with pytest.raises(UnsolvableFormError):
        embed_isosceles(3, 1)


def test_rational_point_on_circle_named():
    s = equidistant_circle(point(-1, -2, 5), point(F(16, 3), F(8, 15), F(94, 15)), 30)
    p = rational_point_on_circle(s)
    assert s.contains(p)
    assert dist_sq(p, point(-1, -2, 5)) == 30
