from __future__ import annotations

from collections import Counter
from fractions import Fraction as F
from functools import cache
from itertools import product
from math import isqrt
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from scavenger import cli, geom, hunts
from scavenger.cycles import SymCycle, find_symmetric_5cycle, parallel_first
from scavenger.geom import (
    INF,
    Plane,
    RCircle,
    apex_points_detailed,
    bisector_plane,
    circle_param,
    embed_isosceles,
    equidistant_circle,
    has_rational_apex,
    rational_point_on_circle,
    reflect_point,
)
from scavenger.graph import adjacency, build_graph, is_proper, is_triangle_free, k_colorable
from scavenger.hunts import (
    Certificate,
    _gt_first_apex,
    circle_plane_intersections,
    farey_parameters,
    format_certificate,
    greedy_hunt,
    grotzsch_subgraph_hunt,
    grotzsch_type_hunt,
    gt_apex_feet,
    gt_structural_edges,
    h_edges,
    parse_certificate,
    read_certificate,
    verify_certificate,
)
from scavenger.qcore import (
    dist_sq,
    format_point,
    integral,
    integral_dist_sq,
    parse_point,
    point,
    rational_square_root,
    vec,
)
from symcycles import solved_base

DATA = Path(__file__).resolve().parent.parent / "data"
GOLDEN = Path(__file__).resolve().parent / "golden"

SEED_22 = [
    parse_point(s)
    for s in ["0 0 0", "14/3 1/3 1/3", "19/3 -1/3 14/3", "6 0 0", "3 3 2"]
]


def _cert(name: str) -> Certificate:
    return read_certificate(DATA / name)


# --- greedy accumulation -----------------------------------------------------------


def _in_candidate_set(p, denominator, box) -> bool:
    return all(abs(c) <= box and (c * denominator).denominator == 1 for c in p.coords())


def _shifted(seed, offset):
    return [point(*(c + o for c, o in zip(p.coords(), offset))) for p in seed]


def test_greedy_rejects_even_denominators_and_empty_boxes():
    for d in (2, 0, -3):
        with pytest.raises(ValueError, match="must be odd and positive"):
            greedy_hunt(22, SEED_22, d)
    for box in (F(0), F(-3)):
        with pytest.raises(ValueError, match="empty candidate box"):
            greedy_hunt(22, SEED_22, 3, box)


def test_greedy_errors_come_in_order():
    # denominator, box, 5-cycle, seed membership, cap: each is reported
    # while every later one also fails
    bad = SEED_22[:4] + [point(100, 100, 100)]
    for args, message in [
        ((bad, 2, F(0), 1), "must be odd"),
        ((bad, 3, F(0), 1), "empty candidate box"),
        ((bad, 3, F(2), 1), "5-cycle"),
        ((SEED_22, 3, F(2), 1), "outside the candidate set"),
        ((SEED_22, 3, F(10), 4), "below the seed size"),
    ]:
        with pytest.raises(ValueError, match=message):
            greedy_hunt(22, *args)


def test_greedy_seed_membership():
    # 14/3 needs the denominator 3, and 19/3 is the seed's largest coordinate
    with pytest.raises(ValueError, match="seed point 14/3 1/3 1/3 is outside"):
        greedy_hunt(22, SEED_22, 1)
    with pytest.raises(ValueError, match="seed point 19/3 -1/3 14/3 is outside"):
        greedy_hunt(22, SEED_22, 3, F(6))
    with pytest.raises(ValueError, match="seed point 1/2 0 0 is outside"):
        greedy_hunt(22, _shifted(SEED_22, (F(1, 2), 0, 0)), 3)
    # a coordinate on the box's face is inside
    assert greedy_hunt(22, SEED_22, 3, F(19, 3), cap=5).graph.vertices == tuple(SEED_22)
    shifted = _shifted(SEED_22, (F(1, 3), F(-2, 3), 4))
    assert greedy_hunt(22, shifted, 3, cap=5).graph.vertices == tuple(shifted)


def test_greedy_step_vectors_join_the_seed():
    # the seed is admitted like any candidate, so its five edges are found by
    # step vectors over both divisors of 3: 14/3 1/3 1/3 has denominator 3,
    # and 3 3 2 - 6 0 0 denominator 1
    res = greedy_hunt(22, SEED_22, 3, cap=5)
    assert res.graph.edges == {(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)}
    steps = {
        tuple(b - a for a, b in zip(p.coords(), q.coords())) for p, q in zip(SEED_22, SEED_22[1:])
    }
    assert (F(14, 3), F(1, 3), F(1, 3)) in steps and (-3, 3, 2) in steps


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([1, 3, 9, 15]),
    st.fractions(F(3), F(12), max_denominator=6),
    st.sampled_from([1, 3, 5]),
    st.tuples(*[st.integers(-3, 3)] * 3),
)
@example(3, F(19, 3), 1, (0, 0, 0))  # a seed coordinate on the box's face
@example(3, F(6), 1, (0, 0, 0))  # and just outside it
def test_greedy_refuses_a_seed_exactly_off_the_candidate_set(d, box, q, shift):
    # a translated 5-cycle is a 5-cycle; with cap 5 the hunt stops at the seed
    seed = _shifted(SEED_22, [F(k, q) for k in shift])
    if all(_in_candidate_set(p, d, box) for p in seed):
        assert greedy_hunt(22, seed, d, box, cap=5).graph.vertices == tuple(seed)
    else:
        with pytest.raises(ValueError, match="outside the candidate set"):
            greedy_hunt(22, seed, d, box, cap=5)


def test_greedy_requires_cycle_seed():
    bad = SEED_22[:4] + [point(100, 100, 100)]
    with pytest.raises(ValueError):
        greedy_hunt(22, bad, 3)


def test_greedy_requires_seed_inside_box():
    with pytest.raises(ValueError):
        greedy_hunt(22, SEED_22, 3, F(2))


def test_greedy_rejects_cap_below_seed():
    with pytest.raises(ValueError):
        greedy_hunt(22, SEED_22, 3, cap=4)


def test_greedy_finds_non_3_colorable_set():
    res = greedy_hunt(22, SEED_22, 3, F(10), cap=1000)
    assert res.succeeded
    assert res.graph.order <= 1000
    assert res.coloring is None
    adj = adjacency(res.graph.order, res.graph.edges)
    assert k_colorable(adj, 3) is None
    assert k_colorable(adj, 4) is not None
    # the hunt hands back its certificate with that certificate's one report
    assert res.graph == build_graph(list(res.graph.vertices), 22)
    assert res.certificate.points == res.graph.vertices
    assert res.certificate.edges == tuple(sorted(res.graph.edges))
    assert res.report == verify_certificate(res.certificate)
    assert res.report.verdict == "PASS"


def test_greedy_cap_failure_keeps_last_coloring():
    res = greedy_hunt(22, SEED_22, 3, F(10), cap=12)
    assert not res.succeeded
    assert res.graph.order == 12
    assert res.certificate is None and res.report is None
    coloring = res.coloring
    assert coloring is not None
    adj = adjacency(res.graph.order, res.graph.edges)
    assert is_proper(adj, coloring)
    assert k_colorable(adj, 3) is not None
    assert len(set(coloring)) <= 3


def test_greedy_deterministic():
    a = greedy_hunt(22, SEED_22, 3, cap=20)
    b = greedy_hunt(22, SEED_22, 3, cap=20)
    assert a.graph.vertices == b.graph.vertices


def _greedy_run_text(res) -> str:
    """One line per vertex in admission order: the point, then its color in
    the hunt's last 3-coloring."""
    return "".join(f"{format_point(p)} {c}\n" for p, c in zip(res.graph.vertices, res.coloring))


def test_greedy_long_run_matches_golden():
    # each of the 115 admissions breaks its ties on the stored coloring, so
    # the sequence checks every coloring the run computed, and the last one
    # is pinned whole
    res = greedy_hunt(22, SEED_22, 15, cap=120)
    assert not res.succeeded and res.graph.order == 120
    want = (GOLDEN / "hunt_greedy_d15_cap120.txt").read_text(encoding="utf-8")
    assert _greedy_run_text(res) == want


SEED_22_IMAGE = [point(p.x, -p.y, -p.z) for p in SEED_22]


@pytest.mark.parametrize(
    "seed,spec,cap,succeeded",
    [
        (SEED_22, (3, F(10)), 1000, True),
        (SEED_22_IMAGE, (3, F(13, 2)), 1000, True),  # the box binds
        (SEED_22, (15, F(10)), 40, False),
    ],
)
def test_greedy_edges_are_the_distance_graph(seed, spec, cap, succeeded):
    # the hunt joins candidates by step vectors only; that finds every pair
    # build_graph finds.  spec is (denominator, box)
    res = greedy_hunt(22, seed, *spec, cap=cap)
    assert res.succeeded == succeeded
    assert res.graph.vertices[:5] == tuple(seed)
    assert all(_in_candidate_set(p, *spec) for p in res.graph.vertices)
    assert res.graph.edges == build_graph(list(res.graph.vertices), 22).edges


# --- the order-25 shape ------------------------------------------------------------


def test_structural_edge_census():
    edges = gt_structural_edges()
    assert len(edges) == 50
    assert len(set(edges)) == 50
    cycle = [e for e in edges if e[1] < 5]
    circle = [e for e in edges if e[0] < 5 <= e[1] < 20]
    apex = [e for e in edges if e[1] >= 20]
    assert (len(cycle), len(circle), len(apex)) == (5, 30, 15)
    degree = [0] * 25
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    assert sorted(degree) == [3] * 20 + [8] * 5


def test_apex_feet_are_x_y_z_around_each_apex():
    # Q_i stands over X_{i-1}, Y_i, Z_{i+1}, in that order
    assert gt_apex_feet() == tuple((5 + (i - 1) % 5, 10 + i, 15 + (i + 1) % 5) for i in range(5))


def test_order25_type_rejects_broken_table():
    good = _cert("t34_order25.cert")
    cert = Certificate(good.kind, good.t, good.points[:24], None, {})
    report = verify_certificate(cert)
    assert report.render() == "CHECK order FAIL expected 25 labeled points, got 24\nVERDICT FAIL\n"
    assert report.exit_code == 1


# --- verification of reference certificates ----------------------------------------


def test_reference_order25_tables_verify():
    for name, distinct in (("t34_order25.cert", 22), ("t66_order25.cert", 24)):
        report = verify_certificate(_cert(name))
        assert report.verdict == "PASS"
        assert report.exit_code == 0
        rendered = report.render()
        assert f"{distinct} distinct points" in rendered
        assert "CHECK chromatic PASS" in rendered


def test_uncorrected_t34_fails_with_named_edges():
    report = verify_certificate(_cert("t34_order25_uncorrected.cert"))
    assert report.verdict == "FAIL"
    assert report.exit_code == 1
    rendered = report.render()
    assert "v0-X4=41" in rendered
    assert "v3-X4=41" in rendered
    assert "CHECK chromatic FAIL" in rendered


def test_uncorrected_t66_fails_on_y2_and_q2():
    report = verify_certificate(_cert("t66_order25_uncorrected.cert"))
    assert report.verdict == "FAIL"
    rendered = report.render()
    assert "v1-Y2" in rendered
    assert "Y2-Q2" in rendered


def test_apex_meeting_a_non_assigned_circle_point_fails_exclusivity():
    cert = _cert("t34_order25.cert")
    # Q0's assigned circle points are X4, Y0 and Z1; X0 moves to √34 from Q0
    q0 = cert.points[20]
    points = list(cert.points)
    points[5] = q0 + vec(3, 5, 0)
    assert points[5] not in (points[9], points[10], points[16])
    report = verify_certificate(Certificate(cert.kind, cert.t, tuple(points), cert.edges, cert.data))
    check = {c.name: c for c in report.checks}["apex-exclusive"]
    assert check.status == "FAIL"
    assert "Q0-X0=34" in check.detail.split()
    assert report.verdict == "FAIL"


def test_direct_certificate_verifies():
    cert = _cert("t22_direct.cert")
    report = verify_certificate(cert)
    assert report.verdict == "PASS"
    rendered = report.render()
    assert "29 distinct points" in rendered
    assert "CHECK edge-set PASS" in rendered
    g = build_graph(list(cert.points), 22)
    assert len(g.edges) == 65
    assert is_triangle_free(adjacency(g.order, g.edges))


def test_direct_certificate_catches_edge_mismatch():
    cert = _cert("t22_direct.cert")
    tampered = Certificate(cert.kind, cert.t, cert.points, cert.edges[:-1], {})
    report = verify_certificate(tampered)
    assert report.verdict == "FAIL"
    assert "extra=" in report.render()


def test_device_certificate_warns_on_inconsistent_radius():
    report = verify_certificate(_cert("t30_device.cert"))
    assert report.verdict == "PASS-WITH-WARNINGS"
    assert report.exit_code == 2
    rendered = report.render()
    assert "CHECK radius WARN" in rendered
    assert "1081/10" in rendered
    assert "539/30" in rendered
    assert "2216/55" in rendered
    assert "1078/15" in rendered
    assert "CHECK chain PASS" in rendered


def test_device_certificate_clean_data_passes():
    cert = _cert("t30_device.cert")
    clean = Certificate(cert.kind, cert.t, cert.points, cert.edges, {"z": cert.points[9]})
    report = verify_certificate(clean)
    assert report.verdict == "PASS"
    assert report.exit_code == 0


def test_device_certificate_rejects_wrong_h_claim():
    cert = _cert("t30_device.cert")
    bad = Certificate(cert.kind, cert.t, cert.points, cert.edges, {"h": F(2)})
    report = verify_certificate(bad)
    assert report.verdict == "FAIL"
    assert "membership-value" in report.render()


def test_device_certificate_rejects_broken_edge():
    cert = _cert("t30_device.cert")
    pts = list(cert.points)
    pts[5] = pts[5] + (pts[5] - pts[6])  # slide y0 off its spheres
    report = verify_certificate(Certificate(cert.kind, cert.t, tuple(pts), cert.edges, {}))
    assert report.verdict == "FAIL"
    assert "h-edges" in report.render()


def test_device_certificate_rejects_wrong_order():
    cert = _cert("t30_device.cert")
    report = verify_certificate(
        Certificate(cert.kind, cert.t, cert.points[:9], None, {})
    )
    assert report.failed
    report = verify_certificate(
        Certificate(cert.kind, cert.t, cert.points[:9] + (cert.points[0],), None, {})
    )
    assert report.failed


# --- certificate file format --------------------------------------------------------


def test_certificate_roundtrip():
    for name in (
        "t22_direct.cert",
        "t34_order25.cert",
        "t66_order25.cert",
        "t30_device.cert",
    ):
        cert = _cert(name)
        assert parse_certificate(format_certificate(cert)) == cert


def test_certificate_rejects_unknown_kind():
    with pytest.raises(ValueError, match="kind"):
        parse_certificate("certificate bogus t=10\n[vertices]\n0 0 0\n")
    with pytest.raises(ValueError):
        Certificate("bogus", 10, (point(0, 0, 0),))


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("", "empty"),
        ("certificate direct-chromatic\n", "header"),
        ("certificate direct-chromatic t=x\n[vertices]\n0 0 0\n", "integer"),
        ("certificate h-device t=0\n[vertices]\n0 0 0\n", "line 1: t must be positive"),
        ("certificate direct-chromatic t=10\n0 0 0\n", "outside"),
        ("certificate direct-chromatic t=10\n[vertices]\n0 0\n", "line 3"),
        ("certificate direct-chromatic t=10\n[vertices]\n0 0 0\n[edges]\n0\n", "indices"),
        ("certificate direct-chromatic t=10\n[vertices]\n0 0 0\n[edges]\n0 3\n", "range"),
        ("certificate direct-chromatic t=10\n[vertices]\n0 0 0\n[data]\nnope\n", "key=value"),
        ("certificate h-device t=30\n[vertices]\n0 0 0\n[data]\nh=1 2 3\n", "line 5: not a rational"),
        ("certificate h-device t=30\n[vertices]\n0 0 0\n[data]\nradius_sq=1 2 3\n", "line 5: not a rational"),
        ("certificate h-device t=30\n[vertices]\n0 0 0\n[data]\nz=5\n", "line 5: expected three"),
        ("certificate direct-chromatic t=10\n", "no"),
    ],
)
def test_certificate_parse_errors(text, fragment):
    with pytest.raises(ValueError, match=fragment):
        parse_certificate(text)


def test_certificate_comments_and_blank_lines():
    text = (
        "# reference\ncertificate direct-chromatic t=2\n\n[vertices]\n"
        "0 0 0  # origin\n1 1 0\n"
    )
    cert = parse_certificate(text)
    assert cert.t == 2
    assert len(cert.points) == 2
    assert cert.edges is None


# --- parameter lists ----------------------------------------------------------------


def test_farey_parameters_small():
    assert farey_parameters(1) == (F(-1), F(0), F(1))
    two = farey_parameters(2)
    assert set(two) == {F(0), F(1), F(-1), F(2), F(-2), F(1, 2), F(-1, 2)}
    assert list(two) == sorted(two)
    with pytest.raises(ValueError):
        farey_parameters(0)


def test_farey_parameters_reduced():
    for s in farey_parameters(6):
        assert abs(s.numerator) <= 6 and 1 <= s.denominator <= 6


# --- constructive hunts ---------------------------------------------------------------


def _reference_charts(name: str):
    """The certificate and the hunt's five charts on its cycle: chart i
    parameterizes the circle about v_{i-1}, v_{i+1}."""
    cert = _cert(name)
    vs = cert.points[:5]
    charts = []
    for i in range(5):
        circle = equidistant_circle(vs[(i - 1) % 5], vs[(i + 1) % 5], cert.t)
        charts.append(circle_param(circle, rational_point_on_circle(circle)))
    return cert, charts


def _oracle_params(name="t34_order25.cert"):
    cert, charts = _reference_charts(name)
    rings = cert.points[5:20]
    values = set()
    for i, chart in enumerate(charts):
        for ring in range(3):
            values.add(chart.param_for_point(rings[5 * ring + i]))
    finite = sorted(v for v in values if v is not INF)
    if INF in values:
        finite.append(INF)
    return cert.points[:5], finite


def test_grotzsch_type_hunt_succeeds_on_reference_cycle():
    cycle, params = _oracle_params()
    out = grotzsch_type_hunt(34, list(cycle), params)
    assert out is not None
    hits, cert, report = out
    assert verify_certificate(cert).verdict == "PASS"
    assert report == verify_certificate(cert)
    assert cert.points[:5] == cycle
    assert cert.edges == gt_structural_edges()
    _, charts = _reference_charts("t34_order25.cert")
    for i, feet in enumerate(gt_apex_feet()):
        assert len(hits[i]) == 3
        for f, m in zip(feet, hits[i]):
            assert cert.points[f] == charts[f % 5].point_at(params[m])


@pytest.mark.parametrize("name,t", [("t34_order25.cert", 34), ("t66_order25.cert", 66)])
def test_grotzsch_type_hunt_matches_golden(name, t):
    cycle, params = _oracle_params(name)
    out = grotzsch_type_hunt(t, list(cycle), params)
    want = (GOLDEN / f"hunt_order25_t{t}.txt").read_text(encoding="utf-8")
    assert format_certificate(out[1]) + out[2].render() == want


def test_grotzsch_type_hunt_exhausts_small_list():
    cycle, _ = _oracle_params()
    assert grotzsch_type_hunt(34, list(cycle), [F(0)]) is None
    assert grotzsch_type_hunt(34, list(cycle), []) is None


def test_grotzsch_type_hunt_rejects_non_cycle():
    with pytest.raises(ValueError):
        grotzsch_type_hunt(34, [point(i, 0, 0) for i in range(5)], [F(0)])


# --- the order-25 table test against the apex solve ---------------------------------


def _apex_oracle(x, y, z, t) -> bool:
    """Whether the apex solve finds a rational apex.  Coincident points have
    none, and neither do collinear ones, on which `circumcenter` raises."""
    if len({x, y, z}) != 3:
        return False
    try:
        return bool(apex_points_detailed(x, y, z, t)[0])
    except ValueError:
        return False


def _table_decides(x, y, z, t) -> bool:
    """The order-25 hunt's decision: the squared sides as numerators over
    the common square denominator (dx·dy·dz)² of the points' forms."""
    forms = [integral(p) for p in (x, y, z)]
    a, b, c = (integral_dist_sq(forms[m], forms[n])[0] for m, n in ((0, 1), (0, 2), (1, 2)))
    dx, dy, dz = (form[3] ** 2 for form in forms)
    return has_rational_apex(a * dz, b * dy, c * dx, dx * dy * dz, t)


def _ring_charts(charts, i):
    """The charts of X_{i-1}, Y_i and Z_{i+1}, the three points under Q_i."""
    return charts[(i - 1) % 5], charts[i], charts[(i + 1) % 5]


def _ring_points(cert, i):
    pts = cert.points
    return pts[5 + (i - 1) % 5], pts[10 + i], pts[15 + (i + 1) % 5]


@cache
def _reference_hits(name: str):
    """The certificate, its charts, and per ring i the chart parameters of
    the certificate's own X_{i-1}, Y_i, Z_{i+1}: a known hit."""
    cert, charts = _reference_charts(name)
    hits = tuple(
        tuple(chart.param_for_point(p) for chart, p in zip(_ring_charts(charts, i), _ring_points(cert, i)))
        for i in range(5)
    )
    return cert, charts, hits


def _near(s):
    """s itself, or a nearby fraction (p+dp)/(q+dq) with |dp|, |dq| ≤ 2."""
    if s is INF:
        return st.one_of(st.just(INF), st.integers(-60, 60).map(F))
    return st.one_of(
        st.just(s),
        st.tuples(st.integers(-2, 2), st.integers(-2, 2))
        .filter(lambda d: s.denominator + d[1] >= 1)
        .map(lambda d: F(s.numerator + d[0], s.denominator + d[1])),
    )


SMALL_PARAMS = st.one_of(
    st.just(INF),
    st.builds(F, st.integers(-12, 12), st.integers(1, 12)),
)


@pytest.mark.parametrize("name", ["t34_order25.cert", "t66_order25.cert"])
def test_table_test_accepts_every_reference_apex(name):
    cert, charts, hits = _reference_hits(name)
    for i in range(5):
        pts = tuple(chart.point_at(s) for chart, s in zip(_ring_charts(charts, i), hits[i]))
        assert pts == _ring_points(cert, i)
        assert _table_decides(*pts, cert.t)
        assert cert.points[20 + i] in apex_points_detailed(*pts, cert.t)[0]


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    name=st.sampled_from(["t34_order25.cert", "t66_order25.cert"]),
    ring=st.integers(0, 4),
)
def test_table_test_agrees_with_apex_solve(data, name, ring):
    cert, charts, hits = _reference_hits(name)
    params = [data.draw(st.one_of(_near(s), SMALL_PARAMS)) for s in hits[ring]]
    x, y, z = (chart.point_at(s) for chart, s in zip(_ring_charts(charts, ring), params))
    assert _table_decides(x, y, z, cert.t) == _apex_oracle(x, y, z, cert.t)


@pytest.mark.parametrize("reverse", [False, True])
def test_grotzsch_type_hunt_takes_the_first_hit_in_product_order(reverse):
    cycle, params = _oracle_params()
    if reverse:
        params = params[::-1]
    hits, cert, _ = grotzsch_type_hunt(34, list(cycle), params)
    _, charts = _reference_charts("t34_order25.cert")
    for i in range(5):
        rows = [[chart.point_at(s) for s in params] for chart in _ring_charts(charts, i)]
        first = next(
            (a, b, c)
            for a, b, c in product(range(len(params)), repeat=3)
            if _apex_oracle(rows[0][a], rows[1][b], rows[2][c], 34)
        )
        assert hits[i] == first
        assert _ring_points(cert, i) == (rows[0][first[0]], rows[1][first[1]], rows[2][first[2]])


@pytest.mark.parametrize("name", ["t34_order25.cert", "t66_order25.cert"])
def test_grotzsch_type_tables_hold_the_dist_sq(monkeypatch, name):
    cycle, params = _oracle_params(name)
    params = [*farey_parameters(2), *params]
    _, charts = _reference_charts(name)
    read = []

    def checked(candidates, predicate):
        ring = len(read)
        xs, ys, zs = ([chart.point_at(s) for s in params] for chart in _ring_charts(charts, ring))
        candidates = list(candidates)
        for (i, j), dx, dy, a, dz_row, xz_row, yz_row in candidates:
            assert (dx, dy) == (integral(xs[i])[3] ** 2, integral(ys[j])[3] ** 2)
            assert F(a, dx * dy) == dist_sq(xs[i], ys[j])
            assert dz_row == [integral(z)[3] ** 2 for z in zs]
            for z, dz, b, c in zip(zs, dz_row, xz_row, yz_row, strict=True):
                assert (F(b, dx * dz), F(c, dy * dz)) == (dist_sq(xs[i], z), dist_sq(ys[j], z))
        read.append(len(candidates))
        return parallel_first(candidates, predicate)

    monkeypatch.setattr(hunts, "parallel_first", checked)
    cert = _cert(name)
    assert grotzsch_type_hunt(cert.t, list(cycle), params) is not None
    assert read == [len(params) ** 2] * 5


def test_collinear_triple_is_rejected_and_the_row_scan_moves_on():
    x, y = point(0, 0, 0), point(2, 0, 0)
    zs = (point(4, 0, 0), point(0, 2, 0), point(2, 2, 0))
    # the first Z is collinear with X, Y; the other two share the apex (1, 1, 1)
    with pytest.raises(ValueError, match="collinear"):
        apex_points_detailed(x, y, zs[0], 3)
    assert not _table_decides(x, y, zs[0], 3)
    for z in zs[1:]:
        assert point(1, 1, 1) in apex_points_detailed(x, y, z, 3)[0]
    x, y, *zs = (integral(p) for p in (x, y, *zs))
    candidate = (
        (4, 7),
        x[3] ** 2,
        y[3] ** 2,
        integral_dist_sq(x, y)[0],
        [z[3] ** 2 for z in zs],
        [integral_dist_sq(x, z)[0] for z in zs],
        [integral_dist_sq(y, z)[0] for z in zs],
    )
    assert _gt_first_apex(3, candidate) == (4, 7, 1)


def _reference_device():
    cert = _cert("t30_device.cert")
    pts = cert.points
    sym = SymCycle(*pts[:5], F(30), bisector_plane(pts[0], pts[4]), solved_base(pts[0], pts[2], 30))
    return cert, sym


def test_circle_plane_intersections_exact():
    cert, sym = _reference_device()
    y0, y1, z = cert.points[5], cert.points[6], cert.points[9]
    locus = equidistant_circle(y0, y1, 30)
    roots = circle_plane_intersections(locus, sym.plane)
    assert z in roots
    for r in roots:
        assert sym.plane.contains(r)
        assert dist_sq(r, y0) == 30
        assert dist_sq(r, y1) == 30


# --- the chord anchor against the Cramer solve ------------------------------------


def _solve3(rows, rhs):
    """The 3×3 system rows · X = rhs by Cramer's rule."""
    a, b, c = rows
    det = a.dot(b.cross(c))
    assert det != 0
    dx = vec(rhs[0], a.dy, a.dz), vec(rhs[1], b.dy, b.dz), vec(rhs[2], c.dy, c.dz)
    dy = vec(a.dx, rhs[0], a.dz), vec(b.dx, rhs[1], b.dz), vec(c.dx, rhs[2], c.dz)
    dz = vec(a.dx, a.dy, rhs[0]), vec(b.dx, b.dy, rhs[1]), vec(c.dx, c.dy, rhs[2])
    return point(*(d[0].dot(d[1].cross(d[2])) / det for d in (dx, dy, dz)))


def _intersections_by_cramer(circle, plane):
    """The reference: the chord line's anchor solved from both planes and the
    plane through the center across the line, then the same quadratic."""
    n, m = circle.plane.normal, plane.normal
    direction = n.cross(m)
    if direction.is_zero():
        return ()
    anchor = _solve3(
        (n, m, direction),
        (circle.plane.offset, plane.offset, direction.dot(circle.center - point(0, 0, 0))),
    )
    lam_sq = (circle.radius_sq - (anchor - circle.center).norm_sq()) / direction.norm_sq()
    if lam_sq < 0:
        return ()
    lam = rational_square_root(lam_sq)
    if lam is None:
        return ()
    if lam == 0:
        return (anchor,)
    return (anchor + direction.scale(lam), anchor + direction.scale(-lam))


SMALL_Q = st.builds(F, st.integers(-6, 6), st.integers(1, 4))
SMALL_VEC = st.builds(vec, SMALL_Q, SMALL_Q, SMALL_Q).filter(lambda v: not v.is_zero())


@settings(max_examples=300, deadline=None)
@given(
    center=st.builds(point, SMALL_Q, SMALL_Q, SMALL_Q),
    n=SMALL_VEC,
    e=SMALL_VEC,
    m=SMALL_VEC,
    alpha=SMALL_Q.filter(bool),
    beta=SMALL_Q,
    offset=SMALL_Q,
    kind=st.sampled_from(["random", "through", "tangent", "parallel"]),
)
def test_chord_anchor_agrees_with_the_cramer_solve(center, n, e, m, alpha, beta, offset, kind):
    # a circle through the rational point r = center + w, with w in its plane
    w = n.cross(e)
    assume(not w.is_zero())
    circle = RCircle(center, w.norm_sq(), Plane(n, n.dot(center - point(0, 0, 0))))
    r = center + w
    if kind == "tangent":
        m = w.scale(alpha) + n.scale(beta)
    elif kind == "parallel":
        m = n.scale(alpha)
    plane = Plane(m, offset if kind in ("random", "parallel") else m.dot(r - point(0, 0, 0)))
    got = circle_plane_intersections(circle, plane)
    assert got == _intersections_by_cramer(circle, plane)
    for p in got:
        assert circle.contains(p) and plane.contains(p)
    if kind == "tangent":
        assert got == (r,)
    elif kind == "parallel":
        assert got == ()
    elif kind == "through" and not n.cross(m).is_zero():
        assert r in got


def _device_charts(sym):
    """The device hunt's charts: the circle about (x4, x1) is charted from
    x0, the one about (x0, x2) from the cycle's solved base."""
    return (
        circle_param(equidistant_circle(sym.x4, sym.x1, sym.t), sym.x0),
        circle_param(equidistant_circle(sym.x0, sym.x2, sym.t), sym.base),
    )


def _reference_device_pair(cert, sym):
    """The hunt's parameters of a device certificate's y0, y1 on sym's charts."""
    return tuple(chart.param_for_point(y) for chart, y in zip(_device_charts(sym), cert.points[5:7]))


def test_reference_device_cycle_has_a_solved_base_other_than_x0():
    # so the reference pair above sits on a chart that moved when the hunt
    # began charting the (x4, x1) circle from x0
    _, sym = _reference_device()
    assert rational_point_on_circle(equidistant_circle(sym.x4, sym.x1, 30)) != sym.x0


@pytest.mark.parametrize("t", [10, 22, 30, 34])
def test_small_cycles_have_x0_as_solved_base_of_the_x4_x1_circle(t):
    # charting from x0 leaves these hunts' charts, and so their output, as
    # they were when the circle was solved
    sym = find_symmetric_5cycle(t)
    assert rational_point_on_circle(equidistant_circle(sym.x4, sym.x1, t)) == sym.x0


def test_subgraph_hunt_solves_no_circle(monkeypatch):
    # both charts start from points the cycle already carries: x0 and its
    # solved base
    cert, sym = _reference_device()
    solved = []

    def counted(circle):
        solved.append(circle)
        return rational_point_on_circle(circle)

    monkeypatch.setattr(hunts, "rational_point_on_circle", counted)
    assert grotzsch_subgraph_hunt(sym, _reference_device_pair(cert, sym)) is not None
    assert solved == []


def test_subgraph_hunt_at_58_needs_no_solve_of_the_x4_x1_circle():
    # that circle's normalised form has a Holzer box of about 10^27
    assert grotzsch_subgraph_hunt(find_symmetric_5cycle(58), [F(0)]) is None


def test_subgraph_hunt_emits_verifying_certificate():
    cert, sym = _reference_device()
    # of the parameters' four pairs, only the reference pair has a device
    found = grotzsch_subgraph_hunt(sym, _reference_device_pair(cert, sym))
    assert found is not None
    found, hunt_report = found
    report = verify_certificate(found)
    assert not report.failed
    assert hunt_report == report
    assert found.data["h"] == F(1078, 15)
    assert found.data["radius_sq"] == F(539, 30)
    assert found.points[5] == cert.points[5]
    assert found.points[6] == cert.points[6]


def _reference_device_zs(cert, sym):
    """The two rational mirror-plane points z of the reference (y0, y1), in
    the order the hunt tries them."""
    locus = equidistant_circle(cert.points[5], cert.points[6], 30)
    return circle_plane_intersections(locus, sym.plane)


def _reject_first(monkeypatch, rejected: int) -> list:
    """Make the device assembler turn down the first `rejected` z it is
    offered; the returned list records every z offered."""
    offered = []
    assemble = hunts._assemble_device

    def fake(sym, y0, y1, z):
        offered.append(z)
        return None if len(offered) <= rejected else assemble(sym, y0, y1, z)

    monkeypatch.setattr(hunts, "_assemble_device", fake)
    return offered


def _reference_first_device(cert, sym):
    """The device the row of the reference y0 assembles, with the reference
    y1 as its one column."""
    return _first_device_of_pair(sym, *cert.points[5:7])


def test_subgraph_hunt_takes_the_first_z_that_assembles(monkeypatch):
    cert, sym = _reference_device()
    zs = _reference_device_zs(cert, sym)
    assert len(zs) == 2
    found, _ = _reference_first_device(cert, sym)
    assert found.points[9] == zs[0]
    offered = _reject_first(monkeypatch, 1)
    found, report = _reference_first_device(cert, sym)
    assert offered == list(zs)
    assert found.points[9] == zs[1] == cert.points[9]
    assert not report.failed


def test_subgraph_hunt_skips_a_pair_whose_every_z_fails(monkeypatch):
    cert, sym = _reference_device()
    a, b = _reference_device_pair(cert, sym)
    zs = _reference_device_zs(cert, sym)
    expected = grotzsch_subgraph_hunt(sym, [a, b])
    offered = _reject_first(monkeypatch, len(zs))
    assert _reference_first_device(cert, sym) is None
    assert offered == list(zs)
    offered.clear()
    # the pair (a, b) comes second and eighth of the nine; its first z all
    # fail, no pair between has a device, and the search goes on
    assert grotzsch_subgraph_hunt(sym, [a, b, a]) == expected
    assert offered == [*zs, zs[0]]


def test_subgraph_hunt_computes_each_chart_point_once(monkeypatch):
    # an exhausted hunt computes each chart's point at each parameter once
    _, sym = _reference_device()
    params = farey_parameters(3)
    calls = Counter()
    form_at = geom.CircleParam.form_at

    def counted(self, s):
        calls[id(self), s] += 1
        return form_at(self, s)

    monkeypatch.setattr(geom.CircleParam, "form_at", counted)
    assert grotzsch_subgraph_hunt(sym, params) is None
    assert set(calls.values()) == {1}
    assert list(Counter(chart for chart, _ in calls).values()) == [len(params)] * 2


def test_subgraph_hunt_exhausts_empty_and_refuses_non_integer_t():
    _, sym = _reference_device()
    assert grotzsch_subgraph_hunt(sym, []) is None
    assert grotzsch_subgraph_hunt(sym, [F(0)]) is None
    half = [point(*(c / 2 for c in p.coords())) for p in sym.points()]
    base = solved_base(half[0], half[2], F(15, 2))
    halved = SymCycle(*half, F(15, 2), bisector_plane(half[0], half[4]), base)
    with pytest.raises(ValueError):
        grotzsch_subgraph_hunt(halved, [])


# --- the device pair test against the z solve ---------------------------------------


def _row_of_pair(sym, y0, y1):
    """The hunt's row arguments for y0 with y1 as its one column."""
    return int(sym.t), hunts._integer_mirror(sym.plane), hunts._device_columns([integral(y1)]), integral(y0)


def _row_decides(sym, y0, y1) -> bool:
    """Whether the hunt's row decision passes the pair (y0, y1)."""
    return list(hunts._row_hits(*_row_of_pair(sym, y0, y1))) == [integral(y1)]


def _first_device_of_pair(sym, y0, y1):
    """What the row of y0, with y1 as its one column, assembles."""
    return hunts._first_device_in_row(sym, *_row_of_pair(sym, y0, y1))


def _apex_from_distances(a, b, c, t) -> bool:
    """The Cayley–Menger decision in Fraction arithmetic: D = 4ab − (a+b−c)²
    is nonzero and tD − abc is a rational square."""
    area = 4 * a * b - (a + b - c) ** 2
    return area != 0 and t * area >= a * b * c and rational_square_root(t * area - a * b * c) is not None


def _z_solve(sym, y0, y1):
    return circle_plane_intersections(equidistant_circle(y0, y1, sym.t), sym.plane)


@cache
def _device_case(name: str):
    """A cycle, the hunt's two charts on it and a known hit pair (or None):
    the CLI's cycle for t = 10, 22, 30, 34, or the cycle of the reference
    device."""
    if name == "t30_device.cert":
        cert, sym = _reference_device()
    else:
        sym = find_symmetric_5cycle(int(name))
        cert = read_certificate(GOLDEN / "hunt_device30.cert") if name == "30" else None
    return sym, _device_charts(sym), None if cert is None else _reference_device_pair(cert, sym)


DEVICE_CASES = ["10", "22", "30", "34", "t30_device.cert"]
FAREY_12 = st.sampled_from(farey_parameters(12))


@pytest.mark.parametrize("name", ["30", "t30_device.cert"])
def test_pair_test_accepts_the_known_devices(name):
    sym, charts, hit = _device_case(name)
    y0, y1 = (chart.point_at(s) for chart, s in zip(charts, hit))
    assert _row_decides(sym, y0, y1)
    assert _z_solve(sym, y0, y1)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), name=st.sampled_from(DEVICE_CASES))
def test_pair_test_agrees_with_the_z_solve(data, name):
    sym, charts, hit = _device_case(name)
    near = [st.one_of(FAREY_12, _near(s)) for s in hit] if hit else [FAREY_12, FAREY_12]
    y0, y1 = (chart.point_at(data.draw(s)) for chart, s in zip(charts, near))
    y4 = reflect_point(y0, sym.plane)
    assume(y4 != y0 and 0 < dist_sq(y0, y1) < 4 * sym.t)
    with patch.object(hunts, "has_rational_apex", wraps=has_rational_apex) as apex:
        decided = _row_decides(sym, y0, y1)
    # the row's integer sides are the Fraction distances over one square
    ((a, b, c, m, t),) = (call.args for call in apex.call_args_list)
    assert isqrt(m) ** 2 == m and t == sym.t
    assert (F(a, m), F(b, m), F(c, m)) == (dist_sq(y0, y1), dist_sq(y0, y4), dist_sq(y1, y4))
    assert decided == _apex_from_distances(dist_sq(y0, y1), dist_sq(y0, y4), dist_sq(y1, y4), sym.t)
    assert decided == bool(_z_solve(sym, y0, y1))


def test_pair_with_y0_on_the_mirror_is_rejected_unassembled(monkeypatch):
    sym = find_symmetric_5cycle(10)
    # y0 on the mirror at √10 from x2, which is on the mirror too, so the z
    # solve offers x2 for the pair (y0, x1); with y4 == y0 the verifier would
    # refuse the device
    y0, y1 = rational_point_on_circle(RCircle(sym.x2, F(10), sym.plane)), sym.x1
    assert sym.plane.contains(y0) and 0 < dist_sq(y0, y1) < 40
    assert sym.x2 in _z_solve(sym, y0, y1)
    offered = []
    monkeypatch.setattr(hunts, "_assemble_device", lambda *args: offered.append(args))
    assert not _row_decides(sym, y0, y1)
    assert _first_device_of_pair(sym, y0, y1) is None
    assert offered == []


def test_apex_test_rejects_y0_equal_to_y1_and_y0_on_the_mirror():
    # either makes the triangle (y0, y1, y4) degenerate, so the hunt needs
    # no test of its own for them
    sym = find_symmetric_5cycle(10)
    on_mirror = rational_point_on_circle(RCircle(sym.x2, F(10), sym.plane))
    for y0, y1 in ((sym.x1, sym.x1), (on_mirror, sym.x1)):
        assert not _row_decides(sym, y0, y1)


@settings(max_examples=200, deadline=None)
@given(name=st.sampled_from(DEVICE_CASES), chart=st.integers(0, 1), s=st.one_of(st.just(INF), FAREY_12))
def test_integer_mirror_image_is_the_reflection(name, chart, s):
    sym, charts, _ = _device_case(name)
    y0 = charts[chart].point_at(s)
    got = hunts._mirror_form(integral(y0), hunts._integer_mirror(sym.plane))
    assert got == integral(reflect_point(y0, sym.plane))


@settings(max_examples=100, deadline=None)
@given(data=st.data(), name=st.sampled_from(DEVICE_CASES))
def test_row_hits_are_the_passing_columns_in_order(data, name):
    # a whole row against the pair oracle: the a < 4t guard, then the apex
    # test on the Fraction distances, column by column
    sym, (chart0, chart1), hit = _device_case(name)
    near = [st.one_of(FAREY_12, _near(s)) for s in hit] if hit else [FAREY_12, FAREY_12]
    s0 = data.draw(near[0])
    s1s = data.draw(st.lists(near[1], max_size=8))
    y0, y4 = chart0.point_at(s0), reflect_point(chart0.point_at(s0), sym.plane)
    forms = [chart1.form_at(s) for s in s1s]
    want = [
        form
        for form, y1 in zip(forms, map(chart1.point_at, s1s))
        if dist_sq(y0, y1) < 4 * sym.t
        and _apex_from_distances(dist_sq(y0, y1), dist_sq(y0, y4), dist_sq(y1, y4), sym.t)
    ]
    mirror = hunts._integer_mirror(sym.plane)
    got = hunts._row_hits(int(sym.t), mirror, hunts._device_columns(forms), chart0.form_at(s0))
    assert list(got) == want


DEVICE_CERTS = [
    DATA / "t30_device.cert",
    GOLDEN / "hunt_device30.cert",
    GOLDEN / "hunt_device66_d54.cert",
    GOLDEN / "hunt_device154_antipodal.cert",
    DATA.parent / "perfbench" / "inputs" / "t30_device_fresh.cert",
]


@pytest.mark.parametrize("path", DEVICE_CERTS, ids=lambda p: p.name)
def test_device_branch_decides_each_certificates_h(path):
    cert = read_certificate(path)
    checks, data = hunts._device_checks(cert)
    assert data["h"] == cert.data["h"]
    assert [c.status for c in checks if c.name == "branch"] == ["PASS"]


def test_device_branch_warns_on_a_wrong_claimed_radius():
    cert = read_certificate(DATA / "t30_device.cert")
    assert cert.data["radius_sq"] == F(1081, 10)
    checks, data = hunts._device_checks(cert)
    branch = [(c.name, c.status) for c in checks if c.name in ("radius", "branch")]
    assert branch == [("radius", "WARN"), ("branch", "PASS")]
    assert data == {"radius_sq": F(539, 30), "h": F(1078, 15)}


def test_device_hunt_at_30_decides_the_branch_once(monkeypatch, capsys):
    decided = []
    criteria = hunts.phi_criteria

    def counted(h):
        decided.append(h)
        return criteria(h)

    monkeypatch.setattr(hunts, "phi_criteria", counted)
    assert cli.dispatch(["hunt-grotzsch-subgraph", "30"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "hunt_device30.out").read_text(encoding="utf-8")
    assert decided == [F(1462, 257)]


def _antipodal_device_cycle() -> SymCycle:
    """t=154, d=90 with x1 at s = -1/2 on the (x0, x2) circle's chart: |x2-z|²
    fails the membership criteria, so h is the x1x3 circle's antipodal
    distance."""
    x0, x4, x2 = embed_isosceles(154, 90)
    base = solved_base(x0, x2, 154)
    mirror = bisector_plane(x0, x4)
    x1 = circle_param(equidistant_circle(x0, x2, 154), base).point_at(F(-1, 2))
    return SymCycle(x0, x1, x2, reflect_point(x1, mirror), x4, F(154), mirror, base)


@pytest.mark.parametrize(
    "golden,cycle,height",
    [
        ("hunt_device30.cert", lambda: find_symmetric_5cycle(30), 12),
        ("hunt_device154_antipodal.cert", _antipodal_device_cycle, 10),
        ("hunt_device66_d54.cert", lambda: find_symmetric_5cycle(66, d=F(54)), 8),
    ],
    ids=["30", "154-antipodal", "66-d54"],
)
def test_device_hunt_report_is_the_verification_of_its_certificate(golden, cycle, height):
    # the hunt verifies the device before its claimed h and radius are added
    cert, report = grotzsch_subgraph_hunt(cycle(), farey_parameters(height))
    assert format_certificate(cert) == (GOLDEN / golden).read_text(encoding="utf-8")
    assert verify_certificate(cert) == report


def test_device_hunt_at_30_solves_z_only_for_the_hit(monkeypatch, capsys):
    solved = []
    solve = hunts.circle_plane_intersections

    def counted(circle, plane):
        solved.append(solve(circle, plane))
        return solved[-1]

    monkeypatch.setattr(hunts, "circle_plane_intersections", counted)
    assert cli.dispatch(["hunt-grotzsch-subgraph", "30"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "hunt_device30.out").read_text(encoding="utf-8")
    z = read_certificate(GOLDEN / "hunt_device30.cert").data["z"]
    assert len(solved) == 1 and z in solved[0]


def test_device_hunt_on_the_antipodal_branch_matches_golden():
    cert, report = grotzsch_subgraph_hunt(_antipodal_device_cycle(), farey_parameters(10))
    assert cert.data["h"] == F(230950, 693) and cert.data["radius_sq"] == F(115475, 1386)
    assert format_certificate(cert) == (GOLDEN / "hunt_device154_antipodal.cert").read_text(
        encoding="utf-8"
    )
    assert report.render() == (GOLDEN / "hunt_device154_antipodal.out").read_text(encoding="utf-8")


# --- solver cross-checks on reference data -------------------------------------------


def test_reference_tables_are_triangle_free_and_4_chromatic():
    for name in ("t34_order25.cert", "t66_order25.cert"):
        cert = _cert(name)
        g = build_graph(list(cert.points), cert.t)
        adj = adjacency(g.order, g.edges)
        assert is_triangle_free(adj)
        assert k_colorable(adj, 3) is None
        assert k_colorable(adj, 4) is not None


def test_device_forces_the_distance():
    cert = _cert("t30_device.cert")
    pts = cert.points
    g = build_graph(list(pts), 30)
    # the device's 17 edges are all realized; x2 and z are NOT adjacent
    assert frozenset(h_edges()) <= g.edges
    assert dist_sq(pts[2], pts[9]) != 30
