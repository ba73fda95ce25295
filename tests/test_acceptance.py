"""Acceptance gate: one test per primary criterion, exact arithmetic only.

Each test prints a single `CRITERION <n> PASS <detail>` line on success; a
failed assertion is the corresponding FAIL line.  Timing budgets are asserted
on a monotonic clock.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction as F
from itertools import product
from math import isqrt
from pathlib import Path

from scavenger.cli import parse_vertex_file
from scavenger.cycles import find_5cycle, gen_vectors, is_5cycle, scan_d
from scavenger.geom import circle_param, embed_isosceles, equidistant_circle, rational_point_on_circle
from scavenger.graph import (
    adjacency,
    build_graph,
    forced_relations,
    is_proper,
    is_triangle_free,
    k_colorable,
    mod3_color,
)
from scavenger.hunts import (
    Certificate,
    farey_parameters,
    greedy_hunt,
    h_edges,
    read_certificate,
    verify_certificate,
)
from scavenger.numtheory import (
    TernaryForm,
    antipodal_dist_sq,
    construct_chain,
    in_T,
    legendre_solvable,
    phi_criteria,
)
from scavenger.qcore import dist_sq, format_rational, midpoint, parse_point, vec

DATA = Path(__file__).resolve().parent.parent / "data"


def _members_of_T(limit: int) -> list[int]:
    return [t for t in range(2, limit) if in_T(t)]


def test_criterion_1_t22_table():
    start = time.monotonic()
    vf = parse_vertex_file(DATA / "t22_vertices.txt")
    assert vf.t == 22 and len(vf.points) == 29
    g = build_graph(list(vf.points), 22)
    assert g.order == 29
    for u, v in g.edges:
        assert dist_sq(g.vertices[u], g.vertices[v]) == 22
    adj = adjacency(g.order, g.edges)
    assert is_triangle_free(adj)
    assert k_colorable(adj, 3) is None
    assert k_colorable(adj, 4) is not None
    elapsed = time.monotonic() - start
    assert elapsed < 60
    print(
        f"CRITERION 1 PASS 29 vertices, {len(g.edges)} exact edges, triangle-free, "
        f"chromatic number 4 ({elapsed:.2f}s)"
    )


def test_criterion_2_order25_tables():
    timings = []
    for name in ("t34_order25.cert", "t66_order25.cert"):
        start = time.monotonic()
        cert = read_certificate(DATA / name)
        report = verify_certificate(cert)
        assert report.verdict == "PASS", report.render()
        rendered = report.render()
        assert "CHECK order PASS 25 labels" in rendered
        assert "CHECK degrees PASS" in rendered
        assert "CHECK chromatic PASS" in rendered
        assert "CHECK four-colorable PASS" in rendered
        elapsed = time.monotonic() - start
        assert elapsed < 60
        timings.append(f"t={cert.t} {elapsed:.2f}s")

    # the X4 substitution alone must flip the verdict, with the bad entry
    # itemized at exact squared distance 41 from v0 and v3
    good = read_certificate(DATA / "t34_order25.cert")
    bad_points = list(good.points)
    assert bad_points[9] == parse_point("0 5 3")
    bad_points[9] = parse_point("0 5 4")
    bad = Certificate(good.kind, good.t, tuple(bad_points), good.edges, {})
    report = verify_certificate(bad)
    assert report.verdict == "FAIL"
    rendered = report.render()
    assert "v0-X4=41" in rendered and "v3-X4=41" in rendered

    # the table exactly as printed also fails
    printed = verify_certificate(read_certificate(DATA / "t34_order25_uncorrected.cert"))
    assert printed.verdict == "FAIL"
    print(f"CRITERION 2 PASS both tables validate, X4=(0,5,4) rejected ({', '.join(timings)})")


def test_criterion_3_t30_device():
    start = time.monotonic()
    cert = read_certificate(DATA / "t30_device.cert")
    pts = cert.points
    for u, v in h_edges():
        assert dist_sq(pts[u], pts[v]) == 30
    same, different = forced_relations(adjacency(10, h_edges()), 3)
    assert (2, 9) in same  # x2 with z
    assert (1, 3) in different  # x1 against x3
    assert dist_sq(pts[2], pts[0]) == 26
    assert dist_sq(pts[2], pts[4]) == 26
    mid = midpoint(pts[1], pts[3])
    assert dist_sq(mid, pts[0]) == F(33270, 900)
    assert dist_sq(mid, pts[4]) == F(33270, 900)
    s_circle = equidistant_circle(pts[1], pts[3], 30)
    assert s_circle.center == parse_point("13/6 -11/15 169/30")
    assert s_circle.radius_sq == F(539, 30)
    assert s_circle.radius_sq != F(1081, 10)
    assert F(539, 30).denominator % 4 == 2
    assert antipodal_dist_sq(F(539, 30)) == F(1078, 15)
    assert phi_criteria(F(1078, 15))
    report = verify_certificate(cert)
    assert report.exit_code == 2, report.render()
    rendered = report.render()
    assert "CHECK radius WARN" in rendered and "1081/10" in rendered and "539/30" in rendered
    elapsed = time.monotonic() - start
    assert elapsed < 60
    print(
        "CRITERION 3 PASS 17 exact edges, forced relations, S recomputed 539/30 "
        f"(inconsistent claim flagged), antipodal 1078/15, exit 2 ({elapsed:.2f}s)"
    )


def _exhaustive_colorable(n: int, edges: list[tuple[int, int]], k: int) -> bool:
    if n == 0:
        return True
    for tail in product(range(k), repeat=n - 1):
        assignment = (0,) + tail
        if all(assignment[u] != assignment[v] for u, v in edges):
            return True
    return False


def test_criterion_4_solver_oracle():
    rng = random.Random(20260817)
    checked = 0
    for _ in range(200):
        n = rng.randint(1, 9)
        density = rng.random()
        edges = [
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density
        ]
        adj = adjacency(n, edges)
        for k in (2, 3, 4):
            got = k_colorable(adj, k)
            want = _exhaustive_colorable(n, edges, k)
            assert (got is not None) == want, (n, edges, k)
            if got is not None:
                assert is_proper(adj, got)
                assert len(set(got)) <= k
            checked += 1
    print(f"CRITERION 4 PASS solver matches exhaustive enumeration on {checked} decisions")


def _holzer_oracle(a: int, b: int, c: int) -> bool:
    xb, yb = isqrt(abs(b * c)), isqrt(abs(a * c))
    for x in range(xb + 1):
        for y in range(yb + 1):
            v = -(a * x * x + b * y * y)
            if v % c:
                continue
            z2 = v // c
            if z2 < 0:
                continue
            z = isqrt(z2)
            if z * z == z2 and (x, y, z) != (0, 0, 0):
                return True
    return False


def _squarefree(n: int) -> bool:
    k = 2
    while k * k <= n:
        if n % (k * k) == 0:
            return False
        k += 1
    return True


def test_criterion_5_legendre_oracle():
    start = time.monotonic()
    checked = 0
    magnitudes = [
        (x, y, z)
        for x in range(1, 31)
        for y in range(1, 31)
        for z in range(1, 31)
        if _squarefree(x * y * z)
    ]
    for mx, my, mz in magnitudes:
        for signs in product((1, -1), repeat=3):
            if len(set(signs)) == 1:
                continue  # definite forms have only the trivial zero
            a, b, c = signs[0] * mx, signs[1] * my, signs[2] * mz
            got = legendre_solvable(TernaryForm(a, b, c))
            want = _holzer_oracle(a, b, c)
            assert got == want, (a, b, c)
            checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 300
    print(f"CRITERION 5 PASS {checked} mixed-sign forms agree with Holzer search ({elapsed:.1f}s)")


def test_criterion_6_mod3_separation():
    checked = 0
    base = (7, -3, 2)
    for d in (5, 11, 17, 23):
        target = 2 * d
        for x in range(-20, 21):
            for y in range(-20, 21):
                rest = target - x * x - y * y
                if rest < 0:
                    continue
                z = isqrt(rest)
                for zz in {z, -z}:
                    if x * x + y * y + zz * zz != target:
                        continue
                    head = (base[0] + x, base[1] + y, base[2] + zz)
                    assert mod3_color(base) != mod3_color(head), (d, x, y, zz)
                    assert mod3_color((0, 0, 0)) != mod3_color((x, y, zz))
                    checked += 1
    print(f"CRITERION 6 PASS {checked} norm-2d vectors all separate the coloring classes")


def test_criterion_7_chain_suite():
    pairs = []
    vectors = {
        10: vec(3, 1, 0),
        22: vec(3, 3, 2),
        30: vec(5, 2, 1),
        34: vec(3, 4, 3),
        46: vec(6, 3, 1),
    }
    for t, v in vectors.items():
        assert v.norm_sq() == t
    hs = [F(2), F(8), F(10), F(1078, 15), F(2, 9), F(50), F(18), F(32)]
    hs = [h for h in hs if phi_criteria(h)]
    for v in vectors.values():
        for h in hs:
            pairs.append((v, h))
            if len(pairs) == 20:
                break
        if len(pairs) == 20:
            break
    assert len(pairs) == 20
    assert any(h == 2 and v.norm_sq() == 10 for v, h in pairs)
    for v, h in pairs:
        chain = construct_chain(v, h)
        chain.validate()
        assert chain.step_norm_sq == h
        total = vec(0, 0, 0)
        for s in chain.steps:
            assert s.norm_sq() == h
            total = total + s
        assert total == v
    print("CRITERION 7 PASS 20 chain certificates validate exactly (h=2 over norm 10 included)")


def test_criterion_8_scan_d_sweep():
    start = time.monotonic()
    members = _members_of_T(2000)
    assert len(members) == 261
    # the first feasible d of each scan, in scan order, as first committed
    golden = (Path(__file__).resolve().parent / "golden" / "scan_d.txt").read_text(encoding="utf-8")
    rational = []
    found = []
    for t in members:
        d = scan_d(t, 4 * t - 1)
        assert d is not None, t
        # re-certified by construction, not by the scan's own decision
        for base, legs in ((F(t), F(d)), (F(d), F(t))):
            b1, b2, apex = embed_isosceles(base, legs)
            sides = (dist_sq(b1, b2), dist_sq(b1, apex), dist_sq(b2, apex))
            assert sides == (base, legs, legs), (t, d)
        found.append(f"t={t} d={format_rational(F(d))}\n")
        if F(d).denominator != 1:
            rational.append((t, d))
    assert "".join(found) == golden
    elapsed = time.monotonic() - start
    assert elapsed < 600
    print(
        f"CRITERION 8 PASS scan_d certified for all {len(members)} admissible t < 2000 "
        f"({elapsed:.1f}s; non-integer cases: {rational})"
    )


def test_criterion_9_cycle_sweep():
    start = time.monotonic()
    members = _members_of_T(500)
    assert len(members) == 61
    for t in members:
        pool = gen_vectors(t, {1, 3}, 60)
        cycle = find_5cycle(t, pool)
        assert cycle is not None, t
        assert is_5cycle(cycle, t)
    elapsed = time.monotonic() - start
    assert elapsed < 600
    print(f"CRITERION 9 PASS 5-cycles found and validated for all {len(members)} t < 500 ({elapsed:.1f}s)")


def test_criterion_10_parameterization_exactness():
    circles = []
    for name in ("t34_order25.cert", "t66_order25.cert"):
        cert = read_certificate(DATA / name)
        vs = cert.points[:5]
        for i in range(5):
            a, b = vs[(i - 1) % 5], vs[(i + 1) % 5]
            circles.append((equidistant_circle(a, b, cert.t), a, b, cert.t))
    assert len(circles) == 10
    params = farey_parameters(12)[:100]
    assert len(params) == 100
    checked = 0
    for circle, a, b, t in circles:
        chart = circle_param(circle, rational_point_on_circle(circle))
        for s in params:
            p = chart.point_at(s)
            assert circle.contains(p)
            assert dist_sq(p, a) == t and dist_sq(p, b) == t
            checked += 1
    assert checked == 1000
    print("CRITERION 10 PASS 10 circles x 100 parameters, all 2000 focal distances exact")


def test_criterion_11_greedy_weak_form():
    start = time.monotonic()
    vf = parse_vertex_file(DATA / "t22_seed.txt")
    seed = list(vf.points)
    # documented box: candidate denominators 3, coordinates in [-10, 10]
    result = greedy_hunt(22, seed, 3, F(10), cap=1000)
    assert result.succeeded
    assert result.graph.order <= 1000
    g = build_graph(list(result.graph.vertices), 22)
    adj = adjacency(g.order, g.edges)
    assert k_colorable(adj, 3) is None
    assert k_colorable(adj, 4) is not None
    elapsed = time.monotonic() - start
    print(
        f"CRITERION 11 PASS greedy terminates non-3-colorable at order {result.graph.order} "
        f"within cap 1000, box [-10,10]^3 ({elapsed:.2f}s)"
    )
