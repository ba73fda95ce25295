"""Exact coloring, distance-graph construction, and forced-relation tests."""

from __future__ import annotations

import random
import sys
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scavenger.graph import (
    DistGraph,
    adjacency,
    build_graph,
    forced_relations,
    is_proper,
    is_triangle_free,
    k_colorable,
    mod3_color,
)
from scavenger.cli import parse_vertex_file
from scavenger.hunts import (
    H_LABELS,
    Certificate,
    format_certificate,
    greedy_hunt,
    h_edges,
    parse_certificate,
    read_certificate,
)
from scavenger.qcore import QPoint3, dist_sq, parse_point, point


def edge_set(adj: list[set[int]]) -> frozenset[tuple[int, int]]:
    return frozenset((u, v) for u, nbrs in enumerate(adj) for v in nbrs if u < v)


def brute_colorable(adj: list[set[int]], k: int) -> bool:
    """Exhaustive reference decision: scan all k^(n-1) assignments with the
    first vertex pinned (sound for a yes/no answer)."""
    n = len(adj)
    if n == 0:
        return True
    edges = sorted(edge_set(adj))
    for rest in product(range(k), repeat=n - 1):
        assignment = (0,) + rest
        if all(assignment[u] != assignment[v] for u, v in edges):
            return True
    return False


def random_graph(rng: random.Random, n: int, p: float) -> list[set[int]]:
    pairs = [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p]
    return adjacency(n, pairs)


def grotzsch() -> list[set[int]]:
    """The triangle-free 4-chromatic graph of minimum order (order 11):
    outer 5-cycle x0..x4 (0..4), inner y_i (5..9) adjacent to x_{i-1} and
    x_{i+1}, hub z (10) adjacent to every y_i."""
    edges = []
    for i in range(5):
        edges.append((i, (i + 1) % 5))
        edges.append((5 + i, (i - 1) % 5))
        edges.append((5 + i, (i + 1) % 5))
        edges.append((10, 5 + i))
    return adjacency(11, edges)


def induced(adj: list[set[int]], keep: list[int]) -> list[set[int]]:
    index = {v: i for i, v in enumerate(keep)}
    return adjacency(
        len(keep), [(index[u], index[v]) for u, v in edge_set(adj) if u in index and v in index]
    )


# --- solver vs exhaustive reference ---------------------------------------------------


def test_solver_matches_exhaustive_reference():
    rng = random.Random(20260817)
    for trial in range(80):
        n = rng.randint(1, 8)
        g = random_graph(rng, n, rng.choice([0.2, 0.4, 0.6]))
        k = rng.choice([2, 3, 4])
        got = k_colorable(g, k)
        want = brute_colorable(g, k)
        assert (got is not None) == want, f"trial {trial}: order {n}, k={k}"
        if got is not None:
            assert is_proper(g, got)
            assert len(set(got)) <= k


def test_solver_edge_cases():
    assert k_colorable(adjacency(0, []), 1) == ()
    assert k_colorable(adjacency(1, []), 1) is not None
    k2 = adjacency(2, [(0, 1)])
    assert k_colorable(k2, 1) is None
    assert k_colorable(k2, 2) is not None
    with pytest.raises(ValueError):
        k_colorable(k2, 0)


def test_five_cycle_chromatic():
    c5 = adjacency(5, [(i, (i + 1) % 5) for i in range(5)])
    assert k_colorable(c5, 2) is None
    assert k_colorable(c5, 3) is not None


def test_complete_graphs():
    for n in range(2, 7):
        kn = adjacency(n, combinations(range(n), 2))
        assert k_colorable(kn, n - 1) is None
        assert k_colorable(kn, n) is not None


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 7), st.randoms(use_true_random=False))
def test_coloring_reported_is_proper(n, rng):
    g = random_graph(rng, n, 0.5)
    coloring = k_colorable(g, 3)
    if coloring is not None:
        assert is_proper(g, coloring)
        assert max(coloring) <= 2


# --- solver vs the vertex-scan oracle ---------------------------------------------------

ROOT = Path(__file__).resolve().parent.parent


def scan_k_colorable(adj: list[set[int]], k: int) -> tuple[int, ...] | None:
    """The solver with its next vertex found by scanning every vertex for the
    key (saturation, degree, -index): the same search as `k_colorable`,
    without saturation buckets or bitmasks (reference oracle; orders below
    the default recursion limit only)."""
    n = len(adj)
    colors = [-1] * n
    neighbor_colors: list[dict[int, int]] = [{} for _ in range(n)]
    degree = [len(adj[v]) for v in range(n)]

    def pick() -> int | None:
        best_key = None
        best_v = None
        for v in range(n):
            if colors[v] == -1:
                key = (len(neighbor_colors[v]), degree[v], -v)
                if best_key is None or key > best_key:
                    best_key, best_v = key, v
        return best_v

    def solve(max_used: int) -> bool:
        v = pick()
        if v is None:
            return True
        blocked = neighbor_colors[v]
        if len(blocked) >= k:
            return False
        for c in range(min(k - 1, max_used + 1) + 1):
            if c in blocked:
                continue
            colors[v] = c
            for u in adj[v]:
                nc = neighbor_colors[u]
                nc[c] = nc.get(c, 0) + 1
            if solve(max(max_used, c)):
                return True
            colors[v] = -1
            for u in adj[v]:
                nc = neighbor_colors[u]
                if nc[c] == 1:
                    del nc[c]
                else:
                    nc[c] -= 1
        return False

    return tuple(colors) if solve(-1) else None


def assert_same_as_oracle(adj: list[set[int]]) -> None:
    for k in range(1, 5):
        assert k_colorable(adj, k) == scan_k_colorable(adj, k), f"order {len(adj)}, k={k}"


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 30),
    st.sampled_from([0.05, 0.1, 0.2, 0.3, 0.5, 0.7]),
    st.randoms(use_true_random=False),
)
def test_solver_matches_scan_oracle_on_random_graphs(n, p, rng):
    assert_same_as_oracle(random_graph(rng, n, p))


def test_solver_matches_scan_oracle_under_deep_backtracking():
    rng = random.Random(20261019)
    for _ in range(12):
        # a star of degree 6 outranks the Grötzsch graph's hub (degree 5), so
        # the search colors the star first and refutes the Grötzsch graph,
        # which has no 3-coloring, once more under each coloring of the star:
        # thousands of backtracks per graph; random pendants shift the order
        pairs = list(edge_set(grotzsch())) + [(11, 12 + i) for i in range(6)]
        n = 18
        for _ in range(rng.randint(0, 6)):
            pairs.append((n, rng.randrange(n)))
            n += 1
        label = list(range(n))
        rng.shuffle(label)
        assert_same_as_oracle(adjacency(n, [(label[u], label[v]) for u, v in pairs]))
    for _ in range(24):
        # sparse graphs near the 3-coloring threshold (average degree 4-6)
        n = rng.randint(20, 60)
        assert_same_as_oracle(random_graph(rng, n, rng.uniform(4, 6) / (n - 1)))


@pytest.mark.parametrize(
    "name",
    [
        *(f"data/{p.name}" for p in sorted((ROOT / "data").glob("*.cert"))),
        "perfbench/inputs/t22_greedy144.cert",
    ],
)
def test_solver_matches_scan_oracle_on_corpus_graphs(name):
    cert = read_certificate(ROOT / name)
    g = build_graph(list(cert.points), cert.t)
    assert_same_as_oracle(adjacency(g.order, g.edges))


def test_solver_matches_scan_oracle_on_the_grotzsch_graph():
    # 3-coloring it fails only after backtracking
    assert_same_as_oracle(grotzsch())


def test_solver_matches_scan_oracle_on_a_grown_greedy_graph():
    seed = parse_vertex_file(ROOT / "data" / "t22_seed.txt").points
    res = greedy_hunt(22, list(seed), 15, cap=120)
    assert res.graph.order == 120
    assert_same_as_oracle(adjacency(res.graph.order, res.graph.edges))


def test_solver_restores_the_recursion_limit():
    path = adjacency(682, [(v, v + 1) for v in range(681)])
    before = sys.getrecursionlimit()
    assert is_proper(path, k_colorable(path, 2))
    assert sys.getrecursionlimit() == before
    assert k_colorable(path, 1) is None
    assert sys.getrecursionlimit() == before


# --- the Grötzsch graph and the device graph -------------------------------------------


def test_small_mycielskian_shape():
    adj = grotzsch()
    assert len(adj) == 11
    assert len(edge_set(adj)) == 20
    degrees = sorted(len(a) for a in adj)
    assert degrees == [3, 3, 3, 3, 3, 4, 4, 4, 4, 4, 5]
    assert is_triangle_free(adj)
    assert k_colorable(adj, 3) is None
    assert k_colorable(adj, 4) is not None


def test_small_mycielskian_is_vertex_critical():
    g = grotzsch()
    for v in range(11):
        assert k_colorable(induced(g, [u for u in range(11) if u != v]), 3) is not None


def test_hub_deleted_graph_shape():
    shape = h_edges()
    assert len(H_LABELS) == 10
    assert len(shape) == 17
    assert shape == tuple(sorted(shape))
    h = adjacency(10, shape)
    assert k_colorable(h, 2) is None
    assert k_colorable(h, 3) is not None
    # h is the order-11 graph with one inner vertex removed; its neighbors there
    # were x1, x3, and z.
    y2 = 7
    assert frozenset(shape) == edge_set(induced(grotzsch(), [v for v in range(11) if v != y2]))


def test_forced_relations_of_hub_deleted_graph():
    same, different = forced_relations(adjacency(10, h_edges()), 3)
    x1, x2, x3 = 1, 2, 3
    z = H_LABELS.index("z")
    assert same == {(1, 8), (2, 9), (3, 5)}
    assert (x2, z) in same
    assert (x1, x3) in different
    # all three of x1, x3, z pairwise differ in every proper 3-coloring
    assert (x1, z) in different and (x3, z) in different


def test_forced_relations_bounds_and_errors():
    k4 = adjacency(4, combinations(range(4), 2))
    with pytest.raises(ValueError, match="^graph admits no proper 3-coloring$"):
        forced_relations(k4, 3)
    forced_relations(adjacency(20, []), 1)
    with pytest.raises(ValueError, match="^order 21 exceeds the enumeration bound 20$"):
        forced_relations(adjacency(21, []), 2)


def test_forced_relations_versus_unrestricted_enumeration():
    # the symmetry-broken enumeration must agree with brute force over all
    # k^n assignments, and must refuse exactly the graphs brute force cannot
    # color
    rng = random.Random(7)
    for n, k in product(range(9), range(1, 5)):
        for p in (0.2, 0.4, 0.6):
            pairs = [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p]
            same_ref = set(combinations(range(n), 2))
            diff_ref = set(same_ref)
            colorable = False
            for assignment in product(range(k), repeat=n):
                if all(assignment[u] != assignment[v] for u, v in pairs):
                    colorable = True
                    for u, v in combinations(range(n), 2):
                        if assignment[u] == assignment[v]:
                            diff_ref.discard((u, v))
                        else:
                            same_ref.discard((u, v))
            g = adjacency(n, pairs)
            if not colorable:
                with pytest.raises(ValueError, match=f"^graph admits no proper {k}-coloring$"):
                    forced_relations(g, k)
                continue
            same, different = forced_relations(g, k)
            assert (same, different) == (same_ref, diff_ref), f"order {n}, k={k}, edges {pairs}"


# --- distance graphs ------------------------------------------------------------------


def test_build_graph_exact_adjacency():
    pts = [parse_point(s) for s in ["0 0 0", "14/3 1/3 1/3", "19/3 -1/3 14/3", "6 0 0", "3 3 2"]]
    g = build_graph(pts, 22)
    assert g.edges == frozenset([(0, 1), (0, 4), (1, 2), (2, 3), (3, 4)])
    for u, v in g.edges:
        assert dist_sq(g.vertices[u], g.vertices[v]) == 22
    non_edges = set(combinations(range(5), 2)) - set(g.edges)
    for u, v in non_edges:
        assert dist_sq(g.vertices[u], g.vertices[v]) != 22


def test_build_graph_deduplicates_preserving_order():
    pts = [point(0, 0, 0), point(1, 0, 0), point(0, 0, 0), point(2, 0, 0)]
    g = build_graph(pts, 1)
    assert g.duplicates_merged == 1
    assert g.vertices == (point(0, 0, 0), point(1, 0, 0), point(2, 0, 0))
    assert g.edges == frozenset([(0, 1), (1, 2)])


def test_distance_graph_order_and_adjacency():
    pts = [point(0, 0, 0), point(1, 0, 0), point(2, 0, 0)]
    g = build_graph(pts, 1)
    assert g.order == len(g.vertices) == 3
    assert adjacency(g.order, g.edges) == [{1}, {0, 2}, {1}]


def test_build_graph_rejections():
    with pytest.raises(ValueError):
        build_graph([], 5)
    with pytest.raises(ValueError):
        build_graph([point(0, 0, 0)], 0)


def test_fractional_adjacency_is_exact():
    # (1/3)-scaled lattice: squared distances are multiples of 1/9; any
    # floating treatment of 22 = 198/9 would misclassify near misses
    a = point(0, 0, 0)
    b = point(Fraction(14, 3), Fraction(1, 3), Fraction(1, 3))
    assert dist_sq(a, b) == 22
    g = build_graph([a, b], 22)
    assert g.edges == frozenset([(0, 1)])


def _oracle_dist_sq(p: QPoint3, q: QPoint3) -> Fraction:
    return sum(((a - b) ** 2 for a, b in zip(p.coords(), q.coords())), Fraction(0))


@st.composite
def point_sets_and_t(draw):
    """Points with per-point denominators (mixed, or pairwise coprime), some
    drawn again as duplicates, and t the squared distance of a drawn pair, a
    non-integer, or a value no pair reaches."""
    denominators = draw(st.sampled_from([(1, 3, 9), (4, 6, 15), (1, 2, 3, 5, 7, 11, 13)]))

    def one() -> QPoint3:
        d = draw(st.sampled_from(denominators))
        return point(*(Fraction(draw(st.integers(-2 * d, 2 * d)), d) for _ in range(3)))

    pts = [one() for _ in range(draw(st.integers(1, 10)))]
    for _ in range(draw(st.integers(0, 3))):
        pts.insert(draw(st.integers(0, len(pts))), draw(st.sampled_from(pts)))
    distinct = list(dict.fromkeys(pts))
    kind = draw(st.sampled_from(["pair", "fraction", "unreachable"]))
    if kind == "pair" and len(distinct) > 1:
        i, j = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=2, max_size=2, unique=True))
        t = _oracle_dist_sq(distinct[i], distinct[j])
    elif kind == "fraction":
        t = Fraction(draw(st.integers(1, 100)), draw(st.sampled_from([2, 4, 9, 25, 36, 49])))
    else:
        kind = "unreachable"
        t = 1 + max((_oracle_dist_sq(p, q) for p, q in combinations(distinct, 2)), default=0)
    return pts, t, kind


@settings(max_examples=300, deadline=None)
@given(point_sets_and_t())
def test_build_graph_matches_fraction_oracle(case):
    pts, t, kind = case
    g = build_graph(pts, t)
    distinct = list(dict.fromkeys(pts))
    assert g.vertices == tuple(distinct)
    assert g.duplicates_merged == len(pts) - len(distinct)
    want = frozenset(
        (i, j)
        for i, j in combinations(range(len(distinct)), 2)
        if _oracle_dist_sq(distinct[i], distinct[j]) == t
    )
    assert g.edges == want
    if kind == "pair":
        assert want
    if kind == "unreachable":
        assert not want


coord = st.integers(-3, 3)
point_triples = st.lists(
    st.tuples(coord, coord, coord), min_size=2, max_size=6, unique=True
)


@settings(max_examples=40, deadline=None)
@given(point_triples, st.sampled_from([1, 2, 3, 5, 9]))
def test_distance_graph_edges_rescan(triples, t):
    pts = [point(*tr) for tr in triples]
    g = build_graph(pts, t)
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            assert ((i, j) in g.edges) == (dist_sq(pts[i], pts[j]) == t)


# --- edge lists in the certificate text format ----------------------------------------


def _with_edges(edge_lines: str) -> str:
    points = "".join(f"{i} 0 0\n" for i in range(11))
    return f"certificate direct-chromatic t=1\n[vertices]\n{points}[edges]\n{edge_lines}"


def test_edge_list_roundtrip():
    g = grotzsch()
    points = tuple(point(i, 0, 0) for i in range(11))
    cert = Certificate("direct-chromatic", 1, points, tuple(sorted(edge_set(g))))
    again = parse_certificate(format_certificate(cert))
    assert adjacency(len(again.points), again.edges) == g


def test_edge_list_parsing():
    cert = parse_certificate(_with_edges("# a comment\n0 1\n2 1 # trailing\n\n"))
    assert cert.edges == ((0, 1), (1, 2))
    for bad in ["0", "0 1 2", "0 a", "-1 2", "3 3", "0 11"]:
        with pytest.raises(ValueError, match="line 16"):
            parse_certificate(_with_edges(f"0 1\n{bad}\n"))


# --- distance graph validation -------------------------------------------------------


def test_distance_graph_validation():
    pts = (point(0, 0, 0), point(1, 0, 0))
    with pytest.raises(ValueError, match=r"^edge \(0,2\) out of range or misordered for order 2$"):
        DistGraph(pts, frozenset([(0, 2)]))
    with pytest.raises(ValueError, match=r"^edge \(1,0\) out of range"):
        DistGraph(pts, frozenset([(1, 0)]))
    assert DistGraph(pts, frozenset([(0, 1)])).order == 2


# --- triangle freeness ----------------------------------------------------------------


def test_triangle_detection():
    assert not is_triangle_free(adjacency(3, [(0, 1), (1, 2), (0, 2)]))
    assert is_triangle_free(adjacency(3, [(0, 1), (1, 2)]))


# --- the lattice 3-coloring -----------------------------------------------------------


@pytest.mark.parametrize("d", [5, 11, 17, 23])
def test_lattice_coloring_separates_small_vectors(d):
    # x+y+z mod 3 splits every pair at squared distance 2d (d odd, d = 3m+2):
    # spot range here; the wide-range scan lives in the acceptance suite
    target = 2 * d
    vectors = [
        (a, b, c)
        for a in range(-7, 8)
        for b in range(-7, 8)
        for c in range(-7, 8)
        if a * a + b * b + c * c == target
    ]
    assert vectors, f"no lattice vectors of squared length {target} in range"
    for v in vectors:
        assert sum(v) % 3 != 0
        assert mod3_color((0, 0, 0)) != mod3_color(v)


def test_lattice_coloring_is_proper_on_a_patch():
    d = 5
    triples = list(product(range(4), repeat=3))
    g = build_graph([point(*tr) for tr in triples], 2 * d)
    assert g.edges
    for u, v in g.edges:
        assert mod3_color(triples[u]) != mod3_color(triples[v])
