"""The greedy hunt against a frozen reference.

`_ref_greedy` and `_ref_k_colorable` are copies of the greedy loop and the
DSATUR search as they stood when the hunt still rebuilt its graph, and the
graph's adjacency, on every iteration: tuple-keyed candidates with neighbor
sets, a six-way box test per step, and saturation counts per color.  Each
admission breaks its ties on the exact coloring of the graph so far, so any
change to the frontier or to the search must give the same vertices, the same
edges and the same last coloring.
"""

from __future__ import annotations

import sys
from fractions import Fraction as F
from math import floor, isqrt

import pytest

from scavenger.cycles import gen_vectors
from scavenger.hunts import greedy_hunt
from scavenger.qcore import QPoint3, parse_point, point


def _ref_k_colorable(n: int, edges, k: int) -> tuple[int, ...] | None:
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    order = sorted(range(n), key=lambda v: (-len(adj[v]), v))
    rank = {v: r for r, v in enumerate(order)}
    nbrs = [[rank[u] for u in adj[v]] for v in order]
    colors = [-1] * n
    counts = [[0] * k for _ in range(n)]
    sat = [0] * n
    buckets = [set(range(n))] + [set() for _ in range(k)]

    def paint(v: int, c: int, step: int) -> None:
        colors[v] = c if step > 0 else -1
        for u in nbrs[v]:
            if colors[u] < 0:
                cu = counts[u]
                was = cu[c]
                cu[c] += step
                if not was or not cu[c]:
                    buckets[sat[u]].remove(u)
                    sat[u] += step
                    buckets[sat[u]].add(u)

    def solve(max_used: int) -> bool:
        for s in range(k, -1, -1):
            if buckets[s]:
                break
        else:
            return True
        v = min(buckets[s])
        buckets[s].remove(v)
        blocked = counts[v]
        for c in range(min(k - 1, max_used + 1) + 1):
            if blocked[c]:
                continue
            paint(v, c, 1)
            if solve(max(max_used, c)):
                return True
            paint(v, c, -1)
        buckets[s].add(v)
        return False

    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 4 * n + 1000))
    try:
        solved = solve(-1)
    finally:
        sys.setrecursionlimit(limit)
    if solved:
        coloring = tuple(colors[rank[v]] for v in range(n))
        assert all(coloring[u] != coloring[v] for u, v in edges)
        return coloring
    return None


def _ref_greedy(t: int, seed: list[QPoint3], d: int, box, cap: int):
    """(vertices, edges, last coloring or None) of the hunt; the argument
    checks are left to `greedy_hunt`."""
    hi = floor(box * d)
    lo = -hi
    keys = [tuple(int(c * d) for c in p.coords()) for p in seed]
    divisors = {k for k in range(1, d + 1) if d % k == 0}
    steps = gen_vectors(t, divisors, isqrt(t * d * d) + 1).vectors
    vertices: list[QPoint3] = []
    chosen: set[tuple[int, int, int]] = set()
    edges: set[tuple[int, int]] = set()
    neighbor_sets: dict[tuple[int, int, int], set[int]] = {}
    buckets: dict[int, set[tuple[int, int, int]]] = {}

    def admit(key: tuple[int, int, int]) -> None:
        m = len(vertices)
        vertices.append(QPoint3(*(F(c, d) for c in key)))
        chosen.add(key)
        nbrs = neighbor_sets.pop(key, ())
        if nbrs:
            buckets[len(nbrs)].remove(key)
        edges.update((j, m) for j in nbrs)
        x, y, z = key
        for dx, dy, dz in steps:
            q = (x + dx, y + dy, z + dz)
            if q in chosen or not (lo <= q[0] <= hi and lo <= q[1] <= hi and lo <= q[2] <= hi):
                continue
            qn = neighbor_sets.setdefault(q, set())
            if qn:
                buckets[len(qn)].remove(q)
            qn.add(m)
            buckets.setdefault(len(qn), set()).add(q)

    for key in keys:
        admit(key)

    while True:
        coloring = _ref_k_colorable(len(vertices), edges, 3)
        if coloring is None or len(vertices) >= cap or not neighbor_sets:
            break
        top = buckets[max(c for c, bucket in buckets.items() if bucket)]
        admit(min(top, key=lambda q: (-len({coloring[j] for j in neighbor_sets[q]}), q)))

    return tuple(vertices), frozenset(edges), coloring


def _points(*rows: str) -> list[QPoint3]:
    return [parse_point(r) for r in rows]


SEED_22 = _points("0 0 0", "14/3 1/3 1/3", "19/3 -1/3 14/3", "6 0 0", "3 3 2")
# images of the t=22 seed under exact isometries of Z^3: a half-turn about the
# x axis, a signed permutation, and a translation
SEED_22_IMAGES = {
    "x_my_mz": [point(p.x, -p.y, -p.z) for p in SEED_22],
    "z_mx_y": [point(p.z, -p.x, p.y) for p in SEED_22],
    "shifted": [point(p.x - 3, p.y + 1, p.z - 2) for p in SEED_22],
}
# the first 5-cycles `find_5cycle` takes over denominators {5} (t=22) and {1}
# (t=30, 34)
SEED_22_FIFTHS = _points("0 0 0", "17/5 3 6/5", "-4/5 1 3/5", "-14/5 -16/5 0", "-3 -1/5 -18/5")
SEED_30 = _points("0 0 0", "5 2 1", "0 1 -1", "-2 -4 0", "-1 -2 -5")
SEED_34 = _points("0 0 0", "4 3 3", "-1 0 3", "-6 0 0", "-3 -5 0")

CASES = {
    # name: (t, seed, denominator, box, cap)
    "t22_d3": (22, SEED_22, 3, F(10), 1000),
    "t22_d3_box19_3": (22, SEED_22, 3, F(19, 3), 1000),  # the seed touches the box
    "t22_d3_cap12": (22, SEED_22, 3, F(10), 12),
    "t22_d9": (22, SEED_22, 9, F(10), 1000),
    "t22_d15_cap60": (22, SEED_22, 15, F(10), 60),
    "t22_image_d3_box13_2": (22, SEED_22_IMAGES["x_my_mz"], 3, F(13, 2), 1000),
    "t22_image_d9": (22, SEED_22_IMAGES["x_my_mz"], 9, F(10), 1000),
    "t22_perm_d3": (22, SEED_22_IMAGES["z_mx_y"], 3, F(10), 1000),
    "t22_shifted_d3_box28_3": (22, SEED_22_IMAGES["shifted"], 3, F(28, 3), 1000),
    "t22_fifths_d5_cap120": (22, SEED_22_FIFTHS, 5, F(10), 120),
    "t22_fifths_d15_cap40": (22, SEED_22_FIFTHS, 15, F(19, 3), 40),
    "t30_d1_cap100": (30, SEED_30, 1, F(10), 100),
    "t30_d1_box13_2_cap80": (30, SEED_30, 1, F(13, 2), 80),
    "t34_d1_cap30": (34, SEED_34, 1, F(10), 30),
    "t34_d5_box19_3_cap100": (34, SEED_34, 5, F(19, 3), 100),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_greedy_hunt_matches_the_frozen_reference(name):
    t, seed, d, box, cap = CASES[name]
    vertices, edges, coloring = _ref_greedy(t, seed, d, box, cap)
    res = greedy_hunt(t, seed, d, box, cap)
    assert res.graph.vertices == vertices
    assert res.graph.edges == edges
    assert res.coloring == coloring
    assert res.succeeded == (coloring is None)
