"""Distance graphs, exact graph coloring, and forced-color analysis.

There is one graph type, `DistGraph`: points and the pairs among them at one
squared distance.  Every graph routine reads an adjacency list, and
`adjacency` is the one place where an edge set becomes one.

The coloring solver is exact backtracking with saturation-first (DSATUR)
vertex selection, served from per-saturation sets of vertex ranks with one
colored-neighbor bitmask per rank, and new-color symmetry breaking;
`is_proper` re-checks everything it reports.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

from .qcore import QPoint3, Rational, _frac, integral, integral_dist_sq


def adjacency(order: int, edges) -> list[set[int]]:
    """The neighbor sets of vertices 0..order-1 joined by the pairs `edges`."""
    adj: list[set[int]] = [set() for _ in range(order)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


@dataclass(frozen=True)
class DistGraph:
    """Euclidean distance graph: exact adjacency at one squared distance among
    `vertices`, which are listed in vertex-index order; `edges` holds each
    adjacent pair (u, v) once, with u < v."""

    vertices: tuple[QPoint3, ...]
    edges: frozenset[tuple[int, int]]
    duplicates_merged: int = 0

    def __post_init__(self):
        n = self.order
        for u, v in self.edges:
            if not (0 <= u < v < n):
                raise ValueError(f"edge ({u},{v}) out of range or misordered for order {n}")

    @property
    def order(self) -> int:
        return len(self.vertices)


def build_graph(points: list[QPoint3], t: Rational) -> DistGraph:
    """Deduplicate points and compute exact squared-distance-t adjacency."""
    t = _frac(t)
    if t <= 0:
        raise ValueError(f"squared adjacency distance must be positive, got {t}")
    if not points:
        raise ValueError("no points given")
    seen: dict[QPoint3, int] = {}
    vertices: list[QPoint3] = []
    for p in points:
        if p not in seen:
            seen[p] = len(vertices)
            vertices.append(p)
    n = len(vertices)
    # each vertex once as integers over its own denominator; a pair is
    # adjacent iff its squared distance num/den equals t = a/b
    forms = [integral(p) for p in vertices]
    a, b = t.numerator, t.denominator

    def adjacent(i: int, j: int) -> bool:
        num, den = integral_dist_sq(forms[i], forms[j])
        return b * num == a * den

    edges = frozenset((i, j) for i in range(n) for j in range(i + 1, n) if adjacent(i, j))
    return DistGraph(tuple(vertices), edges, len(points) - n)


# --- exact coloring ---------------------------------------------------------------


def is_proper(adj: list, coloring: tuple[int, ...]) -> bool:
    """Whether `coloring` gives a color to each vertex of the adjacency list
    `adj` and a different one to each pair of neighbors."""
    if len(coloring) != len(adj):
        return False
    return all(coloring[u] != coloring[v] for u, nbrs in enumerate(adj) for v in nbrs)


def k_colorable(adj: list, k: int) -> tuple[int, ...] | None:
    """A proper k-coloring (a color per vertex), or None when none exists (exact decision).

    `adj[v]` holds v's neighbors, as `adjacency` gives them.
    Backtracking assigns the most saturated vertex first (ties: degree, then
    lowest index) and never opens color c+1 before colors 0..c are in use.
    Each vertex has a rank, its place in the order by degree descending then
    index; the uncolored ranks sit in one set per saturation 0..k, so the
    next vertex is the least rank of the highest non-empty set.
    """
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    n = len(adj)
    order = sorted(range(n), key=lambda v: (-len(adj[v]), v))
    rank = [0] * n
    for r, v in enumerate(order):
        rank[v] = r
    # all state below is by rank; a colored rank's mask stays frozen: every
    # change made while it is colored is undone before it is uncolored
    nbrs = [[rank[u] for u in adj[v]] for v in order]
    colors = [-1] * n
    masks = [0] * n  # bit c: some colored neighbor has color c
    sat = [0] * n
    buckets = [set(range(n))] + [set() for _ in range(k)]  # uncolored ranks by saturation

    def paint(v: int, bit: int) -> list[int]:
        # the uncolored neighbors that gain the color: undo clears exactly these
        gained = []
        for u in nbrs[v]:
            if colors[u] < 0 and not masks[u] & bit:
                masks[u] |= bit
                s = sat[u]
                buckets[s].remove(u)
                buckets[s + 1].add(u)
                sat[u] = s + 1
                gained.append(u)
        return gained

    def unpaint(gained: list[int], bit: int) -> None:
        for u in gained:
            masks[u] ^= bit
            s = sat[u]
            buckets[s].remove(u)
            buckets[s - 1].add(u)
            sat[u] = s - 1

    def solve(max_used: int) -> bool:
        for s in range(k, -1, -1):
            if buckets[s]:
                break
        else:
            return True
        v = min(buckets[s])
        buckets[s].remove(v)
        blocked = masks[v]
        for c in range(min(k - 1, max_used + 1) + 1):
            bit = 1 << c
            if blocked & bit:
                continue
            colors[v] = c
            gained = paint(v, bit)
            if solve(max(max_used, c)):
                return True
            colors[v] = -1
            unpaint(gained, bit)
        buckets[s].add(v)
        return False

    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 4 * n + 1000))
    try:
        solved = solve(-1)
    finally:
        sys.setrecursionlimit(limit)
    if solved:
        coloring = tuple(colors[r] for r in rank)
        assert is_proper(adj, coloring)
        return coloring
    return None


def is_triangle_free(adj: list[set[int]]) -> bool:
    """Whether no two neighbors share a neighbor, for the adjacency sets `adj`."""
    return all(not (adj[u] & adj[v]) for u, nbrs in enumerate(adj) for v in nbrs if u < v)


# --- forced relations under k-coloring --------------------------------------------------


def forced_relations(adj: list, k: int) -> tuple[set[tuple[int, int]], set[tuple[int, int]]]:
    """Vertex pairs colored identically in every proper k-coloring of the
    adjacency list `adj`, and pairs colored differently in every one.

    Complete enumeration up to color permutation (sound for both relations,
    which are permutation-invariant), for orders up to 20.
    """
    n = len(adj)
    if n > 20:
        raise ValueError(f"order {n} exceeds the enumeration bound 20")
    colors = [-1] * n
    same = {(u, v) for u in range(n) for v in range(u + 1, n)}
    different = set(same)
    found = False

    def enumerate_from(v: int, max_used: int):
        nonlocal found
        if v == n:
            found = True
            # each set only shrinks, so each coloring reads what is left of it
            same.difference_update([(a, b) for a, b in same if colors[a] != colors[b]])
            different.difference_update([(a, b) for a, b in different if colors[a] == colors[b]])
            return
        blocked = {colors[u] for u in adj[v] if colors[u] != -1}
        for c in range(min(k - 1, max_used + 1) + 1):
            if c in blocked:
                continue
            colors[v] = c
            enumerate_from(v + 1, max(max_used, c))
            colors[v] = -1

    enumerate_from(0, -1)
    if not found:
        raise ValueError(f"graph admits no proper {k}-coloring")
    return same, different


# --- the lattice coloring -----------------------------------------------------------


def mod3_color(p) -> int:
    """x + y + z mod 3 for an integer lattice point (x, y, z)."""
    return sum(p) % 3
