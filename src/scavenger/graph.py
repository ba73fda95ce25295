"""Distance graphs, exact graph coloring, and forced-color analysis.

There is one graph type, `DistGraph`: points and the pairs among them at one
squared distance.  Every graph routine reads an adjacency list, and
`adjacency` is the one place where an edge set becomes one.

The coloring solver is exact backtracking with saturation-first (DSATUR)
vertex selection, kept as integer bitsets over vertex ranks (one per color
and one per saturation level), and new-color symmetry breaking;
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
    index, and the state is bitsets over ranks: per color, the ranks with a
    neighbor of that color; per saturation 0..k, the uncolored ranks with
    that many neighbor colors.  The next vertex is the least rank of the
    highest non-empty saturation set.
    """
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    n = len(adj)
    order = sorted(range(n), key=lambda v: (-len(adj[v]), v))
    rank = [0] * n
    for r, v in enumerate(order):
        rank[v] = r
    bits = [1 << r for r in rank]
    nb = []  # by rank: the bitset of its neighbors' ranks
    for v in order:
        mask = 0
        for u in adj[v]:
            mask |= bits[u]
        nb.append(mask)
    colors = [0] * n  # by rank; read only once every rank is colored
    top, below = range(k, -1, -1), range(k - 1, -1, -1)

    def solve(levels: list[int], touched: list[int], used: int) -> bool:
        # levels[s]: the uncolored ranks with s neighbor colors; touched[c]: the
        # ranks with a neighbor colored c; colors 0..used-1 are in use.  Each
        # step paints on fresh copies of both lists, so nothing is undone.
        for s in top:
            if levels[s]:
                break
        else:
            return True
        bit = levels[s] & -levels[s]
        v = bit.bit_length() - 1
        for c in range(used + 1 if used < k else k):
            if touched[c] & bit:
                continue
            colors[v] = c
            gain = nb[v] & ~touched[c]  # the neighbors that gain color c
            up = levels.copy()
            up[s] ^= bit
            for j in below:  # highest first, so no rank moves twice
                moved = up[j] & gain
                if moved:
                    up[j] ^= moved
                    up[j + 1] |= moved
            now = touched.copy()
            now[c] |= gain
            if solve(up, now, used + 1 if c == used else used):
                return True
        return False

    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 4 * n + 1000))
    try:
        solved = solve([(1 << n) - 1] + [0] * k, [0] * k, 0)
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
