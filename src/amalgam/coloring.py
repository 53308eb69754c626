"""The two coloring engines.

* ``bee_coloring``: balanced, equitable and equalized k-coloring of a
  bipartite multigraph, by recursive quota selection over two laminar
  families (per-pair edge sets, per-side vertex stars, all edges). It
  serves ``amalgam color --mode bee``; no construction uses it.
* ``evenly_equitable_coloring``: per-vertex-even k-coloring of an even
  multigraph (loops allowed) with per-vertex color degrees pairwise
  differing by 0 or 2 (Hilton, Combinatorica 2, 1982); the two-class
  construction colors its fused graph with it, and it serves ``amalgam
  color --mode even``. Classes k, k-1, ..., 2 are extracted one at a
  time, each as a bounded circulation on an Eulerian orientation of the
  edges not yet colored, from the engine's own Euler walk; class 1 takes
  what is left. With c classes to go and half-degree h at a vertex,
  the class taken gets half-degree x in {floor(h/c), ceil(h/c)}, and
  (h-x)/(c-1) stays in [q, q+1] for q = floor(h/c). So every class ends
  with degree 2q or 2q+2 at that vertex, and a single pass is exact.

  A fused graph has few vertices and many parallel edges and loops, so
  a class works on pair multiplicities, not on edges: one arc per
  oriented vertex pair, its capacity the pair's uncolored edges that
  way. A class costs O(P + V) for P distinct pairs and V vertices, and
  the coloring O(k(P + V) + E). A class given f edges of a pair takes
  the pair's f lowest uncolored edge ids.
"""

from __future__ import annotations

from collections import defaultdict

from .flows import feasible_circulation
from .laminar import LaminarFamily, select_subset
from .multigraph import EdgeColoring, GraphUsageError, Multigraph, color_degrees


class ColoringContractError(ValueError):
    """Input graph violates an engine's precondition."""


def _within_one(counts: list[int]) -> bool:
    return not counts or max(counts) - min(counts) <= 1


# ---------------------------------------------------------------------------
# Balanced / equitable / equalized coloring of bipartite multigraphs


def _check_bipartite(g: Multigraph, left: set[int]) -> None:
    for a, b in g.edges:
        if a == b:
            raise ColoringContractError("loops are not allowed in bipartite input")
        if (a in left) == (b in left):
            raise ColoringContractError(f"edge ({a},{b}) does not cross the bipartition")


def bee_coloring(g: Multigraph, left: set[int], k: int) -> EdgeColoring:
    """Balanced, equitable, equalized k-edge-coloring of a bipartite multigraph."""
    if k < 1:
        raise GraphUsageError("k must be >= 1")
    _check_bipartite(g, left)
    colors = [0] * g.edge_count
    remaining = list(range(g.edge_count))  # ascending EdgeId order breaks ties
    # while more classes are left than edges, every quota is [0, 1] and a class takes none
    for c in range(max(1, k - g.edge_count + 1), k + 1):
        classes_left = k - c + 1
        if classes_left == 1:
            for e in remaining:
                colors[e] = c
            remaining = []
            break
        size = len(remaining)
        by_pair: dict[tuple[int, int], list[int]] = defaultdict(list)
        by_vertex: dict[int, list[int]] = defaultdict(list)
        for i, e in enumerate(remaining):
            a, b = g.edges[e]
            by_pair[(min(a, b), max(a, b))].append(i)
            by_vertex[a].append(i)
            by_vertex[b].append(i)
        everything = [frozenset(range(size))]
        fam_a = LaminarFamily.of(
            size,
            list(by_pair.values())
            + [by_vertex[v] for v in sorted(by_vertex) if v in left]
            + everything,
        )
        fam_b = LaminarFamily.of(
            size,
            [by_vertex[v] for v in sorted(by_vertex) if v not in left] + everything,
        )
        chosen = select_subset(size, fam_a, fam_b, classes_left)
        for i in chosen:
            colors[remaining[i]] = c
        remaining = [e for i, e in enumerate(remaining) if i not in chosen]
    return EdgeColoring(k, tuple(colors))


def verify_bee(g: Multigraph, left: set[int], coloring: EdgeColoring) -> bool:
    """Exact check of the equalized, balanced and equitable properties."""
    if len(coloring.colors) != g.edge_count:
        return False
    k = coloring.k
    sizes = [0] * (k + 1)
    per_pair: dict[tuple[int, int], list[int]] = defaultdict(lambda: [0] * (k + 1))
    for e, (a, b) in enumerate(g.edges):
        c = coloring.colors[e]
        sizes[c] += 1
        per_pair[(min(a, b), max(a, b))][c] += 1
    if not _within_one(sizes[1:]):
        return False
    for counts in per_pair.values():
        if not _within_one(counts[1:]):
            return False
    for counts in color_degrees(g, coloring.colors, k):
        if not _within_one(counts[1:]):
            return False
    return True


# ---------------------------------------------------------------------------
# Evenly-equitable coloring of even multigraphs


def _even_class_counts(
    vertex_count: int, left: dict[tuple[int, int], int], divisor: int
) -> dict[tuple[int, int], int] | None:
    """How many of each pair's ``left`` uncolored edges the next class takes.

    Orients the uncolored edges so that every vertex has in-degree equal
    to half its degree: half of a pair's edges each way, each loop v->v,
    and each pair's odd leftover edge along an Euler circuit of the
    leftovers (one edge per pair with an odd count, so an even simple
    graph). One arc per oriented pair, capacity its count, and a vertex
    arc whose window is [floor(h/divisor), ceil(h/divisor)] for in-degree
    h. A circulation gives the class 2x edges at a vertex of throughput
    x. It always exists: 1/divisor of every arc's capacity is a
    fractional one, and the bounds are integers (None would be a bug).
    """
    arcs: dict[tuple[int, int], int] = {}
    adj: list[list[tuple[int, int]]] = [[] for _ in range(vertex_count)]  # (pair index, other end)
    for i, ((a, b), t) in enumerate(left.items()):
        if a == b:
            if t:
                arcs[a, a] = t
            continue
        if t > 1:
            arcs[a, b] = arcs[b, a] = t // 2
        if t % 2:
            adj[a].append((i, b))
            adj[b].append((i, a))
    # Hierholzer's walk from each start vertex in turn, backing up when stuck.
    # A step is recorded as it is popped, and each circuit's steps then enter
    # ``arcs`` in walk order, which is the circulation's arc order.
    used = [False] * len(left)
    unread = [iter(out) for out in adj]
    for start in range(vertex_count):
        stack, popped = [(start, start)], []
        while stack:
            v = stack[-1][1]
            for i, w in unread[v]:
                if not used[i]:
                    used[i] = True
                    stack.append((v, w))
                    break
            else:
                popped.append(stack.pop())
        popped.pop()  # the start's own (start, start)
        for a, b in reversed(popped):
            arcs[a, b] = arcs.get((a, b), 0) + 1
    if not arcs:
        return {}
    half = [0] * vertex_count
    for (_, b), t in arcs.items():
        half[b] += t
    order = [v for v in range(vertex_count) if half[v]]
    # node split: v_in = 2v, v_out = 2v+1; pair arcs first, in ``arcs`` order
    tails = [2 * a + 1 for a, _ in arcs] + [2 * v for v in order]
    heads = [2 * b for _, b in arcs] + [2 * v + 1 for v in order]
    lo = [0] * len(arcs) + [half[v] // divisor for v in order]
    hi = [*arcs.values()] + [-(-half[v] // divisor) for v in order]
    flow = feasible_circulation(2 * vertex_count, tails, heads, lo, hi)
    if flow is None:
        return None
    take: dict[tuple[int, int], int] = {}
    for (a, b), f in zip(arcs, flow):
        if f:
            pair = (a, b) if a <= b else (b, a)
            take[pair] = take.get(pair, 0) + f
    return take


def evenly_equitable_coloring(g: Multigraph, k: int) -> EdgeColoring:
    """Evenly-equitable k-edge-coloring of an even multigraph (loops allowed)."""
    if k < 1:
        raise GraphUsageError("k must be >= 1")
    degrees = g.degrees()
    for v, d in enumerate(degrees):
        if d % 2:
            raise ColoringContractError(f"vertex {v} has odd degree {d}")
    ids_of: dict[tuple[int, int], list[int]] = defaultdict(list)  # ascending edge ids
    for e, (a, b) in enumerate(g.edges):
        ids_of[(a, b) if a <= b else (b, a)].append(e)
    # a pair's uncolored edges are the last ``left[pair]`` of its ids
    left = {pair: len(ids) for pair, ids in ids_of.items()}
    colors = [1] * g.edge_count
    # a class c above every half-degree has windows [0, 1] only and takes nothing
    for c in range(min(k, max(degrees, default=0) // 2), 1, -1):
        counts = _even_class_counts(g.vertex_count, left, c)
        if counts is None:
            raise RuntimeError(f"evenly-equitable class {c} of k={k} has no circulation (bug)")
        for pair, take in counts.items():
            ids, t = ids_of[pair], left[pair]
            for e in ids[len(ids) - t : len(ids) - t + take]:
                colors[e] = c
            left[pair] = t - take
    coloring = EdgeColoring(k, tuple(colors))
    if not verify_evenly_equitable(g, coloring):
        raise RuntimeError("evenly-equitable coloring failed; this indicates a bug")
    return coloring


def verify_evenly_equitable(g: Multigraph, coloring: EdgeColoring) -> bool:
    """Per vertex: every color degree even, pairwise differences in {0, 2}."""
    if len(coloring.colors) != g.edge_count:
        return False
    deg = color_degrees(g, coloring.colors, coloring.k)
    for v in range(g.vertex_count):
        row = deg[v][1:]
        if any(d % 2 for d in row):
            return False
        if max(row) - min(row) > 2:
            return False
    return True
