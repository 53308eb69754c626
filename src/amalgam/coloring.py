"""The two coloring engines, on one class loop.

* ``bee_coloring``: balanced, equitable and equalized k-coloring of a
  bipartite multigraph: the edges, each pair and each vertex star split
  into k classes whose sizes differ by at most 1 (de Werra, INFOR 9,
  1971). It serves ``amalgam color --mode bee``; no construction uses it.
* ``evenly_equitable_coloring``: per-vertex-even k-coloring of an even
  multigraph (loops allowed) with per-vertex color degrees pairwise
  differing by 0 or 2 (Hilton, Combinatorica 2, 1982). The two-class
  construction colors its fused graph with it; ``--mode even``.

Both run ``_peel``: each pair's edges are oriented once, by the engine,
and classes top, ..., 2 are taken one at a time, each as a circulation
on the multiplicities of the arcs not yet colored; class 1 takes the
rest. A class costs O(P + V) for P distinct pairs and takes each arc's
lowest uncolored edge ids. With c classes to go, a quota on x uncolored
edges is an arc with the window [floor(x/c), ceil(x/c)]. Taking y leaves
(x-y)/(c-1) in [q, q+1] for q = floor(x/c), so every class ends with q
or q+1 of each quota and one pass is exact. x/c on every arc is a
fractional circulation, so an integral one exists (None would be a bug).
Classes above ``top`` (the edge count for bee, the largest half-degree
for even) have windows [0, 1] only and are skipped. The two networks:

* bee: the pair, star and total quotas of ``laminar``'s two families, on
  the split's ``quota_network`` with no groups: its cells are the sorted
  pairs (left end first), so a class never depends on the pairs' order.
  All edges of a pair lie in the same sets, so one arc per pair is exact.
* even: the quota is a vertex's in-degree, half its degree on the arcs
  of ``_even_orientation``. A class takes a circulation, so what it
  leaves stays balanced and the one orientation serves every class.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from functools import partial

from .flows import feasible_circulation, quota_network
from .multigraph import EdgeColoring, GraphUsageError, Multigraph, within_spread


class ColoringContractError(ValueError):
    """Input graph violates an engine's precondition."""


def _peel(g: Multigraph, k: int, top: int, orient, class_counts, verify, engine) -> EdgeColoring:
    """The class loop of both engines, gated on the engine's verifier.

    ``orient`` maps each pair's ascending edge ids to arcs' ascending ids,
    once. ``class_counts(uncolored, c)`` maps each arc to how many of its
    ``uncolored[arc]`` edges class c takes; None is a failed circulation.
    """
    by_pair: dict[tuple[int, int], list[int]] = defaultdict(list)  # ascending edge ids
    for e, (a, b) in enumerate(g.edges):
        by_pair[(a, b) if a <= b else (b, a)].append(e)
    ids_of = orient(by_pair)
    # an arc's uncolored edges are the last ``uncolored[arc]`` of its ids
    uncolored = {arc: len(ids) for arc, ids in ids_of.items()}
    colors = [1] * g.edge_count
    for c in range(min(k, top), 1, -1):
        counts = class_counts(uncolored, c)
        if counts is None:
            raise RuntimeError(f"{engine} class {c} of k={k} has no circulation (bug)")
        for arc, take in counts.items():
            ids, t = ids_of[arc], uncolored[arc]
            for e in ids[len(ids) - t : len(ids) - t + take]:
                colors[e] = c
            uncolored[arc] = t - take
    coloring = EdgeColoring(k, tuple(colors))
    if not verify(coloring):
        raise RuntimeError(f"{engine} coloring failed; this indicates a bug")
    return coloring


# ---------------------------------------------------------------------------
# Balanced / equitable / equalized coloring of bipartite multigraphs


def _check_bipartite(g: Multigraph, left: set[int]) -> None:
    for a, b in g.edges:
        if a == b:
            raise ColoringContractError("loops are not allowed in bipartite input")
        if (a in left) == (b in left):
            raise ColoringContractError(f"edge ({a},{b}) does not cross the bipartition")


def _bee_class_counts(uncolored: dict[tuple[int, int], int], divisor: int) -> dict | None:
    """How many of each pair's (left end first) uncolored edges the next bee class takes."""
    cells = sorted(pair for pair, x in uncolored.items() if x)
    *network, first = quota_network(cells, [uncolored[pair] for pair in cells], [], divisor)
    flow = feasible_circulation(*network)
    return None if flow is None else {pair: f for pair, f in zip(cells, flow[first:]) if f}


def bee_coloring(g: Multigraph, left: set[int], k: int) -> EdgeColoring:
    """Balanced, equitable, equalized k-edge-coloring of a bipartite multigraph."""
    if k < 1:
        raise GraphUsageError("k must be >= 1")
    _check_bipartite(g, left)

    def orient(ids_of):  # each pair left end first
        return {(a, b) if a in left else (b, a): ids for (a, b), ids in ids_of.items()}

    verify = partial(verify_bee, g, left)
    return _peel(g, k, g.edge_count, orient, _bee_class_counts, verify, "bee")


def verify_bee(g: Multigraph, left: set[int], coloring: EdgeColoring) -> bool:
    """Exact check of the equalized, balanced and equitable properties.

    Counts the (set, color) pairs that occur, in O(E) for any k: each set's
    counts over the k colors are ``within_spread`` 1.
    """
    if len(coloring.colors) != g.edge_count:
        return False
    pairs = [(a, b) if a <= b else (b, a) for a, b in g.edges]
    per_set: dict[object, Counter] = defaultdict(Counter)  # None: all edges
    for ((a, b), c), n in Counter(zip(pairs, coloring.colors)).items():
        for key in (None, (a, b), a, b):
            per_set[key][c] += n
    return all(within_spread(counts.values(), coloring.k, 1) for counts in per_set.values())


# ---------------------------------------------------------------------------
# Evenly-equitable coloring of even multigraphs


def _even_orientation(vertex_count: int, ids_of: dict) -> dict[tuple[int, int], list[int]]:
    """Each pair (a, b), a < b, gets its ids a->b, b->a alternately; a loop v->v.

    An odd pair's last id is reversed if Hierholzer's walk over these
    leftovers (an even simple graph) crosses it from b. So every vertex
    has in-degree half its degree.
    """
    arcs: dict[tuple[int, int], list[int]] = {}
    used: list[bool] = []
    adj: list[list[tuple[int, int]]] = [[] for _ in range(vertex_count)]  # (leftover, other end)
    for (a, b), ids in ids_of.items():
        if a == b:
            arcs[a, a] = ids
            continue
        arcs[a, b], arcs[b, a] = ids[0::2], ids[1::2]
        if len(ids) % 2:
            adj[a].append((len(used), b))
            adj[b].append((len(used), a))
            used.append(False)
    unread = [iter(out) for out in adj]
    for start in range(vertex_count):
        stack = [start]
        while stack:
            v = stack[-1]
            for i, w in unread[v]:
                if not used[i]:
                    used[i] = True
                    if w < v:  # crossed from b
                        arcs[v, w].append(arcs[w, v].pop())
                    stack.append(w)
                    break
            else:
                stack.pop()
    return arcs


def _even_class_counts(
    vertex_count: int, uncolored: dict[tuple[int, int], int], divisor: int
) -> dict[tuple[int, int], int] | None:
    """How many of each arc's uncolored edges the next even class takes.

    A vertex arc has the window [floor(h/divisor), ceil(h/divisor)] for
    in-degree h; a class of throughput x there has 2x edges at the vertex.
    """
    arcs = {arc: t for arc, t in uncolored.items() if t}
    half = [0] * vertex_count
    for (_, b), t in arcs.items():
        half[b] += t
    order = [v for v in range(vertex_count) if half[v]]
    # node split: v_in = 2v, v_out = 2v+1; the arcs first, in ``uncolored`` order
    tails = [2 * a + 1 for a, _ in arcs] + [2 * v for v in order]
    heads = [2 * b for _, b in arcs] + [2 * v + 1 for v in order]
    lo = [0] * len(arcs) + [half[v] // divisor for v in order]
    hi = [*arcs.values()] + [-(-half[v] // divisor) for v in order]
    flow = feasible_circulation(2 * vertex_count, tails, heads, lo, hi)
    return None if flow is None else {arc: f for arc, f in zip(arcs, flow) if f}


def evenly_equitable_coloring(g: Multigraph, k: int) -> EdgeColoring:
    """Evenly-equitable k-edge-coloring of an even multigraph (loops allowed)."""
    if k < 1:
        raise GraphUsageError("k must be >= 1")
    degrees = g.degrees()
    for v, d in enumerate(degrees):
        if d % 2:
            raise ColoringContractError(f"vertex {v} has odd degree {d}")
    orient = partial(_even_orientation, g.vertex_count)
    counts = partial(_even_class_counts, g.vertex_count)
    verify = partial(verify_evenly_equitable, g)
    return _peel(g, k, max(degrees, default=0) // 2, orient, counts, verify, "evenly-equitable")


def verify_evenly_equitable(g: Multigraph, coloring: EdgeColoring) -> bool:
    """Per vertex: every color degree even, pairwise differences in {0, 2}.

    Counts the (vertex, color) pairs that occur, in O(E) for any k: each
    vertex's counts are even and, over the k colors, ``within_spread`` 2.
    """
    if len(coloring.colors) != g.edge_count:
        return False
    per_vertex: dict[int, Counter] = defaultdict(Counter)
    for ((a, b), c), n in Counter(zip(g.edges, coloring.colors)).items():
        per_vertex[a][c] += n  # a loop adds 2n at its vertex
        per_vertex[b][c] += n
    if any(d % 2 for counts in per_vertex.values() for d in counts.values()):
        return False
    return all(within_spread(counts.values(), coloring.k, 2) for counts in per_vertex.values())
