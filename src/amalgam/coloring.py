"""The two coloring engines.

* ``bee_coloring``: balanced, equitable and equalized k-coloring of a
  bipartite multigraph, by recursive quota selection over two laminar
  families (per-pair edge sets, per-side vertex stars, all edges). It
  serves ``amalgam color --mode bee``; no construction uses it.
* ``evenly_equitable_coloring``: per-vertex-even k-coloring of an even
  multigraph (loops allowed) with per-vertex color degrees pairwise
  differing by 0 or 2; the two-class construction colors its fused
  graph with it. Classes k, k-1, ..., 2 are extracted one at a
  time, each as a bounded circulation on an Eulerian orientation of the
  edges not yet colored; class 1 takes what is left. With c classes to
  go and half-degree h at a vertex, the class taken gets half-degree x
  in {floor(h/c), ceil(h/c)}, and (h-x)/(c-1) stays in [q, q+1] for
  q = floor(h/c). So every class ends with degree 2q or 2q+2 at that
  vertex, and a single pass is exact.
"""

from __future__ import annotations

from collections import Counter, defaultdict

from .euler import euler_circuits
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
    for c in range(1, k + 1):
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


def _even_class_split(
    vertex_count: int, edges: dict[int, tuple[int, int]], divisor: int
) -> set[int]:
    """Edge set whose per-vertex degree is even and ~= degree/divisor.

    Orients an Eulerian circuit and takes a bounded circulation: the
    selected arcs give every vertex an even degree equal to twice its
    throughput, which is quota-bounded. The circulation always exists:
    sending 1/divisor of a unit along every arc is a fractional one, and
    the bounds are integers.
    """
    if not edges:
        return set()
    # node split: v_in = 2v, v_out = 2v+1; edge arcs first, so arc i is steps[i]
    steps = [step for trail in euler_circuits(vertex_count, edges) for step in trail]
    indeg = Counter(v for _, _, v in steps)  # in-degree equals degree/2
    order = sorted(indeg)
    tails = [2 * u + 1 for _, u, _ in steps] + [2 * v for v in order]
    heads = [2 * v for _, _, v in steps] + [2 * v + 1 for v in order]
    lo = [0] * len(steps) + [indeg[v] // divisor for v in order]
    hi = [1] * len(steps) + [-(-indeg[v] // divisor) for v in order]
    flow = feasible_circulation(2 * vertex_count, tails, heads, lo, hi)
    if flow is None:
        raise RuntimeError("even class split has no circulation; this indicates a bug")
    return {eid for (eid, _, _), f in zip(steps, flow) if f == 1}


def evenly_equitable_coloring(g: Multigraph, k: int) -> EdgeColoring:
    """Evenly-equitable k-edge-coloring of an even multigraph (loops allowed)."""
    if k < 1:
        raise GraphUsageError("k must be >= 1")
    for v, d in enumerate(g.degrees()):
        if d % 2:
            raise ColoringContractError(f"vertex {v} has odd degree {d}")
    colors = [0] * g.edge_count
    remaining = {e: g.edges[e] for e in range(g.edge_count)}
    for c in range(k, 1, -1):
        for e in _even_class_split(g.vertex_count, remaining, c):
            colors[e] = c
            del remaining[e]
    for e in remaining:
        colors[e] = 1
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
