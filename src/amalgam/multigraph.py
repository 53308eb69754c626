"""Loop-aware multigraph with stable edge identities.

Edges are stored as a flat sequence indexed by a dense EdgeId, so that a
coloring assigned on a fused graph survives vertex splitting unchanged.
Loops are encoded as edges whose endpoints coincide and contribute two to
the degree of their vertex.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Iterable, Mapping, Sequence


class GraphUsageError(ValueError):
    """Raised for out-of-range vertex/edge ids or malformed arguments."""


@dataclass(frozen=True)
class Multigraph:
    """Immutable multigraph; parallel edges and loops allowed.

    ``edges[i]`` is the endpoint pair of EdgeId ``i``.
    """

    vertex_count: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.vertex_count < 0:
            raise GraphUsageError(f"vertex count {self.vertex_count} is negative")
        for a, b in self.edges:
            if not (0 <= a < self.vertex_count and 0 <= b < self.vertex_count):
                raise GraphUsageError(f"edge ({a},{b}) out of range")

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def degrees(self) -> list[int]:
        d = [0] * self.vertex_count
        for a, b in self.edges:
            d[a] += 1
            d[b] += 1
        return d


@dataclass(frozen=True)
class EdgeColoring:
    """Total assignment of colors 1..k to the EdgeIds of a host graph."""

    k: int
    colors: tuple[int, ...]

    def __post_init__(self):
        if self.k < 1:
            raise GraphUsageError("k must be >= 1")
        for c in self.colors:
            if not (1 <= c <= self.k):
                raise GraphUsageError(f"color {c} outside 1..{self.k}")

    def edge_ids_by_class(self) -> list[list[int]]:
        """Every class's edge ids in one pass: index j for color j, 0 empty."""
        ids: list[list[int]] = [[] for _ in range(self.k + 1)]
        for e, c in enumerate(self.colors):
            ids[c].append(e)
        return ids


def color_degrees(g: Multigraph, colors: Sequence[int], k: int) -> list[list[int]]:
    """Per-color degree table: ``deg[v][j]`` for colors 1..k (column 0 unused)."""
    deg = [[0] * (k + 1) for _ in range(g.vertex_count)]
    for e, (a, b) in enumerate(g.edges):
        deg[a][colors[e]] += 1
        deg[b][colors[e]] += 1
    return deg


@dataclass(frozen=True)
class AmalgamationSpec:
    """Number function eta on the fused graph and the vertex map phi."""

    eta: tuple[int, ...]  # indexed by fused-graph vertex
    phi: tuple[int, ...]  # indexed by detached-graph vertex

    def __post_init__(self):
        counts = [0] * len(self.eta)
        for image in self.phi:
            if not (0 <= image < len(self.eta)):
                raise GraphUsageError("phi image out of range")
            counts[image] += 1
        if tuple(counts) != self.eta:
            raise GraphUsageError("eta inconsistent with phi preimage sizes")


def amalgamate(g: Multigraph, phi: Sequence[int]) -> tuple[Multigraph, AmalgamationSpec]:
    """Fuse vertices of g according to phi; edges keep their EdgeId.

    Edges between identified vertices become loops. phi must be total on
    V(g) and its image is renumbered densely in order of first appearance.
    """
    if len(phi) != g.vertex_count:
        raise GraphUsageError("phi must be total on V(g)")
    remap: dict[int, int] = {}
    for image in phi:
        if image not in remap:
            remap[image] = len(remap)
    dense = tuple(remap[image] for image in phi)
    edges = tuple((dense[a], dense[b]) for a, b in g.edges)
    h = Multigraph(len(remap), edges)
    eta = [0] * len(remap)
    for image in dense:
        eta[image] += 1
    return h, AmalgamationSpec(tuple(eta), dense)


def pair_keys(edges: Iterable[tuple[int, int]], n: int) -> list[int]:
    """Each edge's unordered pair {a, b} of a graph on n vertices as min*n + max."""
    return [a * n + b if a <= b else b * n + a for a, b in edges]


def within_spread(counts: Collection[int], slots: int, spread: int) -> bool:
    """Do the counts of ``slots`` keys differ by at most ``spread``?

    ``counts`` holds only the keys that occur. A key that does not occur
    counts 0, so it is the least count unless all ``slots`` keys occur.
    """
    least = min(counts, default=0) if len(counts) == slots else 0
    return max(counts, default=0) - least <= spread


# ---------------------------------------------------------------------------
# The union-find kernel: a dict over the vertices that edges touch, merged a
# whole edge list at a time, with path halving in every walk to a root


def find(parent: dict[int, int], x: int) -> int:
    """Root of x in a union-find whose dict maps only non-roots to their parents.

    Each node it passes is repointed to its grandparent (path halving).
    """
    while x in parent:
        p = parent[x]
        if p in parent:
            parent[x] = p = parent[p]
        x = p
    return x


def union(parent: dict[int, int], pairs: Iterable[tuple[int, int]]) -> int:
    """Merge the sets of each pair's two ends; the number of merges made."""
    merges = 0
    for a, b in pairs:
        a, b = find(parent, a), find(parent, b)
        if a != b:
            parent[a] = b
            merges += 1
    return merges


# ---------------------------------------------------------------------------
# JSON forms shared by the CLI and file formats


def graph_to_json(g: Multigraph) -> dict:
    return {"vertices": g.vertex_count, "edges": [[a, b] for a, b in g.edges]}


def json_int(x) -> int:
    """x itself if it is a JSON integer; a float, a string or a bool raises."""
    if type(x) is not int:
        raise GraphUsageError(f"expected a JSON integer, got {x!r}")
    return x


def json_pairs(items) -> tuple[tuple[int, int], ...]:
    """Each [a, b] of a JSON list as an int pair, with ``json_int``'s errors."""
    return tuple([
        (a, b) if type(a) is int and type(b) is int else (json_int(a), json_int(b))
        for a, b in items
    ])


def graph_from_json(obj: Mapping) -> Multigraph:
    try:
        vertices = json_int(obj["vertices"])
        edges = json_pairs(obj["edges"])
    except (KeyError, TypeError, ValueError) as exc:
        raise GraphUsageError(f"malformed graph JSON: {exc}") from exc
    return Multigraph(vertices, edges)


def coloring_to_json(c: EdgeColoring) -> dict:
    return {"k": c.k, "colors": list(c.colors)}


def coloring_from_json(obj: Mapping) -> EdgeColoring:
    try:
        k = json_int(obj["k"])
        return EdgeColoring(k, tuple([c if type(c) is int else json_int(c) for c in obj["colors"]]))
    except (KeyError, TypeError, ValueError) as exc:
        raise GraphUsageError(f"malformed coloring JSON: {exc}") from exc


# ---------------------------------------------------------------------------
# Host-graph constructors used across builders and tests


def complete_graph(n: int, lam: int = 1) -> Multigraph:
    """lambda K_n with edges in lexicographic order, repeated lambda times."""
    return two_class_graph(n, 1, lam, 0)


def two_class_graph(n: int, m: int, lam: int, mu: int) -> Multigraph:
    """K(n^(m); lambda, mu): m parts of size n; part p holds vertices p*n..p*n+n-1.

    Edges in lexicographic order, each pair repeated by its multiplicity;
    a block of multiplicity 0 is never visited.
    """
    s = n * m
    edges = []
    for u in range(s):
        end = (u // n + 1) * n  # past the last vertex of u's part
        if lam:
            for v in range(u + 1, end):
                edges.extend([(u, v)] * lam)
        if mu:
            for v in range(end, s):
                edges.extend([(u, v)] * mu)
    return Multigraph(s, tuple(edges))


def two_class_parts(n: int, m: int) -> list[list[int]]:
    return [list(range(p * n, (p + 1) * n)) for p in range(m)]
