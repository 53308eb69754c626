"""Loopless eta-detachment of an edge-colored multigraph.

Splits each fused vertex step by step. A split groups the endpoint slots
at the vertex into cells (one per color and neighbor, loops forming
their own cell per color) and chooses how many slots each cell moves to
the fresh vertex. Every count is held inside its floor/ceil quota window
-- per cell, per color, per neighbor, and in total -- by a feasible
integral circulation, which yields the degree and multiplicity quotas.

Color classes whose per-vertex degree shares are even must also keep
their component count. Each vertex then has even degree in such a
class, so each of the class's groups at u (a component of its edges
away from u) meets u in an even number of slots, at least two. The
circulation holds each group's count in its own floor/ceil window too,
so every group keeps a slot at u and the fresh vertex gets one: every
feasible circulation keeps the components, and one circulation per
split is the whole construction (``_split_counts`` gives the argument).
Nothing is searched or retried.

Each fused vertex keeps its star across its splits (``_Star``): its
cells, and for each qualifying color a union-find of that color's edges
away from it. Both are built once per fused vertex, from incidence and
the qualifying classes' edge lists made in one pass over the edges, and
each split updates them in place. So a split costs O(deg u) plus one
circulation, and a fused vertex's star costs its qualifying classes'
edges once.

A per-split guard re-checks the component counts, and the output is
gated by ``verify_detachment``; a split that fails raises
``DetachmentError`` naming its vertex, split and color.

The qualifying test and the verifier count only the keys that occur, as
ints: (vertex, color) ends and vertex pairs, the latter also per color.
A key that does not occur carries 0, which a floor allows iff its share
of H's count rounds down to 0, and a vertex without a color is no
obstacle to its qualifying. So both cost O(E) for E edges, whatever k
is and however many colors occur.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

from .flows import feasible_circulation, quota_network
from .multigraph import (
    AmalgamationSpec,
    EdgeColoring,
    Multigraph,
    find,
    pair_keys,
    union,
)

_LOOP = -1  # neighbor key for loop endpoints, and the loop cell's group: u itself


class DetachmentContractError(ValueError):
    """Precondition violation (eta(v)=1 with loops present, bad shapes)."""


class DetachmentError(RuntimeError):
    """Construction failed to satisfy the detachment properties.

    When a split failed, the error names where: the fused ``vertex``,
    the split ``delta`` (its copies still to be made) and the qualifying
    ``color`` whose row broke a component (None if the quota windows
    admitted no circulation). All three are None when the verifier
    rejected the output instead, and ``violated`` lists its structural
    errors and failed properties.
    """

    def __init__(
        self,
        violated: list[str],
        vertex: int | None = None,
        delta: int | None = None,
        color: int | None = None,
    ):
        message = f"detachment failed properties: {', '.join(violated)}"
        if vertex is not None:
            message += f" at vertex {vertex}, split delta={delta}, " + (
                f"color {color}" if color is not None else "no color"
            )
        super().__init__(message)
        self.violated = violated
        self.vertex = vertex
        self.delta = delta
        self.color = color


@dataclass(frozen=True)
class DetachmentResult:
    g: Multigraph
    coloring: EdgeColoring
    spec: AmalgamationSpec
    labels: dict[int, list[int]]  # fused vertex -> its detached vertices


@dataclass
class DetachmentReport:
    structural_ok: bool
    structural_errors: list[str]
    properties: dict[str, bool]
    details: dict[str, str] = field(default_factory=dict)

    @property
    def all_passed(self) -> bool:
        return self.structural_ok and all(self.properties.values())


def edge_component_count(edges) -> int:
    """Components of the subgraph induced by an edge list.

    Only vertices incident to at least one edge participate; a loop
    counts its vertex as incident. An empty list has zero components.
    """
    edges = list(edges)  # read twice, so a generator is read into a list first
    return len({v for pair in edges for v in pair}) - union({}, edges)


def qualifying_colors(h: Multigraph, coloring: EdgeColoring, eta: Sequence[int]) -> list[int]:
    """Colors j with d_{H(j)}(v)/eta(v) an even integer at every vertex (absent j vacuously)."""
    if errors := _contract_errors(h, coloring, eta):
        raise DetachmentContractError(errors[0])
    failed = set(coloring.colors).difference(_qualifying_classes(h, coloring.colors, eta))
    return [j for j in range(1, coloring.k + 1) if j not in failed]


def _contract_errors(h: Multigraph, coloring: EdgeColoring, eta, loops=()) -> list[str]:
    """The rules of ``detach``'s contract that eta and the coloring break on H, in order.

    A wrong eta length is reported alone; with ``loops``, a vertex with loops needs eta >= 2.
    """
    if len(eta) != h.vertex_count:
        return ["eta must be total on V(H)"]
    errors = ["coloring does not match H"] if len(coloring.colors) != h.edge_count else []
    for v, n in enumerate(eta):
        if n < 1:
            errors.append(f"eta({v}) must be positive")
        elif n == 1 and loops and loops[v]:
            errors.append(f"eta({v})=1 but vertex {v} has loops")
    return errors


def _end_keys(edges, colors: Sequence[int], base: list[int]) -> list[int]:
    """Each edge's two (vertex, color) ends, in order, as base[v] + c; a loop's vertex twice."""
    return [base[v] + c for pair, c in zip(edges, colors) for v in pair]


def _qualifying_classes(h: Multigraph, colors: Sequence[int], eta) -> dict[int, list[int]]:
    """Each qualifying color that occurs -> its edge ids, ascending, in color order.

    A vertex without j passes, so j fails iff some (v, j) end that occurs
    has a count not divisible by 2 eta(v); a loop counts twice. A color
    with no edge qualifies vacuously and has no components, so leaving it
    out changes no verdict.
    """
    scale = max(colors, default=0) + 1
    ends = Counter(_end_keys(h.edges, colors, [v * scale for v in range(h.vertex_count)]))
    failed = {key % scale for key, d in ends.items() if d % (2 * eta[key // scale])}
    ids: dict[int, list[int]] = {c: [] for c in sorted(set(colors).difference(failed))}
    for e, c in enumerate(colors):
        if c in ids:
            ids[c].append(e)
    return ids


def detach(h: Multigraph, coloring: EdgeColoring, eta: Sequence[int]) -> DetachmentResult:
    """Loopless eta-detachment satisfying the degree/multiplicity/component quotas."""
    # one pass: each vertex's edges and loops
    incident: list[list[int]] = [[] for _ in range(h.vertex_count)]
    loops = [0] * h.vertex_count
    for eid, (a, b) in enumerate(h.edges):
        incident[a].append(eid)
        if b != a:
            incident[b].append(eid)
        else:
            loops[a] += 1
    if errors := _contract_errors(h, coloring, eta, loops):
        raise DetachmentContractError(errors[0])

    colors = coloring.colors
    class_edges = _qualifying_classes(h, colors, eta)
    endpoints = [list(pair) for pair in h.edges]
    phi = list(range(h.vertex_count))
    labels: dict[int, list[int]] = {v: [] for v in range(h.vertex_count)}
    vertex_count = h.vertex_count
    for u in range(h.vertex_count):
        if eta[u] > 1:
            # no earlier split moves an end at u, so H's incidence list is u's star
            star = _Star(u, endpoints, colors, incident[u], class_edges)
            for delta in range(eta[u], 1, -1):
                star.split(delta, vertex_count)
                phi.append(u)
                labels[u].append(vertex_count)
                vertex_count += 1
        labels[u].append(u)

    g = Multigraph(vertex_count, tuple((a, b) for a, b in endpoints))
    result = DetachmentResult(g, coloring, AmalgamationSpec(tuple(eta), tuple(phi)), labels)
    report = verify_detachment(h, coloring, result)
    if not report.all_passed:
        failed = [name for name, ok in report.properties.items() if not ok]
        raise DetachmentError(report.structural_errors + failed)
    return result


class _Star:
    """A fused vertex u's cells and groups, kept up to date across u's splits.

    Cells: u's endpoint slots by (color, neighbor), loops at u forming the
    cell (color, _LOOP); slots are (edge id, end) in edge-id order, a loop
    holding both of its ends. Groups: for each qualifying color at u, a
    dict-keyed union-find over that color's edges away from u, each group
    named by its root. A root keeps its name across a split unless the
    split merges its group with another.

    Both are built once, from u's incident edges and the edge lists of its
    qualifying colors. A split then only changes u's star: a moved slot
    turns its edge into (w, z), away from u, which leaves its cell and is
    unioned into its color's groups as the cell moves; a loop with an end
    moved becomes the edge (w, u), a slot of the new cell (color, w). So
    a split costs O(deg u) plus its circulation, and building the star
    costs u's edges plus its qualifying classes' edges.
    """

    def __init__(self, u, endpoints, colors, incident, class_edges):
        self.u = u
        self.endpoints = endpoints
        self.cell_slots: dict[tuple[int, int], list[tuple[int, int]]] = {}
        for eid in incident:
            a, b = endpoints[eid]
            if a == b:
                slots = [(eid, 0), (eid, 1)]
                cell = (colors[eid], _LOOP)
            else:
                slots = [(eid, 0)] if a == u else [(eid, 1)]
                cell = (colors[eid], b if a == u else a)
            self.cell_slots.setdefault(cell, []).extend(slots)
        # u's own colors, so the star never reads a qualifying class away from u
        self.groups = {c: {} for c in {c for c, _ in self.cell_slots} if c in class_edges}
        for c, parent in self.groups.items():
            union(parent, [endpoints[eid] for eid in class_edges[c] if u not in endpoints[eid]])

    def split(self, delta: int, new_vertex: int) -> None:
        """Move a quota share of u's endpoint slots onto ``new_vertex``."""
        if not self.cell_slots:
            return  # isolated vertex splits into isolated vertices
        endpoints = self.endpoints
        # a cell's slots are parallel edges of one color, so which of them move
        # only permutes edge ids and never changes a later split
        for cell, take in _split_counts(self, delta).items():
            if not take:
                continue
            c, z = cell
            slots = self.cell_slots[cell]
            if z == _LOOP:
                # one endpoint per loop, never both, so no loop survives at the end
                moved = slots[: 2 * take : 2]
                for eid, _ in moved:
                    endpoints[eid][0] = new_vertex
                self.cell_slots[(c, new_vertex)] = [(eid, 1) for eid, _ in moved]
                rest = slots[2 * take :]
            else:
                for eid, end in slots[:take]:
                    endpoints[eid][end] = new_vertex
                if c in self.groups:  # every moved slot is now an edge (new_vertex, z)
                    union(self.groups[c], [(new_vertex, z)])
                rest = slots[take:]
            if rest:
                self.cell_slots[cell] = rest
            else:
                del self.cell_slots[cell]


def _split_counts(star: _Star, delta: int) -> dict[tuple[int, int], int]:
    """The per-cell move counts of one split, from one circulation.

    Windows: each cell, each color (row sum), each neighbor (column sum)
    and the grand total must land in [floor(size/delta), ceil(size/delta)].
    Joint feasibility across colors is a circulation on the color/neighbor
    bipartite graph.

    A qualifying color j must also keep its component count. Every vertex
    has even j-degree at every split: an unsplit vertex v has an even
    multiple of eta(v), and u and every copy made so far an even share.
    So each group of j -- a component of j's edges away from u -- meets u
    in an even number S_g >= 2 of slots. Each group with two or more
    cells gets one more arc, between j's row and those cells, with window
    [floor(S_g/delta), ceil(S_g/delta)]; a one-cell group's window is
    already its cell's. The windows nest (cells in groups in rows), and
    size/delta on every arc is a fractional circulation, so an integral
    one always exists. In any of them a group moves at most
    ceil(S_g/delta) <= S_g - 1 of its slots and so keeps one at u, and
    j's row moves at least one slot, so the fresh vertex joins u's
    component and every component of j survives. ``keeps_components``
    re-checks this on the circulation as a guard.

    One walk over u's sorted cells collects each qualifying row's cells
    by group, read off the star's union-finds: a group is named by its
    root, and the loop cell, at most one per color, by _LOOP, u's own
    group. So a split costs O(deg u) plus its circulation, on the network
    that ``flows.quota_network`` lays out, with colors as rows, neighbors
    as columns and the groups of two or more cells. Raises
    ``DetachmentError`` naming the split: with no color if the windows
    admit no circulation, or with the first qualifying color whose row
    breaks a component. The argument above rules out both.
    """
    cell_slots, groups = star.cell_slots, star.groups
    cells = sorted(cell_slots)
    sizes = [len(cell_slots[cell]) for cell in cells]
    quals: dict[int, dict[int, list[int]]] = {}  # qualifying color -> group -> its cells
    for i, (c, z) in enumerate(cells):
        if c in groups:  # c qualifies: find z's group in c's union-find
            group = z if z == _LOOP else find(groups[c], z)
            quals.setdefault(c, {}).setdefault(group, []).append(i)
    nested = [ids for members in quals.values() for ids in members.values() if len(ids) > 1]
    *network, first = quota_network(cells, sizes, nested, delta)
    flow = feasible_circulation(*network)
    if flow is None:
        raise DetachmentError(["construction"], vertex=star.u, delta=delta)
    takes = flow[first : first + len(cells)]
    for j, members in quals.items():
        row = [(group, takes[i], sizes[i]) for group, ids in members.items() for i in ids]
        if not keeps_components(row):
            raise DetachmentError(["construction"], vertex=star.u, delta=delta, color=j)
    return dict(zip(cells, takes))


def keeps_components(row) -> bool:
    """Would moving ``row`` of a qualifying color's slots keep its component count?

    ``row`` holds (group, slots moved, slots) per cell of the color at u.
    A group is named by its root in the star's union-find, a vertex, so
    >= 0; the loop cell's group is _LOOP, which stands for u itself.
    Components away from u stay as they are and u joins all its groups,
    so the count is kept iff the quotient graph on the groups, u and the
    fresh vertex w is connected once the row has moved. It has an edge
    from w to each group that moves a slot and from u to each group that
    keeps one: parallel edges never change a component count.
    """
    w = -2  # neither a root nor _LOOP
    moved: dict[int, int] = {}  # group -> w
    kept: dict[int, int] = {}  # group -> u
    for group, take, size in row:
        if take:
            moved[group] = w
        if take < size:
            kept[group] = _LOOP
    return edge_component_count([*moved.items(), *kept.items()]) == 1


# ---------------------------------------------------------------------------
# Property verifier


def verify_detachment(
    h: Multigraph, coloring: EdgeColoring, result: DetachmentResult
) -> DetachmentReport:
    """Exact evaluation of the seven detachment properties plus structure.

    The structure is ``detach``'s contract first (``_contract_errors``),
    then G carrying H over by phi, without loops. A1 holds each vertex's
    degree within its image's floor and ceil, d // eta and -(-d // eta).
    A2-A6 count int keys with ``_failing_pairs``: A2 the (vertex, color)
    ends v*(k+1) + c, shared by eta(u) copies of u, and A3-A6 the pairs
    {a, b} on V vertices, min*V + max, over all colors or per color,
    key*(k+1) + c, shared by the eta(u)eta(v) sibling pairs of (u, v), or
    C(eta(u), 2) for a loop. O(E) for E edges.
    """
    g, spec = result.g, result.spec
    eta, phi = spec.eta, spec.phi
    nv = h.vertex_count
    errors = _contract_errors(h, coloring, eta)
    if len(phi) != g.vertex_count:
        errors.append("phi not total on V(G)")
    if g.edge_count != h.edge_count:
        errors.append("edge count changed")
    if result.coloring.k != coloring.k or result.coloring.colors != coloring.colors:
        errors.append("coloring was not carried over by edge identity")
    if not errors:
        keys = pair_keys(h.edges, nv)
        images = [
            phi[a] * nv + phi[b] if phi[a] <= phi[b] else phi[b] * nv + phi[a]
            for a, b in g.edges
        ]
        if images != keys:
            e = next(e for e, (x, y) in enumerate(zip(images, keys)) if x != y)
            errors.append(f"edge {e} endpoints disagree with phi")
    if any(a == b for a, b in g.edges):
        errors.append("detached graph has loops")
    if errors:
        return DetachmentReport(False, errors, {})

    scale, colors = coloring.k + 1, coloring.colors  # a color key is key * scale + c
    props = dict.fromkeys(("A1", "A2", "A3", "A4", "A5", "A6", "A7"), True)
    details: dict[str, str] = {}

    deg_h = h.degrees()
    props["A1"] = all(
        deg_h[u] // eta[u] <= d <= -(-deg_h[u] // eta[u]) for u, d in zip(phi, g.degrees())
    )
    # G's ends map onto H's through phi of G's own ends, which may come in either order
    h_ends = _end_keys(g.edges, colors, [u * scale for u in phi])
    g_ends = _end_keys(g.edges, colors, [x * scale for x in range(g.vertex_count)])
    props["A2"] = not _failing_pairs(h_ends, g_ends, eta, scale)

    shares = {}  # pair key of H -> its sibling pairs in G
    for key in set(keys):
        u, v = divmod(key, nv)
        shares[key] = math.comb(eta[u], 2) if u == v else eta[u] * eta[v]
    # loops (A3, A4) or pairs (A5, A6), over all colors or per color
    g_keys = pair_keys(g.edges, g.vertex_count)
    for key in _failing_pairs(keys, g_keys, shares, 1):
        props["A3" if key // nv == key % nv else "A5"] = False
    color_keys = [key * scale + c for key, c in zip(keys, colors)]
    g_color_keys = [key * scale + c for key, c in zip(g_keys, colors)]
    for key in _failing_pairs(color_keys, g_color_keys, shares, scale):
        props["A4" if key // nv == key % nv else "A6"] = False

    for j, ids in _qualifying_classes(h, colors, eta).items():
        # parallel edges never change a component count
        ch = edge_component_count({h.edges[e] for e in ids})
        cg = edge_component_count([g.edges[e] for e in ids])
        if cg != ch:
            props["A7"] = False
            details["A7"] = f"color {j}: {cg} != {ch}"

    return DetachmentReport(True, [], props, details)


def _failing_pairs(h_keys: list[int], g_keys: list[int], shares, scale: int) -> set[int]:
    """key // scale of each H key whose keys in G break their windows.

    G's key i lies over H's key i. An H key counted n times has
    ``shares[key // scale]`` keys over it in G, each to be counted n/share
    up to rounding; each distinct (H key, count) that occurs in G is tested
    once. A key that does not occur in G carries 0, which the floor allows
    iff n < share.
    """
    want = Counter(h_keys)
    got = Counter(g_keys)
    to_h = dict(zip(g_keys, h_keys))
    met = Counter(to_h.values())  # H key -> its keys that occur in G
    # an H key with n >= share must be met by all its keys in G
    failing = {key for key, n in want.items() if n >= shares[key // scale] != met[key]}
    for key, count in set(zip(map(to_h.__getitem__, got), got.values())):
        n, share = want[key], shares[key // scale]
        if not n // share <= count <= -(-n // share):
            failing.add(key)
    return {key // scale for key in failing}
