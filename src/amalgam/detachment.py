"""Loopless eta-detachment of an edge-colored multigraph.

Splits each fused vertex step by step. A split groups the endpoint slots
at the vertex into cells (one per color and neighbor, loops forming
their own cell per color) and chooses how many slots each cell moves to
the fresh vertex. Every count is held inside its floor/ceil quota window
-- per cell, per color, per neighbor, and in total -- by a feasible
integral circulation, which yields the degree and multiplicity quotas.

A color class's component structure after the split depends only on
those counts, because parallel edges to the same neighbor are
interchangeable. Color classes whose per-vertex degree shares are even
must also keep their component count. The split search is flow-guided
and fail-first: it solves one circulation for all cells and accepts it
as soon as every such color's row in it keeps its components. Otherwise
it searches the rows of the first color whose row breaks a component,
trying the flow's value first in each cell, re-solves the circulation
with that row fixed, and goes on from the new flow with the colors left.

The output is gated by ``verify_detachment``; construction retries with
shuffled search orders before giving up, and the error it then raises
names the vertex, split and color where the search got stuck.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Sequence

from .flows import feasible_circulation
from .multigraph import (
    AmalgamationSpec,
    EdgeColoring,
    Multigraph,
    UnionFind,
    approx,
    color_degrees,
)

_LOOP = -1  # neighbor key for loop endpoints
_MAX_ATTEMPTS = 40  # construction attempts, the later ones with shuffled search orders


class DetachmentContractError(ValueError):
    """Precondition violation (eta(v)=1 with loops present, bad shapes)."""


class DetachmentError(RuntimeError):
    """Construction failed to satisfy the detachment properties.

    When the split search gave up, the error names where: the fused
    ``vertex``, the split ``delta`` (its copies still to be made), the
    qualifying ``color`` whose row search failed (None if the quota
    windows alone admitted no circulation) and the search ``nodes`` of
    the last attempt. All four are None when the verifier rejected the
    output instead.
    """

    def __init__(
        self,
        violated: list[str],
        vertex: int | None = None,
        delta: int | None = None,
        color: int | None = None,
        nodes: int | None = None,
    ):
        message = f"detachment failed properties: {', '.join(violated)}"
        if vertex is not None:
            message += (
                f" at vertex {vertex}, split delta={delta}, "
                + (f"color {color}" if color is not None else "no color")
                + f", {nodes} search nodes in the last attempt"
            )
        super().__init__(message)
        self.violated = violated
        self.vertex = vertex
        self.delta = delta
        self.color = color
        self.nodes = nodes


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
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    for a, b in edges:
        if a not in parent:
            parent[a] = a
        if b not in parent:
            parent[b] = b
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    return sum(1 for x in parent if parent[x] == x)


def qualifying_colors(h: Multigraph, coloring: EdgeColoring, eta: Sequence[int]) -> list[int]:
    """Colors j with d_{H(j)}(v)/eta(v) an even integer at every vertex."""
    out = []
    deg = color_degrees(h, coloring.colors, coloring.k)
    for j in range(1, coloring.k + 1):
        if all(deg[v][j] % (2 * eta[v]) == 0 for v in range(h.vertex_count)):
            out.append(j)
    return out


def detach(
    h: Multigraph, coloring: EdgeColoring, eta: Sequence[int], seed: int = 0
) -> DetachmentResult:
    """Loopless eta-detachment satisfying the degree/multiplicity/component quotas."""
    if len(eta) != h.vertex_count:
        raise DetachmentContractError("eta must be total on V(H)")
    if len(coloring.colors) != h.edge_count:
        raise DetachmentContractError("coloring does not match H")
    for v, n in enumerate(eta):
        if n < 1:
            raise DetachmentContractError(f"eta({v}) must be positive")
        if n == 1 and h.loop_count(v) > 0:
            raise DetachmentContractError(f"eta({v})=1 but vertex {v} has loops")

    quals = qualifying_colors(h, coloring, eta)
    last_report = None
    stuck = None
    for attempt in range(_MAX_ATTEMPTS):
        rng = random.Random(seed * 1000003 + attempt)
        result = _detach_once(h, coloring, tuple(eta), quals, attempt, rng)
        if isinstance(result, DetachmentError):
            stuck = result
            continue
        report = verify_detachment(h, coloring, result)
        if report.all_passed:
            return result
        last_report = report
    if last_report is None:
        raise stuck or DetachmentError(["construction"])  # no attempt at all
    raise DetachmentError([name for name, ok in last_report.properties.items() if not ok])


def _detach_once(
    h: Multigraph,
    coloring: EdgeColoring,
    eta: tuple[int, ...],
    quals: list[int],
    attempt: int,
    rng: random.Random,
) -> DetachmentResult | DetachmentError:
    """One construction attempt; a split the search gave up on is returned as the error."""
    endpoints = [list(pair) for pair in h.edges]
    colors = coloring.colors
    phi = list(range(h.vertex_count))
    labels: dict[int, list[int]] = {v: [] for v in range(h.vertex_count)}
    remaining = list(eta)
    vertex_count = h.vertex_count

    for u in range(h.vertex_count):
        while remaining[u] > 1:
            delta = remaining[u]
            stuck = _split_vertex(
                endpoints, colors, vertex_count, u, delta, quals, attempt, rng
            )
            if stuck is not None:
                return stuck
            new_vertex = vertex_count
            vertex_count += 1
            phi.append(phi[u])
            labels[u].append(new_vertex)
            remaining[u] -= 1
        labels[u].append(u)

    g = Multigraph(vertex_count, tuple((a, b) for a, b in endpoints))
    spec = AmalgamationSpec(eta, tuple(phi))
    return DetachmentResult(g, EdgeColoring(coloring.k, colors), spec, labels)


def _split_vertex(
    endpoints: list[list[int]],
    colors: tuple[int, ...],
    vertex_count: int,
    u: int,
    delta: int,
    quals: list[int],
    attempt: int,
    rng: random.Random,
) -> DetachmentError | None:
    """Move a quota share of u's endpoint slots onto a fresh vertex.

    Mutates ``endpoints`` in place on success (new vertex id is
    ``vertex_count``) and returns None. If no component-preserving count
    assignment was found within this attempt's search budget, returns
    the error that names the split.
    """
    counts = _SplitCounts(endpoints, colors, vertex_count, u, delta, quals)
    if not counts.cell_slots:
        return None  # isolated vertex splits into isolated vertices
    assignment = counts.solve(attempt, rng)
    if assignment is None:
        return DetachmentError(
            ["construction"], vertex=u, delta=delta, color=counts.stuck_color,
            nodes=counts.nodes,
        )

    # a cell's slots are parallel edges of one color, so which of them move
    # only permutes edge ids and never changes a later split search
    new_vertex = vertex_count
    for cell, take in assignment.items():
        slots = counts.cell_slots[cell]
        if cell[1] == _LOOP:
            # one endpoint per loop, never both, so no loop survives at the end
            loops = sorted({eid for eid, _ in slots})
            moved = [(eid, 0) for eid in loops[:take]]
        else:
            moved = slots[:take]
        for eid, end in moved:
            endpoints[eid][end] = new_vertex
    return None


class _OutOfBudget(Exception):
    """The split search spent its node budget while searching a color's rows."""


class _SplitCounts:
    """Flow-guided, fail-first search for the per-cell move counts of one split.

    Windows: each cell, each color (row sum), each neighbor (column sum)
    and the grand total must land in [floor(size/delta), ceil(size/delta)].
    Joint feasibility across colors is a circulation on the color/neighbor
    bipartite graph. A qualifying color (even degree shares) must also
    keep its component count, which depends only on its row of counts.

    The search keeps one feasible circulation that honours every row
    fixed so far. At each level it tests the row each remaining
    qualifying color has in that flow: if all keep their components, the
    flow is the answer (accept early). Otherwise it searches the rows of
    the first color that fails (fail first), trying the flow's value
    first in each cell; a row that keeps the components is fixed, the
    circulation is solved again with it, and the next level starts from
    that flow. Every row inside the windows is still tried, so no
    feasible split is lost; ``budget`` caps the search nodes.

    The component test costs O(row): the color class with u's edges
    removed is merged once per split, and a candidate row only unions u,
    the fresh vertex w and the roots of u's neighbours.
    """

    budget = 20_000

    def __init__(self, endpoints, colors, vertex_count, u, delta, quals):
        self.u = u
        self.delta = delta
        qual_set = set(quals)
        # one pass: the slots of each cell, and each qualifying color's edges away from u
        # cell = (color, neighbor); loops at u form the cell (color, _LOOP)
        self.cell_slots: dict[tuple[int, int], list[tuple[int, int]]] = {}
        away: dict[int, list[tuple[int, int]]] = {j: [] for j in quals}
        for eid, (a, b) in enumerate(endpoints):
            c = colors[eid]
            if a == u:
                other = _LOOP if b == u else b
                self.cell_slots.setdefault((c, other), []).append((eid, 0))
                if b == u:
                    self.cell_slots[(c, other)].append((eid, 1))
            elif b == u:
                self.cell_slots.setdefault((c, a), []).append((eid, 1))
            elif c in qual_set:
                away[c].append((a, b))

        self.cell_sizes = {cell: len(slots) for cell, slots in self.cell_slots.items()}
        self.color_ids = sorted({c for c, _ in self.cell_sizes})
        self.neighbor_ids = sorted({z for _, z in self.cell_sizes})
        self.color_sizes = {c: 0 for c in self.color_ids}
        self.neighbor_sizes = {z: 0 for z in self.neighbor_ids}
        self.cells_of: dict[int, list[int]] = {c: [] for c in self.color_ids}
        for (c, z), size in sorted(self.cell_sizes.items()):
            self.color_sizes[c] += size
            self.neighbor_sizes[z] += size
            self.cells_of[c].append(z)
        self.total = sum(self.cell_sizes.values())
        self.quals = [j for j in quals if j in self.color_sizes]
        self._components = {
            j: self._component_state(vertex_count, away[j], self.cells_of[j])
            for j in self.quals
        }
        self.nodes = 0
        self.stuck_color: int | None = None

    def _component_state(self, vertex_count, away, cells):
        """Per-color data for ``keeps_components``.

        Returns the component count before the split, the components
        that u's edges do not reach, a map from each neighbor of u to a
        small id of its component once u's edges are removed, and the
        number of those ids.
        """
        u = self.u
        before = edge_component_count(
            away + [(u, u if z == _LOOP else z) for z in cells]
        )
        uf = UnionFind(vertex_count)
        touched = set()
        for a, b in away:
            uf.union(a, b)
            touched.update((a, b))
        node_of_root: dict[int, int] = {}
        node_of: dict[int, int] = {}
        for z in cells:
            if z != _LOOP:
                node_of[z] = node_of_root.setdefault(uf.find(z), len(node_of_root))
        unreached = len({uf.find(x) for x in touched} - set(node_of_root))
        return before, unreached, node_of, len(node_of_root)

    def keeps_components(self, j: int, row: dict[int, int]) -> bool:
        """Would moving ``row`` of color j's slots keep its component count?"""
        before, unreached, node_of, m = self._components[j]
        u, w = m, m + 1
        uf = UnionFind(m + 2)
        moved = kept = False
        for z, take in row.items():
            if z == _LOOP:
                kept = True  # every loop keeps an endpoint at u
                if take:
                    uf.union(u, w)  # a loop with one endpoint moved joins u and w
                    moved = True
                continue
            if take:
                uf.union(w, node_of[z])
                moved = True
            if take < self.cell_sizes[(j, z)]:
                uf.union(u, node_of[z])
                kept = True
        # u or w left without an edge of color j is no vertex of the class
        return unreached + uf.component_count() - (not kept) - (not moved) == before

    def _window(self, size: int) -> tuple[int, int]:
        return size // self.delta, -(-size // self.delta)

    def _circulation(self, fixed: dict[tuple[int, int], int]):
        """Counts for every cell, honoring ``fixed`` rows, or None."""
        src, snk = 0, 1
        color_node = {c: 2 + i for i, c in enumerate(self.color_ids)}
        nbr_node = {
            z: 2 + len(self.color_ids) + i for i, z in enumerate(self.neighbor_ids)
        }
        arcs: list[tuple[int, int, int, int]] = []
        cell_arc: dict[tuple[int, int], int] = {}
        for c in self.color_ids:
            lo, hi = self._window(self.color_sizes[c])
            arcs.append((src, color_node[c], lo, hi))
        for cell in sorted(self.cell_sizes):
            c, z = cell
            if cell in fixed:
                lo = hi = fixed[cell]
            else:
                lo, hi = self._window(self.cell_sizes[cell])
            cell_arc[cell] = len(arcs)
            arcs.append((color_node[c], nbr_node[z], lo, hi))
        for z in self.neighbor_ids:
            lo, hi = self._window(self.neighbor_sizes[z])
            arcs.append((nbr_node[z], snk, lo, hi))
        arcs.append((snk, src, *self._window(self.total)))
        flow = feasible_circulation(2 + len(self.color_ids) + len(self.neighbor_ids), arcs)
        if flow is None:
            return None
        return {cell: flow[idx] for cell, idx in cell_arc.items()}

    def solve(self, attempt: int, rng: random.Random):
        """Full count assignment, or None if the search gives up.

        On None, ``stuck_color`` names the color whose row search failed:
        where the budget ran out, or else the first color that failed.
        """
        self.nodes = 0
        self.stuck_color = None
        flow = self._circulation({})
        if flow is None:
            return None
        try:
            return self._settle(self.quals, {}, flow, attempt, rng)
        except _OutOfBudget as exc:
            self.stuck_color = exc.args[0]
            return None

    def _settle(self, pending, fixed, flow, attempt, rng):
        """Extend ``flow``, which honours ``fixed``, until no pending color fails."""
        j = next(
            (
                c for c in pending
                if not self.keeps_components(c, {z: flow[(c, z)] for z in self.cells_of[c]})
            ),
            None,
        )
        if j is None:
            return flow
        rest = [c for c in pending if c != j]
        cells = list(self.cells_of[j])
        if attempt > 0:
            rng.shuffle(cells)
        target = self.color_sizes[j] // self.delta  # exact: delta divides
        windows = [self._window(self.cell_sizes[(j, z)]) for z in cells]
        suffix_hi = [0] * (len(cells) + 1)
        suffix_lo = [0] * (len(cells) + 1)
        for i in range(len(cells) - 1, -1, -1):
            suffix_lo[i] = suffix_lo[i + 1] + windows[i][0]
            suffix_hi[i] = suffix_hi[i + 1] + windows[i][1]
        row: dict[int, int] = {}

        def place_cell(ci: int, remaining: int):
            self.nodes += 1
            if self.nodes > self.budget:
                raise _OutOfBudget(j)
            if ci == len(cells):
                # the flow's own row failed the test, so any row that passes needs a new solve
                if remaining or not self.keeps_components(j, row):
                    return None
                for z in cells:
                    fixed[(j, z)] = row[z]
                new_flow = self._circulation(fixed)
                found = None if new_flow is None else self._settle(
                    rest, fixed, new_flow, attempt, rng
                )
                if found is None:
                    for z in cells:
                        del fixed[(j, z)]
                return found
            lo, hi = windows[ci]
            lo = max(lo, remaining - suffix_hi[ci + 1])
            hi = min(hi, remaining - suffix_lo[ci + 1])
            values = list(range(lo, hi + 1))
            if attempt > 0:
                rng.shuffle(values)
            values.sort(key=lambda x: x != flow[(j, cells[ci])])  # the flow's value first
            for x in values:
                row[cells[ci]] = x
                found = place_cell(ci + 1, remaining - x)
                if found is not None:
                    return found
            row.pop(cells[ci], None)
            return None

        found = place_cell(0, target)
        if found is None:
            self.stuck_color = j  # every row of j failed; the outermost level reports last
        return found


# ---------------------------------------------------------------------------
# Property verifier


def verify_detachment(
    h: Multigraph, coloring: EdgeColoring, result: DetachmentResult
) -> DetachmentReport:
    """Exact evaluation of the seven detachment properties plus structure."""
    errors = []
    g, spec = result.g, result.spec
    eta, phi = spec.eta, spec.phi
    if len(eta) != h.vertex_count:
        errors.append("eta not total on V(H)")
    if len(phi) != g.vertex_count:
        errors.append("phi not total on V(G)")
    if g.edge_count != h.edge_count:
        errors.append("edge count changed")
    if result.coloring.k != coloring.k or result.coloring.colors != coloring.colors:
        errors.append("coloring was not carried over by edge identity")
    if not errors:
        for e, (a, b) in enumerate(g.edges):
            ha, hb = h.edges[e]
            if {phi[a], phi[b]} != {ha, hb}:
                errors.append(f"edge {e} endpoints disagree with phi")
                break
    if any(a == b for a, b in g.edges):
        errors.append("detached graph has loops")
    if errors:
        return DetachmentReport(False, errors, {})

    k = coloring.k
    siblings = [[w for w in range(g.vertex_count) if phi[w] == u] for u in range(h.vertex_count)]
    deg_h = color_degrees(h, coloring.colors, k)
    deg_g = color_degrees(g, result.coloring.colors, k)
    dh = h.degrees()
    dg = g.degrees()

    props: dict[str, bool] = {}
    details: dict[str, str] = {}

    props["A1"] = all(
        approx(dg[w], dh[u] / eta[u]) for u in range(h.vertex_count) for w in siblings[u]
    )
    props["A2"] = all(
        approx(deg_g[w][j], deg_h[u][j] / eta[u])
        for u in range(h.vertex_count)
        for w in siblings[u]
        for j in range(1, k + 1)
    )

    mult_g: dict[tuple[int, int], int] = {}
    mult_gj: dict[tuple[int, int, int], int] = {}
    for e, (a, b) in enumerate(g.edges):
        key = (min(a, b), max(a, b))
        mult_g[key] = mult_g.get(key, 0) + 1
        ckey = (min(a, b), max(a, b), result.coloring.colors[e])
        mult_gj[ckey] = mult_gj.get(ckey, 0) + 1
    loops_h = [h.loop_count(v) for v in range(h.vertex_count)]
    loops_hj = [[0] * (k + 1) for _ in range(h.vertex_count)]
    mult_h: dict[tuple[int, int], int] = {}
    mult_hj: dict[tuple[int, int, int], int] = {}
    for e, (a, b) in enumerate(h.edges):
        c = coloring.colors[e]
        if a == b:
            loops_hj[a][c] += 1
        else:
            key = (min(a, b), max(a, b))
            mult_h[key] = mult_h.get(key, 0) + 1
            mult_hj[(key[0], key[1], c)] = mult_hj.get((key[0], key[1], c), 0) + 1

    ok3 = ok4 = True
    for u in range(h.vertex_count):
        if eta[u] < 2:
            continue
        pairs = math.comb(eta[u], 2)
        for x in range(len(siblings[u])):
            for y in range(x + 1, len(siblings[u])):
                key = (min(siblings[u][x], siblings[u][y]), max(siblings[u][x], siblings[u][y]))
                if not approx(mult_g.get(key, 0), loops_h[u] / pairs):
                    ok3 = False
                for j in range(1, k + 1):
                    if not approx(mult_gj.get((key[0], key[1], j), 0), loops_hj[u][j] / pairs):
                        ok4 = False
    props["A3"], props["A4"] = ok3, ok4

    ok5 = ok6 = True
    for u in range(h.vertex_count):
        for v in range(u + 1, h.vertex_count):
            denom = eta[u] * eta[v]
            base = mult_h.get((u, v), 0)
            for wu in siblings[u]:
                for wv in siblings[v]:
                    key = (min(wu, wv), max(wu, wv))
                    if not approx(mult_g.get(key, 0), base / denom):
                        ok5 = False
                    for j in range(1, k + 1):
                        if not approx(
                            mult_gj.get((key[0], key[1], j), 0),
                            mult_hj.get((u, v, j), 0) / denom,
                        ):
                            ok6 = False
    props["A5"], props["A6"] = ok5, ok6

    ok7 = True
    for j in qualifying_colors(h, coloring, tuple(eta)):
        ch = edge_component_count(h.edges[e] for e in coloring.class_edge_ids(j))
        cg = edge_component_count(g.edges[e] for e in result.coloring.class_edge_ids(j))
        if cg != ch:
            ok7 = False
            details["A7"] = f"color {j}: {cg} != {ch}"
    props["A7"] = ok7

    return DetachmentReport(True, [], props, details)
