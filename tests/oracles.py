"""Independent reference implementations that the tests compare amalgam against.

Each oracle recomputes what a library kernel computes, the slow or the
older way, and shares no state with it: per-vertex counts by a scan of
every edge, host graphs built pair by pair, a pairwise detachment
verifier with float windows, the tuple-keyed certificate checker and its
fairness scan over every part pair, split state rescanned from scratch,
the recursive Dinic that routed every arc, the augmenting-path
class-to-degree matcher, the loop-aware Euler circuit routine, the dense
bee and evenly-equitable verifiers, the fused two-class graph laid out
through per-pair deques of edge ids, and a pairwise laminarity check
with the random laminar families it is run on. Color degrees are counted
on a dense table of their own, and components with a dense union-find of
their own. The library keeps one kernel per job; the second way of doing
it lives here and only here.
"""

import math
import random
from collections import Counter, deque

from amalgam import (
    ROLE_FAIR_HAMILTONIAN,
    ROLE_HAMILTONIAN,
    ROLE_ONE_FACTOR,
    ROLE_R_FACTOR,
    DetachmentReport,
    EdgeColoring,
    LaminarFamily,
    Multigraph,
    evenly_equitable_coloring,
)
from amalgam.certify import CertifyReport, ClassVerdict
from amalgam.constructions import _walecki_classes
from amalgam.detachment import _LOOP

# ---------------------------------------------------------------------------
# Per-vertex and per-pair counts, each a scan of every edge


def loop_count(g, v):
    """Loops at v."""
    return sum(1 for a, b in g.edges if a == v and b == v)


def multiplicity(g, u, v):
    """Edges joining u and v, in either order."""
    pair = (u, v) if u <= v else (v, u)
    return sum(1 for a, b in g.edges if (min(a, b), max(a, b)) == pair)


def components(g):
    """Connected components, isolated vertices included, from a dense union-find."""
    root = _dense_roots(g.vertex_count, g.edges)
    return len({root(v) for v in range(g.vertex_count)})


def _dense_color_degrees(g, colors, k):
    """Oracle: ``deg[v][j]`` for every vertex v and color j in 0..k, one scan of the edges."""
    deg = [[0] * (k + 1) for _ in range(g.vertex_count)]
    for (a, b), c in zip(g.edges, colors):
        deg[a][c] += 1
        deg[b][c] += 1
    return deg


def color_class_degree(g, coloring, j, v):
    """Degree of v in color class j; a loop counts twice."""
    d = 0
    for e, (a, b) in enumerate(g.edges):
        if coloring.colors[e] != j:
            continue
        if a == v:
            d += 1
        if b == v:
            d += 1
    return d


def _all_pairs_two_class_edges(n, m, lam, mu):
    """K(n^(m); lambda, mu)'s edges by a visit to every vertex pair, zero multiplicity too."""
    s = n * m
    edges = []
    for u in range(s):
        for v in range(u + 1, s):
            edges.extend([(u, v)] * (lam if u // n == v // n else mu))
    return tuple(edges)


def _dense_roots(vertex_count, edges):
    """Root lookup of a dense union-find over the edges, kept apart from amalgam's kernel."""
    parent = list(range(vertex_count))

    def root(x):
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    for a, b in edges:
        parent[root(a)] = root(b)
    return root


def _edge_components(edges):
    """Components of the subgraph an edge list induces, from the dense union-find."""
    edges = list(edges)
    touched = {x for pair in edges for x in pair}
    root = _dense_roots(max(touched, default=-1) + 1, edges)
    return len({root(x) for x in touched})


# ---------------------------------------------------------------------------
# Detachment: the pairwise verifier and the split state rebuilt per split


def approx(x: int, y: float) -> bool:
    """floor(y) <= x <= ceil(y): the oracle's float window."""
    return math.floor(y) <= x <= math.ceil(y)


def _pairwise_verify_detachment(h, coloring, result):
    """Oracle: the detachment properties checked pair by pair.

    Visits every pair of siblings, and every pair of vertices in different
    fibers, once per color; so it costs about (sum of eta)^2 k.
    """
    errors = []
    g, spec = result.g, result.spec
    eta, phi = spec.eta, spec.phi
    # detach's contract first: a wrong eta length alone, else the coloring, then each eta(v)
    if len(eta) != h.vertex_count:
        errors.append("eta must be total on V(H)")
    else:
        if len(coloring.colors) != h.edge_count:
            errors.append("coloring does not match H")
        errors += [f"eta({u}) must be positive" for u in range(h.vertex_count) if eta[u] < 1]
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
    deg_h = _dense_color_degrees(h, coloring.colors, k)
    deg_g = _dense_color_degrees(g, result.coloring.colors, k)
    dh = h.degrees()
    dg = g.degrees()

    props = {}
    details = {}

    props["A1"] = all(
        approx(dg[w], dh[u] / eta[u]) for u in range(h.vertex_count) for w in siblings[u]
    )
    props["A2"] = all(
        approx(deg_g[w][j], deg_h[u][j] / eta[u])
        for u in range(h.vertex_count)
        for w in siblings[u]
        for j in range(1, k + 1)
    )

    mult_g = {}
    mult_gj = {}
    for e, (a, b) in enumerate(g.edges):
        key = (min(a, b), max(a, b))
        mult_g[key] = mult_g.get(key, 0) + 1
        ckey = (min(a, b), max(a, b), result.coloring.colors[e])
        mult_gj[ckey] = mult_gj.get(ckey, 0) + 1
    loops_h = [loop_count(h, v) for v in range(h.vertex_count)]
    loops_hj = [[0] * (k + 1) for _ in range(h.vertex_count)]
    mult_h = {}
    mult_hj = {}
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
    ids_h, ids_g = coloring.edge_ids_by_class(), result.coloring.edge_ids_by_class()
    # a color qualifies when each vertex's degree in it is an even multiple of eta
    qualifying = [
        j for j in range(1, k + 1)
        if all(deg_h[u][j] % (2 * eta[u]) == 0 for u in range(h.vertex_count))
    ]
    for j in qualifying:
        ch = _edge_components(h.edges[e] for e in ids_h[j])
        cg = _edge_components(g.edges[e] for e in ids_g[j])
        if cg != ch:
            ok7 = False
            details["A7"] = f"color {j}: {cg} != {ch}"
    props["A7"] = ok7

    return DetachmentReport(True, [], props, details)


def _rebuilt_row_keeps_components(endpoints, colors, u, w, cell_sizes, j, row):
    """Oracle: build color j's edge lists before and after the move explicitly."""
    before: list[tuple[int, int]] = []
    after: list[tuple[int, int]] = []
    for eid, (a, b) in enumerate(endpoints):
        if colors[eid] != j:
            continue
        before.append((a, b))
        if u not in (a, b):
            after.append((a, b))
    for z, take in row.items():
        size = cell_sizes[(j, z)]
        if z == _LOOP:
            # each moved loop endpoint turns one loop into a u--w edge
            after.extend([(u, w)] * (take > 0))
            after.extend([(u, u)] * (size // 2 - take > 0))
            continue
        if take:
            after.append((w, z))
        if size - take:
            after.append((u, z))
    return _edge_components(after) == _edge_components(before)


def _per_cell_keeps_components(row):
    """Oracle: the split guard's quotient graph with one or two edges per cell.

    ``row`` holds (group, slots moved, slots) per cell, the loop cell's
    group being _LOOP. This is the guard before it merged parallel edges:
    a moved slot gives its cell an edge from the fresh vertex w to the
    cell's group, a kept slot an edge from u, and the loop cell the edge
    u-w if it moves an endpoint, else a loop at u. Its components are
    counted with the dense union-find, over the vertices some edge touches.
    """
    u = 1 + max([group for group, _, _ in row if group != _LOOP], default=-1)
    w = u + 1
    edges = []
    for group, take, size in row:
        if group == _LOOP:
            edges.append((u, w) if take else (u, u))
            continue
        if take:
            edges.append((w, group))
        if take < size:
            edges.append((u, group))
    root = _dense_roots(w + 1, edges)
    return len({root(x) for pair in edges for x in pair}) == 1


def _rescanned_split_state(endpoints, colors, u, quals):
    """Oracle: u's cells and each qualifying color's groups, from scratch.

    Scans every edge for u's slots and for each qualifying color's edges
    away from u, then merges those in a dense union-find, with no state
    kept from earlier splits.
    """
    qual_set = set(quals)
    cell_slots = {}
    away = {j: [] for j in quals}
    for eid, (a, b) in enumerate(endpoints):
        c = colors[eid]
        if a == u:
            other = _LOOP if b == u else b
            cell_slots.setdefault((c, other), []).append((eid, 0))
            if b == u:
                cell_slots[(c, other)].append((eid, 1))
        elif b == u:
            cell_slots.setdefault((c, a), []).append((eid, 1))
        elif c in qual_set:
            away[c].append((a, b))
    cells_of = {}
    for c, z in sorted(cell_slots):
        cells_of.setdefault(c, []).append(z)
    vertex_count = 1 + max(max(pair) for pair in endpoints)
    groups = {}
    for j in quals:
        if j not in cells_of:
            continue
        root = _dense_roots(vertex_count, away[j])
        group_of_root = {}
        groups[j] = {
            z: group_of_root.setdefault(root(z), len(group_of_root))
            for z in cells_of[j]
            if z != _LOOP
        }
    return cell_slots, groups


# ---------------------------------------------------------------------------
# Certificates: certify as it was before it keyed pairs by ints


def _reference_certify(cert):
    """Oracle: certify as it was before it keyed pairs by ints.

    It compares ``Counter``s of (min, max) tuples and checks a Hamiltonian
    class's connectivity with the dense union-find.
    """
    report = CertifyReport()
    s = cert.host.vertex_count
    for claim in cert.classes:
        for a, b in claim.edges:
            if not (0 <= a < s and 0 <= b < s):
                report.structural_errors.append(f"unknown vertex in edge ({a},{b})")
    part_of = None
    if cert.parts is not None:
        part_of = {}
        for p, members in enumerate(cert.parts):
            for v in members:
                if not (0 <= v < s) or v in part_of:
                    report.structural_errors.append("malformed part structure")
                part_of[v] = p
        if len(part_of) != s:
            report.structural_errors.append("parts do not cover all vertices")
    if report.structural_errors:
        return report
    host_multiset = Counter((min(a, b), max(a, b)) for a, b in cert.host.edges)
    claimed_multiset: Counter = Counter()
    for claim in cert.classes:
        claimed_multiset.update((min(a, b), max(a, b)) for a, b in claim.edges)
    report.partition_ok = host_multiset == claimed_multiset
    for idx, claim in enumerate(cert.classes):
        report.class_verdicts.append(_reference_class(idx, claim, s, part_of))
    return report


def _reference_class(idx, claim, s, part_of):
    deg = [0] * s
    for a, b in claim.edges:
        deg[a] += 1
        deg[b] += 1
    role = claim.role
    if role in (ROLE_HAMILTONIAN, ROLE_FAIR_HAMILTONIAN):
        if not all(d == 2 for d in deg):
            return ClassVerdict(idx, role, False, "not 2-regular spanning")
        root = _dense_roots(s, claim.edges)
        if len({root(v) for v in range(s)}) != 1:
            return ClassVerdict(idx, role, False, "not connected")
        if role == ROLE_FAIR_HAMILTONIAN:
            if part_of is None:
                return ClassVerdict(idx, role, False, "fairness claimed without parts")
            if not _dense_fair(claim.edges, part_of):
                return ClassVerdict(idx, role, False, "part-pair counts not within 1")
        return ClassVerdict(idx, role, True)
    if role == ROLE_ONE_FACTOR:
        if not all(d == 1 for d in deg):
            return ClassVerdict(idx, role, False, "not a perfect matching")
        return ClassVerdict(idx, role, True)
    if role == ROLE_R_FACTOR:
        if claim.r is None or claim.r < 0:
            return ClassVerdict(idx, role, False, "missing factor degree")
        if not all(d == claim.r for d in deg):
            return ClassVerdict(idx, role, False, f"not {claim.r}-regular spanning")
        return ClassVerdict(idx, role, True)
    return ClassVerdict(idx, role, False, f"unknown role {role!r}")


def _dense_fair(edges, part_of):
    """Oracle: fairness by a count for every part pair, C(p, 2) of them, occurring or not."""
    counts: Counter = Counter()
    for a, b in edges:
        pa, pb = part_of[a], part_of[b]
        if pa != pb:
            counts[(min(pa, pb), max(pa, pb))] += 1
    num_parts = max(part_of.values()) + 1
    all_pairs = [
        counts.get((p, q), 0) for p in range(num_parts) for q in range(p + 1, num_parts)
    ]
    return not all_pairs or max(all_pairs) - min(all_pairs) <= 1


# ---------------------------------------------------------------------------
# Flows: the recursive kernel that routed every arc


class _RecursiveDinic:
    """Dinic with a recursive path search and every arc in the network."""

    def __init__(self, n):
        self.n = n
        self.head = [[] for _ in range(n)]
        self.to = []
        self.cap = []

    def add_arc(self, u, v, cap):
        idx = len(self.to)
        self.head[u].append(idx)
        self.to.append(v)
        self.cap.append(cap)
        self.head[v].append(idx + 1)
        self.to.append(u)
        self.cap.append(0)
        return idx

    def max_flow(self, s, t):
        total = 0
        while True:
            level = [-1] * self.n
            level[s] = 0
            queue = deque([s])
            while queue:
                u = queue.popleft()
                for idx in self.head[u]:
                    v = self.to[idx]
                    if self.cap[idx] > 0 and level[v] < 0:
                        level[v] = level[u] + 1
                        queue.append(v)
            if level[t] < 0:
                return total
            it = [0] * self.n

            def dfs(u, pushed):
                if u == t:
                    return pushed
                while it[u] < len(self.head[u]):
                    idx = self.head[u][it[u]]
                    v = self.to[idx]
                    if self.cap[idx] > 0 and level[v] == level[u] + 1:
                        got = dfs(v, min(pushed, self.cap[idx]))
                        if got:
                            self.cap[idx] -= got
                            self.cap[idx ^ 1] += got
                            return got
                    it[u] += 1
                return 0

            while True:
                pushed = dfs(s, 1 << 60)
                if not pushed:
                    break
                total += pushed


def _recursive_circulation(num_nodes, arcs):
    excess = [0] * num_nodes
    for u, v, lo, hi in arcs:
        excess[v] += lo
        excess[u] -= lo
    s, t = num_nodes, num_nodes + 1
    net = _RecursiveDinic(num_nodes + 2)
    arc_ids = [net.add_arc(u, v, hi - lo) for u, v, lo, hi in arcs]
    need = 0
    for v in range(num_nodes):
        if excess[v] > 0:
            net.add_arc(s, v, excess[v])
            need += excess[v]
        elif excess[v] < 0:
            net.add_arc(v, t, -excess[v])
    if net.max_flow(s, t) != need:
        return None
    return [lo + (hi - lo) - net.cap[a] for a, (_, _, lo, hi) in zip(arc_ids, arcs)]


# ---------------------------------------------------------------------------
# Class-to-degree assignment


def recursive_assign_classes(k: int, compatible) -> list[int] | None:
    """A bijection class -> degree slot honoring ``compatible``, or None.

    Augmenting-path bipartite matching, which finds a perfect matching
    whenever one exists; it recurses once per class already matched.
    """
    match_of = [-1] * k  # slot -> class

    def augment(j: int, seen: set[int]) -> bool:
        for s in range(k):
            if s not in seen and compatible(j, s):
                seen.add(s)
                if match_of[s] < 0 or augment(match_of[s], seen):
                    match_of[s] = j
                    return True
        return False

    for j in range(k):
        if not augment(j, set()):
            return None
    sigma = [-1] * k
    for s, j in enumerate(match_of):
        sigma[j] = s
    return sigma


# ---------------------------------------------------------------------------
# Euler circuits of even multigraphs, loop-aware: a loop is one step that
# leaves and re-enters its vertex


def euler_circuits(
    vertex_count: int, edges: dict[int, tuple[int, int]]
) -> list[list[tuple[int, int, int]]]:
    """Closed trails covering the given edges, one per non-trivial component.

    ``edges`` maps edge id -> endpoints. Each circuit is a list of steps
    (edge_id, from_vertex, to_vertex) with consecutive steps sharing a
    vertex. Adjacency lists are built in ascending edge-id order, so the
    traversal is a function of the input alone.
    """
    adj: list[list[tuple[int, int]]] = [[] for _ in range(vertex_count)]
    degree = [0] * vertex_count
    for eid in sorted(edges):
        a, b = edges[eid]
        if a == b:
            adj[a].append((eid, a))  # single traversal entry for a loop
            degree[a] += 2
        else:
            adj[a].append((eid, b))
            adj[b].append((eid, a))
            degree[a] += 1
            degree[b] += 1
    for v in range(vertex_count):
        if degree[v] % 2:
            raise ValueError(f"vertex {v} has odd degree {degree[v]}")

    used: set[int] = set()
    ptr = [0] * vertex_count
    circuits = []
    for start in range(vertex_count):
        if not adj[start]:
            continue
        if all(eid in used for eid, _ in adj[start]):
            continue
        stack: list[tuple[int, tuple[int, int, int] | None]] = [(start, None)]
        trail_rev: list[tuple[int, int, int]] = []
        while stack:
            v, arrival = stack[-1]
            nxt = None
            while ptr[v] < len(adj[v]):
                eid, w = adj[v][ptr[v]]
                if eid in used:
                    ptr[v] += 1
                    continue
                used.add(eid)
                ptr[v] += 1
                nxt = (eid, v, w)
                break
            if nxt is not None:
                stack.append((nxt[2], nxt))
            else:
                stack.pop()
                if arrival is not None:
                    trail_rev.append(arrival)
        trail = trail_rev[::-1]
        if trail:
            circuits.append(trail)
    return circuits


# ---------------------------------------------------------------------------
# Bee colorings: the dense verifier


def _within_one(counts):
    return not counts or max(counts) - min(counts) <= 1


def _dense_verify_bee(g, left, coloring):
    """Oracle: ``verify_bee`` on dense tables, a count per color 1..k for each set."""
    if len(coloring.colors) != g.edge_count:
        return False
    k = coloring.k
    sizes = [0] * (k + 1)
    per_pair = {}
    for e, (a, b) in enumerate(g.edges):
        c = coloring.colors[e]
        sizes[c] += 1
        per_pair.setdefault((min(a, b), max(a, b)), [0] * (k + 1))[c] += 1
    if not _within_one(sizes[1:]):
        return False
    for counts in per_pair.values():
        if not _within_one(counts[1:]):
            return False
    for counts in _dense_color_degrees(g, coloring.colors, k):
        if not _within_one(counts[1:]):
            return False
    return True


# ---------------------------------------------------------------------------
# Evenly-equitable colorings: the dense verifier


def _dense_verify_evenly_equitable(g, coloring):
    """Oracle: ``verify_evenly_equitable`` on a dense table, a count per color 1..k per vertex."""
    if len(coloring.colors) != g.edge_count:
        return False
    deg = _dense_color_degrees(g, coloring.colors, coloring.k)
    for v in range(g.vertex_count):
        row = deg[v][1:]
        if any(d % 2 for d in row):
            return False
        if max(row) - min(row) > 2:
            return False
    return True


# ---------------------------------------------------------------------------
# Two-class fused graphs: fixed classes placed through per-pair deques of edge ids


def _deque_two_class_coloring(n, m, lam, mu, degree):
    """Oracle: the fused two-class graph and its coloring, laid out edge id by edge id.

    The cross blocks and the loops are laid down first. Each cross cycle
    of the k Hamiltonian classes, then the 1-factor's cross cycles, then
    the cross leave, then the reserved 1-factor loops take the next free
    id of their pair from a deque, and the ids left uncolored are remapped
    through one ``evenly_equitable_coloring`` call. The 1-factor reserves
    min(n // 2, lam*C(n,2)) loops per vertex and takes one cross cycle for
    each of the n // 2 loops it cannot reserve.
    """
    k, odd = divmod(degree, 2)
    reserved_loops = odd * min(n // 2, lam * math.comb(n, 2))
    factor_cycles = odd * (n // 2) - reserved_loops
    leave_from_cross = bool(odd and n % 2)
    edges = []
    pair_ids = {}
    cycles, cross_leave = [], None
    if mu:
        for p in range(m):
            for q in range(p + 1, m):
                pair_ids[(p, q)] = deque(range(len(edges), len(edges) + mu * n * n))
                edges += [(p, q)] * (mu * n * n)
        cycles, cross_leave = _walecki_classes(m, mu * n * n)
    loop_ids = []
    for p in range(m):
        loop_ids.append(list(range(len(edges), len(edges) + lam * math.comb(n, 2))))
        edges += [(p, p)] * (lam * math.comb(n, 2))

    if len(cycles) < k + factor_cycles or (leave_from_cross and cross_leave is None):
        raise RuntimeError("not enough spanning cycles in the fused graph")

    num_classes = k + odd
    colors = [0] * len(edges)
    for j in range(1, k + 1):
        for a, b in cycles[j - 1]:
            colors[pair_ids[(a, b)].popleft()] = j
    for cycle in cycles[k:k + factor_cycles]:
        for a, b in cycle:
            colors[pair_ids[(a, b)].popleft()] = k + 1
    if leave_from_cross:
        for a, b in cross_leave:
            colors[pair_ids[(a, b)].popleft()] = k + 1
    for p in range(m):
        for e in loop_ids[p][:reserved_loops]:
            colors[e] = k + 1

    rest = [e for e in range(len(edges)) if colors[e] == 0]
    if rest and k >= 1:
        sub = Multigraph(m, tuple(edges[e] for e in rest))
        sub_col = evenly_equitable_coloring(sub, k)
        for i, e in enumerate(rest):
            colors[e] = sub_col.colors[i]

    h = Multigraph(m, tuple(edges))
    deg = _dense_color_degrees(h, colors, num_classes)
    for p in range(m):
        for j in range(1, k + 1):
            if deg[p][j] != 2 * n:
                raise RuntimeError(f"class {j} degree {deg[p][j]} != {2 * n}")
        if num_classes > k and deg[p][k + 1] != n:
            raise RuntimeError(f"leave class degree {deg[p][k + 1]} != {n}")
    return h, EdgeColoring(num_classes, tuple(colors))


# ---------------------------------------------------------------------------
# Laminar families and quotas


def quota_ok(selected, fam, n):
    """Check the floor/ceil quota of every member set against a selection."""
    for s in fam.sets:
        hit = len(selected & s)
        if not (len(s) // n <= hit <= -(-len(s) // n)):
            return False
    return True


def _pairwise_laminar(fam: LaminarFamily) -> bool:
    """Oracle: every element in the ground set, every pair nested or disjoint."""
    if any(not (0 <= x < fam.ground_size) for s in fam.sets for x in s):
        return False
    sets = fam.sets
    for i in range(len(sets)):
        for j in range(i + 1, len(sets)):
            a, b = sets[i], sets[j]
            if not (a <= b or b <= a or not (a & b)):
                return False
    return True


def _random_laminar(rng: random.Random, size: int) -> LaminarFamily:
    """Random laminar family built by recursive partitioning."""
    sets = []

    def split(elems):
        if len(elems) <= 1 or rng.random() < 0.3:
            return
        cut = rng.randint(1, len(elems) - 1)
        rng.shuffle(elems)
        left, right = elems[:cut], elems[cut:]
        for part in (left, right):
            if rng.random() < 0.8:
                sets.append(set(part))
            split(part)

    ground = list(range(size))
    if rng.random() < 0.7:
        sets.append(set(ground))
    split(ground)
    return LaminarFamily.of(size, sets)
