"""Decomposition builders and exact feasibility checkers.

Each builder prepares a small fused graph whose loops and parallel edges
stand for the target graph's edges, colors it so that per-class degree
targets come out right, splits it back apart with ``detach``, and
returns a certificate. Every certificate is checked with ``certify``
exactly once, by the public builder that returns it; a builder never
hands back an unverified result.

Each host has one construction body, shared by its Hamiltonian builder
and its factorization builder: a Hamiltonian decomposition is the
factorization into 2-factors, plus one 1-factor when the degree is odd.
``detach`` keeps every 2-factor connected because its degree share at
each split is even, so the 2-factors come out as Hamiltonian cycles.

``walecki_direct`` is the odd one out: it builds Hamiltonian
decompositions of complete multigraphs by rotating an explicit zigzag
cycle, with no detachment involved, so it can serve as an independent
cross-check for the fused-graph route.
"""

from __future__ import annotations

import math
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Sequence

from .certify import (
    ClassClaim,
    DecompositionCertificate,
    ROLE_FAIR_HAMILTONIAN,
    ROLE_HAMILTONIAN,
    ROLE_ONE_FACTOR,
    ROLE_R_FACTOR,
    certify,
)
from .coloring import evenly_equitable_coloring
from .detachment import detach
from .multigraph import (
    EdgeColoring,
    GraphUsageError,
    Multigraph,
    UnionFind,
    color_degrees,
    complete_graph,
    two_class_graph,
    two_class_parts,
)


@dataclass(frozen=True)
class DecompositionRequest:
    """What to decompose; unused parameters stay at their defaults."""

    kind: str  # complete | multipartite | two-class | factorize-complete |
    #            factorize-multipartite | embed-paths | embed-factorization
    n: int = 0  # part size (or vertex count for complete kinds)
    m: int = 1  # part count
    lam: int = 0  # intra-part multiplicity
    mu: int = 0  # inter-part multiplicity
    r: tuple[int, ...] = ()  # factor degrees
    fair: bool = False
    parts: tuple[int, ...] | None = None  # explicit part sizes, if any
    base_graph: Multigraph | None = None  # for embeddings
    base_coloring: EdgeColoring | None = None
    extra: int = 0  # number of vertices added by an embedding


@dataclass
class FeasibilityReport:
    feasible: bool = True
    violations: list[str] = field(default_factory=list)

    @staticmethod
    def violated(violations: list[str]) -> "FeasibilityReport":
        return FeasibilityReport(feasible=not violations, violations=violations)

    def to_json(self) -> dict:
        return {"feasible": self.feasible, "violations": list(self.violations)}


class InfeasibleError(Exception):
    """The request fails a necessary condition; carries the full report."""

    def __init__(self, report: FeasibilityReport):
        super().__init__("; ".join(report.violations) or "infeasible")
        self.report = report


def _ensure_feasible(report: FeasibilityReport) -> None:
    if not report.feasible:
        raise InfeasibleError(report)


def _certified(cert: DecompositionCertificate) -> DecompositionCertificate:
    report = certify(cert)
    if not report.passed:
        bad = [v for v in report.class_verdicts if not v.passed]
        raise RuntimeError(
            "builder produced an uncertifiable decomposition (bug): "
            f"partition_ok={report.partition_ok} failures={bad}"
        )
    return cert


# ---------------------------------------------------------------------------
# Feasibility


def check_feasibility(req: DecompositionRequest) -> FeasibilityReport:
    """Exact evaluation of every necessary condition for the request."""
    kind = req.kind
    if kind == "complete":
        return _complete_feasibility(req.n, req.lam)
    if kind == "multipartite":
        return _multipartite_feasibility(req.n, req.m, req.lam, req.parts, req.fair)
    if kind == "two-class":
        return _two_class_feasibility(req.n, req.m, req.lam, req.mu, req.parts)
    if kind == "factorize-complete":
        return _factorization_feasibility(req.n, req.lam, req.r, per_vertex=req.n)
    if kind == "factorize-multipartite":
        out = _factorization_feasibility(
            req.n * req.m, req.lam, req.r, per_vertex=req.n * req.m,
            degree=req.lam * req.n * (req.m - 1),
        )
        if req.parts is not None and len(set(req.parts)) > 1:
            out.violations.append("(i) parts must have equal sizes")
            out.feasible = False
        return out
    if kind == "embed-paths":
        if req.base_graph is None or req.base_coloring is None:
            return FeasibilityReport.violated(["embedding requires a base coloring"])
        return FeasibilityReport.violated(
            _path_embedding_violations(req.base_graph, req.base_coloring, req.extra)
        )
    if kind == "embed-factorization":
        if req.base_graph is None or req.base_coloring is None:
            return FeasibilityReport.violated(["embedding requires a base coloring"])
        violations, _ = _factor_embedding_sigma(
            req.base_graph, req.base_coloring, req.extra, req.r
        )
        return FeasibilityReport.violated(violations)
    return FeasibilityReport.violated([f"unknown request kind {kind!r}"])


def _complete_feasibility(n: int, lam: int) -> FeasibilityReport:
    violations = []
    if n < 1 or lam < 0:
        violations.append("n must be >= 1 and lambda >= 0")
    elif lam * (n - 1) % 2 and n % 2:
        violations.append(
            f"odd degree {lam * (n - 1)} needs a perfect matching, impossible on {n} vertices"
        )
    return FeasibilityReport.violated(violations)


def _multipartite_feasibility(n, m, lam, parts, fair=False) -> FeasibilityReport:
    violations = []
    if n < 1 or m < 1 or lam < 0:
        violations.append("n, m must be >= 1 and lambda >= 0")
        return FeasibilityReport.violated(violations)
    if parts is not None and len(set(parts)) > 1:
        violations.append("(i) parts must have equal sizes")
    degree = lam * n * (m - 1)
    if degree % 2 and (n * m) % 2:
        violations.append(
            f"odd degree {degree} needs a perfect matching, impossible on {n * m} vertices"
        )
    if fair and lam != 1:
        violations.append("fair decomposition is only supported for multiplicity 1")
    return FeasibilityReport.violated(violations)


def _two_class_feasibility(n, m, lam, mu, parts) -> FeasibilityReport:
    violations = []
    if n < 1 or m < 1 or lam < 0 or mu < 0:
        return FeasibilityReport.violated(["n, m must be >= 1 and lambda, mu >= 0"])
    if parts is not None and len(set(parts)) > 1:
        violations.append("(i) parts must have equal sizes")
        return FeasibilityReport.violated(violations)
    # degenerate shapes reduce to a complete or multipartite host
    if m == 1:
        return _complete_feasibility(n, lam)
    if n == 1:
        return _complete_feasibility(m, mu)
    if lam == mu:
        return _complete_feasibility(n * m, lam)
    if lam == 0:
        return _multipartite_feasibility(n, m, mu, None)
    if mu == 0:
        # disconnected unless the whole graph is a single perfect matching
        # (degree 1: zero cycles plus the 1-factor) or empty
        if lam * (n - 1) > 1:
            violations.append(
                "multiple parts with no cross edges: the graph is disconnected"
            )
        return FeasibilityReport.violated(violations)
    degree = lam * (n - 1) + mu * n * (m - 1)
    if degree % 2 == 0:
        if lam > mu * n * (m - 1):
            violations.append(f"(iii) lambda={lam} > mu*n*(m-1)={mu * n * (m - 1)}")
    else:
        if n >= 3 and lam > mu * n * (m - 1):
            violations.append(f"(iii) lambda={lam} > mu*n*(m-1)={mu * n * (m - 1)}")
        if n == 2 and lam - 1 > 2 * mu * (m - 1):
            violations.append(f"(iii) lambda-1={lam - 1} > 2*mu*(m-1)={2 * mu * (m - 1)}")
    return FeasibilityReport.violated(violations)


def _factorization_feasibility(n, lam, r, per_vertex, degree=None) -> FeasibilityReport:
    violations = []
    if degree is None:
        degree = lam * (n - 1)
    if n < 1 or lam < 0:
        violations.append("n must be >= 1 and lambda >= 0")
        return FeasibilityReport.violated(violations)
    if not r:
        violations.append("factor degree sequence must be nonempty")
        return FeasibilityReport.violated(violations)
    for i, ri in enumerate(r):
        if ri < 0:
            violations.append(f"r[{i}]={ri} is negative")
        elif ri * per_vertex % 2:
            violations.append(f"r[{i}]*|V| = {ri * per_vertex} is odd")
    if sum(r) != degree:
        violations.append(f"sum(r)={sum(r)} != degree {degree}")
    return FeasibilityReport.violated(violations)


# ---------------------------------------------------------------------------
# Direct rotational decomposition of complete multigraphs


def _zigzag_cycles(n: int) -> list[list[tuple[int, int]]]:
    """(n-1)/2 edge-disjoint Hamiltonian cycles of K_n, n odd.

    Hub n-1 plus a ring of size n-1; the base cycle zigzags so that
    consecutive steps use every ring difference once, and rotating it
    exhausts the edge set.
    """
    ring = n - 1
    half = ring // 2
    offsets = [0]
    for i in range(1, half):
        offsets += [i, -i]
    offsets.append(half)
    cycles = []
    for j in range(half):
        verts = [n - 1] + [(j + o) % ring for o in offsets]
        cycles.append(
            [
                (min(verts[i], verts[(i + 1) % len(verts)]), max(verts[i], verts[(i + 1) % len(verts)]))
                for i in range(len(verts))
            ]
        )
    return cycles


def _rotational_one_factors(n: int) -> list[list[tuple[int, int]]]:
    """The n-1 one-factors of K_n (n even): hub to i, ring pairs (i+j, i-j)."""
    ring = n - 1
    factors = []
    for i in range(ring):
        f = [(min(n - 1, i), max(n - 1, i))]
        for j in range(1, (n - 2) // 2 + 1):
            a, b = (i + j) % ring, (i - j) % ring
            f.append((min(a, b), max(a, b)))
        factors.append(f)
    return factors


def _is_hamiltonian_union(n: int, edges: list[tuple[int, int]]) -> bool:
    adj: dict[int, list[int]] = {}
    for a, b in edges:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    if len(adj) != n or any(len(v) != 2 for v in adj.values()):
        return False
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def _paired_even_decomposition(n: int, order: list[int]):
    """K_n (n even) as cycles + leave: consecutive factor pairs, last is the leave."""
    factors = _rotational_one_factors(n)
    cycles = []
    for t in range(0, len(order) - 1, 2):
        union = factors[order[t]] + factors[order[t + 1]]
        if not _is_hamiltonian_union(n, union):
            raise RuntimeError("factor pairing failed to produce a cycle (bug)")
        cycles.append(union)
    return cycles, factors[order[-1]]


def walecki_direct(n: int, lam: int) -> DecompositionCertificate:
    """Rotational Hamiltonian decomposition of the lambda-fold K_n.

    Detachment-free; used as the independent oracle for the fused-graph
    builders. Produces floor(lam*(n-1)/2) cycles and, when lam*(n-1) is
    odd (so n is even), one perfect-matching leave.
    """
    _ensure_feasible(_complete_feasibility(n, lam))
    cycles: list[list[tuple[int, int]]] = []
    leave: list[tuple[int, int]] | None = None
    if n == 1 or lam == 0:
        pass
    elif n == 2:
        cycles = [[(0, 1), (0, 1)] for _ in range(lam // 2)]
        if lam % 2:
            leave = [(0, 1)]
    elif n % 2:
        cycles = _zigzag_cycles(n) * lam
    else:
        order_a = list(range(n - 1))  # leave is the last factor
        order_b = list(range(1, n - 1)) + [0]
        for _ in range(lam // 2):
            cyc_a, leave_a = _paired_even_decomposition(n, order_a)
            cyc_b, leave_b = _paired_even_decomposition(n, order_b)
            merged = leave_a + leave_b
            if not _is_hamiltonian_union(n, merged):
                raise RuntimeError("leave merge failed to produce a cycle (bug)")
            cycles += cyc_a + cyc_b + [merged]
        if lam % 2:
            cyc, leave = _paired_even_decomposition(n, order_a)
            cycles += cyc
    claims = tuple(ClassClaim(ROLE_HAMILTONIAN, tuple(c)) for c in cycles)
    if leave is not None:
        claims += (ClassClaim(ROLE_ONE_FACTOR, tuple(leave)),)
    return _certified(DecompositionCertificate(complete_graph(n, lam), claims))


# ---------------------------------------------------------------------------
# Fused-graph builders for complete hosts


def _detach_loop_classes(
    nv: int, class_loops: Sequence[int], seed: int
) -> tuple[Multigraph, EdgeColoring]:
    """Split one all-loop vertex into nv vertices, one class per entry.

    Class j receives ``class_loops[j]`` loops; the result is an
    edge-colored complete multigraph on nv vertices whose class degrees
    are 2*class_loops[j]/nv each.
    """
    total = sum(class_loops)
    h = Multigraph(1, tuple([(0, 0)] * total))
    colors = []
    for j, cnt in enumerate(class_loops, start=1):
        colors += [j] * cnt
    coloring = EdgeColoring(len(class_loops), tuple(colors))
    result = detach(h, coloring, [nv], seed=seed)
    return result.g, result.coloring


def _claims_from_coloring(
    g: Multigraph,
    coloring: EdgeColoring,
    roles: Sequence[str],
    rs: Sequence[int] | None,
    relabel: dict[int, int] | None = None,
) -> tuple[ClassClaim, ...]:
    claims = []
    for j in range(1, coloring.k + 1):
        edges = []
        for e in coloring.class_edge_ids(j):
            a, b = g.edges[e]
            if relabel is not None:
                a, b = relabel[a], relabel[b]
            edges.append((min(a, b), max(a, b)))
        r = rs[j - 1] if rs is not None else None
        claims.append(ClassClaim(roles[j - 1], tuple(edges), r=r))
    return tuple(claims)


def _hamiltonian_classes(
    degree: int, role: str = ROLE_HAMILTONIAN
) -> tuple[list[int], list[str]]:
    """Factor degrees and roles of a Hamiltonian decomposition.

    2-factors, plus one 1-factor when the degree is odd.
    """
    k, odd = divmod(degree, 2)
    return [2] * k + [1] * odd, [role] * k + [ROLE_ONE_FACTOR] * odd


def _complete_classes(
    n: int, r: Sequence[int], roles: Sequence[str], rs: Sequence[int] | None, seed: int
) -> tuple[ClassClaim, ...]:
    """Claims of K_n's factors of degrees r: one loop vertex detached to n."""
    if not r:
        return ()
    g, coloring = _detach_loop_classes(n, [n * ri // 2 for ri in r], seed)
    return _claims_from_coloring(g, coloring, roles, rs)


def ham_decompose_complete(n: int, lam: int, seed: int = 0) -> DecompositionCertificate:
    """Hamiltonian decomposition of lambda-fold K_n via the fused-graph route."""
    _ensure_feasible(_complete_feasibility(n, lam))
    r, roles = _hamiltonian_classes(lam * (n - 1))
    claims = _complete_classes(n, r, roles, None, seed)
    return _certified(DecompositionCertificate(complete_graph(n, lam), claims))


def factorize_complete(
    n: int, lam: int, r: Sequence[int], seed: int = 0
) -> DecompositionCertificate:
    """Split lambda-fold K_n into spanning regular factors of the given degrees."""
    r = tuple(r)
    _ensure_feasible(_factorization_feasibility(n, lam, r, per_vertex=n))
    claims = _complete_classes(n, r, [ROLE_R_FACTOR] * len(r), r, seed)
    return _certified(DecompositionCertificate(complete_graph(n, lam), claims))


# ---------------------------------------------------------------------------
# Embeddings of colored complete graphs


def _require_simple_complete(base: Multigraph, coloring: EdgeColoring) -> None:
    want = Counter(
        (a, b) for a in range(base.vertex_count) for b in range(a + 1, base.vertex_count)
    )
    got = Counter((min(a, b), max(a, b)) for a, b in base.edges)
    if want != got:
        raise GraphUsageError("base must be a simple complete graph")
    if len(coloring.colors) != base.edge_count:
        raise GraphUsageError("base coloring does not match the base graph")


def _class_is_acyclic(base: Multigraph, edge_ids: list[int]) -> bool:
    uf = UnionFind(base.vertex_count)
    return all(uf.union(*base.edges[e]) for e in edge_ids)


def _path_embedding_violations(
    base: Multigraph, coloring: EdgeColoring, n: int
) -> list[str]:
    m = base.vertex_count
    k = coloring.k
    violations = []
    if n < 1:
        return ["must add at least one vertex"]
    if k != (m + n - 1 + 1) // 2:
        violations.append(f"need k={(m + n) // 2} classes, got {k}")
        return violations
    matching_class = k if (m + n) % 2 == 0 else None
    deg = color_degrees(base, coloring.colors, k)
    for j in range(1, k + 1):
        ids = coloring.class_edge_ids(j)
        cap = 1 if j == matching_class else 2
        if any(deg[v][j] > cap for v in range(m)):
            violations.append(f"class {j}: a vertex exceeds degree {cap}")
            continue
        if not _class_is_acyclic(base, ids):
            violations.append(f"class {j}: contains a cycle, not a disjoint union of paths")
            continue
        if j == matching_class:
            unmatched = m - 2 * len(ids)
            if unmatched > n:
                violations.append(
                    f"class {j}: {unmatched} untouched vertices exceed the {n} new ones"
                )
        else:
            paths = m - len(ids)  # acyclic, max degree 2: component count
            if paths > n:
                violations.append(f"class {j}: {paths} paths exceed the limit {n}")
    return violations


def _embed(
    base: Multigraph, coloring: EdgeColoring, n: int, r: Sequence[int],
    roles: Sequence[str], rs: Sequence[int] | None, seed: int,
) -> DecompositionCertificate:
    """Grow class j of a colored K_m into a factor of degree r[j] of K_{m+n}.

    The n new vertices are fused into one vertex u joined to each base
    vertex up to degree r[j] in class j; u's loops supply the class's
    remaining edges, |class j| - r[j]*(m-n)/2 of them. Detaching u into n
    vertices gives the factors; base edges keep their positions.
    """
    m = base.vertex_count
    deg = color_degrees(base, coloring.colors, coloring.k)
    edges = list(base.edges)
    colors = list(coloring.colors)
    for j, rj in enumerate(r, start=1):
        for v in range(m):
            edges += [(v, m)] * (rj - deg[v][j])
            colors += [j] * (rj - deg[v][j])
        loops = len(coloring.class_edge_ids(j)) - rj * (m - n) // 2
        edges += [(m, m)] * loops
        colors += [j] * loops
    h = Multigraph(m + 1, tuple(edges))
    fused_coloring = EdgeColoring(coloring.k, tuple(colors))
    result = detach(h, fused_coloring, [1] * m + [n], seed=seed)
    claims = _claims_from_coloring(result.g, result.coloring, roles, rs)
    return _certified(DecompositionCertificate(complete_graph(m + n, 1), claims))


def embed_complete_paths(
    base: Multigraph, base_coloring: EdgeColoring, n: int, seed: int = 0
) -> DecompositionCertificate:
    """Grow a path-per-class coloring of K_m into a Hamiltonian decomposition.

    Adds n vertices (fused into one during construction). The output's
    restriction to the original vertices reproduces the base coloring
    edge for edge. When m+n is even the last class is the one-factor.
    """
    _require_simple_complete(base, base_coloring)
    violations = _path_embedding_violations(base, base_coloring, n)
    _ensure_feasible(FeasibilityReport.violated(violations))
    r, roles = _hamiltonian_classes(base.vertex_count + n - 1)
    return _embed(base, base_coloring, n, r, roles, None, seed)


def _factor_embedding_sigma(
    base: Multigraph, coloring: EdgeColoring, n: int, r: Sequence[int]
):
    """Violations plus a class-to-degree assignment for the factor embedding."""
    m = base.vertex_count
    k = coloring.k
    violations = []
    if n < 1:
        return ["must add at least one vertex"], None
    if len(r) != k:
        return [f"need one factor degree per class: {k} classes, {len(r)} degrees"], None
    for i, ri in enumerate(r):
        if ri * (m + n) % 2:
            violations.append(f"r[{i}]*|V| = {ri * (m + n)} is odd")
    if sum(r) != m + n - 1:
        violations.append(f"sum(r)={sum(r)} != degree {m + n - 1}")
    if violations:
        return violations, None
    deg = color_degrees(base, coloring.colors, k)
    max_deg = [max(deg[v][j] for v in range(m)) if m else 0 for j in range(1, k + 1)]
    sizes = [len(coloring.class_edge_ids(j)) for j in range(1, k + 1)]

    def compatible(j: int, slot: int) -> bool:
        return max_deg[j] <= r[slot] and 2 * sizes[j] >= r[slot] * (m - n)

    sigma = _assign_classes(k, compatible)
    if sigma is None:
        violations.append(
            "no class-to-degree assignment satisfies the degree cap "
            f"(class degrees {max_deg}) and edge minimum (class sizes {sizes})"
        )
        return violations, None
    return [], sigma


def _assign_classes(k: int, compatible) -> list[int] | None:
    """A bijection class -> degree slot honoring ``compatible``, or None.

    Augmenting-path bipartite matching, which finds a perfect matching
    whenever one exists.
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


def embed_factorization(
    base: Multigraph,
    base_coloring: EdgeColoring,
    n: int,
    r: Sequence[int],
    seed: int = 0,
) -> DecompositionCertificate:
    """Grow a colored K_m into a factorization of K_{m+n}.

    Each base class lands inside a spanning factor whose degree is
    chosen by an exact compatibility matching.
    """
    _require_simple_complete(base, base_coloring)
    r = tuple(r)
    violations, sigma = _factor_embedding_sigma(base, base_coloring, n, r)
    _ensure_feasible(FeasibilityReport.violated(violations))
    rs = [r[slot] for slot in sigma]
    return _embed(base, base_coloring, n, rs, [ROLE_R_FACTOR] * len(rs), rs, seed)


# ---------------------------------------------------------------------------
# Multipartite and two-class hosts


def _part_classes(
    h: Multigraph, coloring: EdgeColoring, n: int, m: int, roles: Sequence[str],
    rs: Sequence[int] | None, seed: int,
) -> tuple[ClassClaim, ...]:
    """Claims after detaching each of h's m vertices into a part of n.

    The detached vertices of part p are relabeled p*n .. p*n+n-1.
    """
    result = detach(h, coloring, [n] * m, seed=seed)
    relabel = {}
    for p in range(m):
        for idx, w in enumerate(sorted(result.labels[p])):
            relabel[w] = p * n + idx
    return _claims_from_coloring(result.g, result.coloring, roles, rs, relabel)


def _multipartite_classes(
    n: int, m: int, r: Sequence[int], roles: Sequence[str], rs: Sequence[int] | None,
    seed: int,
) -> tuple[ClassClaim, ...]:
    """Claims of the factors of degrees r of a complete multipartite host.

    Two fusion stages: the whole host collapses to one loop vertex for
    the class layout, which detaches to m part-vertices (even factor
    classes stay connected) and then to the full vertex set. Pair quotas
    of the first detachment make every class's part-pair counts come out
    within one automatically, so a fair decomposition needs nothing more.
    """
    if not r:
        return ()
    g1, col1 = _detach_loop_classes(m, [m * n * ri // 2 for ri in r], seed)
    return _part_classes(g1, col1, n, m, roles, rs, seed + 1)


def ham_decompose_multipartite(
    n: int, m: int, lam: int, fair: bool = False, seed: int = 0
) -> DecompositionCertificate:
    """Hamiltonian decomposition of the lambda-fold complete multipartite graph.

    The fair variant is the same construction plus the stricter verdict.
    """
    _ensure_feasible(_multipartite_feasibility(n, m, lam, None, fair))
    r, roles = _hamiltonian_classes(
        lam * n * (m - 1), ROLE_FAIR_HAMILTONIAN if fair else ROLE_HAMILTONIAN
    )
    claims = _multipartite_classes(n, m, r, roles, None, seed)
    host = two_class_graph(n, m, 0, lam)
    return _certified(DecompositionCertificate(host, claims, two_class_parts(n, m)))


def factorize_multipartite(
    n: int, m: int, lam: int, r: Sequence[int], seed: int = 0
) -> DecompositionCertificate:
    """Regular factors of the lambda-fold complete multipartite graph."""
    r = tuple(r)
    _ensure_feasible(_factorization_feasibility(
        n * m, lam, r, per_vertex=n * m, degree=lam * n * (m - 1)
    ))
    claims = _multipartite_classes(n, m, r, [ROLE_R_FACTOR] * len(r), r, seed)
    host = two_class_graph(n, m, 0, lam)
    return _certified(DecompositionCertificate(host, claims, two_class_parts(n, m)))


def _two_class_coloring(
    n: int, m: int, lam: int, mu: int, degree: int
) -> tuple[Multigraph, EdgeColoring]:
    """The fused m-vertex graph behind a two-class decomposition.

    Pair multiplicities mu*n^2, lambda*C(n,2) loops per vertex. Classes
    1..k (k = degree // 2) each get one spanning cycle of the cross edges
    plus an evenly equitable share of the remainder. For odd degree,
    class k+1 is the 1-factor: floor(n/2) reserved loops per vertex and,
    when n is odd, the cross leave.
    """
    k, odd = divmod(degree, 2)
    reserved_loops = odd * (n // 2)
    leave_from_cross = bool(odd and n % 2)
    edges: list[tuple[int, int]] = []
    pair_ids: dict[tuple[int, int], deque[int]] = {}
    for p in range(m):
        for q in range(p + 1, m):
            pair_ids[(p, q)] = deque(range(len(edges), len(edges) + mu * n * n))
            edges += [(p, q)] * (mu * n * n)
    loop_ids = []
    for p in range(m):
        loop_ids.append(list(range(len(edges), len(edges) + lam * math.comb(n, 2))))
        edges += [(p, p)] * (lam * math.comb(n, 2))

    cross = walecki_direct(m, mu * n * n)
    cycles = [c.edges for c in cross.classes if c.role == ROLE_HAMILTONIAN]
    cross_leave = next(
        (c.edges for c in cross.classes if c.role == ROLE_ONE_FACTOR), None
    )
    if len(cycles) < k or (leave_from_cross and cross_leave is None):
        raise RuntimeError("not enough spanning cycles in the fused graph (bug)")

    num_classes = k + odd
    colors = [0] * len(edges)
    for j in range(1, k + 1):
        for a, b in cycles[j - 1]:
            colors[pair_ids[(a, b)].popleft()] = j
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
    coloring = EdgeColoring(num_classes, tuple(colors))
    deg = color_degrees(h, colors, num_classes)
    for p in range(m):
        for j in range(1, k + 1):
            if deg[p][j] != 2 * n:
                raise RuntimeError(f"class {j} degree {deg[p][j]} != {2 * n} (bug)")
        if num_classes > k and deg[p][k + 1] != n:
            raise RuntimeError(f"leave class degree {deg[p][k + 1]} != {n} (bug)")
    return h, coloring


def _two_class_claims(
    n: int, m: int, lam: int, mu: int, degree: int, seed: int
) -> tuple[ClassClaim, ...]:
    """Claims of a feasible two-multiplicity host of the given degree.

    Shapes whose host is complete or multipartite are built as such.
    """
    r, roles = _hamiltonian_classes(degree)
    if m == 1:
        return _complete_classes(n, r, roles, None, seed)
    if n == 1:
        return _complete_classes(m, r, roles, None, seed)
    if lam == mu:
        return _complete_classes(n * m, r, roles, None, seed)
    if lam == 0:
        return _multipartite_classes(n, m, r, roles, None, seed)
    if degree % 2 and n == 2:
        # peel one intra-part matching; the remainder has even degree
        matching = tuple((2 * p, 2 * p + 1) for p in range(m))
        inner = _two_class_claims(2, m, lam - 1, mu, degree - 1, seed)
        return inner + (ClassClaim(ROLE_ONE_FACTOR, matching),)
    h, coloring = _two_class_coloring(n, m, lam, mu, degree)
    return _part_classes(h, coloring, n, m, roles, None, seed)


def _two_class_certificate(
    n: int, m: int, lam: int, mu: int, seed: int, odd: bool
) -> DecompositionCertificate:
    """Certified two-class decomposition; ``odd`` is the degree parity required."""
    report = _two_class_feasibility(n, m, lam, mu, None)
    degree = lam * (n - 1) + mu * n * (m - 1) if n * m else 0
    if degree % 2 != odd:
        report.feasible = False
        report.violations.append(f"(ii) degree {degree} is {'even' if odd else 'odd'}")
    _ensure_feasible(report)
    claims = _two_class_claims(n, m, lam, mu, degree, seed)
    host = two_class_graph(n, m, lam, mu)
    return _certified(DecompositionCertificate(host, claims, two_class_parts(n, m)))


def ham_decompose_two_class(
    n: int, m: int, lam: int, mu: int, seed: int = 0
) -> DecompositionCertificate:
    """Hamiltonian decomposition of the even-degree two-multiplicity host."""
    return _two_class_certificate(n, m, lam, mu, seed, odd=False)


def ham_plus_one_factor_two_class(
    n: int, m: int, lam: int, mu: int, seed: int = 0
) -> DecompositionCertificate:
    """Odd-degree two-multiplicity host: Hamiltonian cycles plus one 1-factor."""
    return _two_class_certificate(n, m, lam, mu, seed, odd=True)


def decompose_two_class(
    n: int, m: int, lam: int, mu: int, seed: int = 0
) -> DecompositionCertificate:
    """Parity-dispatching front door for two-multiplicity hosts."""
    degree = lam * (n - 1) + mu * n * (m - 1)
    if degree % 2:
        return ham_plus_one_factor_two_class(n, m, lam, mu, seed)
    return ham_decompose_two_class(n, m, lam, mu, seed)
