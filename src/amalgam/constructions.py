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

import heapq
import math
from collections import Counter
from dataclasses import dataclass, field
from itertools import islice
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
    color_degrees,
    complete_graph,
    two_class_graph,
    two_class_parts,
    union,
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
    base_graph: Multigraph | None = None  # for embeddings
    base_coloring: EdgeColoring | None = None
    extra: int = 0  # number of vertices added by an embedding


@dataclass
class FeasibilityReport:
    violations: list[str] = field(default_factory=list)

    @property
    def feasible(self) -> bool:
        return not self.violations

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
        return _multipartite_feasibility(req.n, req.m, req.lam, req.fair)
    if kind == "two-class":
        return _two_class_feasibility(req.n, req.m, req.lam, req.mu)
    if kind == "factorize-complete":
        return _factorization_feasibility(req.n, req.lam, req.r)
    if kind == "factorize-multipartite":
        # no vertices unless n, m >= 1: two negative sizes multiply to a positive count
        vertices = req.n * req.m if min(req.n, req.m) >= 1 else 0
        return _factorization_feasibility(
            vertices, req.lam, req.r, degree=req.lam * req.n * (req.m - 1)
        )
    if kind in ("embed-paths", "embed-factorization"):
        base, coloring = req.base_graph, req.base_coloring
        if base is None or coloring is None:
            return FeasibilityReport(["embedding requires a base coloring"])
        _require_simple_complete(base, coloring)
        if kind == "embed-paths":
            return FeasibilityReport(_path_embedding_violations(base, coloring, req.extra))
        violations, _ = _factor_embedding_sigma(base, coloring, req.extra, req.r)
        return FeasibilityReport(violations)
    return FeasibilityReport([f"unknown request kind {kind!r}"])


def _complete_feasibility(n: int, lam: int) -> FeasibilityReport:
    # an odd degree lam*(n-1) makes n even, so a 1-factor always fits
    if n < 1 or lam < 0:
        return FeasibilityReport(["n must be >= 1 and lambda >= 0"])
    return FeasibilityReport()


def _multipartite_feasibility(n, m, lam, fair=False) -> FeasibilityReport:
    if n < 1 or m < 1 or lam < 0:
        return FeasibilityReport(["n, m must be >= 1 and lambda >= 0"])
    # an odd degree lam*n*(m-1) makes m even, so a 1-factor always fits
    if fair and lam != 1:
        return FeasibilityReport(["fair decomposition is only supported for multiplicity 1"])
    return FeasibilityReport()


def _two_class_degree(n: int, m: int, lam: int, mu: int) -> int:
    """Vertex degree of K(n^(m); lambda, mu); 0 when the host has no vertices."""
    return lam * (n - 1) + mu * n * (m - 1) if n * m else 0


def _two_class_feasibility(n, m, lam, mu) -> FeasibilityReport:
    if n < 1 or m < 1 or lam < 0 or mu < 0:
        return FeasibilityReport(["n, m must be >= 1 and lambda, mu >= 0"])
    # the fused route fits iff degree // 2 <= floor(mu*n^2*(m-1)/2), solved
    # for lambda below; n = 1 always fits, and m = 1 is lambda*K_n
    if 1 in (n, m):
        return FeasibilityReport()
    violations = []
    if mu == 0:
        # disconnected unless the whole graph is a single perfect matching
        # (degree 1: zero cycles plus the 1-factor) or empty
        if lam * (n - 1) > 1:
            violations.append(
                "multiple parts with no cross edges: the graph is disconnected"
            )
    elif n == 2 and _two_class_degree(n, m, lam, mu) % 2:
        # the 1-factor takes one loop per fused vertex, so one more lambda fits
        if lam - 1 > 2 * mu * (m - 1):
            violations.append(f"(iii) lambda-1={lam - 1} > 2*mu*(m-1)={2 * mu * (m - 1)}")
    elif lam > mu * n * (m - 1):
        violations.append(f"(iii) lambda={lam} > mu*n*(m-1)={mu * n * (m - 1)}")
    return FeasibilityReport(violations)


def _factorization_feasibility(n, lam, r, degree=None) -> FeasibilityReport:
    violations = []
    if degree is None:
        degree = lam * (n - 1)
    if n < 1 or lam < 0:
        return FeasibilityReport(["n must be >= 1 and lambda >= 0"])
    if not r:
        return FeasibilityReport(["factor degree sequence must be nonempty"])
    for i, ri in enumerate(r):
        if ri < 0:
            violations.append(f"r[{i}]={ri} is negative")
        elif ri * n % 2:
            violations.append(f"r[{i}]*|V| = {ri * n} is odd")
    if sum(r) != degree:
        violations.append(f"sum(r)={sum(r)} != degree {degree}")
    return FeasibilityReport(violations)


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
        cycles.append([(min(a, b), max(a, b)) for a, b in zip(verts, verts[1:] + verts[:1])])
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


def _walecki_classes(n: int, lam: int):
    """``walecki_direct``'s cycles and leave (None if lam*(n-1) is even), uncertified."""
    if n % 2:
        return _zigzag_cycles(n) * lam, None
    f = _rotational_one_factors(n)
    # Pairing factors (0,1), (2,3), ... leaves f[n-2]; pairing (1,2),
    # (3,4), ... leaves f[0]. Two copies of K_n take both pairings plus
    # the cycle f[n-2] + f[0]; an odd copy out keeps f[n-2] as its leave.
    pairs_a = [f[t] + f[t + 1] for t in range(0, n - 2, 2)]
    pairs_b = [f[t] + f[t + 1] for t in range(1, n - 2, 2)]
    cycles = (pairs_a + pairs_b + [f[n - 2] + f[0]]) * (lam // 2) + pairs_a * (lam % 2)
    return cycles, f[n - 2] if lam % 2 else None


def walecki_direct(n: int, lam: int) -> DecompositionCertificate:
    """Rotational Hamiltonian decomposition of the lambda-fold K_n.

    Detachment-free; used as the independent oracle for the fused-graph
    builders. Produces floor(lam*(n-1)/2) cycles and, when lam*(n-1) is
    odd (so n is even), one perfect-matching leave.
    """
    _ensure_feasible(_complete_feasibility(n, lam))
    cycles, leave = _walecki_classes(n, lam)
    claims = tuple(ClassClaim(ROLE_HAMILTONIAN, tuple(c)) for c in cycles)
    if leave is not None:
        claims += (ClassClaim(ROLE_ONE_FACTOR, tuple(leave)),)
    return _certified(DecompositionCertificate(complete_graph(n, lam), claims))


# ---------------------------------------------------------------------------
# Fused-graph builders for complete hosts


def _loop_vertex(class_loops: Sequence[int]) -> tuple[Multigraph, EdgeColoring]:
    """One vertex carrying ``class_loops[j-1]`` loops of class j.

    Detached into nv vertices, it is an edge-colored complete multigraph
    whose class j has degree 2*class_loops[j-1]/nv at every vertex.
    """
    h = Multigraph(1, ((0, 0),) * sum(class_loops))
    colors = [j for j, count in enumerate(class_loops, start=1) for _ in range(count)]
    return h, EdgeColoring(len(class_loops), tuple(colors))


def _detached_claims(
    h: Multigraph, coloring: EdgeColoring, eta: Sequence[int], r: Sequence[int],
    roles: Sequence[str],
) -> tuple[ClassClaim, ...]:
    """Class claims after detaching each vertex p of h into eta[p] copies.

    One stable sort of G's vertices by phi numbers p's eta[p] copies, phi^-1(p),
    in order from sum(eta[:p]); ``detach`` already does when only the last vertex
    splits. Class j claims role roles[j-1], and degree r[j-1] when that role is an r-factor.
    """
    result = detach(h, coloring, eta)
    relabel = [0] * result.g.vertex_count
    for i, w in enumerate(sorted(range(result.g.vertex_count), key=result.spec.phi.__getitem__)):
        relabel[w] = i
    ends = [(relabel[a], relabel[b]) for a, b in result.g.edges]
    pairs = [(a, b) if a <= b else (b, a) for a, b in ends]
    return tuple(
        ClassClaim(role, tuple(pairs[e] for e in ids), r=rj if role == ROLE_R_FACTOR else None)
        for ids, rj, role in zip(result.coloring.edge_ids_by_class()[1:], r, roles)
    )


def _hamiltonian_classes(
    degree: int, role: str = ROLE_HAMILTONIAN
) -> tuple[list[int], list[str]]:
    """Factor degrees and roles of a Hamiltonian decomposition.

    2-factors, plus one 1-factor when the degree is odd.
    """
    k, odd = divmod(degree, 2)
    return [2] * k + [1] * odd, [role] * k + [ROLE_ONE_FACTOR] * odd


def _complete_classes(n: int, r: Sequence[int], roles: Sequence[str]) -> tuple[ClassClaim, ...]:
    """Claims of K_n's factors of degrees r: one loop vertex detached to n."""
    if not r:
        return ()
    return _detached_claims(*_loop_vertex([n * ri // 2 for ri in r]), [n], r, roles)


def ham_decompose_complete(n: int, lam: int) -> DecompositionCertificate:
    """Hamiltonian decomposition of lambda-fold K_n via the fused-graph route."""
    _ensure_feasible(_complete_feasibility(n, lam))
    r, roles = _hamiltonian_classes(lam * (n - 1))
    claims = _complete_classes(n, r, roles)
    return _certified(DecompositionCertificate(complete_graph(n, lam), claims))


def factorize_complete(n: int, lam: int, r: Sequence[int]) -> DecompositionCertificate:
    """Split lambda-fold K_n into spanning regular factors of the given degrees."""
    r = tuple(r)
    _ensure_feasible(_factorization_feasibility(n, lam, r))
    claims = _complete_classes(n, r, [ROLE_R_FACTOR] * len(r))
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
    return union({}, [base.edges[e] for e in edge_ids]) == len(edge_ids)


def _path_embedding_violations(
    base: Multigraph, coloring: EdgeColoring, n: int
) -> list[str]:
    m = base.vertex_count
    k = coloring.k
    violations = []
    if n < 1:
        return ["must add at least one vertex"]
    if k != (m + n) // 2:
        return [f"need k={(m + n) // 2} classes, got {k}"]
    matching_class = k if (m + n) % 2 == 0 else None
    deg = color_degrees(base, coloring.colors, k)
    class_ids = coloring.edge_ids_by_class()
    for j in range(1, k + 1):
        ids = class_ids[j]
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
    base: Multigraph, coloring: EdgeColoring, n: int, r: Sequence[int], roles: Sequence[str]
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
    class_ids = coloring.edge_ids_by_class()
    for j, rj in enumerate(r, start=1):
        for v in range(m):
            edges += [(v, m)] * (rj - deg[v][j])
            colors += [j] * (rj - deg[v][j])
        loops = len(class_ids[j]) - rj * (m - n) // 2
        edges += [(m, m)] * loops
        colors += [j] * loops
    h = Multigraph(m + 1, tuple(edges))
    fused_coloring = EdgeColoring(coloring.k, tuple(colors))
    claims = _detached_claims(h, fused_coloring, [1] * m + [n], r, roles)
    return _certified(DecompositionCertificate(complete_graph(m + n, 1), claims))


def embed_complete_paths(
    base: Multigraph, base_coloring: EdgeColoring, n: int
) -> DecompositionCertificate:
    """Grow a path-per-class coloring of K_m into a Hamiltonian decomposition.

    Adds n vertices (fused into one during construction). The output's
    restriction to the original vertices reproduces the base coloring
    edge for edge. When m+n is even the last class is the one-factor.
    """
    _require_simple_complete(base, base_coloring)
    violations = _path_embedding_violations(base, base_coloring, n)
    _ensure_feasible(FeasibilityReport(violations))
    r, roles = _hamiltonian_classes(base.vertex_count + n - 1)
    return _embed(base, base_coloring, n, r, roles)


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
    sizes = [len(ids) for ids in coloring.edge_ids_by_class()[1:]]
    # class j fits slot s iff lows[j] <= r[s] <= highs[j]; lows[j] >= 0, so no r < 0 fits
    highs = [2 * size // (m - n) if m > n else math.inf for size in sizes]
    sigma = _sweep_classes(max_deg, highs, r)
    if sigma is None:
        violations.append(
            "no class-to-degree assignment satisfies the degree cap "
            f"(class degrees {max_deg}) and edge minimum (class sizes {sizes})"
        )
        return violations, None
    return [], sigma


def _sweep_classes(lows: list[int], highs: list, r: Sequence[int]) -> list[int] | None:
    """A bijection class j -> slot s with lows[j] <= r[s] <= highs[j], or None.

    Each class fits an interval of slots in order of r, so one sweep is
    exact (Glover, Naval Res. Logist. Q. 14, 1967): take the slots by
    ascending r and give each the open class whose interval ends first,
    kept in a heap. A class whose interval has ended can take no later
    slot, and then no bijection exists. O(k log k), with no recursion.
    """
    k = len(r)
    by_low = sorted(range(k), key=lows.__getitem__)
    open_classes: list[tuple] = []  # (interval end, class)
    sigma = [-1] * k
    i = 0
    for s in sorted(range(k), key=r.__getitem__):
        while i < k and lows[by_low[i]] <= r[s]:
            heapq.heappush(open_classes, (highs[by_low[i]], by_low[i]))
            i += 1
        if not open_classes:
            return None
        high, j = heapq.heappop(open_classes)
        if high < r[s]:
            return None
        sigma[j] = s
    return sigma


def embed_factorization(
    base: Multigraph, base_coloring: EdgeColoring, n: int, r: Sequence[int]
) -> DecompositionCertificate:
    """Grow a colored K_m into a factorization of K_{m+n}.

    Each base class lands inside a spanning factor whose degree is
    chosen by an exact sweep over the degree slots (``_sweep_classes``).
    """
    _require_simple_complete(base, base_coloring)
    r = tuple(r)
    violations, sigma = _factor_embedding_sigma(base, base_coloring, n, r)
    _ensure_feasible(FeasibilityReport(violations))
    rs = [r[slot] for slot in sigma]
    return _embed(base, base_coloring, n, rs, [ROLE_R_FACTOR] * len(rs))


# ---------------------------------------------------------------------------
# Multipartite and two-class hosts


def _multipartite_classes(
    n: int, m: int, r: Sequence[int], roles: Sequence[str]
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
    parts = detach(*_loop_vertex([m * n * ri // 2 for ri in r]), [m])
    return _detached_claims(parts.g, parts.coloring, [n] * m, r, roles)


def ham_decompose_multipartite(
    n: int, m: int, lam: int, fair: bool = False
) -> DecompositionCertificate:
    """Hamiltonian decomposition of the lambda-fold complete multipartite graph.

    The fair variant is the same construction plus the stricter verdict.
    """
    _ensure_feasible(_multipartite_feasibility(n, m, lam, fair))
    r, roles = _hamiltonian_classes(
        lam * n * (m - 1), ROLE_FAIR_HAMILTONIAN if fair else ROLE_HAMILTONIAN
    )
    claims = _multipartite_classes(n, m, r, roles)
    host = two_class_graph(n, m, 0, lam)
    return _certified(DecompositionCertificate(host, claims, two_class_parts(n, m)))


def factorize_multipartite(n: int, m: int, lam: int, r: Sequence[int]) -> DecompositionCertificate:
    """Regular factors of the lambda-fold complete multipartite graph."""
    r = tuple(r)
    _ensure_feasible(check_feasibility(
        DecompositionRequest("factorize-multipartite", n=n, m=m, lam=lam, r=r)
    ))
    claims = _multipartite_classes(n, m, r, [ROLE_R_FACTOR] * len(r))
    host = two_class_graph(n, m, 0, lam)
    return _certified(DecompositionCertificate(host, claims, two_class_parts(n, m)))


def _two_class_coloring(
    n: int, m: int, lam: int, mu: int, degree: int
) -> tuple[Multigraph, EdgeColoring]:
    """The fused m-vertex graph behind a two-class decomposition.

    Built block by block in edge order: each cross pair (p, q), in
    lexicographic order, with mu*n^2 edges (no block when mu = 0), then
    each vertex's lambda*C(n,2) loops. Each block starts with the classes
    fixed on its pair, and one ``evenly_equitable_coloring`` call colors
    the rest. Classes 1..k (k = degree // 2) are each fixed on one cross
    cycle of ``_walecki_classes`` (mu*n^2-fold K_m), so class j's edges
    come first on a pair in the order the cycles use it. For odd degree,
    class k+1 is the 1-factor, of degree n at each fused vertex: t =
    min(floor(n/2), lambda*C(n,2)) loops per vertex, the next floor(n/2) - t
    cross cycles after the k fixed ones and, for odd n, the cross leave.
    Only lambda = 0 gives t < floor(n/2); an odd degree then makes n, mu odd
    and m even, the list holds exactly C = kn + (n-1)/2 cycles, and the
    coloring gives each class 2n - 2 more on the other k(n-1) cycles' edges.
    One part (m = 1) is lambda*K_n as one loop vertex (Hilton, JCTB 36,
    1984); a single vertex is connected, so its classes need no cross cycle.
    """
    k, odd = divmod(degree, 2)
    cycles, leave = _walecki_classes(m, mu * n * n) if mu else ([], None)
    loops = odd * min(n // 2, lam * math.comb(n, 2))  # the 1-factor's loops per vertex
    factor_cycles = odd * (n // 2) - loops  # the 1-factor's whole cross cycles
    if m > 1 and (len(cycles) < k + factor_cycles or (odd and n % 2 and leave is None)):
        raise RuntimeError("not enough spanning cycles in the fused graph (bug)")
    layout = list(enumerate(cycles[:k], start=1))
    layout += [(k + 1, cycle) for cycle in cycles[k:k + factor_cycles]]
    if odd and n % 2:  # then mu*n*(m-1) is odd, so m > 1 and the leave exists
        layout.append((k + 1, leave))
    uses: dict[tuple[int, int], list[int]] = {}  # cross pair -> its fixed classes, in order
    for j, cycle in layout:
        for pair in cycle:
            uses.setdefault(pair, []).append(j)
    blocks = []  # (pair, edge count, the classes fixed on its first edges)
    if mu:
        size = mu * n * n
        blocks += [((p, q), size, uses.get((p, q), [])) for p in range(m) for q in range(p + 1, m)]
    blocks += [((p, p), lam * math.comb(n, 2), [k + 1] * loops) for p in range(m)]

    rest = tuple(pair for pair, size, fixed in blocks for _ in range(size - len(fixed)))
    rest_colors = iter(evenly_equitable_coloring(Multigraph(m, rest), k).colors if rest else ())
    edges: list[tuple[int, int]] = []
    colors: list[int] = []
    for pair, size, fixed in blocks:
        edges += [pair] * size
        colors += fixed
        colors += islice(rest_colors, size - len(fixed))

    h = Multigraph(m, tuple(edges))
    deg = color_degrees(h, colors, k + odd)
    for p in range(m):
        for j in range(1, k + 1):
            if deg[p][j] != 2 * n:
                raise RuntimeError(f"class {j} degree {deg[p][j]} != {2 * n} (bug)")
        if odd and deg[p][k + 1] != n:
            raise RuntimeError(f"leave class degree {deg[p][k + 1]} != {n} (bug)")
    return h, EdgeColoring(k + odd, tuple(colors))


def _two_class_certificate(
    n: int, m: int, lam: int, mu: int, odd: bool
) -> DecompositionCertificate:
    """Certified two-class decomposition; ``odd`` is the degree parity required.

    One route for every shape with an edge: the fused m-vertex graph of
    ``_two_class_coloring``, each vertex detached into its part's n vertices.
    """
    report = _two_class_feasibility(n, m, lam, mu)
    degree = _two_class_degree(n, m, lam, mu)
    if degree % 2 != odd:
        report.violations.append(f"(ii) degree {degree} is {'even' if odd else 'odd'}")
    _ensure_feasible(report)
    r, roles = _hamiltonian_classes(degree)
    claims = ()
    if r:
        claims = _detached_claims(*_two_class_coloring(n, m, lam, mu, degree), [n] * m, r, roles)
    host = two_class_graph(n, m, lam, mu)
    return _certified(DecompositionCertificate(host, claims, two_class_parts(n, m)))


def ham_decompose_two_class(n: int, m: int, lam: int, mu: int) -> DecompositionCertificate:
    """Hamiltonian decomposition of the even-degree two-multiplicity host."""
    return _two_class_certificate(n, m, lam, mu, odd=False)


def ham_plus_one_factor_two_class(n: int, m: int, lam: int, mu: int) -> DecompositionCertificate:
    """Odd-degree two-multiplicity host: Hamiltonian cycles plus one 1-factor."""
    return _two_class_certificate(n, m, lam, mu, odd=True)


def decompose_two_class(n: int, m: int, lam: int, mu: int) -> DecompositionCertificate:
    """Parity-dispatching front door for two-multiplicity hosts."""
    if _two_class_degree(n, m, lam, mu) % 2:
        return ham_plus_one_factor_two_class(n, m, lam, mu)
    return ham_decompose_two_class(n, m, lam, mu)
