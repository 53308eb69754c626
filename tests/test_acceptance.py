"""End-to-end acceptance suite: canonical cases, exhaustive cross-checks
against independent oracles, and the randomized property sweeps, each
under an explicit wall-clock budget."""

import random
import time
from collections import Counter

from amalgam import (
    DecompositionRequest,
    EdgeColoring,
    Multigraph,
    ROLE_FAIR_HAMILTONIAN,
    ROLE_HAMILTONIAN,
    ROLE_ONE_FACTOR,
    bee_coloring,
    certify,
    check_feasibility,
    complete_graph,
    decompose_two_class,
    embed_complete_paths,
    ham_decompose_complete,
    ham_decompose_multipartite,
    ham_plus_one_factor_two_class,
    select_subset,
    two_class_graph,
    verify_bee,
    verify_detachment,
    verify_evenly_equitable,
    detach,
    evenly_equitable_coloring,
    walecki_direct,
)
from tests.conftest import (
    random_bipartite,
    random_detachment_instance,
    random_even_graph,
)
from tests.oracles import _random_laminar, quota_ok


class Budget:
    def __init__(self, seconds: float):
        self.start = time.perf_counter()
        self.seconds = seconds

    def check(self):
        elapsed = time.perf_counter() - self.start
        assert elapsed < self.seconds, f"over budget: {elapsed:.1f}s > {self.seconds}s"


def test_criterion_1_k7_three_hamiltonian_cycles():
    budget = Budget(1.0)
    cert = ham_decompose_complete(7, 1)
    assert len(cert.classes) == 3
    report = certify(cert)
    assert report.passed
    assert all(v.role == ROLE_HAMILTONIAN and v.passed for v in report.class_verdicts)
    budget.check()


def test_criterion_2_k5_path_coloring_embeds_into_k7():
    budget = Budget(1.0)
    base = complete_graph(5, 1)
    by_pair = {
        (0, 1): 1, (1, 2): 1, (2, 3): 1, (3, 4): 1,
        (0, 2): 2, (1, 3): 2, (0, 4): 2,
        (0, 3): 3, (1, 4): 3, (2, 4): 3,
    }
    base_coloring = EdgeColoring(3, tuple(by_pair[e] for e in base.edges))
    cert = embed_complete_paths(base, base_coloring, 2)
    assert cert.host == complete_graph(7, 1)
    report = certify(cert)
    assert report.passed
    assert [c.role for c in cert.classes] == [ROLE_HAMILTONIAN] * 3
    # restriction to the original 5 vertices is exactly the input coloring
    for j, claim in enumerate(cert.classes, start=1):
        restricted = sorted(e for e in claim.edges if e[0] < 5 and e[1] < 5)
        expected = sorted(p for p, c in by_pair.items() if c == j)
        assert restricted == expected
    budget.check()


def test_criterion_3_two_class_2_3_2_1():
    budget = Budget(1.0)
    cert = decompose_two_class(2, 3, 2, 1)
    assert cert.host == two_class_graph(2, 3, 2, 1)
    assert [c.role for c in cert.classes] == [ROLE_HAMILTONIAN] * 3
    assert certify(cert).passed
    budget.check()


def test_criterion_4_odd_degree_sweep():
    budget = Budget(60.0)
    count = 0
    for n in range(2, 6):
        for m in range(2, 5):
            for lam in range(1, 4):
                for mu in range(1, 4):
                    if lam == mu:
                        continue
                    degree = lam * (n - 1) + mu * n * (m - 1)
                    if degree % 2 == 0:
                        continue
                    if n >= 3 and lam > mu * n * (m - 1):
                        continue
                    if n == 2 and lam - 1 > 2 * mu * (m - 1):
                        continue
                    cert = ham_plus_one_factor_two_class(n, m, lam, mu)
                    roles = [c.role for c in cert.classes]
                    assert roles == [ROLE_HAMILTONIAN] * ((degree - 1) // 2) + [
                        ROLE_ONE_FACTOR
                    ], (n, m, lam, mu)
                    assert certify(cert).passed, (n, m, lam, mu)
                    count += 1
    assert count > 0
    budget.check()


# --- criterion 5: exhaustive decomposer oracle ------------------------------


def _oracle_decomposable(g: Multigraph) -> bool:
    """Backtracking search for Hamiltonian cycles (+ a 1-factor if degree odd)."""
    s = g.vertex_count
    degrees = g.degrees()
    if not g.edges:
        return True
    degree = degrees[0]
    if any(d != degree for d in degrees):
        return False
    mult = Counter((min(a, b), max(a, b)) for a, b in g.edges)
    k = degree // 2
    need_matching = degree % 2 == 1

    def remaining_is_matching() -> bool:
        deg = [0] * s
        for (a, b), c in mult.items():
            deg[a] += c
            deg[b] += c
        return all(d == 1 for d in deg)

    def take(a, b):
        key = (min(a, b), max(a, b))
        mult[key] -= 1
        if not mult[key]:
            del mult[key]

    def put(a, b):
        key = (min(a, b), max(a, b))
        mult[key] += 1

    def extend_cycle(path, visited, cycles_left) -> bool:
        v = path[-1]
        if len(path) == s:
            if path[1] > path[-1]:  # each cycle in one orientation only
                return False
            key = (min(v, path[0]), max(v, path[0]))
            if mult.get(key, 0) > 0:
                take(v, path[0])
                if solve(cycles_left - 1):
                    return True
                put(v, path[0])
            return False
        for w in range(s):
            if w in visited:
                continue
            if mult.get((min(v, w), max(v, w)), 0) == 0:
                continue
            take(v, w)
            visited.add(w)
            path.append(w)
            if extend_cycle(path, visited, cycles_left):
                return True
            path.pop()
            visited.remove(w)
            put(v, w)
        return False

    def solve(cycles_left) -> bool:
        if cycles_left == 0:
            return remaining_is_matching() if need_matching else not mult
        return extend_cycle([0], {0}, cycles_left)

    if s == 2:
        # length-2 cycles use a parallel pair
        def solve2(cycles_left):
            if cycles_left == 0:
                return remaining_is_matching() if need_matching else not mult
            if mult.get((0, 1), 0) >= 2:
                take(0, 1)
                take(0, 1)
                ok = solve2(cycles_left - 1)
                put(0, 1)
                put(0, 1)
                return ok
            return False

        return solve2(k)
    if s == 1:
        return not mult

    return solve(k)


def test_criterion_5_feasibility_matches_exhaustive_oracle():
    budget = Budget(300.0)
    disagreements = []
    for n in range(1, 9):
        for m in range(1, 9):
            if n * m > 8:
                continue
            for lam in range(0, 3):
                for mu in range(0, 3):
                    req = DecompositionRequest("two-class", n=n, m=m, lam=lam, mu=mu)
                    predicted = check_feasibility(req).feasible
                    actual = _oracle_decomposable(two_class_graph(n, m, lam, mu))
                    if predicted != actual:
                        disagreements.append((n, m, lam, mu, predicted, actual))
    assert not disagreements, disagreements
    budget.check()


def test_criterion_6_detachment_500_instances():
    budget = Budget(60.0)
    rng = random.Random(20240817)
    done = 0
    while done < 500:
        inst = random_detachment_instance(rng)
        if inst is None:
            continue
        h, coloring, eta = inst
        result = detach(h, coloring, eta)
        report = verify_detachment(h, coloring, result)
        assert report.all_passed, (h.edges, coloring.colors, eta, report.properties)
        done += 1
    budget.check()


def test_criterion_7_coloring_suites_and_laminar_oracle():
    budget = Budget(60.0)
    rng = random.Random(31)
    done = 0
    while done < 200:
        g, left = random_bipartite(rng)
        if g.edge_count == 0:
            continue
        k = rng.randint(1, 6)
        assert verify_bee(g, left, bee_coloring(g, left, k))
        done += 1
    for i in range(200):
        g = random_even_graph(rng)
        k = rng.randint(1, 5)
        assert verify_evenly_equitable(g, evenly_equitable_coloring(g, k))
    for i in range(80):
        size = rng.randint(1, 12)
        fam_a = _random_laminar(rng, size)
        fam_b = _random_laminar(rng, size)
        n = rng.randint(1, 5)
        chosen = select_subset(size, fam_a, fam_b, n)
        assert quota_ok(chosen, fam_a, n) and quota_ok(chosen, fam_b, n)
    budget.check()


def test_criterion_8_walecki_vs_detachment_builder():
    budget = Budget(10.0)
    for n in range(1, 12):
        for lam in range(0, 4):
            direct = walecki_direct(n, lam)
            built = ham_decompose_complete(n, lam)
            assert certify(direct).passed, (n, lam)
            assert certify(built).passed, (n, lam)
            assert sorted(c.role for c in direct.classes) == sorted(
                c.role for c in built.classes
            ), (n, lam)
    budget.check()


def test_criterion_9_fair_multipartite():
    budget = Budget(30.0)
    for n, m in [(2, 3), (4, 3), (2, 5)]:
        cert = ham_decompose_multipartite(n, m, 1, fair=True)
        report = certify(cert)
        assert report.passed, (n, m, report.class_verdicts)
        assert all(c.role == ROLE_FAIR_HAMILTONIAN for c in cert.classes)
        # exact fairness, re-derived here independently of certify
        part_of = {v: p for p, members in enumerate(cert.parts) for v in members}
        for claim in cert.classes:
            counts = Counter()
            for a, b in claim.edges:
                pa, pb = part_of[a], part_of[b]
                counts[(min(pa, pb), max(pa, pb))] += 1
            values = [
                counts.get((p, q), 0) for p in range(m) for q in range(p + 1, m)
            ]
            assert max(values) - min(values) <= 1, (n, m, values)
    budget.check()
