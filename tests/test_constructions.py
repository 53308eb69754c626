import itertools
import random

import pytest

from amalgam import (
    DecompositionRequest,
    EdgeColoring,
    GraphUsageError,
    InfeasibleError,
    Multigraph,
    ROLE_FAIR_HAMILTONIAN,
    ROLE_HAMILTONIAN,
    ROLE_ONE_FACTOR,
    ROLE_R_FACTOR,
    certify,
    check_feasibility,
    complete_graph,
    decompose_two_class,
    embed_complete_paths,
    embed_factorization,
    factorize_complete,
    factorize_multipartite,
    ham_decompose_complete,
    ham_decompose_multipartite,
    ham_decompose_two_class,
    ham_plus_one_factor_two_class,
    walecki_direct,
)
import amalgam.constructions as constructions
from amalgam.constructions import _sweep_classes, _two_class_coloring, _two_class_degree
from tests.oracles import _deque_two_class_coloring, components, recursive_assign_classes


def roles(cert):
    return [c.role for c in cert.classes]


def test_walecki_k7():
    cert = walecki_direct(7, 1)
    assert roles(cert) == [ROLE_HAMILTONIAN] * 3
    assert certify(cert).passed


def test_walecki_k4_cycle_plus_matching():
    cert = walecki_direct(4, 1)
    assert sorted(roles(cert)) == [ROLE_HAMILTONIAN, ROLE_ONE_FACTOR]
    assert certify(cert).passed


def test_walecki_double_k5():
    cert = walecki_direct(5, 2)
    assert roles(cert) == [ROLE_HAMILTONIAN] * 4
    assert certify(cert).passed


def test_walecki_degenerate_small():
    assert roles(walecki_direct(2, 3)) == [ROLE_HAMILTONIAN, ROLE_ONE_FACTOR]
    assert roles(walecki_direct(1, 5)) == []
    assert roles(walecki_direct(3, 0)) == []


def test_walecki_rejects_bad_parameters():
    # lambda*(n-1) odd forces n even, so every (n, lambda) with valid signs
    # is decomposable; only malformed parameters are rejected
    with pytest.raises(InfeasibleError):
        walecki_direct(0, 1)
    with pytest.raises(InfeasibleError):
        walecki_direct(5, -1)


def test_walecki_gate_rejects_a_pairing_that_is_not_one_cycle(monkeypatch):
    real = constructions._rotational_one_factors

    def swapped(n):
        # pairs F_0 with F_3 of the 9-ring: their union is 2-regular and spanning
        # but splits into several cycles
        factors = real(n)
        factors[1], factors[3] = factors[3], factors[1]
        return factors

    monkeypatch.setattr(constructions, "_rotational_one_factors", swapped)
    with pytest.raises(RuntimeError, match="uncertifiable"):
        walecki_direct(10, 1)


def test_ham_complete_k7():
    cert = ham_decompose_complete(7, 1)
    assert roles(cert) == [ROLE_HAMILTONIAN] * 3
    assert certify(cert).passed


def test_ham_complete_triangle():
    cert = ham_decompose_complete(3, 1)
    assert roles(cert) == [ROLE_HAMILTONIAN]
    assert certify(cert).passed


def test_ham_complete_k6_with_leave():
    cert = ham_decompose_complete(6, 1)
    assert roles(cert) == [ROLE_HAMILTONIAN] * 2 + [ROLE_ONE_FACTOR]
    assert certify(cert).passed


def test_ham_complete_agrees_with_walecki_counts():
    for n, lam in [(5, 2), (9, 1), (8, 2)]:
        a, b = ham_decompose_complete(n, lam), walecki_direct(n, lam)
        assert roles(a) == roles(b)


def test_factorize_complete_cases():
    from amalgam import Multigraph

    cert = factorize_complete(5, 1, (2, 2))
    assert roles(cert) == [ROLE_R_FACTOR] * 2
    assert certify(cert).passed
    # even-degree factors must come out connected
    for claim in cert.classes:
        assert components(Multigraph(5, claim.edges)) == 1
    cert = factorize_complete(4, 1, (3,))
    assert certify(cert).passed
    cert = factorize_complete(4, 1, (1, 1, 1))
    assert roles(cert) == [ROLE_R_FACTOR] * 3
    assert certify(cert).passed


def test_factorize_complete_infeasible():
    with pytest.raises(InfeasibleError) as exc:
        factorize_complete(5, 1, (3, 1))
    assert any("odd" in v for v in exc.value.report.violations)
    with pytest.raises(InfeasibleError):
        factorize_complete(5, 1, (2,))  # sum 2 != 4
    with pytest.raises(InfeasibleError):
        factorize_complete(5, 1, ())


def test_embed_paths_vacuous_base():
    base = complete_graph(1, 1)
    coloring = EdgeColoring(1, ())
    cert = embed_complete_paths(base, coloring, 2)
    assert cert.host == complete_graph(3, 1)
    assert certify(cert).passed


def test_embed_paths_rejects_cycle_class():
    base = complete_graph(3, 1)
    coloring = EdgeColoring(2, (1, 1, 1))  # class 1 is a triangle
    with pytest.raises(InfeasibleError) as exc:
        embed_complete_paths(base, coloring, 2)
    assert any("cycle" in v for v in exc.value.report.violations)


def test_embed_paths_matching_class_when_even_total():
    # m=4, n=2: k=ceil(5/2)=3 with class 3 the matching class
    base = complete_graph(4, 1)
    # edges: (0,1),(0,2),(0,3),(1,2),(1,3),(2,3)
    by_pair = {
        (0, 1): 1, (1, 2): 1, (2, 3): 1,
        (0, 2): 2, (1, 3): 2,
        (0, 3): 3,
    }
    coloring = EdgeColoring(3, tuple(by_pair[e] for e in base.edges))
    cert = embed_complete_paths(base, coloring, 2)
    assert roles(cert) == [ROLE_HAMILTONIAN] * 2 + [ROLE_ONE_FACTOR]
    assert certify(cert).passed


def test_embed_factorization_negative_bound_vacuous():
    # adding more vertices than the base has makes the edge bound vacuous
    base = complete_graph(2, 1)
    coloring = EdgeColoring(2, (1,))
    cert = embed_factorization(base, coloring, 3, (2, 2))
    assert roles(cert) == [ROLE_R_FACTOR] * 2
    assert certify(cert).passed


def test_embed_factorization_degree_cap_infeasible():
    base = complete_graph(4, 1)
    # class 1 is a full star (degree 3): it only fits the degree-4 slot,
    # but class 2 has degree 2 and cannot take the degree-1 slot
    colors = tuple(1 if 0 in e else 2 for e in base.edges)
    with pytest.raises(InfeasibleError) as exc:
        embed_factorization(base, EdgeColoring(2, colors), 2, (1, 4))
    assert any("assignment" in v for v in exc.value.report.violations)


@pytest.mark.parametrize("base, coloring", [
    (Multigraph(3, ((0, 1), (0, 2))), EdgeColoring(1, (1, 1))),  # K_3 minus an edge
    (complete_graph(3, 1), EdgeColoring(1, (1, 1))),  # coloring one edge short
    (complete_graph(3, 1), EdgeColoring(1, (1, 1, 1, 1))),  # coloring one edge long
])
def test_malformed_embed_base_is_a_usage_error(base, coloring):
    requests = [
        ("embed-paths", (), lambda: embed_complete_paths(base, coloring, 2)),
        ("embed-factorization", (2,), lambda: embed_factorization(base, coloring, 2, (2,))),
    ]
    for kind, r, build in requests:
        req = DecompositionRequest(kind, base_graph=base, base_coloring=coloring, extra=2, r=r)
        with pytest.raises(GraphUsageError) as from_check:
            check_feasibility(req)
        with pytest.raises(GraphUsageError) as from_builder:
            build()
        assert str(from_check.value) == str(from_builder.value)


@pytest.mark.parametrize("kind", ["embed-paths", "embed-factorization"])
def test_embedding_request_without_a_base_coloring_is_infeasible(kind):
    report = check_feasibility(DecompositionRequest(kind, base_graph=complete_graph(3, 1)))
    assert report.violations == ["embedding requires a base coloring"]


def test_assign_classes_agrees_with_exhaustive_oracle():
    rng = random.Random(4)
    for _ in range(600):
        k = rng.randint(1, 6)
        density = rng.random()
        ok = [[rng.random() < density for _ in range(k)] for _ in range(k)]
        sigma = recursive_assign_classes(k, lambda j, s: ok[j][s])
        exists = any(
            all(ok[j][perm[j]] for j in range(k))
            for perm in itertools.permutations(range(k))
        )
        assert (sigma is not None) == exists
        if sigma is not None:
            assert sorted(sigma) == list(range(k))
            assert all(ok[j][sigma[j]] for j in range(k))


def test_class_sweep_agrees_with_recursive_matcher():
    # interval instances as the factor embedding makes them: class j fits
    # slot s iff lows[j] <= r[s] <= highs[j]
    rng = random.Random(16)
    found = 0
    for _ in range(3000):
        k = rng.randint(1, 7)
        r = [rng.randint(0, 6) for _ in range(k)]
        lows = [rng.randint(0, 6) for _ in range(k)]
        highs = [low + rng.randint(-1, 6) for low in lows]
        sigma = _sweep_classes(lows, highs, r)
        oracle = recursive_assign_classes(k, lambda j, s: lows[j] <= r[s] <= highs[j])
        assert (sigma is None) == (oracle is None)
        if sigma is not None:
            found += 1
            assert sorted(sigma) == list(range(k))
            assert all(lows[j] <= r[sigma[j]] <= highs[j] for j in range(k))
    assert 300 < found < 2700  # both verdicts are drawn often


def test_embedding_with_999_classes_gets_a_verdict():
    # a K_2 base whose one edge is in class 1 of 999: the matcher has a
    # slot per class. Building K_1000 from it is n^3 through detach
    # (minutes), so only the verdict is checked here.
    req = DecompositionRequest(
        "embed-factorization",
        base_graph=complete_graph(2, 1),
        base_coloring=EdgeColoring(999, (1,)),
        extra=998,
        r=(1,) * 999,
    )
    assert check_feasibility(req).feasible
    tight = DecompositionRequest(
        "embed-factorization",
        base_graph=complete_graph(2, 1),
        base_coloring=EdgeColoring(999, (1,)),
        extra=998,
        r=(3,) + (1,) * 997 + (-1,),
    )
    assert not check_feasibility(tight).feasible


def test_embedding_with_99_classes_certifies():
    # a 1-factorization of K_100 grown from one edge in class 1 of 99
    cert = embed_factorization(complete_graph(2, 1), EdgeColoring(99, (1,)), 98, (1,) * 99)
    assert len(cert.classes) == 99
    assert certify(cert).passed


def test_multipartite_basic():
    cert = ham_decompose_multipartite(3, 3, 1)
    assert roles(cert) == [ROLE_HAMILTONIAN] * 3
    assert certify(cert).passed


def test_multipartite_odd_degree_leave():
    cert = ham_decompose_multipartite(3, 2, 1)
    assert roles(cert) == [ROLE_HAMILTONIAN, ROLE_ONE_FACTOR]
    assert certify(cert).passed


def test_multipartite_fair():
    cert = ham_decompose_multipartite(2, 3, 1, fair=True)
    assert roles(cert) == [ROLE_FAIR_HAMILTONIAN] * 2
    assert certify(cert).passed


def test_multipartite_fair_needs_multiplicity_one():
    with pytest.raises(InfeasibleError):
        ham_decompose_multipartite(2, 3, 2, fair=True)


def test_factorize_multipartite_cases():
    cert = factorize_multipartite(2, 3, 1, (2, 2))
    assert roles(cert) == [ROLE_R_FACTOR] * 2
    assert certify(cert).passed
    cert = factorize_multipartite(2, 3, 1, (3, 1))
    assert certify(cert).passed
    with pytest.raises(InfeasibleError):
        factorize_multipartite(2, 3, 1, (3, 2))
    cert = factorize_multipartite(2, 3, 2, (8,))
    assert roles(cert) == [ROLE_R_FACTOR]
    assert certify(cert).passed


def test_two_class_even_example():
    cert = ham_decompose_two_class(2, 3, 2, 1)
    assert roles(cert) == [ROLE_HAMILTONIAN] * 3
    assert certify(cert).passed


def test_two_class_even_larger():
    # degree = 1*(3-1) + 2*3*(2-1) = 8, so four spanning cycles
    cert = ham_decompose_two_class(3, 2, 1, 2)
    assert roles(cert) == [ROLE_HAMILTONIAN] * 4
    assert certify(cert).passed


def test_two_class_condition_iii():
    with pytest.raises(InfeasibleError) as exc:
        ham_decompose_two_class(2, 3, 9, 1)
    assert any("(iii)" in v for v in exc.value.report.violations)


def test_two_class_odd_examples():
    cert = ham_plus_one_factor_two_class(2, 2, 3, 1)
    assert roles(cert) == [ROLE_HAMILTONIAN] * 2 + [ROLE_ONE_FACTOR]
    assert certify(cert).passed
    cert = ham_plus_one_factor_two_class(3, 2, 2, 1)
    assert roles(cert) == [ROLE_HAMILTONIAN] * 3 + [ROLE_ONE_FACTOR]
    assert certify(cert).passed


def test_two_class_odd_infeasible_n2():
    with pytest.raises(InfeasibleError):
        ham_plus_one_factor_two_class(2, 2, 5, 1)


def test_two_class_degenerate_redirects():
    # one part: lambda*K_n, fused to one loop vertex
    cert = decompose_two_class(5, 1, 2, 0)
    assert certify(cert).passed
    # singleton parts: mu*K_m, fused with one copy per fused vertex
    cert = decompose_two_class(1, 5, 0, 1)
    assert certify(cert).passed
    # equal multiplicities: lambda*K_{nm}, fused
    cert = decompose_two_class(2, 2, 2, 2)
    assert certify(cert).passed
    # lambda = 0 with even degree: a multipartite host, fused
    cert = decompose_two_class(2, 3, 0, 1)
    assert certify(cert).passed
    # mu = 0 with several parts: disconnected, infeasible
    with pytest.raises(InfeasibleError):
        decompose_two_class(3, 2, 2, 0)


def test_check_feasibility_example_grid():
    assert check_feasibility(
        DecompositionRequest("two-class", n=2, m=3, lam=2, mu=1)
    ).feasible
    assert not check_feasibility(
        DecompositionRequest("two-class", n=2, m=3, lam=9, mu=1)
    ).feasible
    assert check_feasibility(DecompositionRequest("complete", n=5, lam=1)).feasible
    assert not check_feasibility(DecompositionRequest("mystery")).feasible


def test_supply_inequality_holds_on_feasible_grid():
    # with several parts, a shape is feasible iff the spanning cycles of the
    # fused cross graph, floor(mu*n^2*(m-1)/2), cover the degree // 2 classes
    for n in range(1, 9):
        for m in range(2, 9):
            for lam in range(12):
                for mu in range(6):
                    req = DecompositionRequest("two-class", n=n, m=m, lam=lam, mu=mu)
                    degree = lam * (n - 1) + mu * n * (m - 1)
                    supply = mu * n * n * (m - 1) // 2
                    assert check_feasibility(req).feasible == (degree // 2 <= supply), (
                        n, m, lam, mu
                    )


def test_two_class_without_cross_edges_builds_no_cross_cycles(monkeypatch):
    # mu = 0 leaves nothing for _walecki_classes, so the fused build skips it
    # and its O(m^2) cross block
    def no_cross_cycles(n, lam):
        raise AssertionError("cross cycles built for a host without cross edges")

    monkeypatch.setattr(constructions, "_walecki_classes", no_cross_cycles)
    cert = decompose_two_class(2, 300, 1, 0)
    assert roles(cert) == [ROLE_ONE_FACTOR]
    assert certify(cert).passed


def test_pair_blocks_match_the_deque_layout():
    # every fused-route shape with several parts: the same fused graph and
    # coloring as placing the fixed classes through per-pair deques of edge ids
    shapes = 0
    for n, m, lam, mu in itertools.product(range(1, 7), range(2, 6), range(5), range(4)):
        degree = _two_class_degree(n, m, lam, mu)
        req = DecompositionRequest("two-class", n=n, m=m, lam=lam, mu=mu)
        if not degree:
            continue
        if not check_feasibility(req).feasible:
            continue
        h, coloring = _two_class_coloring(n, m, lam, mu, degree)
        want_h, want_coloring = _deque_two_class_coloring(n, m, lam, mu, degree)
        assert (h.edges, coloring) == (want_h.edges, want_coloring), (n, m, lam, mu)
        shapes += 1
    assert shapes > 250


def test_one_part_hosts_equal_the_complete_builder():
    # lambda*K_n on the fused route gives K_n's loop-vertex certificate, class for class
    for n, lam, mu in itertools.product(range(1, 13), range(5), range(3)):
        two_class = decompose_two_class(n, 1, lam, mu)
        assert two_class.classes == ham_decompose_complete(n, lam).classes, (n, lam, mu)


@pytest.mark.parametrize(
    "shape, calls",
    [
        ((3, 1, 1, 2), 1),  # one part: lambda*K_n, fused to one loop vertex
        ((1, 4, 2, 1), 1),  # singleton parts: fused
        ((2, 3, 1, 1), 1),  # equal multiplicities: fused
        ((2, 3, 1, 2), 1),  # odd, n = 2: fused, one loop per vertex in the 1-factor
        ((2, 3, 3, 1), 1),  # fused; its cross cycles are not certified on their own
        ((2, 3, 5, 1), 1),  # odd, n = 2 at the bound lambda = 2*mu*(m-1) + 1
        ((3, 2, 0, 1), 1),  # lambda = 0, odd degree: fused, the 1-factor on cross cycles
    ],
)
def test_two_class_builders_certify_once(monkeypatch, shape, calls):
    seen = []

    def counting_certify(cert):
        seen.append(cert)
        return certify(cert)

    monkeypatch.setattr(constructions, "certify", counting_certify)
    cert = decompose_two_class(*shape)
    assert len(seen) == calls
    assert seen[-1] is cert


def test_every_two_class_shape_takes_the_fused_route(monkeypatch):
    # lambda = 0 with odd degree too: its 1-factor takes whole cross cycles, not a
    # multipartite host
    def no_multipartite_host(*args):
        raise AssertionError("two-class shape built as a multipartite host")

    monkeypatch.setattr(constructions, "_multipartite_classes", no_multipartite_host)
    built = 0
    for n, m, lam, mu in itertools.product(range(1, 6), range(1, 6), range(6), range(6)):
        if check_feasibility(DecompositionRequest("two-class", n=n, m=m, lam=lam, mu=mu)).feasible:
            decompose_two_class(n, m, lam, mu)
            built += 1
    assert built == 819


def _class_edges(cert):
    return [claim.edges for claim in cert.classes]


def _walecki_restricted(m, n):
    """K_m colored by walecki_direct(m + n, 1) restricted to its first m vertices."""
    class_of = {
        e: j
        for j, claim in enumerate(walecki_direct(m + n, 1).classes, start=1)
        for e in claim.edges
    }
    base = complete_graph(m, 1)
    k = (m + n) // 2
    return base, EdgeColoring(k, tuple(class_of[e] for e in base.edges))


def test_hamiltonian_builders_equal_factorizations():
    def two_factors(degree):
        k, odd = divmod(degree, 2)
        return (2,) * k + (1,) * odd

    for n in range(2, 10):
        for lam in (1, 2):
            ham = ham_decompose_complete(n, lam)
            factors = factorize_complete(n, lam, two_factors(lam * (n - 1)))
            assert _class_edges(ham) == _class_edges(factors), (n, lam)
    for n in range(1, 4):
        for m in range(2, 4):
            for lam in (1, 2):
                ham = ham_decompose_multipartite(n, m, lam)
                factors = factorize_multipartite(n, m, lam, two_factors(lam * n * (m - 1)))
                assert _class_edges(ham) == _class_edges(factors), (n, m, lam)
    for total in (3, 5, 7, 9):
        for m in range(1, total):
            base, coloring = _walecki_restricted(m, total - m)
            paths = embed_complete_paths(base, coloring, total - m)
            factors = embed_factorization(base, coloring, total - m, (2,) * coloring.k)
            assert _class_edges(paths) == _class_edges(factors), (m, total - m)
