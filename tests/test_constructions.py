import itertools
import random

import pytest

from amalgam import (
    DecompositionRequest,
    EdgeColoring,
    InfeasibleError,
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
from amalgam.constructions import _assign_classes


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
        assert Multigraph(5, claim.edges).components() == 1
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


def test_assign_classes_agrees_with_exhaustive_oracle():
    rng = random.Random(4)
    for _ in range(600):
        k = rng.randint(1, 6)
        density = rng.random()
        ok = [[rng.random() < density for _ in range(k)] for _ in range(k)]
        sigma = _assign_classes(k, lambda j, s: ok[j][s])
        exists = any(
            all(ok[j][perm[j]] for j in range(k))
            for perm in itertools.permutations(range(k))
        )
        assert (sigma is not None) == exists
        if sigma is not None:
            assert sorted(sigma) == list(range(k))
            assert all(ok[j][sigma[j]] for j in range(k))


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
    # one part: plain complete-graph decomposition on the same host
    cert = decompose_two_class(5, 1, 2, 0)
    assert certify(cert).passed
    # singleton parts: complete graph on m vertices with multiplicity mu
    cert = decompose_two_class(1, 5, 0, 1)
    assert certify(cert).passed
    # equal multiplicities: complete graph on n*m vertices
    cert = decompose_two_class(2, 2, 2, 2)
    assert certify(cert).passed
    # lambda = 0: multipartite
    cert = decompose_two_class(2, 3, 0, 1)
    assert certify(cert).passed
    # mu = 0 with several parts: disconnected, infeasible
    with pytest.raises(InfeasibleError):
        decompose_two_class(3, 2, 2, 0)


def test_check_feasibility_unequal_parts():
    report = check_feasibility(
        DecompositionRequest("two-class", n=2, m=2, lam=1, mu=2, parts=(2, 3))
    )
    assert not report.feasible
    assert any("(i)" in v for v in report.violations)


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
    # the spanning cycles available in the fused cross graph (floor of
    # mu*n^2*(m-1)/2) must cover the demanded class count as integers
    for n in range(2, 5):
        for m in range(2, 5):
            for lam in range(1, 4):
                for mu in range(1, 4):
                    if lam == mu:
                        continue
                    req = DecompositionRequest("two-class", n=n, m=m, lam=lam, mu=mu)
                    if not check_feasibility(req).feasible:
                        continue
                    degree = lam * (n - 1) + mu * n * (m - 1)
                    k = degree // 2
                    supply = (mu * n * n * (m - 1)) // 2
                    assert supply >= k


@pytest.mark.parametrize(
    "shape, calls",
    [
        ((3, 1, 1, 2), 1),  # one part: complete host
        ((1, 4, 2, 1), 1),  # singleton parts: complete host
        ((2, 3, 1, 1), 1),  # equal multiplicities: complete host
        ((2, 3, 1, 2), 1),  # odd, n = 2: matching peeled, remainder multipartite
        ((2, 3, 3, 1), 2),  # also walecki_direct's check of the fused cross graph
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
