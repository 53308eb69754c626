import random
import tracemalloc
from collections import Counter, defaultdict

import pytest

from amalgam import (
    ColoringContractError,
    EdgeColoring,
    GraphUsageError,
    Multigraph,
    bee_coloring,
    evenly_equitable_coloring,
    verify_bee,
    verify_evenly_equitable,
)
import amalgam.coloring as coloring_module
import amalgam.laminar as laminar_module
from amalgam.multigraph import color_degrees
from tests.conftest import random_bipartite, random_even_graph, random_mixed_bipartite
from tests.oracles import (
    _dense_verify_bee,
    _dense_verify_evenly_equitable,
    color_class_degree,
    euler_circuits,
)


def _k33():
    edges = tuple((a, 3 + b) for a in range(3) for b in range(3))
    return Multigraph(6, edges), {0, 1, 2}


def test_bee_k33_three_colors():
    g, left = _k33()
    coloring = bee_coloring(g, left, 3)
    assert verify_bee(g, left, coloring)
    ids = coloring.edge_ids_by_class()
    deg = color_degrees(g, coloring.colors, 3)
    for j in range(1, 4):
        assert len(ids[j]) == 3
        for v in range(6):
            assert deg[v][j] == 1


def test_bee_k1_all_one_color():
    g, left = _k33()
    coloring = bee_coloring(g, left, 1)
    assert set(coloring.colors) == {1}
    assert verify_bee(g, left, coloring)


def test_bee_parallel_pair_split():
    g = Multigraph(2, ((0, 1), (0, 1)))
    coloring = bee_coloring(g, {0}, 2)
    assert sorted(coloring.colors) == [1, 2]


def test_bee_rejects_loops_and_non_bipartite():
    with pytest.raises(ColoringContractError):
        bee_coloring(Multigraph(2, ((0, 0),)), {0}, 2)
    with pytest.raises(ColoringContractError):
        bee_coloring(Multigraph(3, ((0, 1), (1, 2), (0, 2))), {0}, 2)
    with pytest.raises(GraphUsageError):
        bee_coloring(Multigraph(2, ((0, 1),)), {0}, 0)


def test_verify_bee_detects_broken_equity():
    g, left = _k33()
    coloring = bee_coloring(g, left, 3)
    colors = list(coloring.colors)
    # recoloring a single edge unbalances both its endpoints and the sizes
    a = coloring.edge_ids_by_class()[1][0]
    colors[a] = 2
    assert not verify_bee(g, left, EdgeColoring(3, tuple(colors)))


def test_bee_random_suite():
    rng = random.Random(5)
    done = 0
    while done < 200:
        g, left = random_bipartite(rng)
        if g.edge_count == 0:
            continue
        k = rng.randint(1, 6)
        coloring = bee_coloring(g, left, k)
        assert verify_bee(g, left, coloring)
        assert sum(len(ids) for ids in coloring.edge_ids_by_class()[1:]) == g.edge_count
        done += 1


def test_bee_class_counts_ignore_edge_order_and_end_order():
    # a class's per-pair counts come from the sorted pairs, so shuffling the
    # edge list or writing an edge right end first changes no (pair, color) count
    rng = random.Random(27)
    for _ in range(500):
        g, left, ordered = random_mixed_bipartite(rng)
        k = rng.randint(2, 8)
        coloring = bee_coloring(g, left, k)
        assert verify_bee(g, left, coloring)
        sorted_g = Multigraph(g.vertex_count, tuple(ordered))
        want = Counter(zip(ordered, bee_coloring(sorted_g, left, k).colors))
        pairs = [(a, b) if a in left else (b, a) for a, b in g.edges]
        assert Counter(zip(pairs, coloring.colors)) == want


def test_evenly_equitable_c4():
    g = Multigraph(4, ((0, 1), (1, 2), (2, 3), (0, 3)))
    coloring = evenly_equitable_coloring(g, 2)
    assert verify_evenly_equitable(g, coloring)
    deg = color_degrees(g, coloring.colors, 2)
    for v in range(4):
        degs = [deg[v][j] for j in (1, 2)]
        assert sorted(degs) in ([0, 2], [2, 2])


def test_evenly_equitable_k5_two_factors():
    edges = tuple((u, v) for u in range(5) for v in range(u + 1, 5))
    g = Multigraph(5, edges)
    coloring = evenly_equitable_coloring(g, 2)
    assert verify_evenly_equitable(g, coloring)
    deg = color_degrees(g, coloring.colors, 2)
    for j in (1, 2):
        for v in range(5):
            assert deg[v][j] == 2


def test_evenly_equitable_k1_trivial():
    g = Multigraph(3, ((0, 1), (1, 0), (2, 2)))
    coloring = evenly_equitable_coloring(g, 1)
    assert set(coloring.colors) == {1}
    assert verify_evenly_equitable(g, coloring)


def test_evenly_equitable_rejects_odd_degree():
    with pytest.raises(ColoringContractError):
        evenly_equitable_coloring(Multigraph(2, ((0, 1),)), 2)


def test_evenly_equitable_rejects_k_below_one():
    with pytest.raises(GraphUsageError, match=r"^k must be >= 1$"):
        evenly_equitable_coloring(Multigraph(2, ((0, 1),) * 2), 0)


def test_verify_evenly_equitable_all_one_color_c4():
    g = Multigraph(4, ((0, 1), (1, 2), (2, 3), (0, 3)))
    assert verify_evenly_equitable(g, EdgeColoring(2, (1, 1, 1, 1)))


def _random_stub_graph(rng: random.Random) -> Multigraph:
    """Even multigraph from randomly paired degree stubs; loops allowed."""
    nv = rng.randint(1, 8)
    stubs = [v for v in range(nv) for _ in range(2 * rng.randint(0, 6))]
    rng.shuffle(stubs)
    return Multigraph(nv, tuple(zip(stubs[::2], stubs[1::2])))


def test_evenly_equitable_random_suite():
    rng = random.Random(9)
    for i in range(400):
        g = random_even_graph(rng) if i % 2 else _random_stub_graph(rng)
        k = rng.randint(1, 11)
        coloring = evenly_equitable_coloring(g, k)
        assert verify_evenly_equitable(g, coloring)
        assert len(coloring.colors) == g.edge_count


def _random_heavy_graph(rng: random.Random) -> Multigraph:
    """Even multigraph with high pair multiplicities, many loops and isolated vertices."""
    nv = rng.randint(1, 7)
    live = [v for v in range(nv) if rng.random() < 0.8]  # the rest stay isolated
    edges: list[tuple[int, int]] = []
    for i, a in enumerate(live):
        edges += [(a, a)] * rng.choice((0, 0, 1, rng.randint(2, 40)))
        for b in live[i + 1 :]:
            edges += [(a, b)] * rng.choice((0, 1, rng.randint(2, 60)))
    odd = [v for v, d in enumerate(Multigraph(nv, tuple(edges)).degrees()) if d % 2]
    edges += zip(odd[::2], odd[1::2])  # an even number of vertices have odd degree
    rng.shuffle(edges)
    return Multigraph(nv, tuple(edges))


def test_evenly_equitable_on_heavy_multigraphs():
    rng = random.Random(16)
    for _ in range(150):
        g = _random_heavy_graph(rng)
        top = max(g.degrees()) // 2
        k = rng.randint(1, top + 4)
        coloring = evenly_equitable_coloring(g, k)
        assert verify_evenly_equitable(g, coloring)
        for v in range(g.vertex_count):  # recounted edge by edge
            row = [color_class_degree(g, coloring, j, v) for j in range(1, k + 1)]
            assert all(d % 2 == 0 for d in row) and max(row) - min(row) <= 2


def test_evenly_equitable_runs_one_small_circulation_per_class(monkeypatch):
    # 2 vertices, 40,000 edges, 3 distinct pairs: each class is one circulation
    # of at most 2P + V arcs, however many parallel edges and loops there are
    sizes = []
    solve = coloring_module.feasible_circulation

    def counting(num_nodes, tails, heads, lo, hi):
        sizes.append(len(tails))
        return solve(num_nodes, tails, heads, lo, hi)

    monkeypatch.setattr(coloring_module, "feasible_circulation", counting)
    g = Multigraph(2, ((0, 1),) * 20000 + ((0, 0),) * 10000 + ((1, 1),) * 10000)
    k = 50
    assert verify_evenly_equitable(g, evenly_equitable_coloring(g, k))
    assert len(sizes) == k - 1
    assert max(sizes) <= 2 * 3 + 2


def test_even_orientation_halves_every_degree_along_the_reference_circuits():
    # each edge on one arc, in ascending order, a pair's two directions within
    # one of each other, in-degree half the degree, and each odd pair's last
    # edge the way the reference circuits cross it
    rng = random.Random(17)
    for _ in range(300):
        g = random_even_graph(rng)
        ids_of = defaultdict(list)
        for e, (a, b) in enumerate(g.edges):
            ids_of[min(a, b), max(a, b)].append(e)
        arcs = coloring_module._even_orientation(g.vertex_count, dict(ids_of))
        assert sorted(e for ids in arcs.values() for e in ids) == list(range(g.edge_count))
        in_degree = [0] * g.vertex_count
        for (a, b), ids in arcs.items():
            assert ids == sorted(ids)
            assert all(sorted(g.edges[e]) == sorted((a, b)) for e in ids)
            in_degree[b] += len(ids)
        assert [2 * h for h in in_degree] == list(g.degrees())
        odd = {}
        for i, ((a, b), ids) in enumerate(ids_of.items()):
            if a != b:
                assert abs(len(arcs[a, b]) - len(arcs[b, a])) <= 1
            if a != b and len(ids) % 2:
                odd[i] = (a, b)
        steps = [step for trail in euler_circuits(g.vertex_count, odd) for step in trail]
        assert len(steps) == len(odd)
        for i, a, b in steps:
            assert arcs[a, b][-1] == ids_of[odd[i]][-1]


def test_even_engine_orients_once_and_its_classes_only_solve(monkeypatch):
    # K_5 with every pair 9 times and 3 loops at each vertex: 15 distinct
    # pairs, half-degree 21. One orientation per coloring, before the first
    # class, and each class one circulation of at most 2P + V arcs
    orientations, sizes = [], []
    orient, solve = coloring_module._even_orientation, coloring_module.feasible_circulation

    def counting_orient(vertex_count, ids_of):
        orientations.append(len(sizes))  # circulations solved before it
        return orient(vertex_count, ids_of)

    def counting_solve(num_nodes, tails, heads, lo, hi):
        sizes.append(len(tails))
        return solve(num_nodes, tails, heads, lo, hi)

    monkeypatch.setattr(coloring_module, "_even_orientation", counting_orient)
    monkeypatch.setattr(coloring_module, "feasible_circulation", counting_solve)
    pairs = [(a, b) for a in range(5) for b in range(a + 1, 5)] + [(v, v) for v in range(5)]
    g = Multigraph(5, tuple(pairs[:10] * 9 + pairs[10:] * 3))
    for k in (2, 20):
        orientations.clear()
        sizes.clear()
        assert verify_evenly_equitable(g, evenly_equitable_coloring(g, k))
        assert orientations == [0] and len(sizes) == k - 1
        assert max(sizes) <= 2 * 15 + 5


def test_evenly_equitable_failure_names_its_class(monkeypatch):
    # classes are extracted k first; class 1 takes what is left and needs none
    monkeypatch.setattr(coloring_module, "feasible_circulation", lambda *args: None)
    g = Multigraph(3, ((0, 1), (1, 2), (0, 2)) * 3)
    with pytest.raises(RuntimeError, match=r"^evenly-equitable class 3 of k=3 has no circulation"):
        evenly_equitable_coloring(g, 3)


def test_bee_failure_names_its_class(monkeypatch):
    # classes are extracted from min(k, E) down; class 1 takes what is left
    monkeypatch.setattr(coloring_module, "feasible_circulation", lambda *args: None)
    g, left = _k33()
    with pytest.raises(RuntimeError, match=r"^bee class 9 of k=12 has no circulation"):
        bee_coloring(g, left, 12)


def test_bee_runs_one_small_circulation_per_class(monkeypatch):
    # 2 vertices, 20,000 parallel edges: a class solves one circulation on the
    # pair, its two stars and the total, however many parallel edges there are
    sizes = []
    solve = coloring_module.feasible_circulation

    def counting(num_nodes, tails, heads, lo, hi):
        sizes.append(len(tails))
        return solve(num_nodes, tails, heads, lo, hi)

    monkeypatch.setattr(coloring_module, "feasible_circulation", counting)
    monkeypatch.setattr(laminar_module, "feasible_circulation", counting)
    g = Multigraph(2, ((0, 1),) * 20000)
    k = 50
    assert verify_bee(g, {0}, bee_coloring(g, {0}, k))
    assert len(sizes) == k - 1
    assert max(sizes) <= 4


def test_verify_bee_matches_the_dense_verifier():
    # a third random colorings, a third from the engine and a third from it
    # with 1 or 2 edges recolored; k runs past E on small graphs
    rng = random.Random(70)
    rejected = 0
    for i in range(2400):
        g, left = random_bipartite(rng)
        k = rng.randint(1, min(g.edge_count, 10) + 3)
        if i % 3:
            colors = list(bee_coloring(g, left, k).colors)
            for _ in range(rng.randint(1, 2) if i % 3 == 2 and colors else 0):
                colors[rng.randrange(len(colors))] = rng.randint(1, k)
        else:
            colors = [rng.randint(1, k) for _ in range(g.edge_count)]
        coloring = EdgeColoring(k, tuple(colors))
        want = _dense_verify_bee(g, left, coloring)
        assert verify_bee(g, left, coloring) == want
        rejected += not want
    assert rejected > 500
    g, left = _k33()
    assert not verify_bee(g, left, EdgeColoring(3, (1,) * 8))  # one edge short


def test_verify_evenly_equitable_matches_the_dense_verifier():
    # a third random colorings, a third from the engine and a third from it
    # with 1 or 2 edges recolored; k runs past the largest half-degree
    rng = random.Random(1982)
    rejected = above = 0
    for i in range(2400):
        g = random_even_graph(rng)
        top = max(g.degrees()) // 2
        k = rng.randint(1, top + 3)
        if i % 3:
            colors = list(evenly_equitable_coloring(g, k).colors)
            for _ in range(rng.randint(1, 2) if i % 3 == 2 else 0):
                colors[rng.randrange(len(colors))] = rng.randint(1, k)
        else:
            colors = [rng.randint(1, k) for _ in range(g.edge_count)]
        coloring = EdgeColoring(k, tuple(colors))
        want = _dense_verify_evenly_equitable(g, coloring)
        assert verify_evenly_equitable(g, coloring) == want, (g.edges, coloring)
        rejected += not want
        above += k > top
    assert rejected > 500 and above > 300
    c4 = Multigraph(4, ((0, 1), (1, 2), (2, 3), (0, 3)))
    assert not verify_evenly_equitable(c4, EdgeColoring(2, (1,) * 3))  # one edge short


def test_verify_evenly_equitable_counts_only_the_colors_that_occur():
    # a 20-cycle at k = 10^5: no table over the k colors, so the peak stays small
    n = 20
    g = Multigraph(n, tuple((v, (v + 1) % n) for v in range(n)))
    tracemalloc.start()
    try:
        coloring = evenly_equitable_coloring(g, 10**5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert coloring.colors == (1,) * n
    assert peak < 2**20


def test_classes_that_take_nothing_solve_nothing(monkeypatch):
    # at k = 2,000 a class above every half-degree, or above the edge count,
    # is empty; only the others solve a circulation
    calls = 0
    solve = coloring_module.feasible_circulation

    def counting_solve(*args):
        nonlocal calls
        calls += 1
        return solve(*args)

    monkeypatch.setattr(coloring_module, "feasible_circulation", counting_solve)
    k = 2000
    g = Multigraph(3, ((0, 1), (1, 2), (0, 2)) * 3)  # half-degree 3: classes 3 and 2 solve
    assert verify_evenly_equitable(g, evenly_equitable_coloring(g, k))
    g, left = Multigraph(5, ((0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4))), {0, 1}
    assert verify_bee(g, left, bee_coloring(g, left, k))  # classes 6..2 solve
    assert calls == 2 + 5


def test_empty_classes_leave_the_others_as_they_were():
    # every class past the edges (bee) or the half-degrees (even) is empty, so
    # a larger k keeps the classes that take edges
    rng = random.Random(2012)
    for _ in range(150):
        g, left = random_bipartite(rng)
        if not 0 < g.edge_count <= 30:
            continue
        k = g.edge_count + rng.randint(1, 40)
        assert bee_coloring(g, left, k).colors == bee_coloring(g, left, g.edge_count).colors
    for _ in range(300):
        g = random_even_graph(rng)
        top = max(g.degrees()) // 2
        k = top + rng.randint(1, 40)
        assert evenly_equitable_coloring(g, k).colors == evenly_equitable_coloring(g, top).colors


@pytest.mark.parametrize("k", [2, 3])
def test_bee_long_tripled_path(k):
    m = 5000
    g = Multigraph(m, tuple((v, v + 1) for v in range(m - 1) for _ in range(3)))
    left = set(range(0, m, 2))
    assert verify_bee(g, left, bee_coloring(g, left, k))
