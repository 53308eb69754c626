import itertools
import random
from collections import Counter

import pytest

from amalgam import (
    AmalgamationSpec,
    EdgeColoring,
    GraphUsageError,
    Multigraph,
    amalgamate,
    coloring_from_json,
    coloring_to_json,
    complete_graph,
    graph_from_json,
    graph_to_json,
    two_class_graph,
    two_class_parts,
)
from amalgam.multigraph import color_degrees, find, pair_keys, union
from tests.oracles import _all_pairs_two_class_edges, _dense_roots, color_class_degree


def test_loop_contributes_two_to_degree():
    g = Multigraph(2, ((0, 0), (0, 1)))
    assert g.degrees() == [3, 1]


def test_multiplicity_and_degree_sum():
    g = Multigraph(3, ((0, 1), (1, 0), (1, 2), (2, 2)))
    counts = Counter(pair_keys(g.edges, 3))  # {a, b} as min*3 + max, either order
    assert counts[0 * 3 + 1] == 2
    assert counts[0 * 3 + 2] == 0
    assert sum(g.degrees()) == 2 * g.edge_count


def _union_components(g):
    # s vertices less one per merge: each isolated vertex stays its own component
    return g.vertex_count - union({}, g.edges)


def test_components_count_isolated_vertices():
    assert _union_components(Multigraph(4, ((0, 1),))) == 3
    assert _union_components(Multigraph(3, ())) == 3
    assert _union_components(complete_graph(5)) == 1


def _partition(vertex_count, root):
    blocks = {}
    for v in range(vertex_count):
        blocks.setdefault(root(v), set()).add(v)
    return sorted(map(sorted, blocks.values()))


def test_union_matches_dense_oracle():
    # loops and repeated pairs merge nothing; batches land on earlier batches' roots
    rng = random.Random(1956)
    for _ in range(500):
        n = rng.randint(1, 12)
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 2 * n))]
        pairs += rng.sample(pairs, len(pairs) // 3)
        parent = {}
        cut = rng.randint(0, len(pairs))
        merges = union(parent, pairs[:cut]) + union(parent, pairs[cut:])
        root = _dense_roots(n, pairs)
        assert merges == n - len({root(v) for v in range(n)}), pairs
        assert _partition(n, lambda v: find(parent, v)) == _partition(n, root), pairs


class _CountingDict(dict):
    """A union-find dict that counts its membership tests."""

    tests = 0

    def __contains__(self, key):
        self.tests += 1
        return super().__contains__(key)


@pytest.mark.parametrize(
    "pairs",
    [
        # a 4,000-link chain, each link hanging the old root under a new one,
        # then 4,000 walks from its deep end
        [(v, v + 1) for v in range(4000)] + [(0, 4001)] * 4000,
        [(0, leaf) for leaf in range(1, 8001)],  # a star, merged through its center
    ],
    ids=["chain", "star"],
)
def test_union_halves_the_paths_it_walks(pairs):
    # without compression these take 16M-32M membership tests
    parent = _CountingDict()
    union(parent, pairs)
    assert parent.tests <= 8 * len(pairs)


def test_out_of_range_ids_raise():
    with pytest.raises(GraphUsageError):
        Multigraph(2, ((0, 2),))


def test_negative_vertex_count_raises():
    with pytest.raises(GraphUsageError, match="negative"):
        Multigraph(-1, ())
    with pytest.raises(GraphUsageError):
        graph_from_json({"vertices": -2, "edges": []})
    assert Multigraph(0, ()).degrees() == []


def test_spec_rejects_a_phi_image_out_of_range():
    with pytest.raises(GraphUsageError, match=r"^phi image out of range$"):
        AmalgamationSpec((2,), (0, 1))
    with pytest.raises(GraphUsageError, match=r"^phi image out of range$"):
        AmalgamationSpec((2,), (0, -1))


def test_amalgamate_rejects_a_partial_phi():
    with pytest.raises(GraphUsageError, match=r"^phi must be total on V\(g\)$"):
        amalgamate(complete_graph(3), [0, 0])


def test_amalgamate_constant_phi_gives_all_loops():
    g = complete_graph(7)
    h, spec = amalgamate(g, [0] * 7)
    assert h.vertex_count == 1
    assert h.edges == ((0, 0),) * 21
    assert h.edge_count == g.edge_count
    assert spec.eta == (7,)


def test_amalgamate_identity_is_isomorphic():
    g = complete_graph(4)
    h, spec = amalgamate(g, list(range(4)))
    assert h.edges == g.edges
    assert spec.eta == (1, 1, 1, 1)


def test_amalgamate_bipartite_parts_collapse():
    g = two_class_graph(2, 2, 0, 1)
    h, _ = amalgamate(g, [0, 0, 1, 1])
    assert h.vertex_count == 2
    assert h.edges == ((0, 1),) * 4  # no loops: every edge crosses the parts


def test_amalgamate_preserves_edge_identity():
    g = Multigraph(3, ((0, 1), (1, 2), (0, 2)))
    h, spec = amalgamate(g, [0, 0, 1])
    assert h.edges[0] == (0, 0)  # fused pair becomes a loop at the same EdgeId
    assert {spec.phi[a] for a in (0, 1)} == {0}


def test_amalgamation_spec_consistency_enforced():
    with pytest.raises(GraphUsageError):
        AmalgamationSpec((2, 1), (0, 0, 0))


def test_two_class_graph_degrees():
    g = two_class_graph(2, 3, 2, 1)
    assert all(d == 2 * 1 + 1 * 2 * 2 for d in g.degrees())
    assert two_class_parts(2, 3) == [[0, 1], [2, 3], [4, 5]]


def test_hosts_match_all_pairs_oracle():
    # edge order too: certificates list host edges by id
    for n, m, lam, mu in itertools.product(range(5), range(5), range(3), range(3)):
        assert two_class_graph(n, m, lam, mu).edges == _all_pairs_two_class_edges(n, m, lam, mu)
        assert complete_graph(n, lam).edges == _all_pairs_two_class_edges(n, 1, lam, 0)


def test_edge_ids_by_class_lists_every_class():
    g = Multigraph(3, ((0, 1), (1, 2)))
    coloring = EdgeColoring(2, (1, 2))
    assert coloring.edge_ids_by_class() == [[], [0], [1]]
    assert color_degrees(g, coloring.colors, coloring.k)[1][2] == 1
    assert EdgeColoring(2, (1, 1, 1)).edge_ids_by_class()[2] == []


def test_color_degrees_matches_color_class_degree():
    g = Multigraph(4, ((0, 1), (1, 1), (1, 2), (2, 3), (3, 0), (0, 1), (2, 2)))
    coloring = EdgeColoring(3, (1, 2, 2, 3, 1, 3, 1))
    deg = color_degrees(g, coloring.colors, coloring.k)
    for v in range(g.vertex_count):
        for j in range(1, coloring.k + 1):
            assert deg[v][j] == color_class_degree(g, coloring, j, v)
        assert deg[v][0] == 0
        assert sum(deg[v]) == g.degrees()[v]


def test_coloring_validates_range():
    with pytest.raises(GraphUsageError):
        EdgeColoring(2, (1, 3))
    with pytest.raises(GraphUsageError):
        EdgeColoring(0, ())


def test_json_round_trips():
    g = Multigraph(3, ((0, 0), (1, 2)))
    assert graph_from_json(graph_to_json(g)) == g
    c = EdgeColoring(3, (1, 3))
    assert coloring_from_json(coloring_to_json(c)) == c
    with pytest.raises(GraphUsageError):
        graph_from_json({"vertices": 2})
    with pytest.raises(GraphUsageError):
        coloring_from_json({"k": 1, "colors": ["x"]})


@pytest.mark.parametrize("bad", [1.9, 2.0, "1", True, None, [1]])
def test_json_readers_accept_only_integers(bad):
    with pytest.raises(GraphUsageError):
        graph_from_json({"vertices": bad, "edges": []})
    with pytest.raises(GraphUsageError):
        graph_from_json({"vertices": 3, "edges": [[0, bad]]})
    with pytest.raises(GraphUsageError):
        coloring_from_json({"k": bad, "colors": []})
    with pytest.raises(GraphUsageError):
        coloring_from_json({"k": 2, "colors": [1, bad]})
