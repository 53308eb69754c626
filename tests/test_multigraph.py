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
from amalgam.multigraph import color_class, color_class_degree, color_degrees


def test_loop_contributes_two_to_degree():
    g = Multigraph(2, ((0, 0), (0, 1)))
    assert g.degree(0) == 3
    assert g.degree(1) == 1
    assert g.loop_count(0) == 1
    assert g.loop_count(1) == 0


def test_multiplicity_and_degree_sum():
    g = Multigraph(3, ((0, 1), (1, 0), (1, 2), (2, 2)))
    assert g.multiplicity(0, 1) == 2
    assert g.multiplicity(1, 0) == 2
    assert g.multiplicity(0, 2) == 0
    assert sum(g.degrees()) == 2 * g.edge_count


def test_components_count_isolated_vertices():
    g = Multigraph(4, ((0, 1),))
    assert g.components() == 3
    assert Multigraph(3, ()).components() == 3
    assert complete_graph(5).components() == 1


def test_out_of_range_ids_raise():
    with pytest.raises(GraphUsageError):
        Multigraph(2, ((0, 2),))
    g = Multigraph(2, ((0, 1),))
    with pytest.raises(GraphUsageError):
        g.degree(2)
    with pytest.raises(GraphUsageError):
        g.multiplicity(0, 5)


def test_amalgamate_constant_phi_gives_all_loops():
    g = complete_graph(7)
    h, spec = amalgamate(g, [0] * 7)
    assert h.vertex_count == 1
    assert h.loop_count(0) == 21
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
    assert h.loop_count(0) == 0 and h.loop_count(1) == 0
    assert h.multiplicity(0, 1) == 4


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


def test_color_class_is_spanning():
    g = Multigraph(3, ((0, 1), (1, 2)))
    coloring = EdgeColoring(2, (1, 2))
    sub = color_class(g, coloring, 1)
    assert sub.vertex_count == 3
    assert sub.edges == ((0, 1),)
    assert color_class_degree(g, coloring, 2, 1) == 1
    sub_empty = color_class(complete_graph(3), EdgeColoring(2, (1, 1, 1)), 2)
    assert sub_empty.edge_count == 0


def test_color_degrees_matches_color_class_degree():
    g = Multigraph(4, ((0, 1), (1, 1), (1, 2), (2, 3), (3, 0), (0, 1), (2, 2)))
    coloring = EdgeColoring(3, (1, 2, 2, 3, 1, 3, 1))
    deg = color_degrees(g, coloring.colors, coloring.k)
    for v in range(g.vertex_count):
        for j in range(1, coloring.k + 1):
            assert deg[v][j] == color_class_degree(g, coloring, j, v)
        assert deg[v][0] == 0
        assert sum(deg[v]) == g.degree(v)


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
