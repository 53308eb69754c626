"""Every small input, exhaustively, for ``detach`` and both coloring engines.

Each engine gates its output on its own verifier, so "no input raises"
means "every output is valid"; each output is also checked by the
independent oracle in ``tests/oracles.py``, so a bug shared by an engine
and its verifier still shows. Graphs are multisets of vertex pairs, with
colors canonical by first appearance where a coloring is the input.
"""

import itertools

import pytest

from amalgam import (
    EdgeColoring,
    Multigraph,
    bee_coloring,
    detach,
    evenly_equitable_coloring,
)
from tests.oracles import (
    _dense_verify_bee,
    _dense_verify_evenly_equitable,
    _pairwise_verify_detachment,
)


def _edge_multisets(pairs, max_edges):
    """Every nonempty multiset of at most ``max_edges`` of the pairs, as a sorted tuple."""
    for m in range(1, max_edges + 1):
        yield from itertools.combinations_with_replacement(pairs, m)


def _first_appearance_colorings(m):
    """Every coloring of m edges whose colors first appear in the order 1, 2, ..."""
    stack = [()]
    while stack:
        colors = stack.pop()
        if len(colors) == m:
            yield colors
            continue
        stack += [colors + (c,) for c in range(1, max(colors, default=0) + 2)]


@pytest.mark.parametrize("max_edges", [3, pytest.param(4, marks=pytest.mark.slow)])
def test_detach_every_small_colored_multigraph(max_edges):
    # 3 vertices, loops allowed, every eta in {1, 2, 3}^3 with no loop at an eta = 1 vertex
    pairs = [(a, b) for a in range(3) for b in range(a, 3)]
    calls = 0
    for edges in _edge_multisets(pairs, max_edges):
        h = Multigraph(3, edges)
        looped = {a for a, b in edges if a == b}
        etas = [e for e in itertools.product((1, 2, 3), repeat=3) if all(e[v] > 1 for v in looped)]
        for colors in _first_appearance_colorings(len(edges)):
            coloring = EdgeColoring(max(colors), colors)
            for eta in etas:
                report = _pairwise_verify_detachment(h, coloring, detach(h, coloring, eta))
                assert report.all_passed, (edges, colors, eta, report)
                calls += 1
    assert calls == {3: 5953, 4: 37048}[max_edges]


@pytest.mark.slow
def test_bee_every_small_bipartite_multigraph():
    # left {0, 1}, right {2, 3, 4}, at most 8 edges, k = 1..9
    left = {0, 1}
    calls = 0
    for edges in _edge_multisets([(a, b) for a in (0, 1) for b in (2, 3, 4)], 8):
        g = Multigraph(5, edges)
        for k in range(1, 10):
            assert _dense_verify_bee(g, left, bee_coloring(g, left, k)), (edges, k)
            calls += 1
    assert calls == 27018


@pytest.mark.slow
def test_even_every_small_even_multigraph():
    # 4 vertices, loops allowed, at most 7 edges, every degree even, k = 1..7
    calls = 0
    for edges in _edge_multisets([(a, b) for a in range(4) for b in range(a, 4)], 7):
        g = Multigraph(4, edges)
        if any(d % 2 for d in g.degrees()):
            continue
        for k in range(1, 8):
            assert _dense_verify_evenly_equitable(g, evenly_equitable_coloring(g, k)), (edges, k)
            calls += 1
    assert calls == 21133
