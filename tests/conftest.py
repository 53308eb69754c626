"""Shared random-instance generators for the test suite."""

from __future__ import annotations

import random

from amalgam import EdgeColoring, Multigraph
from tests.oracles import loop_count, multiplicity


def random_detachment_instance(
    rng: random.Random,
    *,
    max_vertices: int = 5,
    max_eta: int = 4,
    max_colors: int = 4,
):
    """Random fused graph + coloring + eta within the stress-suite bounds.

    The keyword arguments bound the fused vertex count, eta and the color
    count; the defaults are the stress-suite bounds.
    A prefix of the colors is arranged to satisfy the evenness hypothesis
    (degree divisible by 2*eta(v) everywhere) so that the component-
    preservation property is exercised, the rest are unconstrained.
    Returns None when a draw violates the no-loop-at-unsplit-vertex
    precondition or the size bounds; callers redraw.
    """
    nv = rng.randint(1, max_vertices)
    eta = [rng.randint(1, max_eta) for _ in range(nv)]
    k = rng.randint(1, max_colors)
    nqual = rng.randint(1, k)
    edges: list[tuple[int, int]] = []
    colors: list[int] = []
    for j in range(1, nqual + 1):
        target = []
        for v in range(nv):
            mult = rng.randint(1, 2) if eta[v] > 1 else rng.randint(0, 2)
            target.append(2 * eta[v] * mult)
        stubs = [v for v in range(nv) for _ in range(target[v])]
        rng.shuffle(stubs)
        for i in range(0, len(stubs), 2):
            a, b = stubs[i], stubs[i + 1]
            if a == b and eta[a] == 1:
                return None
            edges.append((min(a, b), max(a, b)))
            colors.append(j)
    for j in range(nqual + 1, k + 1):
        for _ in range(rng.randint(0, 10)):
            a, b = rng.randint(0, nv - 1), rng.randint(0, nv - 1)
            if a == b and eta[a] == 1:
                continue
            edges.append((min(a, b), max(a, b)))
            colors.append(j)
    if not edges:
        return None
    h = Multigraph(nv, tuple(edges))
    if any(loop_count(h, v) > 12 for v in range(nv)):
        return None
    if any(multiplicity(h, u, v) > 9 for u in range(nv) for v in range(u + 1, nv)):
        return None
    return h, EdgeColoring(k, tuple(colors)), eta


def random_bipartite(rng: random.Random) -> tuple[Multigraph, set[int]]:
    """Random bipartite multigraph, sides <= 10, multiplicities <= 4."""
    na, nb = rng.randint(1, 10), rng.randint(1, 10)
    left = set(range(na))
    edges = []
    for a in range(na):
        for b in range(nb):
            edges += [(a, na + b)] * rng.randint(0, 4)
    return Multigraph(na + nb, tuple(edges)), left


def random_mixed_bipartite(rng: random.Random):
    """Random bipartite multigraph on shuffled ids, its edges shuffled, about half right end first.

    Sides <= 6, up to 25 pair draws of multiplicity 1-3. Returns the graph,
    its left side, and the same edges sorted, each left end first.
    """
    na, nb = rng.randint(1, 6), rng.randint(1, 6)
    ids = rng.sample(range(na + nb), na + nb)
    left, right = ids[:na], ids[na:]
    edges = []
    for _ in range(rng.randint(1, 25)):
        edges += [(rng.choice(left), rng.choice(right))] * rng.randint(1, 3)
    ordered = sorted(edges)
    rng.shuffle(edges)
    edges = [(b, a) if rng.random() < 0.5 else (a, b) for a, b in edges]
    return Multigraph(na + nb, tuple(edges)), set(left), ordered


def random_even_graph(rng: random.Random) -> Multigraph:
    """Random even multigraph with loops, built as unions of closed walks."""
    nv = rng.randint(1, 8)
    edges: list[tuple[int, int]] = []
    for _ in range(rng.randint(1, 5)):
        length = rng.randint(1, 8)
        start = rng.randint(0, nv - 1)
        v = start
        for _ in range(length - 1):
            w = rng.randint(0, nv - 1)
            edges.append((min(v, w), max(v, w)))
            v = w
        edges.append((min(v, start), max(v, start)))
    return Multigraph(nv, tuple(edges))
