"""Seeded random colored fused graphs for the random-detach request set.

Every instance satisfies ``detach``'s preconditions, so no request is
expected to fail: eta is positive everywhere and no vertex with eta 1
carries a loop. Colors 1..q are *qualifying*: each vertex's degree in
such a class is an even multiple of its eta, which makes ``detach``
preserve the class's component count and so exercises the count search.
Their edges come from randomly paired stubs, so they mix loops with
ordinary edges across several fused vertices. Colors q+1..k are
unconstrained random edges.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Shape:
    """Bounds of the generated instances."""

    vertices: tuple[int, int]  # fused vertex count, inclusive range
    eta_max: int
    k: tuple[int, int]  # color count, inclusive range
    loose_edges: int  # most edges per unconstrained color


FULL = Shape(vertices=(2, 8), eta_max=6, k=(2, 6), loose_edges=12)
TOY = Shape(vertices=(2, 3), eta_max=3, k=(2, 3), loose_edges=4)


def instance(rng: random.Random, shape: Shape):
    """One (edges, k, colors, eta) tuple; plain data, no amalgam types."""
    while True:
        nv = rng.randint(*shape.vertices)
        eta = [rng.randint(1, shape.eta_max) for _ in range(nv)]
        k = rng.randint(*shape.k)
        qualifying = rng.randint(1, k - 1)
        edges: list[tuple[int, int]] = []
        colors: list[int] = []
        for j in range(1, qualifying + 1):
            stubs = []
            for v in range(nv):
                mult = rng.randint(1, 2) if eta[v] > 1 else rng.randint(0, 1)
                stubs += [v] * (2 * eta[v] * mult)
            rng.shuffle(stubs)
            pairs = [(stubs[i], stubs[i + 1]) for i in range(0, len(stubs), 2)]
            if any(a == b and eta[a] == 1 for a, b in pairs):
                break  # a loop at an unsplit vertex: draw again
            edges += [(min(a, b), max(a, b)) for a, b in pairs]
            colors += [j] * len(pairs)
        else:
            for j in range(qualifying + 1, k + 1):
                for _ in range(rng.randint(1, shape.loose_edges)):
                    a, b = rng.randrange(nv), rng.randrange(nv)
                    if a == b and eta[a] == 1:
                        continue
                    edges.append((min(a, b), max(a, b)))
                    colors.append(j)
            return nv, tuple(edges), k, tuple(colors), tuple(eta)
