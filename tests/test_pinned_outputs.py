"""Pinned outputs: sha256 of the canonical JSON of a few constructions.

Circulations decide which slots a split moves and which edges a
``bee_coloring`` class takes, so these hashes change only when a
circulation's input (cells, windows, arc order) or the flow kernel's
choice among feasible flows changes. A change that does so on purpose
updates the hashes here and says so in CHANGES.md.
"""

import hashlib
import json
import random

from amalgam import (
    Multigraph,
    bee_coloring,
    certificate_to_json,
    coloring_to_json,
    detach,
    factorize_complete,
    graph_to_json,
    ham_decompose_complete,
)
from tests.conftest import random_bipartite, random_detachment_instance


def _digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _detach_digest(result) -> str:
    return _digest({
        "graph": graph_to_json(result.g),
        "coloring": coloring_to_json(result.coloring),
        "eta": list(result.spec.eta),
        "phi": list(result.spec.phi),
        "labels": {str(u): sorted(vs) for u, vs in result.labels.items()},
    })


def _criterion_6_draws(count):
    """The first ``count`` draws of the criterion-6 pool with six or more splits."""
    rng = random.Random(20240817)
    out = []
    while len(out) < count:
        inst = random_detachment_instance(rng)
        if inst is not None and sum(inst[2]) - len(inst[2]) >= 6:
            out.append(inst)
    return out


def test_pinned_certificates():
    assert _digest(certificate_to_json(ham_decompose_complete(25, 1))) == (
        "ae0e26af8d759dc1519fdb0b1abef5d8f6b1716b8c1f5b532110edc939755d00"
    )
    assert _digest(certificate_to_json(factorize_complete(20, 1, (4, 4, 5, 6)))) == (
        "538c05e066fdbf03bcec8df4123eb296a00a60d63124cc1d085ad3dc30eb4450"
    )


def test_pinned_detachments():
    assert [_detach_digest(detach(*inst)) for inst in _criterion_6_draws(3)] == [
        "df38d3e8674e669a7439f2bf247cff5b7b0f7fcbecffecbfa9f41ca8424a1410",
        "2530a96f4f23cbd82c27890c2f4a32eb0fee182453ceb076c1168af55e917424",
        "a5e7dd484c0e40a5087f5d238a2aeb136d576600c372444ba65b9a3e910c441c",
    ]


def test_pinned_bee_colorings():
    # the draws of test_bee_random_suite, then tripled paths with k = 2 and 3
    rng = random.Random(5)
    colorings = []
    while len(colorings) < 200:
        g, left = random_bipartite(rng)
        if g.edge_count:
            colorings.append(bee_coloring(g, left, rng.randint(1, 6)).colors)
    m = 2000
    path = Multigraph(m, tuple((v, v + 1) for v in range(m - 1) for _ in range(3)))
    colorings += [bee_coloring(path, set(range(0, m, 2)), k).colors for k in (2, 3)]
    assert _digest(colorings) == (
        "2e89ae73b6e441ac08ba7537268b6a39a4e0660c3b88b2d308336e8028e0335f"
    )
