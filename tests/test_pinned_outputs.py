"""Pinned outputs: sha256 of the canonical JSON of a few constructions.

Circulations decide which slots a split moves and how many edges of
each pair a coloring class takes, so these hashes change only when a
circulation's input (cells, windows, arc order) or the flow kernel's
choice among feasible flows changes. A change that does so on purpose
updates the hashes here and says so in CHANGES.md.
"""

import hashlib
import json
import random

from amalgam import (
    EdgeColoring,
    Multigraph,
    bee_coloring,
    certificate_to_json,
    coloring_to_json,
    complete_graph,
    decompose_two_class,
    detach,
    embed_complete_paths,
    embed_factorization,
    evenly_equitable_coloring,
    factorize_complete,
    factorize_multipartite,
    graph_to_json,
    ham_decompose_complete,
    ham_decompose_multipartite,
    select_subset,
    verify_bee,
    walecki_direct,
)
from tests.conftest import random_bipartite, random_detachment_instance, random_mixed_bipartite
from tests.oracles import _random_laminar


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


def _cert_digest(cert) -> str:
    return _digest(certificate_to_json(cert))


def test_pinned_builder_routes():
    # one call per route of walecki_direct, the multipartite and two-class
    # hosts and both embeddings
    assert [_cert_digest(walecki_direct(n, lam)) for n, lam in ((2, 3), (9, 2), (10, 3))] == [
        "9f305a6ad500944a1e80d7573da9fcee8fe7a5577dd7b5fd9e6fe665b895eb73",
        "4a473e661739b4cae258950f8e94b54daeeae67f6dfaf226ff9bd043d3dc62e9",
        "a8d433d500a82ff27006ad97736b44754c72c0e4e9aae95994842e22941f1412",
    ]
    assert _cert_digest(ham_decompose_multipartite(3, 3, 1, fair=True)) == (
        "3c42449e786ce8ca457173b301bd6292ad7ab83f56466353a3511aaff4cdcc19"
    )
    assert _cert_digest(factorize_multipartite(2, 3, 1, (2, 2))) == (
        "09b267405c30ca24fb508f75d78ea3e85f797e707abf2b68726c06638e226870"
    )
    # all fused: even degree, odd n = 2, one-vertex parts, lambda = mu, one part
    # (lambda*K_n), and lambda = 0 with odd degree, whose 1-factor takes cross
    # cycles, for m = 2 and m = 4
    shapes = (
        (3, 3, 2, 1), (2, 3, 3, 1), (1, 4, 2, 1), (2, 2, 2, 2), (5, 1, 2, 0), (3, 2, 0, 1),
        (3, 4, 0, 1),
    )
    assert [_cert_digest(decompose_two_class(*shape)) for shape in shapes] == [
        "c26bc17f08b4026a93b844f65713303363e60905155a53504bc51bb5c869095b",
        "f959988d230f58f5d840bdff3da365d573bcfb828d8648645c23a36a733a8635",
        "d33004222a9cedd02a6aa49d3975a400ae1cabc8053d3f300620c8fd8ba3e20f",
        "6db890dd15508246066edf84760b28dccd93a307f5d92ab926a6361c5f57d6be",
        "96f1c5f12115e1a2e7704546f4f91771d593934998e8d0967d2c01a3297c0c74",
        "d7c0bdb012faa19d791f00307eaeff74f54c1c1dcb8dc3b684b4ea6934d237e4",
        "0fa2b2e9ff3054b588740d976c06db490b846daf4aa8b770f53e6d5b50f0349f",
    ]
    k5 = complete_graph(5, 1)
    by_pair = {
        (0, 1): 1, (1, 2): 1, (2, 3): 1, (3, 4): 1,
        (0, 2): 2, (1, 3): 2, (0, 4): 2,
        (0, 3): 3, (1, 4): 3, (2, 4): 3,
    }
    paths = EdgeColoring(3, tuple(by_pair[e] for e in k5.edges))
    assert _cert_digest(embed_complete_paths(k5, paths, 2)) == (
        "68aa24f55fb2e9921d5bbf01eeb83a1fdf36246b2a3bba4c72feaff55614dac9"
    )
    # class 1 is the star at 0 and fits only the degree-4 slot
    k4 = complete_graph(4, 1)
    star = EdgeColoring(2, tuple(1 if 0 in e else 2 for e in k4.edges))
    assert _cert_digest(embed_factorization(k4, star, 3, (2, 4))) == (
        "62d14970094b932ad538a3618b29b7fc3916439638ae1211effe02ce9e6fd5e6"
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
    draws = []
    while len(draws) < 200:
        g, left = random_bipartite(rng)
        if g.edge_count:
            draws.append((g, left, bee_coloring(g, left, rng.randint(1, 6))))
    m = 2000
    path = Multigraph(m, tuple((v, v + 1) for v in range(m - 1) for _ in range(3)))
    left = set(range(0, m, 2))
    draws += [(path, left, bee_coloring(path, left, k)) for k in (2, 3)]
    assert all(verify_bee(*draw) for draw in draws)
    assert _digest([coloring.colors for _, _, coloring in draws]) == (
        "63851dbaea8baab4cddbd8a07102dc36a4094adfc0ee499e5b74caf5e5b75531"
    )


def test_pinned_bee_colorings_of_shuffled_edges():
    # the draws above list each pair's edges together, left end first; these
    # list them shuffled and about half right end first, as the order test does
    rng = random.Random(27)
    draws = []
    for _ in range(50):
        g, left, _ = random_mixed_bipartite(rng)
        draws.append((g, left, bee_coloring(g, left, rng.randint(2, 8))))
    assert all(verify_bee(*draw) for draw in draws)
    assert _digest([coloring.colors for _, _, coloring in draws]) == (
        "f31bb491247e584993303a5cc2ebf45aa9f3b18c0cedfe9cc7375434fdb577e4"
    )


def test_pinned_large_networks_and_other_circulation_callers():
    # K_61's splits have up to 60 cells per color and many group arcs; the
    # evenly-equitable split and the laminar selection build their own networks
    assert _cert_digest(ham_decompose_complete(61, 1)) == (
        "492c68a30b2c6d215607ae083ad4b67ffeed7144ae0295876b8f772feca8317e"
    )
    n = 1000
    circulant = Multigraph(n, tuple((v, (v + d) % n) for v in range(n) for d in (1, 2)))
    assert _digest(evenly_equitable_coloring(circulant, 2).colors) == (
        "538c084d8e02e2f5ffff7d24c47b3d2089266e20bc3683a58f7ed20015bba02c"
    )
    rng = random.Random(31)
    draws = []
    for _ in range(20):
        size = rng.randint(20, 200)
        fam_a, fam_b = _random_laminar(rng, size), _random_laminar(rng, size)
        draws.append(sorted(select_subset(size, fam_a, fam_b, rng.randint(2, 5))))
    assert _digest(draws) == (
        "a1367cb19566eec74b36c2d1b5a0a44d10c63b109b1cc6616ad6ca2cb1dd4061"
    )


def _even_draw(rng):
    """An even multigraph on 1-7 vertices and k in 2..8: one or two blocks of
    vertices, each with cycles of odd multiplicity and pairs (or loops) of
    even multiplicity inside it."""
    nv = rng.randint(1, 7)
    vs = rng.sample(range(nv), nv)
    cut = rng.randint(0, nv)
    edges = []
    for block in (vs[:cut], vs[cut:]):
        for _ in range(rng.randint(0, 3) if len(block) >= 3 else 0):
            cycle = rng.sample(block, rng.randint(3, len(block)))
            edges += list(zip(cycle, cycle[1:] + cycle[:1])) * rng.choice((1, 3, 5))
        for _ in range(rng.randint(0, 2) if block else 0):
            edges += [(rng.choice(block), rng.choice(block))] * rng.choice((2, 4))
    rng.shuffle(edges)
    return Multigraph(nv, tuple(edges)), rng.randint(2, 8)


def test_pinned_evenly_equitable_colorings():
    # a third of the draws have several components; the odd leftovers are
    # oriented once, along Euler circuits, before the first class. The walk's
    # order is not the circulations' arc order, but its directions count:
    # reversing every circuit changes 314 of these colorings
    rng = random.Random(10)
    colorings = [evenly_equitable_coloring(*_even_draw(rng)).colors for _ in range(1000)]
    assert _digest(colorings) == (
        "ebbdd87c5289f63f16aed5bd2a7228144aeb3d57ad92ef260fafe0f7828c4f7b"
    )
