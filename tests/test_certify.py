import importlib
import itertools
import json
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amalgam import (
    ClassClaim,
    DecompositionCertificate,
    DecompositionRequest,
    EdgeColoring,
    GraphUsageError,
    InfeasibleError,
    Multigraph,
    ROLE_FAIR_HAMILTONIAN,
    ROLE_HAMILTONIAN,
    ROLE_ONE_FACTOR,
    ROLE_R_FACTOR,
    certificate_from_json,
    certificate_to_json,
    certify,
    check_feasibility,
    coloring_from_json,
    complete_graph,
    decompose_two_class,
    embed_complete_paths,
    embed_factorization,
    factorize_complete,
    factorize_multipartite,
    graph_from_json,
    ham_decompose_complete,
    ham_decompose_multipartite,
    ham_decompose_two_class,
    ham_plus_one_factor_two_class,
    two_class_graph,
    two_class_parts,
    walecki_direct,
)
from tests.oracles import _dense_fair, _reference_certify


def _k7_cert():
    return walecki_direct(7, 1)


def test_k7_three_cycles_pass():
    report = certify(_k7_cert())
    assert report.passed
    assert len(report.class_verdicts) == 3
    assert all(v.role == ROLE_HAMILTONIAN for v in report.class_verdicts)


def test_moved_edge_breaks_regularity_not_partition():
    cert = _k7_cert()
    a, b = cert.classes[0], cert.classes[1]
    moved = DecompositionCertificate(
        cert.host,
        (
            ClassClaim(a.role, a.edges[:-1]),
            ClassClaim(b.role, b.edges + (a.edges[-1],)),
            cert.classes[2],
        ),
    )
    report = certify(moved)
    assert report.partition_ok
    assert not report.passed
    assert not report.class_verdicts[0].passed
    assert "2-regular" in report.class_verdicts[0].reason


def test_partition_mismatch_detected():
    cert = _k7_cert()
    dropped = DecompositionCertificate(cert.host, cert.classes[:-1])
    report = certify(dropped)
    assert not report.partition_ok


def test_one_factor_and_r_factor_roles():
    host = complete_graph(4)
    cycle = ((0, 1), (1, 2), (2, 3), (0, 3))
    matching = ((0, 2), (1, 3))
    cert = DecompositionCertificate(
        host,
        (ClassClaim(ROLE_HAMILTONIAN, cycle), ClassClaim(ROLE_ONE_FACTOR, matching)),
    )
    assert certify(cert).passed
    as_factor = DecompositionCertificate(
        host,
        (ClassClaim(ROLE_R_FACTOR, cycle, r=2), ClassClaim(ROLE_R_FACTOR, matching, r=1)),
    )
    assert certify(as_factor).passed
    wrong_r = DecompositionCertificate(
        host,
        (ClassClaim(ROLE_R_FACTOR, cycle, r=3), ClassClaim(ROLE_R_FACTOR, matching, r=1)),
    )
    assert not certify(wrong_r).passed


def test_disconnected_two_regular_class_is_not_hamiltonian():
    triangles = ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5))
    cert = DecompositionCertificate(
        Multigraph(6, triangles), (ClassClaim(ROLE_HAMILTONIAN, triangles),)
    )
    report = certify(cert)
    assert report.partition_ok
    assert not report.passed
    assert report.class_verdicts[0].reason == "not connected"
    # the boundary sizes: no vertex is not one component, one vertex with a loop is
    empty = DecompositionCertificate(Multigraph(0, ()), (ClassClaim(ROLE_HAMILTONIAN, ()),))
    assert certify(empty).class_verdicts[0].reason == "not connected"
    loop = DecompositionCertificate(
        Multigraph(1, ((0, 0),)), (ClassClaim(ROLE_HAMILTONIAN, ((0, 0),)),)
    )
    assert certify(loop).passed


def test_fairness_checked_against_parts():
    host = two_class_graph(2, 3, 0, 1)
    parts = two_class_parts(2, 3)
    # hexagon alternating between part pairs evenly: 2 edges per part pair
    fair_cycle = ((0, 2), (2, 4), (4, 1), (1, 3), (3, 5), (5, 0))
    unfair_cycle = ((0, 2), (2, 1), (1, 3), (3, 4), (4, 5), (5, 0))
    host_count = Counter((min(a, b), max(a, b)) for a, b in host.edges)
    used = Counter((min(a, b), max(a, b)) for a, b in fair_cycle)
    rest = list((host_count - used).elements())
    cert = DecompositionCertificate(
        host,
        (
            ClassClaim(ROLE_FAIR_HAMILTONIAN, fair_cycle),
            ClassClaim(ROLE_HAMILTONIAN, tuple(rest)),
        ),
        parts,
    )
    report = certify(cert)
    assert report.class_verdicts[0].passed
    used2 = Counter((min(a, b), max(a, b)) for a, b in unfair_cycle)
    rest2 = tuple((host_count - used2).elements())
    cert2 = DecompositionCertificate(
        host,
        (
            ClassClaim(ROLE_FAIR_HAMILTONIAN, unfair_cycle),
            ClassClaim(ROLE_HAMILTONIAN, rest2),
        ),
        parts,
    )
    report2 = certify(cert2)
    assert not report2.class_verdicts[0].passed
    assert "within 1" in report2.class_verdicts[0].reason


def test_fairness_requires_parts():
    host = complete_graph(3)
    cert = DecompositionCertificate(
        host, (ClassClaim(ROLE_FAIR_HAMILTONIAN, ((0, 1), (1, 2), (0, 2))),)
    )
    report = certify(cert)
    assert not report.passed
    assert "without parts" in report.class_verdicts[0].reason


def _set_partitions(items):
    """Every partition of ``items`` into nonempty parts, each part in ascending order."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for partition in _set_partitions(rest):
        yield [[first]] + partition
        for i in range(len(partition)):
            yield partition[:i] + [[first] + partition[i]] + partition[i + 1 :]


def test_fairness_matches_dense_oracle_on_every_k6_cycle_and_partition():
    # 60 Hamiltonian cycles of K_6 under all 203 partitions of its vertices: one
    # part (no part pairs), part pairs left out (least count 0) and all occurring
    cycles = [
        (0, *perm) for perm in itertools.permutations(range(1, 6)) if perm[0] < perm[-1]
    ]
    partitions = list(_set_partitions(list(range(6))))
    assert (len(cycles), len(partitions)) == (60, 203)
    verdicts: Counter = Counter()
    for order in cycles:
        cycle = tuple(zip(order, order[1:] + order[:1]))
        for parts in partitions:
            cert = DecompositionCertificate(
                Multigraph(6, cycle),
                (ClassClaim(ROLE_FAIR_HAMILTONIAN, cycle),),
                tuple(tuple(part) for part in parts),
            )
            verdict = certify(cert).class_verdicts[0]
            part_of = {v: p for p, part in enumerate(parts) for v in part}
            assert verdict.passed == _dense_fair(cycle, part_of), (cycle, parts)
            verdicts[verdict.passed] += 1
    assert verdicts == {True: 4_860, False: 7_320}


def test_fairness_reads_only_the_part_pairs_that_occur(monkeypatch):
    # 101 one-vertex parts: C(101, 2) = 5,050 part pairs, but each fair class
    # reads no more part-pair counts than it has edges
    cert = ham_decompose_multipartite(1, 101, 1, fair=True)
    made = []

    class CountingCounter(Counter):
        def __init__(self, *args):
            self.reads = 0
            made.append(self)
            super().__init__(*args)

        def __getitem__(self, key):
            self.reads += 1
            return super().__getitem__(key)

        def __iter__(self):
            self.reads += len(self)
            return super().__iter__()

        def values(self):
            self.reads += len(self)
            return super().values()

        def items(self):
            self.reads += len(self)
            return super().items()

    # the package exports the function certify under the module's name
    monkeypatch.setattr(importlib.import_module("amalgam.certify"), "Counter", CountingCounter)
    assert certify(cert).passed
    assert len(made) == len(cert.classes) == 50
    assert all(0 < counts.reads <= 101 for counts in made), [c.reads for c in made]


def test_certify_total_on_malformed_claims():
    host = complete_graph(3)
    bad_vertex = DecompositionCertificate(
        host, (ClassClaim(ROLE_HAMILTONIAN, ((0, 9),)),)
    )
    report = certify(bad_vertex)
    assert report.structural_errors
    unknown_role = DecompositionCertificate(
        host, (ClassClaim("mystery", ((0, 1), (1, 2), (0, 2))),)
    )
    report = certify(unknown_role)
    assert not report.passed
    missing_r = DecompositionCertificate(
        host, (ClassClaim(ROLE_R_FACTOR, ((0, 1), (1, 2), (0, 2))),)
    )
    assert not certify(missing_r).passed


def test_json_round_trip():
    cert = ham_decompose_complete(6, 1)
    obj = certificate_to_json(cert)
    again = certificate_from_json(json.loads(json.dumps(obj)))
    assert certify(again).passed
    assert again.classes == cert.classes
    with pytest.raises(GraphUsageError):
        certificate_from_json({"host": {"kind": "mystery"}, "classes": []})


def test_host_from_kind_parameters():
    obj = certificate_to_json(_k7_cert())
    obj["host"] = {"kind": "complete", "n": 7, "lambda": 1}
    assert certify(certificate_from_json(obj)).passed


def test_negative_host_sizes_raise():
    for host in (
        {"vertices": -2, "edges": []},
        {"kind": "complete", "n": 3, "lambda": -1},
        {"kind": "complete", "n": -1},
        {"kind": "two-class", "n": 2, "m": 2, "lambda": 1, "mu": -1},
        {"kind": "multipartite", "n": 2, "m": -2},
    ):
        with pytest.raises(GraphUsageError, match="negative"):
            certificate_from_json({"host": host, "classes": []})
    # zero sizes stay valid hosts
    empty = certificate_from_json({"host": {"kind": "complete", "n": 0}, "classes": []})
    assert empty.host == Multigraph(0, ())


def _k3_json(**changes):
    obj = {
        "host": {"kind": "complete", "n": 3, "lambda": 1},
        "classes": [{"role": "hamiltonian", "edges": [[0, 1], [1, 2], [0, 2]]}],
    }
    obj.update(changes)
    return obj


def test_certificate_reader_accepts_only_integers():
    assert certify(certificate_from_json(_k3_json())).passed
    # each of these passed certify once truncated or coerced to int
    malformed = [
        _k3_json(classes=[{"role": "hamiltonian", "edges": [[0.9, 1], [1, 2], [0, "2"]]}]),
        _k3_json(host={"kind": "complete", "n": 3.6}),
        _k3_json(host={"kind": "complete", "n": 3, "lambda": True}),
        _k3_json(host={"kind": "two-class", "n": 1, "m": 3, "lambda": 0, "mu": 1.0}),
        _k3_json(host={"kind": "multipartite", "n": "1", "m": 3}),
        _k3_json(classes=[{"role": "r-factor", "r": 2.5, "edges": [[0, 1], [1, 2], [0, 2]]}]),
        _k3_json(parts=[[0], [1], [2.0]]),
        # a role must be a JSON string, not null or a number
        _k3_json(classes=[{"role": None, "edges": [[0, 1], [1, 2], [0, 2]]}]),
        _k3_json(classes=[{"role": 5, "edges": [[0, 1], [1, 2], [0, 2]]}]),
    ]
    for obj in malformed:
        with pytest.raises(GraphUsageError):
            certificate_from_json(obj)


@pytest.mark.parametrize(
    "entry, text",
    [
        ([0, 1.0], "expected a JSON integer, got 1.0"),
        ([True, 1], "expected a JSON integer, got True"),
        (["0", 1], "expected a JSON integer, got '0'"),
        ([0], "not enough values to unpack (expected 2, got 1)"),
        ([0, 1, 2], "too many values to unpack (expected 2)"),
    ],
)
def test_edge_readers_name_the_first_malformed_pair(entry, text):
    edges = [[0, 1], entry, 5]  # the 5 would fail too, but later
    with pytest.raises(GraphUsageError) as exc:
        graph_from_json({"vertices": 3, "edges": edges})
    assert str(exc.value) == f"malformed graph JSON: {text}"
    with pytest.raises(GraphUsageError) as exc:
        certificate_from_json(_k3_json(classes=[{"role": "hamiltonian", "edges": edges}]))
    assert str(exc.value) == f"malformed certificate JSON: {text}"


@pytest.mark.parametrize("bad", [2.0, True, "2"])
def test_part_and_color_readers_name_the_first_malformed_number(bad):
    text = f"expected a JSON integer, got {bad!r}"
    with pytest.raises(GraphUsageError) as exc:
        certificate_from_json(_k3_json(parts=[[0], [1, bad], [None]]))
    assert str(exc.value) == f"malformed certificate JSON: {text}"
    with pytest.raises(GraphUsageError) as exc:
        coloring_from_json({"k": 2, "colors": [1, bad, None]})
    assert str(exc.value) == f"malformed coloring JSON: {text}"


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 30), st.booleans())
def test_metamorphic_relabeling_preserves_verdict(seed, tamper):
    import random

    rng = random.Random(seed)
    cert = _k7_cert()
    if tamper:
        a, b = cert.classes[0], cert.classes[1]
        cert = DecompositionCertificate(
            cert.host,
            (
                ClassClaim(a.role, a.edges[:-1]),
                ClassClaim(b.role, b.edges + (a.edges[-1],)),
                cert.classes[2],
            ),
        )
    before = certify(cert)
    perm = list(range(7))
    rng.shuffle(perm)
    relabeled = DecompositionCertificate(
        Multigraph(7, tuple((perm[a], perm[b]) for a, b in cert.host.edges)),
        tuple(
            ClassClaim(c.role, tuple((perm[a], perm[b]) for a, b in c.edges), r=c.r)
            for c in cert.classes
        ),
        cert.parts,
    )
    after = certify(relabeled)
    assert before.passed == after.passed
    assert [v.passed for v in before.class_verdicts] == [
        v.passed for v in after.class_verdicts
    ]


def _embed_bases():
    """The colored complete graphs that the embedding builders grow."""
    k4 = complete_graph(4, 1)
    k4_paths = {(0, 1): 1, (1, 2): 1, (2, 3): 1, (0, 2): 2, (1, 3): 2, (0, 3): 3}
    return [
        (complete_graph(1, 1), EdgeColoring(1, ())),
        (k4, EdgeColoring(3, tuple(k4_paths[e] for e in k4.edges))),
        (complete_graph(3, 1), EdgeColoring(2, (1, 2, 1))),
        (complete_graph(2, 1), EdgeColoring(2, (1,))),
        (complete_graph(3, 1), EdgeColoring(2, (1, 1, 2))),
    ]


_EMBED_BASES = _embed_bases()


def _builder_outputs():
    """Every builder over a small grid, lambda >= 2 hosts included."""
    paths_1, paths_4, paths_3, factor_2, factor_3 = _EMBED_BASES
    calls = []
    for n in range(1, 8):
        for lam in range(1, 4):
            calls.append((walecki_direct, n, lam))
            calls.append((ham_decompose_complete, n, lam))
    calls += [
        (factorize_complete, 5, 1, (2, 2)),
        (factorize_complete, 4, 1, (1, 1, 1)),
        (factorize_complete, 4, 2, (2, 4)),
        (factorize_complete, 6, 2, (4, 3, 3)),
        (embed_complete_paths, *paths_1, 2),
        (embed_complete_paths, *paths_4, 2),
        (embed_complete_paths, *paths_3, 1),
        (embed_factorization, *factor_2, 3, (2, 2)),
        (embed_factorization, *factor_3, 2, (2, 2)),
        (factorize_multipartite, 2, 3, 1, (2, 2)),
        (factorize_multipartite, 2, 2, 2, (2, 2)),
    ]
    for n, m, lam in ((1, 3, 1), (2, 3, 1), (3, 3, 1), (2, 4, 1), (2, 2, 2), (3, 3, 2)):
        calls.append((ham_decompose_multipartite, n, m, lam))
        calls.append((ham_decompose_multipartite, n, m, lam, True))
    for n, m, lam, mu in ((2, 3, 2, 1), (3, 2, 2, 1), (2, 2, 1, 2), (3, 3, 2, 2), (2, 4, 3, 1)):
        calls.append((ham_decompose_two_class, n, m, lam, mu))
        calls.append((ham_plus_one_factor_two_class, n, m, lam, mu))
    outputs = []
    for builder, *args in calls:
        try:
            outputs.append((builder.__name__, builder(*args)))
        except InfeasibleError:
            continue
    return outputs


def _with_class(cert, idx, claim):
    classes = list(cert.classes)
    classes[idx] = claim
    return DecompositionCertificate(cert.host, tuple(classes), cert.parts)


def _tampered(cert):
    """Copies of a certificate, each broken (or only reworded) in one way."""
    s = cert.host.vertex_count
    out = []
    for idx, c in enumerate(cert.classes):
        if not c.edges:
            continue
        (a, b), rest = c.edges[0], c.edges[1:]
        out += [
            _with_class(cert, idx, ClassClaim(c.role, ((b, a),) + rest, c.r)),
            _with_class(cert, idx, ClassClaim(c.role, c.edges + ((a, b),), c.r)),
            _with_class(cert, idx, ClassClaim(c.role, rest, c.r)),
            _with_class(cert, idx, ClassClaim(c.role, ((a, a),) + rest, c.r)),
            _with_class(cert, idx, ClassClaim(c.role, ((a, s),) + rest, c.r)),
            _with_class(cert, idx, ClassClaim(c.role, ((-1, b),) + rest, c.r)),
            _with_class(cert, idx, ClassClaim(ROLE_ONE_FACTOR, c.edges)),
            _with_class(cert, idx, ClassClaim(ROLE_HAMILTONIAN, c.edges)),
            _with_class(cert, idx, ClassClaim(ROLE_FAIR_HAMILTONIAN, c.edges)),
            _with_class(cert, idx, ClassClaim(ROLE_R_FACTOR, c.edges, (c.r or 2) + 1)),
            _with_class(cert, idx, ClassClaim(ROLE_R_FACTOR, c.edges, -1)),
            _with_class(cert, idx, ClassClaim(ROLE_R_FACTOR, c.edges)),
            _with_class(cert, idx, ClassClaim("mystery", c.edges)),
        ]
        other = (idx + 1) % len(cert.classes)
        if other != idx:
            moved = _with_class(cert, idx, ClassClaim(c.role, rest, c.r))
            target = cert.classes[other]
            out.append(_with_class(
                moved, other, ClassClaim(target.role, target.edges + ((a, b),), target.r)
            ))
    out.append(DecompositionCertificate(cert.host, cert.classes[:-1], cert.parts))
    if s:
        out += [
            DecompositionCertificate(cert.host, cert.classes, ((0, 0),) + tuple(
                (v,) for v in range(1, s)
            )),
            DecompositionCertificate(cert.host, cert.classes, (tuple(range(s - 1)),)),
            DecompositionCertificate(cert.host, cert.classes, (tuple(range(s)), (s,))),
        ]
    if cert.parts is not None:
        out.append(DecompositionCertificate(cert.host, cert.classes, None))
        out.append(DecompositionCertificate(cert.host, cert.classes, cert.parts[::-1]))
    return out


def _loop_certificates():
    loop = ((0, 0),)
    two_loops = Multigraph(2, ((0, 0), (0, 1), (1, 1), (0, 1)))
    return [
        DecompositionCertificate(Multigraph(1, loop), (ClassClaim(ROLE_HAMILTONIAN, loop),)),
        DecompositionCertificate(Multigraph(1, loop * 2), (
            ClassClaim(ROLE_HAMILTONIAN, loop), ClassClaim(ROLE_R_FACTOR, loop, 2),
        )),
        DecompositionCertificate(two_loops, (
            ClassClaim(ROLE_HAMILTONIAN, ((0, 1), (1, 0))),
            ClassClaim(ROLE_R_FACTOR, ((0, 0), (1, 1)), 2),
        ), ((0,), (1,))),
        DecompositionCertificate(Multigraph(0, ()), (ClassClaim(ROLE_HAMILTONIAN, ()),)),
    ]


def test_certify_matches_reference_on_builder_outputs_and_tampered_copies():
    outputs = _builder_outputs()
    assert {name for name, _ in outputs} == {
        "walecki_direct", "ham_decompose_complete", "factorize_complete",
        "embed_complete_paths", "embed_factorization", "ham_decompose_multipartite",
        "factorize_multipartite", "ham_decompose_two_class", "ham_plus_one_factor_two_class",
    }
    certs = [cert for _, cert in outputs] + _loop_certificates()
    passed: Counter = Counter()
    seen: set[str] = set()  # class reasons and structural errors
    for cert in certs:
        for case in [cert] + _tampered(cert):
            report = certify(case)
            assert report.to_json() == _reference_certify(case).to_json(), case
            passed[report.passed] += 1
            seen.update(v.reason for v in report.class_verdicts)
            seen.update(report.structural_errors)
    assert all(certify(cert).passed for _, cert in outputs)
    assert passed[True] and passed[False]
    # every verdict the reference can give shows up at least once
    assert {
        "not 2-regular spanning", "not connected", "fairness claimed without parts",
        "part-pair counts not within 1", "not a perfect matching", "missing factor degree",
        "unknown role 'mystery'", "malformed part structure", "parts do not cover all vertices",
    } <= seen
    assert any(reason.startswith("unknown vertex") for reason in seen)


# ---------------------------------------------------------------------------
# Every builder against check_feasibility, over small bounded requests

_TWO_CLASS_BUILDERS = (decompose_two_class, ham_decompose_two_class, ham_plus_one_factor_two_class)


def _factor_degrees(degree):
    """Degrees that sum to ``degree`` (a split at up to three cuts), or any short list."""
    cuts = st.sets(st.integers(1, max(degree - 1, 1)), max_size=3).map(sorted)
    return st.one_of(
        cuts.map(lambda c: tuple(b - a for a, b in zip([0, *c], [*c, degree]))),
        st.lists(st.integers(-1, 6), max_size=4).map(tuple),
    )


@st.composite
def _builder_cases(draw):
    """A builder, its arguments and the request it answers, from small ranges."""
    size, mult = st.integers(-1, 4), st.integers(-1, 3)
    builder = draw(st.sampled_from([
        walecki_direct, ham_decompose_complete, ham_decompose_multipartite,
        *_TWO_CLASS_BUILDERS, factorize_complete, factorize_multipartite,
        embed_complete_paths, embed_factorization,
    ]))
    if builder in (walecki_direct, ham_decompose_complete):
        n, lam = draw(st.integers(-1, 9)), draw(mult)
        return builder, (n, lam), DecompositionRequest("complete", n=n, lam=lam)
    if builder is ham_decompose_multipartite:
        n, m, lam, fair = draw(size), draw(size), draw(mult), draw(st.booleans())
        req = DecompositionRequest("multipartite", n=n, m=m, lam=lam, fair=fair)
        return builder, (n, m, lam, fair), req
    if builder in _TWO_CLASS_BUILDERS:
        n, m, lam, mu = draw(size), draw(size), draw(mult), draw(mult)
        return builder, (n, m, lam, mu), DecompositionRequest("two-class", n=n, m=m, lam=lam, mu=mu)
    if builder is factorize_complete:
        n, lam = draw(st.integers(-1, 7)), draw(mult)
        r = draw(_factor_degrees(lam * (n - 1)))
        return builder, (n, lam, r), DecompositionRequest("factorize-complete", n=n, lam=lam, r=r)
    if builder is factorize_multipartite:
        n, m, lam = draw(size), draw(size), draw(mult)
        r = draw(_factor_degrees(lam * n * (m - 1)))
        req = DecompositionRequest("factorize-multipartite", n=n, m=m, lam=lam, r=r)
        return builder, (n, m, lam, r), req
    base, coloring = draw(st.sampled_from(_EMBED_BASES))
    extra = draw(size)
    if builder is embed_complete_paths:
        req = DecompositionRequest("embed-paths", base_graph=base, base_coloring=coloring, extra=extra)
        return builder, (base, coloring, extra), req
    r = draw(_factor_degrees(base.vertex_count + extra - 1))
    req = DecompositionRequest(
        "embed-factorization", base_graph=base, base_coloring=coloring, extra=extra, r=r
    )
    return builder, (base, coloring, extra, r), req


def _parity_violations(builder, req):
    """What the two parity-bound builders add to the parity-free two-class check."""
    if builder not in (ham_decompose_two_class, ham_plus_one_factor_two_class):
        return []
    odd = builder is ham_plus_one_factor_two_class
    n, m = req.n, req.m
    degree = req.lam * (n - 1) + req.mu * n * (m - 1) if n * m else 0
    if degree % 2 == odd:
        return []
    return [f"(ii) degree {degree} is {'even' if odd else 'odd'}"]


def test_parity_builders_add_their_parity_violation():
    # check_feasibility's two-class kind has no parity condition
    assert check_feasibility(DecompositionRequest("two-class", n=2, m=3, lam=1, mu=2)).feasible
    with pytest.raises(InfeasibleError) as info:
        ham_decompose_two_class(2, 3, 1, 2)
    assert info.value.report.violations == ["(ii) degree 9 is odd"]


def test_degenerate_requests_match_check_feasibility():
    # an empty host has degree 0, so the front door adds no parity violation
    req = DecompositionRequest("two-class", n=0, m=2, lam=1, mu=1)
    with pytest.raises(InfeasibleError) as info:
        decompose_two_class(0, 2, 1, 1)
    assert info.value.report.violations == check_feasibility(req).violations
    # two negative sizes are no vertex count
    req = DecompositionRequest("factorize-multipartite", n=-1, m=-1, lam=1, r=(2,))
    assert check_feasibility(req).violations == ["n must be >= 1 and lambda >= 0"]
    with pytest.raises(InfeasibleError):
        factorize_multipartite(-1, -1, 1, (2,))


@settings(max_examples=600, deadline=None)
@given(_builder_cases())
def test_builders_match_check_feasibility(case):
    builder, args, req = case
    violations = check_feasibility(req).violations + _parity_violations(builder, req)
    if violations:
        with pytest.raises(InfeasibleError) as info:
            builder(*args)
        assert info.value.report.violations == violations
        assert not info.value.report.feasible
    else:
        assert certify(builder(*args)).passed
