import json
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amalgam import (
    ClassClaim,
    DecompositionCertificate,
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
    complete_graph,
    embed_complete_paths,
    embed_factorization,
    factorize_complete,
    factorize_multipartite,
    ham_decompose_complete,
    ham_decompose_multipartite,
    ham_decompose_two_class,
    ham_plus_one_factor_two_class,
    two_class_graph,
    two_class_parts,
    walecki_direct,
)
from amalgam.certify import CertifyReport, ClassVerdict
from amalgam.multigraph import union


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


def _reference_certify(cert):
    """Oracle: certify as it was before it keyed pairs by ints.

    It compares ``Counter``s of (min, max) tuples and builds a union-find
    for every class, whatever its role.
    """
    report = CertifyReport()
    s = cert.host.vertex_count
    for claim in cert.classes:
        for a, b in claim.edges:
            if not (0 <= a < s and 0 <= b < s):
                report.structural_errors.append(f"unknown vertex in edge ({a},{b})")
    part_of = None
    if cert.parts is not None:
        part_of = {}
        for p, members in enumerate(cert.parts):
            for v in members:
                if not (0 <= v < s) or v in part_of:
                    report.structural_errors.append("malformed part structure")
                part_of[v] = p
        if len(part_of) != s:
            report.structural_errors.append("parts do not cover all vertices")
    if report.structural_errors:
        return report
    host_multiset = Counter((min(a, b), max(a, b)) for a, b in cert.host.edges)
    claimed_multiset: Counter = Counter()
    for claim in cert.classes:
        claimed_multiset.update((min(a, b), max(a, b)) for a, b in claim.edges)
    report.partition_ok = host_multiset == claimed_multiset
    for idx, claim in enumerate(cert.classes):
        report.class_verdicts.append(_reference_class(idx, claim, s, part_of))
    return report


def _reference_class(idx, claim, s, part_of):
    deg = [0] * s
    parent = {}
    merges = 0
    for a, b in claim.edges:
        deg[a] += 1
        deg[b] += 1
        merges += union(parent, a, b)
    role = claim.role
    if role in (ROLE_HAMILTONIAN, ROLE_FAIR_HAMILTONIAN):
        if not all(d == 2 for d in deg):
            return ClassVerdict(idx, role, False, "not 2-regular spanning")
        if merges != s - 1:
            return ClassVerdict(idx, role, False, "not connected")
        if role == ROLE_FAIR_HAMILTONIAN:
            if part_of is None:
                return ClassVerdict(idx, role, False, "fairness claimed without parts")
            counts: Counter = Counter()
            for a, b in claim.edges:
                pa, pb = part_of[a], part_of[b]
                if pa != pb:
                    counts[(min(pa, pb), max(pa, pb))] += 1
            num_parts = max(part_of.values()) + 1
            all_pairs = [
                counts.get((p, q), 0) for p in range(num_parts) for q in range(p + 1, num_parts)
            ]
            if all_pairs and max(all_pairs) - min(all_pairs) > 1:
                return ClassVerdict(idx, role, False, "part-pair counts not within 1")
        return ClassVerdict(idx, role, True)
    if role == ROLE_ONE_FACTOR:
        if not all(d == 1 for d in deg):
            return ClassVerdict(idx, role, False, "not a perfect matching")
        return ClassVerdict(idx, role, True)
    if role == ROLE_R_FACTOR:
        if claim.r is None or claim.r < 0:
            return ClassVerdict(idx, role, False, "missing factor degree")
        if not all(d == claim.r for d in deg):
            return ClassVerdict(idx, role, False, f"not {claim.r}-regular spanning")
        return ClassVerdict(idx, role, True)
    return ClassVerdict(idx, role, False, f"unknown role {role!r}")


def _builder_outputs():
    """Every builder over a small grid, lambda >= 2 hosts included."""
    k4 = complete_graph(4, 1)
    k4_paths = {(0, 1): 1, (1, 2): 1, (2, 3): 1, (0, 2): 2, (1, 3): 2, (0, 3): 3}
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
        (embed_complete_paths, complete_graph(1, 1), EdgeColoring(1, ()), 2),
        (embed_complete_paths, k4, EdgeColoring(3, tuple(k4_paths[e] for e in k4.edges)), 2),
        (embed_complete_paths, complete_graph(3, 1), EdgeColoring(2, (1, 2, 1)), 1),
        (embed_factorization, complete_graph(2, 1), EdgeColoring(2, (1,)), 3, (2, 2)),
        (embed_factorization, complete_graph(3, 1), EdgeColoring(2, (1, 1, 2)), 2, (2, 2)),
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
