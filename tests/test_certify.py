import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amalgam import (
    ClassClaim,
    DecompositionCertificate,
    GraphUsageError,
    Multigraph,
    ROLE_FAIR_HAMILTONIAN,
    ROLE_HAMILTONIAN,
    ROLE_ONE_FACTOR,
    ROLE_R_FACTOR,
    certificate_from_json,
    certificate_to_json,
    certify,
    complete_graph,
    ham_decompose_complete,
    two_class_graph,
    two_class_parts,
    walecki_direct,
)


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
    from collections import Counter

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
