"""Construction-independent verification of decomposition claims.

A certificate states a host graph, optional part structure, and a list of
color classes with claimed roles. ``certify`` re-derives every verdict
from scratch: exact edge-multiset partition, per-class regularity,
connectivity via union-find for the Hamiltonian roles, and part-pair
fairness where claimed. Pairs are counted as int keys (``pair_keys``),
and only the part pairs that occur, so fairness costs a class its edges.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Mapping

from .multigraph import (
    GraphUsageError,
    Multigraph,
    complete_graph,
    graph_from_json,
    graph_to_json,
    json_int,
    json_pairs,
    pair_keys,
    two_class_graph,
    union,
    within_spread,
)

ROLE_HAMILTONIAN = "hamiltonian"
ROLE_ONE_FACTOR = "one-factor"
ROLE_R_FACTOR = "r-factor"
ROLE_FAIR_HAMILTONIAN = "fair-hamiltonian"


@dataclass(frozen=True)
class ClassClaim:
    role: str
    edges: tuple[tuple[int, int], ...]
    r: int | None = None  # regularity degree for r-factor claims


@dataclass(frozen=True)
class DecompositionCertificate:
    host: Multigraph
    classes: tuple[ClassClaim, ...]
    parts: tuple[tuple[int, ...], ...] | None = None


@dataclass
class ClassVerdict:
    index: int
    role: str
    passed: bool
    reason: str = ""


@dataclass
class CertifyReport:
    structural_errors: list[str] = field(default_factory=list)
    partition_ok: bool = False
    class_verdicts: list[ClassVerdict] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return (
            not self.structural_errors
            and self.partition_ok
            and all(v.passed for v in self.class_verdicts)
        )

    def to_json(self) -> dict:
        return {
            "passed": self.passed,
            "partition_ok": self.partition_ok,
            "structural_errors": list(self.structural_errors),
            "classes": [
                {"index": v.index, "role": v.role, "passed": v.passed, "reason": v.reason}
                for v in self.class_verdicts
            ],
        }


def certify(cert: DecompositionCertificate) -> CertifyReport:
    """Pure, total verdict on a decomposition certificate.

    The partition holds iff the host's edges and all claimed edges give
    equal sorted lists of int pair keys, min*s + max on s vertices.
    """
    report = CertifyReport()
    s = cert.host.vertex_count
    claimed = [pair for claim in cert.classes for pair in claim.edges]
    report.structural_errors = [
        f"unknown vertex in edge ({a},{b})" for a, b in claimed if not (0 <= a < s and 0 <= b < s)
    ]
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

    report.partition_ok = sorted(pair_keys(cert.host.edges, s)) == sorted(pair_keys(claimed, s))

    for idx, claim in enumerate(cert.classes):
        report.class_verdicts.append(_check_class(idx, claim, s, part_of))
    return report


def _check_class(idx: int, claim: ClassClaim, s: int, part_of) -> ClassVerdict:
    deg = [0] * s
    for a, b in claim.edges:
        deg[a] += 1
        deg[b] += 1

    def is_regular(r: int) -> bool:
        return deg.count(r) == s

    if claim.role == ROLE_HAMILTONIAN or claim.role == ROLE_FAIR_HAMILTONIAN:
        if not is_regular(2):
            return ClassVerdict(idx, claim.role, False, "not 2-regular spanning")
        # s vertices are one component iff the unions merge s - 1 times
        if union({}, claim.edges) != s - 1:
            return ClassVerdict(idx, claim.role, False, "not connected")
        if claim.role == ROLE_FAIR_HAMILTONIAN:
            if part_of is None:
                return ClassVerdict(idx, claim.role, False, "fairness claimed without parts")
            num_parts = max(part_of.values()) + 1
            cross = [(part_of[a], part_of[b]) for a, b in claim.edges if part_of[a] != part_of[b]]
            counts = Counter(pair_keys(cross, num_parts)).values()
            if not within_spread(counts, num_parts * (num_parts - 1) // 2, 1):
                return ClassVerdict(idx, claim.role, False, "part-pair counts not within 1")
        return ClassVerdict(idx, claim.role, True)
    if claim.role == ROLE_ONE_FACTOR:
        if not is_regular(1):
            return ClassVerdict(idx, claim.role, False, "not a perfect matching")
        return ClassVerdict(idx, claim.role, True)
    if claim.role == ROLE_R_FACTOR:
        if claim.r is None or claim.r < 0:
            return ClassVerdict(idx, claim.role, False, "missing factor degree")
        if not is_regular(claim.r):
            return ClassVerdict(idx, claim.role, False, f"not {claim.r}-regular spanning")
        return ClassVerdict(idx, claim.role, True)
    return ClassVerdict(idx, claim.role, False, f"unknown role {claim.role!r}")


# ---------------------------------------------------------------------------
# JSON schema


def certificate_to_json(cert: DecompositionCertificate) -> dict:
    obj: dict = {
        "host": graph_to_json(cert.host),
        "classes": [
            {
                "role": c.role,
                **({"r": c.r} if c.r is not None else {}),
                "edges": [[a, b] for a, b in c.edges],
            }
            for c in cert.classes
        ],
    }
    if cert.parts is not None:
        obj["parts"] = [list(p) for p in cert.parts]
    return obj


def host_from_json(obj: Mapping) -> Multigraph:
    """Host given either as an explicit edge list or as kind + parameters."""
    if type(obj) is not dict:
        raise GraphUsageError(f"host must be a JSON object, got {obj!r}")
    if "edges" in obj:
        return graph_from_json(obj)
    kind = obj.get("kind")

    def count(key: str, default: int | None = None) -> int:
        x = json_int(obj[key] if default is None else obj.get(key, default))
        if x < 0:
            raise GraphUsageError(f"host {key}={x} is negative")
        return x

    if kind == "complete":
        return complete_graph(count("n"), count("lambda", 1))
    if kind == "two-class":
        return two_class_graph(*(count(key) for key in ("n", "m", "lambda", "mu")))
    if kind == "multipartite":
        return two_class_graph(count("n"), count("m"), 0, count("lambda", 1))
    raise GraphUsageError(f"unknown host kind {kind!r}")


def _json_str(x) -> str:
    """x itself if it is a JSON string; null, a number or a list raises."""
    if type(x) is not str:
        raise GraphUsageError(f"expected a JSON string, got {x!r}")
    return x


def certificate_from_json(obj: Mapping) -> DecompositionCertificate:
    try:
        host = host_from_json(obj["host"])
        classes = tuple(
            ClassClaim(
                role=_json_str(c["role"]),
                edges=json_pairs(c["edges"]),
                r=json_int(c["r"]) if "r" in c else None,
            )
            for c in obj["classes"]
        )
        parts = None
        if "parts" in obj and obj["parts"] is not None:
            parts = tuple(
                tuple([v if type(v) is int else json_int(v) for v in p]) for p in obj["parts"]
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise GraphUsageError(f"malformed certificate JSON: {exc}") from exc
    return DecompositionCertificate(host, classes, parts)
