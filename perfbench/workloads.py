"""The two workloads: their requests and the check on every output.

A workload is a fixed list of requests which every pass runs again. It is
made of request sets: ``split-search`` of the complete ladder and the
random detachments, ``grid-and-verify`` of the two-class grid and the
large verifications. The seed fixes the order of the whole list (and, in
the large verifications, a vertex relabelling).

A request is a call into amalgam's public API or ``amalgam.cli.run`` plus a
check of what came back. The check returns (ok, sha256 of the output's
sorted-key JSON); the hash feeds the determinism guard in ``run.py``.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import sys
from dataclasses import dataclass
from typing import Callable

import detach_gen

INFEASIBLE_EXIT = 2  # amalgam.cli's exit code for an infeasible request


@dataclass
class Request:
    rid: str  # stable name: equal rids must give equal output hashes
    call: Callable[[object], object]  # (tracer) -> output
    check: Callable[[object, object], tuple[bool, str]]  # (output, tracer)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _round_trip(api, cert, tracer):
    """Certificate -> JSON text -> certificate, as a user would store it."""
    span = tracer.open("certify.json")
    try:
        text = _canonical(api.certificate_to_json(cert))
        back = api.certificate_from_json(json.loads(text))
    finally:
        tracer.close(span)
    return text, back


class CompleteLadder:
    """Builders whose whole cost is splitting one all-loop fused vertex."""

    def __init__(self, api, smoke: bool):
        self.api = api
        sizes = (7, 8) if smoke else (21, 22, 25)
        r = (2, 2, 3) if smoke else (4, 4, 5, 6)  # factor degrees sum to n-1
        fact_n = sum(r) + 1
        self.requests = [
            Request(f"ham_decompose_complete({n},1)", self._ham(n), self._check)
            for n in sizes
        ]
        self.requests.append(
            Request(f"factorize_complete({fact_n},1,{r})", self._fact(fact_n, r), self._check)
        )

    def _ham(self, n):
        return lambda tracer: self.api.ham_decompose_complete(n, 1)

    def _fact(self, n, r):
        return lambda tracer: self.api.factorize_complete(n, 1, r)

    def _check(self, cert, tracer):
        text, back = _round_trip(self.api, cert, tracer)
        return self.api.certify(back).passed, _digest(text)


class TwoClassGrid:
    """The default ``sweep`` grid plus fair multipartite cells, via the CLI."""

    def __init__(self, api, smoke: bool, out_path: str):
        self.api = api
        self.cli = sys.modules["amalgam.cli"]
        self.out = out_path
        n_max, m_max, lam_max, mu_max = (2, 3, 2, 2) if smoke else (4, 4, 3, 3)
        cells = []
        for n in range(1, n_max + 1):
            for m in range(2, m_max + 1):
                for lam in range(0, lam_max + 1):
                    for mu in range(1, mu_max + 1):
                        if lam != mu:
                            cells.append(("two-class", n, m, lam, mu))
                for lam in range(0, mu_max + 1):
                    cells.append(("multipartite", n, m, lam, None))
        self.requests = [self._request(*cell) for cell in cells]

    def _request(self, kind, n, m, lam, mu):
        argv = ["decompose", kind, "--n", str(n), "--m", str(m), "--lambda", str(lam)]
        if kind == "two-class":
            argv += ["--mu", str(mu)]
            req = self.api.DecompositionRequest("two-class", n=n, m=m, lam=lam, mu=mu)
        else:
            argv += ["--fair"]
            req = self.api.DecompositionRequest("multipartite", n=n, m=m, lam=lam, fair=True)

        def call(tracer):
            if os.path.exists(self.out):
                os.remove(self.out)
            return self.cli.run(argv + ["--out", self.out])

        def check(code, tracer):
            expected = self.api.check_feasibility(req)
            if code == INFEASIBLE_EXIT:
                with open(self.out) as f:
                    report = json.load(f)
                ok = not expected.feasible and report["violations"] == expected.violations
                return ok, _digest(_canonical(report))
            if code != 0 or not expected.feasible:
                return False, ""
            span = tracer.open("certify.json")
            try:
                with open(self.out) as f:
                    obj = json.load(f)
                cert = self.api.certificate_from_json(obj)
            finally:
                tracer.close(span)
            return self.api.certify(cert).passed, _digest(_canonical(obj))

        return Request(" ".join(argv), call, check)


class RandomDetach:
    """Random colored fused graphs straight into ``detach``.

    The instances come from ``detach_gen`` with a fixed pool seed; the
    workload seed only orders them among the other requests. ``detach``'s cost on these graphs
    depends so much on the draw (and on vertex labels) that pools drawn
    from different seeds differ by 30-100% in total time, which would
    swamp any change a later commit makes. ``detach``'s own ``seed``
    argument only reshuffles retries (attempt > 0), so it stays at its
    default.
    """

    POOL_SEED = 0

    def __init__(self, api, smoke: bool):
        self.api = api
        shape = detach_gen.TOY if smoke else detach_gen.FULL
        rng = random.Random(self.POOL_SEED)
        self.requests = [
            self._request(f"instance {i}", *detach_gen.instance(rng, shape))
            for i in range(4 if smoke else 100)
        ]

    def _request(self, rid, nv, edges, k, colors, eta):
        api = self.api
        h = api.Multigraph(nv, edges)
        coloring = api.EdgeColoring(k, colors)

        def check(result, tracer):
            report = api.verify_detachment(h, coloring, result)
            text = _canonical({
                "graph": api.graph_to_json(result.g),
                "coloring": api.coloring_to_json(result.coloring),
                "phi": list(result.spec.phi),
                "labels": {str(u): sorted(vs) for u, vs in result.labels.items()},
            })
            return report.all_passed, _digest(text)

        return Request(rid, lambda tracer: api.detach(h, coloring, list(eta)), check)


class VerifyLarge:
    """The check path alone: direct construction, JSON, certify, verifier.

    ``walecki_direct(n, 1)`` builds K_n's decomposition without any search.
    Its certificate, with vertices relabelled by a seeded permutation, goes
    through JSON and ``certify``; then the decomposed K_n is fused to one
    vertex and ``verify_detachment`` re-checks it as a known-good
    n-detachment (sibling pairs x colors, so O(n^3)).
    """

    def __init__(self, api, seed: int, smoke: bool):
        self.api = api
        self.requests = []
        for n in (11, 12) if smoke else (101, 151, 201):
            perm = list(range(n))
            random.Random(seed * 1_000_003 + n).shuffle(perm)
            self.requests.append(Request(f"walecki_direct({n},1)", self._chain(n, perm), self._check))

    def _chain(self, n, perm):
        api = self.api

        def call(tracer):
            cert = api.walecki_direct(n, 1)
            classes = tuple(
                api.ClassClaim(c.role, tuple(
                    (min(perm[a], perm[b]), max(perm[a], perm[b])) for a, b in c.edges
                ), c.r)
                for c in cert.classes
            )
            text, back = _round_trip(api, api.DecompositionCertificate(cert.host, classes), tracer)
            certified = api.certify(back).passed
            edges = [e for c in back.classes for e in c.edges]
            colors = [j for j, c in enumerate(back.classes, 1) for _ in c.edges]
            g = api.Multigraph(n, tuple(edges))
            coloring = api.EdgeColoring(len(back.classes), tuple(colors))
            h, spec = api.amalgamate(g, [0] * n)
            result = api.DetachmentResult(g, coloring, spec, {0: list(range(n))})
            return text, certified, api.verify_detachment(h, coloring, result).all_passed

        return call

    @staticmethod
    def _check(output, tracer):
        text, certified, verified = output
        return certified and verified, _digest(text)


WORKLOADS = ("split-search", "grid-and-verify")


def make(name: str, api, seed: int, smoke: bool, out_dir: str) -> list[Request]:
    """The workload's requests, in an order drawn from ``seed``."""
    if name == "split-search":
        reqs = CompleteLadder(api, smoke).requests + RandomDetach(api, smoke).requests
    elif name == "grid-and-verify":
        out = os.path.join(out_dir, "cli-out.json")
        reqs = TwoClassGrid(api, smoke, out).requests + VerifyLarge(api, seed, smoke).requests
    else:
        raise ValueError(f"unknown workload {name!r}")
    random.Random(seed).shuffle(reqs)
    return reqs
