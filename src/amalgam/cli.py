"""Command-line front end: construct, color, detach, verify, sweep.

Exit codes: 0 success/certified, 2 infeasible or failed verification,
1 internal or detachment error, 64 usage error. Output is deterministic for a fixed
(argv, seed): JSON is emitted with sorted keys, DOT in a fixed order.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .certify import (
    DecompositionCertificate,
    ROLE_R_FACTOR,
    certificate_from_json,
    certificate_to_json,
    certify,
)
from .coloring import ColoringContractError, bee_coloring, evenly_equitable_coloring
from .constructions import (
    DecompositionRequest,
    InfeasibleError,
    check_feasibility,
    decompose_two_class,
    embed_complete_paths,
    embed_factorization,
    factorize_complete,
    factorize_multipartite,
    ham_decompose_complete,
    ham_decompose_multipartite,
)
from .detachment import DetachmentContractError, DetachmentError, detach
from .multigraph import (
    GraphUsageError,
    coloring_from_json,
    coloring_to_json,
    graph_from_json,
    graph_to_json,
)

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_INFEASIBLE = 2
EXIT_USAGE = 64


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with 2; we reserve that
        raise _UsageError(message)


def _dump(obj, out: str | None) -> None:
    _write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n", out)


def _write_text(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


_DOT_PALETTE = [
    "red", "blue", "darkgreen", "orange", "purple", "brown",
    "magenta", "cadetblue", "olive", "black", "gray", "cyan4",
]


def certificate_to_dot(cert: DecompositionCertificate) -> str:
    """Static drawing: one pen color per class, vertices grouped by part."""
    lines = ["graph decomposition {", "  node [shape=circle];"]
    if cert.parts is not None:
        for p, members in enumerate(cert.parts):
            lines.append(f"  subgraph cluster_{p} {{")
            lines.append(f'    label="part {p}";')
            for v in sorted(members):
                lines.append(f"    v{v};")
            lines.append("  }")
    else:
        for v in range(cert.host.vertex_count):
            lines.append(f"  v{v};")
    for idx, claim in enumerate(cert.classes):
        color = _DOT_PALETTE[idx % len(_DOT_PALETTE)]
        for a, b in claim.edges:
            lines.append(f'  v{a} -- v{b} [color={color}, tooltip="class {idx + 1}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _load_json(path: str):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        raise _UsageError(f"cannot read {path}: {exc}") from exc


def _parse_r(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise _UsageError(f"bad factor degree list {text!r}") from exc


def build_parser() -> _Parser:
    parser = _Parser(prog="amalgam", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    dec = sub.add_parser("decompose", help="build a certified decomposition")
    dsub = dec.add_subparsers(dest="target", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None)
        p.add_argument("--format", choices=["json", "dot"], default="json")

    p = dsub.add_parser("complete")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--lambda", dest="lam", type=int, required=True)
    common(p)

    p = dsub.add_parser("multipartite")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--lambda", dest="lam", type=int, required=True)
    p.add_argument("--fair", action="store_true")
    common(p)

    p = dsub.add_parser("two-class")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--lambda", dest="lam", type=int, required=True)
    p.add_argument("--mu", type=int, required=True)
    common(p)

    p = dsub.add_parser("factorize")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, default=1, help="part count; 1 means a complete host")
    p.add_argument("--lambda", dest="lam", type=int, required=True)
    p.add_argument("--r", required=True, help="comma-separated factor degrees")
    common(p)

    p = dsub.add_parser("embed")
    p.add_argument("--base", required=True, help="JSON file with base graph + coloring")
    p.add_argument("--n", type=int, required=True, help="number of vertices to add")
    p.add_argument("--r", default=None, help="factor degrees; omitted means Hamiltonian")
    common(p)

    p = sub.add_parser("color", help="edge-color a graph from JSON")
    p.add_argument("graph", help="graph JSON file")
    p.add_argument("--mode", choices=["bee", "even"], required=True)
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--left", default=None, help="comma-separated left side (bee mode)")
    p.add_argument("--out", default=None)

    p = sub.add_parser("detach", help="split a colored graph per a multiplicity map")
    p.add_argument("input", help="JSON file with graph + coloring")
    p.add_argument("--eta", required=True, help="JSON file: per-vertex split counts")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)

    p = sub.add_parser("verify", help="check a decomposition certificate")
    p.add_argument("certificate", help="certificate JSON file")
    p.add_argument("--out", default=None)

    p = sub.add_parser("sweep", help="two-multiplicity grid: build and certify every cell")
    p.add_argument("--n-max", type=int, default=4)
    p.add_argument("--m-max", type=int, default=4)
    p.add_argument("--lambda-max", dest="lam_max", type=int, default=3)
    p.add_argument("--mu-max", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    return parser


def _cmd_decompose(args) -> int:
    if args.target == "complete":
        cert = ham_decompose_complete(args.n, args.lam, seed=args.seed)
    elif args.target == "multipartite":
        cert = ham_decompose_multipartite(
            args.n, args.m, args.lam, fair=args.fair, seed=args.seed
        )
    elif args.target == "two-class":
        cert = decompose_two_class(args.n, args.m, args.lam, args.mu, seed=args.seed)
    elif args.target == "factorize":
        r = _parse_r(args.r)
        if args.m > 1:
            cert = factorize_multipartite(args.n, args.m, args.lam, r, seed=args.seed)
        else:
            cert = factorize_complete(args.n, args.lam, r, seed=args.seed)
    else:  # embed
        obj = _load_json(args.base)
        try:
            base = graph_from_json(obj["graph"])
            coloring = coloring_from_json(obj["coloring"])
        except (KeyError, TypeError, GraphUsageError) as exc:
            raise _UsageError(f"malformed base file: {exc}") from exc
        if args.r is not None:
            cert = embed_factorization(
                base, coloring, args.n, _parse_r(args.r), seed=args.seed
            )
        else:
            cert = embed_complete_paths(base, coloring, args.n, seed=args.seed)
    if args.format == "dot":
        _write_text(certificate_to_dot(cert), args.out)
    else:
        _dump(certificate_to_json(cert), args.out)
    return EXIT_OK


def _cmd_color(args) -> int:
    g = graph_from_json(_load_json(args.graph))
    if args.mode == "bee":
        if args.left is None:
            raise _UsageError("bee mode requires --left")
        left = {int(v) for v in args.left.split(",")} if args.left else set()
        coloring = bee_coloring(g, left, args.k)
    else:
        coloring = evenly_equitable_coloring(g, args.k)
    _dump(coloring_to_json(coloring), args.out)
    return EXIT_OK


def _cmd_detach(args) -> int:
    obj = _load_json(args.input)
    eta = _load_json(args.eta)
    try:
        g = graph_from_json(obj["graph"])
        coloring = coloring_from_json(obj["coloring"])
        eta = [int(x) for x in eta]
    except (KeyError, TypeError, ValueError, GraphUsageError) as exc:
        raise _UsageError(f"malformed input: {exc}") from exc
    result = detach(g, coloring, eta, seed=args.seed)
    _dump(
        {
            "graph": graph_to_json(result.g),
            "coloring": coloring_to_json(result.coloring),
            "phi": list(result.spec.phi),
            "labels": {str(u): sorted(vs) for u, vs in result.labels.items()},
        },
        args.out,
    )
    return EXIT_OK


def _cmd_verify(args) -> int:
    try:
        cert = certificate_from_json(_load_json(args.certificate))
    except GraphUsageError as exc:
        raise _UsageError(str(exc)) from exc
    report = certify(cert)
    _dump(report.to_json(), args.out)
    return EXIT_OK if report.passed else EXIT_INFEASIBLE


def _cmd_sweep(args) -> int:
    rows = []
    cell = 0
    for n in range(1, args.n_max + 1):
        for m in range(2, args.m_max + 1):
            for lam in range(0, args.lam_max + 1):
                for mu in range(1, args.mu_max + 1):
                    if lam == mu:
                        continue
                    cell += 1
                    req = DecompositionRequest("two-class", n=n, m=m, lam=lam, mu=mu)
                    report = check_feasibility(req)
                    row = {"n": n, "m": m, "lambda": lam, "mu": mu}
                    if not report.feasible:
                        row.update(status="infeasible", violations=report.violations)
                        rows.append(row)
                        continue
                    t0 = time.perf_counter()
                    try:
                        cert = decompose_two_class(n, m, lam, mu, seed=args.seed + cell)
                    except InfeasibleError as exc:
                        row.update(status="infeasible", violations=exc.report.violations)
                        rows.append(row)
                        continue
                    row.update(
                        status="certified",
                        classes=len(cert.classes),
                        seconds=round(time.perf_counter() - t0, 3),
                    )
                    rows.append(row)
    _dump({"cells": rows}, args.out)
    return EXIT_OK


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        if args.command == "decompose":
            return _cmd_decompose(args)
        if args.command == "color":
            return _cmd_color(args)
        if args.command == "detach":
            return _cmd_detach(args)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        return EXIT_USAGE
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InfeasibleError as exc:
        _dump(exc.report.to_json(), getattr(args, "out", None))
        return EXIT_INFEASIBLE
    except (GraphUsageError, ColoringContractError, DetachmentContractError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DetachmentError as exc:
        print(f"error: {exc}", file=sys.stderr)  # names the vertex, split and color
        return EXIT_INTERNAL
    except RuntimeError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
