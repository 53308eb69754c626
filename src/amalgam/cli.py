"""Command-line front end: construct, color, detach, verify, sweep.

Exit codes: 0 success/certified, 2 infeasible or failed verification,
1 internal or detachment error, 64 usage error. Nothing is random, so
one argv always prints the same bytes: JSON is emitted with sorted keys,
DOT in a fixed order. The one exception is ``sweep``: each certified
row's ``seconds`` is the wall-clock time of its build.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from itertools import chain

from .certify import (
    DecompositionCertificate,
    certificate_from_json,
    certificate_to_json,
    certify,
)
from .coloring import ColoringContractError, bee_coloring, evenly_equitable_coloring
from .constructions import (
    InfeasibleError,
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
    json_int,
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
    _write_text(_json_text(obj) + "\n", out)


def _json_text(obj, pad: str = "\n") -> str:
    """``json.dumps(obj, sort_keys=True, indent=2)``, byte for byte, at C speed.

    ``pad`` is the newline and indent of ``obj``'s own line. A list of ints
    or of int pairs, the bulk of every certificate and coloring, is one
    compact C-encoded dump re-indented by ``str.replace``; anything else
    that is not a list or a dict with string keys goes to ``json.dumps``
    whole. The recursion is as deep as ``obj`` is nested: at most five
    calls for the fixed shapes of the objects the CLI writes.
    """
    inner = pad + "  "
    if isinstance(obj, (list, tuple)) and obj:
        text = _json_flat_list(obj, pad)
        if text is None:
            text = "[" + inner + ("," + inner).join([_json_text(x, inner) for x in obj]) + pad + "]"
        return text
    if isinstance(obj, dict) and obj and all(isinstance(key, str) for key in obj):
        items = [f"{json.dumps(k)}: {_json_text(v, inner)}" for k, v in sorted(obj.items())]
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    # scalars, empty containers, and dicts whose keys json sorts before making them strings
    return json.dumps(obj, sort_keys=True, indent=2).replace("\n", pad)


def _json_flat_list(items, pad: str) -> str | None:
    """A list of ints or of int pairs from one compact dump; None for any other list."""
    inner = pad + "  "
    kinds = set(map(type, items))
    if kinds == {int}:
        text = json.dumps(items, separators=(",", ":"))
        return "[" + inner + text[1:-1].replace(",", "," + inner) + pad + "]"
    if not kinds <= {list, tuple} or set(map(len, items)) != {2}:
        return None
    if set(map(type, chain.from_iterable(items))) != {int}:
        return None
    deep = inner + "  "
    text = json.dumps(items, separators=(",", ":"))
    body = text[2:-2].replace(",", "," + deep).replace(f"],{deep}[", f"{inner}],{inner}[{deep}")
    return f"[{inner}[{deep}{body}{inner}]{pad}]"


def _write_text(text: str, out: str | None) -> None:
    if out:
        try:
            with open(out, "w") as f:
                f.write(text)
        except OSError as exc:
            raise _UsageError(f"cannot write {out}: {exc}") from exc
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


def _parse_ints(text: str, what: str = "factor degree list") -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise _UsageError(f"bad {what} {text!r}") from exc


@functools.cache  # one parser per process; parsing never changes it
def build_parser() -> _Parser:
    parser = _Parser(prog="amalgam", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    dec = sub.add_parser("decompose", help="build a certified decomposition")
    dec.set_defaults(func=_cmd_decompose)
    dsub = dec.add_subparsers(dest="target", required=True)

    def common(p):
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
    p.set_defaults(func=_cmd_color)
    p.add_argument("graph", help="graph JSON file")
    p.add_argument("--mode", choices=["bee", "even"], required=True)
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--left", default=None, help="comma-separated left side (bee mode)")
    p.add_argument("--out", default=None)

    p = sub.add_parser("detach", help="split a colored graph per a multiplicity map")
    p.set_defaults(func=_cmd_detach)
    p.add_argument("input", help="JSON file with graph + coloring")
    p.add_argument("--eta", required=True, help="JSON file: per-vertex split counts")
    p.add_argument("--out", default=None)

    p = sub.add_parser("verify", help="check a decomposition certificate")
    p.set_defaults(func=_cmd_verify)
    p.add_argument("certificate", help="certificate JSON file")
    p.add_argument("--out", default=None)

    p = sub.add_parser("sweep", help="two-multiplicity grid: build and certify every cell")
    p.set_defaults(func=_cmd_sweep)
    p.add_argument("--n-max", type=int, default=4)
    p.add_argument("--m-max", type=int, default=4)
    p.add_argument("--lambda-max", dest="lam_max", type=int, default=3)
    p.add_argument("--mu-max", type=int, default=3)
    p.add_argument("--out", default=None)
    return parser


def _cmd_decompose(args) -> int:
    if args.target == "complete":
        cert = ham_decompose_complete(args.n, args.lam)
    elif args.target == "multipartite":
        cert = ham_decompose_multipartite(args.n, args.m, args.lam, fair=args.fair)
    elif args.target == "two-class":
        cert = decompose_two_class(args.n, args.m, args.lam, args.mu)
    elif args.target == "factorize":
        r = _parse_ints(args.r)
        if args.m != 1:  # factorize_multipartite reports m < 1
            cert = factorize_multipartite(args.n, args.m, args.lam, r)
        else:
            cert = factorize_complete(args.n, args.lam, r)
    else:  # embed
        obj = _load_json(args.base)
        try:
            base = graph_from_json(obj["graph"])
            coloring = coloring_from_json(obj["coloring"])
        except (KeyError, TypeError, GraphUsageError) as exc:
            raise _UsageError(f"malformed base file: {exc}") from exc
        if args.r is not None:
            cert = embed_factorization(base, coloring, args.n, _parse_ints(args.r))
        else:
            cert = embed_complete_paths(base, coloring, args.n)
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
        left = set(_parse_ints(args.left, "vertex list")) if args.left else set()
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
        if type(eta) is not list:
            raise GraphUsageError(f"eta must be a JSON list, got {eta!r}")
        eta = [json_int(x) for x in eta]
    except (KeyError, TypeError, ValueError, GraphUsageError) as exc:
        raise _UsageError(f"malformed input: {exc}") from exc
    result = detach(g, coloring, eta)
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
    cert = certificate_from_json(_load_json(args.certificate))
    report = certify(cert)
    _dump(report.to_json(), args.out)
    return EXIT_OK if report.passed else EXIT_INFEASIBLE


def _cmd_sweep(args) -> int:
    rows = []
    for n in range(1, args.n_max + 1):
        for m in range(2, args.m_max + 1):
            for lam in range(0, args.lam_max + 1):
                for mu in range(1, args.mu_max + 1):
                    if lam == mu:
                        continue
                    row = {"n": n, "m": m, "lambda": lam, "mu": mu}
                    rows.append(row)
                    t0 = time.perf_counter()
                    try:
                        cert = decompose_two_class(n, m, lam, mu)
                    except InfeasibleError as exc:
                        row.update(status="infeasible", violations=exc.report.violations)
                        continue
                    row.update(
                        status="certified",
                        classes=len(cert.classes),
                        seconds=round(time.perf_counter() - t0, 3),
                    )
    _dump({"cells": rows}, args.out)
    return EXIT_OK


def run(argv) -> int:
    try:
        args = build_parser().parse_args(argv)
        try:
            return args.func(args)
        except InfeasibleError as exc:
            # written where the result would have gone; a failed write is a usage error below
            _dump(exc.report.to_json(), getattr(args, "out", None))
            return EXIT_INFEASIBLE
    except (_UsageError, GraphUsageError, ColoringContractError, DetachmentContractError) as exc:
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
