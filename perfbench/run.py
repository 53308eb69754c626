"""Time-to-certificate benchmark for amalgam.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a checkout: amalgam is imported from ``src/`` next to
this directory, never from an installed copy, and the run fails (exit 2,
no result line) when that source is missing. Everything happens in this
one single-threaded process.

``--trace 0`` repeats passes over the workload's requests with tracing off
for about ``--seconds`` seconds and reports the end-to-end metrics. Every
pass runs on a freshly imported amalgam, so no state a pass leaves in
amalgam's modules can serve the next one.
``--trace 1`` alternates untraced and traced passes over the same requests
and reports the per-layer metrics from the traced ones. ``--smoke``
shrinks every workload to toy sizes. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}; a summary
goes to standard error. A wrong output, an output hash that differs from
an earlier pass or run of the same source, per-layer counts that do not
repeat, or a tracing gap makes ``correct`` false and the exit code 1.

See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 15
SOURCE_MISSING_EXIT = 2


class SourceMissing(Exception):
    pass


def load_amalgam():
    """Import amalgam afresh from this checkout's ``src/``."""
    for name in [n for n in sys.modules if n == "amalgam" or n.startswith("amalgam.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        api = importlib.import_module("amalgam")
        importlib.import_module("amalgam.cli")
    except ImportError as exc:
        raise SourceMissing(f"cannot import amalgam from {SRC}: {exc}") from exc
    if Path(api.__file__).resolve().parent != SRC / "amalgam":
        raise SourceMissing(f"amalgam came from {api.__file__}, not from {SRC}")
    return api


def fresh_requests(name: str, seed: int, smoke: bool):
    """Import amalgam afresh and build the workload's request list."""
    return workloads.make(name, load_amalgam(), seed, smoke, str(OUT))


def setup(name: str, seed: int, smoke: bool):
    """Set up several times; return the last request list and the median time."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        reqs = fresh_requests(name, seed, smoke)
        times.append(time.perf_counter() - t0)
    return reqs, statistics.median(times)


@dataclass
class PassResult:
    wall: float
    latencies: list[float]
    failed: int
    hashes: dict[str, str]  # request id -> output digest, "failed" if wrong


def run_pass(reqs, tracer) -> PassResult:
    """Run every request once, time its call and check its output."""
    latencies = []
    hashes = {}
    start = time.perf_counter()
    root = tracer.open("bench.pass")
    for i, req in enumerate(reqs):
        tracer.request = i
        span = tracer.open("bench.request")
        t0 = time.perf_counter()
        digest = "failed"
        try:
            out = req.call(tracer)
            latencies.append(time.perf_counter() - t0)
            ok, text_digest = req.check(out, tracer)
            if ok:
                digest = text_digest
            else:
                print(f"FAILED {req.rid}: wrong output", file=sys.stderr)
        except Exception:  # counted as a failed request; the pass goes on
            latencies.append(time.perf_counter() - t0)
            print(f"FAILED {req.rid}:\n{traceback.format_exc()}", file=sys.stderr)
        tracer.close(span)
        hashes[req.rid] = digest
    tracer.close(root)
    wall = time.perf_counter() - start
    failed = sum(1 for d in hashes.values() if d == "failed")
    return PassResult(wall, latencies, failed, hashes)


def traced_pass(reqs):
    tracer = spans.Tracer()
    saved = tracer.install()
    try:
        result = run_pass(reqs, tracer)
    finally:
        tracer.uninstall(saved)
    return result, tracer


def layer_metrics(acc: spans.Accounting) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass: name -> (value, unit)."""
    calls, rejected, sizes = acc.calls, acc.rejected, acc.sizes
    circ_calls = calls.get("flows.circulation", 0)
    circ_rejected = rejected.get("flows.circulation", 0)
    m = {
        "flows.circulation.calls": (circ_calls, "count"),
        "flows.circulation.rejected": (circ_rejected, "count"),
        "flows.circulation.accept_ratio": (
            (circ_calls - circ_rejected) / circ_calls if circ_calls else 0.0, "1"),
        "flows.circulation.arcs": (sizes.get("flows.circulation", 0), "count"),
        "flows.circulation_s": (acc.self_time["flows.circulation"], "s"),
    }
    for caller in ("detachment", "coloring", "laminar"):
        n, t = acc.by_caller["flows.circulation"].get(caller, (0, 0.0))
        m[f"flows.circulation.{caller}.calls"] = (n, "count")
        m[f"flows.circulation.{caller}_s"] = (t, "s")
    component_checks = sum(n for n, _ in acc.by_caller["detachment.component"].values())
    m.update({
        "detachment.detach.calls": (calls.get("detachment.detach", 0), "count"),
        "detachment.attempts": (calls.get("detachment.attempt", 0), "count"),
        "detachment.detach_s": (acc.inclusive.get("detachment.detach", 0.0), "s"),
        "detachment.search_self_s": (acc.self_time["detachment.search"], "s"),
        "detachment.component_checks": (component_checks, "count"),
        "detachment.component_s": (acc.self_time["detachment.component"], "s"),
        "detachment.verify.calls": (calls.get("detachment.verify", 0), "count"),
        "detachment.verify.failed": (rejected.get("detachment.verify", 0), "count"),
        "detachment.verify_s": (acc.inclusive.get("detachment.verify", 0.0), "s"),
        "coloring.even.calls": (calls.get("coloring.even", 0), "count"),
        "coloring.even_s": (acc.inclusive.get("coloring.even", 0.0), "s"),
        "constructions.builder_calls": (calls.get("constructions.builder", 0), "count"),
        "constructions.self_s": (acc.self_time["constructions"], "s"),
        "constructions.walecki.calls": (calls.get("constructions.walecki", 0), "count"),
        "constructions.walecki_s": (acc.inclusive.get("constructions.walecki", 0.0), "s"),
        "certify.calls": (calls.get("certify.certify", 0), "count"),
        "certify.edges": (sizes.get("certify.certify", 0), "count"),
        "certify_s": (acc.self_time["certify"], "s"),
        "certify.json_s": (acc.self_time["certify.json"], "s"),
        "cli.requests": (calls.get("cli.run", 0), "count"),
        "cli.self_s": (acc.self_time["cli"], "s"),
        "bench.self_s": (acc.self_time["bench"], "s"),
        "trace.wall_s": (acc.wall, "s"),
    })
    return m


def source_fingerprint() -> str:
    """Hash of amalgam's source and of this benchmark's own code."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")) + sorted(HERE.glob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def guard_determinism(key: str, hashes: dict[str, str], counts: dict[str, int]) -> list[str]:
    """Compare output hashes and counts with earlier runs of the same source.

    Runs of one source must agree exactly. After a source change the old
    record is replaced: a new split order may legitimately change the
    certificates. Returns the ids that disagree.
    """
    path = OUT / "determinism" / f"{key}.json"
    source = source_fingerprint()
    record = {"source": source, "hashes": {}, "counts": {}}
    if path.exists():
        with open(path) as f:
            old = json.load(f)
        if old.get("source") == source:
            record = old
    bad = [rid for rid, d in hashes.items() if record["hashes"].get(rid, d) != d]
    bad += [name for name, c in counts.items() if record["counts"].get(name, c) != c]
    record["hashes"].update(hashes)
    record["counts"].update(counts)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    with open(tmp, "w") as f:
        json.dump(record, f, sort_keys=True)
    os.replace(tmp, path)
    return bad


def merge_hashes(passes: list[PassResult]) -> tuple[dict[str, str], list[str]]:
    """Union of the passes' hashes, and the ids whose passes disagree."""
    merged: dict[str, str] = {}
    bad = []
    for p in passes:
        for rid, d in p.hashes.items():
            if d == "failed":
                continue
            if merged.setdefault(rid, d) != d:
                bad.append(rid)
    return merged, bad


def percentile_90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def measure(new_requests, seconds: float) -> list[PassResult]:
    """Untraced passes until the next one would overrun ``seconds``."""
    null = spans.NullTracer()
    passes = []
    start = time.perf_counter()
    while True:
        reqs = new_requests()
        gc.collect()  # every pass starts from a collected heap
        passes.append(run_pass(reqs, null))
        typical = statistics.median(p.wall for p in passes)
        if time.perf_counter() - start + typical > seconds:
            return passes


def measure_traced(new_requests, seconds: float):
    """Alternate untraced and traced passes over the same requests."""
    null = spans.NullTracer()
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        reqs = new_requests()
        gc.collect()
        plain.append(run_pass(reqs, null))
        reqs = new_requests()
        gc.collect()
        result, tracer = traced_pass(reqs)
        traced.append((result, tracer))
        round_time = plain[-1].wall + result.wall
        if time.perf_counter() - start + round_time > seconds:
            return plain, traced


def write_trace_report(key, tracer, acc, metrics):
    """Spans of the first traced pass plus its caller coverage, as JSON."""
    OUT.mkdir(parents=True, exist_ok=True)
    report = {
        "metrics": {k: v for k, (v, _) in metrics.items()},
        "self_time_by_layer": acc.self_time,
        "callers_by_layer": acc.by_caller,
        "entry_points_not_found": tracer.missing,
        "spans": [
            [s.name, s.caller, s.start, s.end, s.parent, s.request, s.size, s.ok]
            for s in tracer.spans
        ],
    }
    path = OUT / f"trace-{key}.json"
    with open(path, "w") as f:
        json.dump(report, f)
    return path


def print_callers(acc: spans.Accounting) -> None:
    print("self time by layer, split by caller:", file=sys.stderr)
    for layer in spans.LAYERS:
        print(f"  {layer:24s} {acc.self_time[layer]:10.4f} s", file=sys.stderr)
        for caller, (n, t) in sorted(acc.by_caller[layer].items()):
            print(f"      {caller:30s} {n:8d} spans {t:10.4f} s", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="toy sizes, for tests")
    args = parser.parse_args(argv)

    OUT.mkdir(parents=True, exist_ok=True)  # the CLI requests write their output here
    try:
        reqs, setup_s = setup(args.workload, args.seed, args.smoke)
    except SourceMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return SOURCE_MISSING_EXIT
    key = f"{args.workload}-seed{args.seed}" + ("-smoke" if args.smoke else "")
    problems = []
    # warm-up, untimed: the same code paths at toy sizes
    if run_pass(workloads.make(args.workload, load_amalgam(), args.seed, True, str(OUT)),
                spans.NullTracer()).failed:
        problems.append("warm-up pass at toy sizes")

    def new_requests():
        return fresh_requests(args.workload, args.seed, args.smoke)

    if args.trace == 0:
        passes = measure(new_requests, args.seconds)
        # one sample per request: its median over the passes
        latencies = [statistics.median(ts) for ts in zip(*(p.latencies for p in passes))]
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (statistics.median(p.wall for p in passes), "s"),
            "request_p50_s": (statistics.median(latencies), "s"),
            "request_p90_s": (percentile_90(latencies), "s"),
            "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }
        counts: dict[str, int] = {}
        print(f"pass walls {[round(p.wall, 3) for p in passes]}", file=sys.stderr)
        print(f"wall_s over {len(passes)} passes; request percentiles over "
              f"{len(latencies)} requests, each the median of its {len(passes)} timings",
              file=sys.stderr)
    else:
        plain, traced = measure_traced(new_requests, args.seconds)
        passes = plain + [result for result, _ in traced]
        accs = [spans.account(tracer) for _, tracer in traced]
        per_pass = [layer_metrics(acc) for acc in accs]
        # counts come from the first traced pass and must repeat in the others
        metrics = {
            name: (value if unit == "count" else statistics.median(m[name][0] for m in per_pass), unit)
            for name, (value, unit) in per_pass[0].items()
        }
        plain_wall = statistics.median(p.wall for p in plain)
        metrics["trace.overhead_ratio"] = (metrics["trace.wall_s"][0] / plain_wall, "1")
        counts = {name: v for name, (v, unit) in per_pass[0].items() if unit == "count"}
        for m in per_pass[1:]:
            problems += [f"count {name} changed between traced passes"
                         for name, v in counts.items() if m[name][0] != v]
        # every moment of a traced pass must belong to some layer
        for (result, _), acc in zip(traced, accs):
            gap = result.wall - sum(acc.self_time.values())
            if abs(gap) > 0.01 * result.wall:
                problems.append(f"layer self times miss {gap:.6f} s of a {result.wall:.3f} s pass")
        path = write_trace_report(key, traced[0][1], accs[0], per_pass[0])
        print_callers(accs[0])
        print(f"{len(plain)} untraced and {len(traced)} traced passes of {len(reqs)} "
              f"requests; spans written to {path}", file=sys.stderr)
        if traced[0][1].missing:
            print(f"entry points not found: {traced[0][1].missing}", file=sys.stderr)

    attempted = sum(len(p.hashes) for p in passes)
    failed = sum(p.failed for p in passes)
    if args.trace == 1:
        metrics["fail_ratio"] = (failed / attempted, "1")
    hashes, unstable = merge_hashes(passes)
    problems += [f"output of {rid} changed between passes" for rid in unstable]
    problems += [f"{rid} differs from an earlier run of the same source"
                 for rid in guard_determinism(key, hashes, counts)]
    for problem in problems:
        print(f"FAILED {problem}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:14.6f} {unit}", file=sys.stderr)

    correct = failed == 0 and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
