"""In-memory span tracing of amalgam's layers, applied from outside.

The tracer never edits amalgam. It rebinds, for the length of a traced
pass, the module-level names through which one layer calls the next
(``feasible_circulation`` as imported by ``amalgam.detachment``, ``detach``
as imported by ``amalgam.constructions``, ...) to wrappers that record a
span, and restores the originals afterwards. Each module that imports a
layer function by name gets its own wrapper, so a span knows which module
it was called through.

A span is (name, caller module, start, end, parent, request). A layer's
self time is its spans' duration minus the part covered by child spans;
``account`` sums self times per layer. The benchmark's own time is the
layer ``bench``, so the layers' self times should add up to the traced
wall time of the pass; ``run.py`` checks that they do.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass

BUILDERS = (
    "ham_decompose_complete",
    "factorize_complete",
    "ham_decompose_multipartite",
    "factorize_multipartite",
    "ham_decompose_two_class",
    "ham_plus_one_factor_two_class",
    "decompose_two_class",
    "embed_complete_paths",
    "embed_factorization",
)


def _circulation_size(args, kwargs, result):
    arcs = kwargs["arcs"] if "arcs" in kwargs else args[1]
    return len(arcs), result is not None


def _certify_size(args, kwargs, result):
    cert = kwargs["cert"] if "cert" in kwargs else args[0]
    return cert.host.edge_count, result.passed


def _verify_outcome(args, kwargs, result):
    return 0, result.all_passed


# attribute name -> (span name, size/outcome probe or None)
ENTRY_POINTS = {
    "feasible_circulation": ("flows.circulation", _circulation_size),
    "edge_component_count": ("detachment.component", None),
    "verify_detachment": ("detachment.verify", _verify_outcome),
    "detach": ("detachment.detach", None),
    "_detach_once": ("detachment.attempt", None),  # one construction attempt
    "evenly_equitable_coloring": ("coloring.even", None),
    "walecki_direct": ("constructions.walecki", None),
    "certify": ("certify.certify", _certify_size),
    **{name: ("constructions.builder", None) for name in BUILDERS},
    "run": ("cli.run", None),  # only amalgam.cli defines a ``run``
}


@dataclass
class Span:
    name: str
    caller: str  # module whose binding was called, or "bench"
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    request: int  # request index within the pass, -1 outside requests
    size: int = 0  # arcs per circulation, host edges per certify
    ok: bool = True  # False: circulation rejected / verify or certify failed


class Tracer:
    """Collects spans in memory; one tracer per traced pass."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.request = -1
        self.missing: list[str] = []

    def open(self, name: str, caller: str = "bench") -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, caller, 0.0, 0.0, parent, self.request))
        self._stack.append(idx)
        self.spans[idx].start = time.perf_counter()
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        if self._stack.pop() != idx:
            raise RuntimeError(f"span {self.spans[idx].name} closed out of order")

    def wrap(self, fn, name: str, caller: str, probe):
        def traced(*args, **kwargs):
            idx = self.open(name, caller)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if probe is not None:
                span = self.spans[idx]
                span.size, span.ok = probe(args, kwargs, result)
            return result

        return traced

    def install(self) -> list[tuple[object, str, object]]:
        """Wrap every entry-point binding in the loaded amalgam modules.

        Returns the originals for ``uninstall``. Entry points that no
        module binds any more are listed in ``self.missing``.
        """
        saved = []
        found = set()
        modules = sorted(
            (name, mod) for name, mod in sys.modules.items()
            if mod is not None and (name == "amalgam" or name.startswith("amalgam."))
        )
        for mod_name, mod in modules:
            caller = mod_name.rpartition(".")[2]
            for attr, (span_name, probe) in ENTRY_POINTS.items():
                fn = getattr(mod, attr, None)
                if not callable(fn) or isinstance(fn, type):
                    continue
                found.add(attr)
                saved.append((mod, attr, fn))
                setattr(mod, attr, self.wrap(fn, span_name, caller, probe))
        self.missing = sorted(set(ENTRY_POINTS) - found)
        return saved

    @staticmethod
    def uninstall(saved) -> None:
        for mod, attr, fn in reversed(saved):
            setattr(mod, attr, fn)


class NullTracer:
    """Stand-in for untraced passes: the benchmark's own spans cost nothing."""

    request = -1

    def open(self, name: str, caller: str = "bench") -> int:
        return -1

    def close(self, idx: int) -> None:
        pass


# Layers whose self times partition the traced wall time of a pass.
LAYERS = (
    "bench",
    "cli",
    "constructions",
    "constructions.walecki",
    "coloring",
    "detachment.search",
    "detachment.component",
    "detachment.verify",
    "flows.circulation",
    "certify",
    "certify.json",
)
_LAYER_OF = {
    "bench.pass": "bench",
    "bench.request": "bench",
    "cli.run": "cli",
    "constructions.builder": "constructions",
    "constructions.walecki": "constructions.walecki",
    "coloring.even": "coloring",
    "detachment.detach": "detachment.search",
    "detachment.attempt": "detachment.search",
    "detachment.component": "detachment.component",
    "detachment.verify": "detachment.verify",
    "flows.circulation": "flows.circulation",
    "certify.certify": "certify",
    "certify.json": "certify.json",
}


@dataclass
class Accounting:
    wall: float  # duration of the root pass span
    self_time: dict[str, float]  # layer -> summed self time
    inclusive: dict[str, float]  # span name -> summed duration (outermost only)
    calls: dict[str, int]  # span name -> number of spans
    rejected: dict[str, int]  # span name -> spans with ok False
    sizes: dict[str, int]  # span name -> summed size
    by_caller: dict[str, dict[str, list]]  # layer -> caller -> [calls, self s]


def account(tracer: Tracer) -> Accounting:
    """Self time per layer, counts per span name, caller coverage per layer."""
    spans = tracer.spans
    if not spans or spans[0].parent != -1 or spans[0].name != "bench.pass":
        raise RuntimeError("traced pass has no root span")
    child_time = [0.0] * len(spans)
    for span in spans[1:]:
        if span.parent < 0:
            raise RuntimeError(f"span {span.name} escaped the pass span")
        child_time[span.parent] += span.end - span.start
    self_time = {layer: 0.0 for layer in LAYERS}
    inclusive: dict[str, float] = {}
    calls: dict[str, int] = {}
    rejected: dict[str, int] = {}
    sizes: dict[str, int] = {}
    by_caller: dict[str, dict[str, list]] = {layer: {} for layer in LAYERS}
    for i, span in enumerate(spans):
        if span.name not in _LAYER_OF:
            raise RuntimeError(f"span {span.name} belongs to no layer")
        parent = spans[span.parent] if span.parent >= 0 else None
        layer = _LAYER_OF[span.name]
        # component counts inside the verifier are the verifier's work
        if layer == "detachment.component" and _inside(spans, i, "detachment.verify"):
            layer = "detachment.verify"
        own = span.end - span.start - child_time[i]
        self_time[layer] += own
        calls[span.name] = calls.get(span.name, 0) + 1
        rejected[span.name] = rejected.get(span.name, 0) + (not span.ok)
        sizes[span.name] = sizes.get(span.name, 0) + span.size
        if not _inside(spans, i, span.name):
            inclusive[span.name] = inclusive.get(span.name, 0.0) + span.end - span.start
        if span.name == "flows.circulation":
            caller = span.caller
        else:
            caller = parent.name if parent is not None else "-"
        entry = by_caller[layer].setdefault(caller, [0, 0.0])
        entry[0] += 1
        entry[1] += own
    wall = spans[0].end - spans[0].start
    return Accounting(wall, self_time, inclusive, calls, rejected, sizes, by_caller)


def _inside(spans: list[Span], i: int, name: str) -> bool:
    """Does span i have an ancestor called ``name``?"""
    p = spans[i].parent
    while p >= 0:
        if spans[p].name == name:
            return True
        p = spans[p].parent
    return False
