"""Spans recorded from outside planwright, and the per-layer metrics they give.

The pipeline calls each stage through a module global (``planwright.plan``
looks up ``layout_rooms``, ``plan_corridor`` and the rest by name at call
time, and ``planwright.corridor`` does the same for ``route`` and
``enumerate_candidates``). A traced run swaps those globals for timing
wrappers and puts the originals back afterwards, so the package itself is
never edited and an untraced run pays nothing.

A span is ``[name, start_ns, end_ns, parent, op, error, extra]``: ``parent``
is the index of the enclosing span (-1 at the top), ``op`` the benchmark op
that caused it, ``error`` the exception class name when the call raised, and
``extra`` a small summary of the return value for the few calls whose output
is a count (the corridor candidates).
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns

from measure import ratio

# Module -> names the traced run wraps in it, and the layer each belongs to.
TRACED = {
    "planwright.plan": (
        "sample_counts",
        "assign_functions",
        "sample_areas",
        "derive_footprint",
        "build_hierarchy",
        "layout_rooms",
        "plan_corridor",
        "build_connection_graph",
        "place_doors",
        "place_windows",
        "validate",
        "generate",
        "to_json",
        "to_svg",
        "from_json",
    ),
    "planwright.corridor": ("route", "enumerate_candidates"),
}

LAYER = {
    "sample_counts": "sampling",
    "assign_functions": "sampling",
    "sample_areas": "sampling",
    "derive_footprint": "sampling",
    "build_hierarchy": "hierarchy",
    "layout_rooms": "treemap",
    "plan_corridor": "corridor",
    "route": "corridor",
    "enumerate_candidates": "corridor",
    "build_connection_graph": "openings",
    "place_doors": "openings",
    "place_windows": "openings",
    "validate": "openings",
    "generate": "plan",
    "to_json": "plan",
    "to_svg": "plan",
    "from_json": "plan",
}

SAMPLING = ("sample_counts", "assign_functions", "sample_areas", "derive_footprint")


def _summarize_candidates(candidates) -> tuple[int, int]:
    return len(candidates), sum(1 for c in candidates if c.valid)


SUMMARIZE = {"enumerate_candidates": _summarize_candidates}

NAME, START, END, PARENT, OP, ERROR, EXTRA = range(7)


class Tracer:
    """Collects spans in memory; one instance per traced run."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        summarize = SUMMARIZE.get(name)

        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, self.op, None, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[ERROR] = type(exc).__name__
                raise
            finally:
                span[END] = perf_counter_ns()
                stack.pop()
            if summarize is not None:
                span[EXTRA] = summarize(result)
            return result

        return traced

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {"fields": ["name", "start_ns", "end_ns", "parent", "op", "error", "extra"],
               "spans": self.spans}
        path.write_text(json.dumps(doc, separators=(",", ":")) + "\n")


@contextmanager
def installed(tracer: Tracer, targets: dict):
    """Swap each ``targets`` module's named globals for traced wrappers.

    ``targets`` maps a module object to the names to wrap in it. The
    originals are restored on exit, also when the body raises.
    """
    saved = []
    try:
        for module, names in targets.items():
            for name in names:
                original = getattr(module, name)
                saved.append((module, name, original))
                setattr(module, name, tracer.wrap(name, original))
        yield tracer
    finally:
        for module, name, original in reversed(saved):
            setattr(module, name, original)


def self_times(spans: list[list]) -> list[int]:
    """Each span's duration minus the time its direct children cover.

    Children of one span run one after another on a single thread, so the
    part of the parent interval they cover is the sum of their durations.
    """
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def layer_metrics(spans: list[list], ops: int, wall_ns: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced run of ``ops`` ops taking ``wall_ns``.

    Times are milliseconds per op (self time unless named otherwise); counts
    are totals over the run; ratios carry their base in the metric name.
    """
    own = self_times(spans)
    calls: dict[str, int] = {}
    errors: dict[str, int] = {}
    busy: dict[str, int] = {}
    failed_corridor_ns = 0
    candidates = valid = 0
    for span, self_ns in zip(spans, own):
        name = span[NAME]
        calls[name] = calls.get(name, 0) + 1
        busy[name] = busy.get(name, 0) + self_ns
        if span[ERROR] is not None:
            errors[name] = errors.get(name, 0) + 1
            if name == "plan_corridor":
                failed_corridor_ns += span[END] - span[START]
        if span[EXTRA] is not None:
            candidates += span[EXTRA][0]
            valid += span[EXTRA][1]

    def n(name: str) -> int:
        return calls.get(name, 0)

    def ms(*names: str) -> float:
        return sum(busy.get(x, 0) for x in names) / 1e6 / max(ops, 1)

    def pct(*layers: str) -> float:
        total = sum(b for x, b in busy.items() if LAYER[x] in layers)
        return 100.0 * total / wall_ns if wall_ns else 0.0

    corridor_names = ("plan_corridor", "route", "enumerate_candidates")
    opening_names = ("build_connection_graph", "place_doors", "place_windows", "validate")
    attempts = n("sample_counts")
    out = {
        "sampling.calls": (sum(n(x) for x in SAMPLING), "count"),
        "sampling.busy_ms": (ms(*SAMPLING), "ms/op"),
        "sampling.errors": (sum(errors.get(x, 0) for x in SAMPLING), "count"),
        "hierarchy.busy_ms": (ms("build_hierarchy"), "ms/op"),
        "treemap.calls": (n("layout_rooms"), "count"),
        "treemap.busy_ms": (ms("layout_rooms"), "ms/op"),
        "treemap.pass_ratio": (ratio(n("plan_corridor"), n("layout_rooms")), "ratio"),
        "corridor.calls": (n("plan_corridor"), "count"),
        "corridor.busy_ms": (ms(*corridor_names), "ms/op"),
        "corridor.errors": (errors.get("plan_corridor", 0), "count"),
        "corridor.pass_ratio": (
            ratio(n("plan_corridor") - errors.get("plan_corridor", 0), n("plan_corridor")),
            "ratio",
        ),
        "corridor.failed_busy_ms": (failed_corridor_ns / 1e6 / max(ops, 1), "ms/op"),
        "corridor.route_busy_ms": (ms("route"), "ms/op"),
        "corridor.enumerate_busy_ms": (ms("enumerate_candidates"), "ms/op"),
        "corridor.candidates": (candidates, "count"),
        "corridor.valid_ratio": (ratio(valid, candidates), "ratio"),
        "openings.busy_ms": (ms(*opening_names), "ms/op"),
        "openings.graph_busy_ms": (ms("build_connection_graph"), "ms/op"),
        "openings.doors_busy_ms": (ms("place_doors"), "ms/op"),
        "openings.windows_busy_ms": (ms("place_windows"), "ms/op"),
        "openings.validate_calls": (n("validate"), "count"),
        "openings.validate_busy_ms": (ms("validate"), "ms/op"),
        "plan.attempts_per_op": (ratio(attempts, n("generate")), "attempts/op"),
        "plan.gave_up_ratio": (ratio(errors.get("generate", 0), n("generate")), "ratio"),
        "plan.self_ms": (ms("generate"), "ms/op"),
        "plan.to_json_busy_ms": (ms("to_json"), "ms/op"),
        "plan.to_svg_busy_ms": (ms("to_svg"), "ms/op"),
        "plan.from_json_busy_ms": (ms("from_json"), "ms/op"),
        "share.front_pct": (pct("sampling", "hierarchy", "treemap"), "%"),
        "share.corridor_pct": (pct("corridor"), "%"),
        "share.openings_pct": (pct("openings"), "%"),
        "share.plan_pct": (pct("plan"), "%"),
        "share.covered_pct": (100.0 * sum(own) / wall_ns if wall_ns else 0.0, "%"),
    }
    return out
