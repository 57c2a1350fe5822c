"""In-memory spans and counters, self times, and the per-layer metrics.

A span is (name, start, end, parent, input id), with times in integer
nanoseconds from ``time.perf_counter_ns`` (CLOCK_MONOTONIC on Linux, so
spans recorded in a child process line up with the parent's).  Spans are
stored column-wise in ``array`` buffers because the closure kernel alone
produces hundreds of thousands per pass.  A counter adds an amount to the
innermost span open when it is recorded.

A span's self time is its duration minus the part of it covered by its
child spans; summed over a tree, self times add up to the root's duration.
"""

from __future__ import annotations

import functools
import gzip
from array import array
from time import perf_counter_ns

NO_PARENT = -1


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.input = array("q")
        self.counters: list[tuple[str, int, int]] = []  # (name, span, amount)
        self._stack: list[int] = []
        self.input_id = 0

    def __len__(self) -> int:
        return len(self.start)

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name_id: int) -> int:
        i = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else NO_PARENT)
        self.input.append(self.input_id)
        self.end.append(0)
        self._stack.append(i)
        self.start.append(perf_counter_ns())
        return i

    def close(self, i: int) -> None:
        self.end[i] = perf_counter_ns()
        self._stack.pop()

    def count(self, name: str, amount: int = 1) -> None:
        self.counters.append((name, self._stack[-1] if self._stack else NO_PARENT, amount))

    def wrap(self, name: str, fn, count=None):
        """``fn`` inside a span; ``count(result)`` yields (counter, amount) pairs."""
        name_id = self.name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self.open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(i)
            if count is not None:
                for counter, amount in count(result):
                    self.counters.append((counter, i, amount))
            return result

        return traced

    def add(self, name: str, start: int, end: int, parent: int, input_id: int) -> int:
        """Record a finished span, e.g. one read back from a child process."""
        i = len(self.start)
        self.name.append(self.name_id(name))
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        self.input.append(input_id)
        return i

    def rows(self):
        for i in range(len(self.start)):
            yield (i, self.names[self.name[i]], self.start[i], self.end[i],
                   self.parent[i], self.input[i])

    def write(self, path) -> None:
        """Spans as gzipped CSV, then counters, written once at the end."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write("id,name,start_ns,end_ns,parent,input\n")
            for row in self.rows():
                out.write("%d,%s,%d,%d,%d,%d\n" % row)
            out.write("counter,span,amount\n")
            for name, span, amount in self.counters:
                out.write(f"{name},{span},{amount}\n")


def self_times(start, end, parent) -> list[int]:
    """Duration minus the union of the children's intervals, per span.

    Children are clipped to their parent; spans must be listed after their
    parent (as recording order guarantees).
    """
    n = len(start)
    children: list[list[int]] = [[] for _ in range(n)]
    for i in range(n):
        if parent[i] != NO_PARENT:
            children[parent[i]].append(i)
    out = []
    for i in range(n):
        lo, hi = start[i], end[i]
        covered = 0
        reach = lo
        for c in sorted(children[i], key=lambda c: start[c]):
            a, b = max(start[c], reach), min(end[c], hi)
            if b > a:
                covered += b - a
                reach = b
        out.append(hi - lo - covered)
    return out


# Spans that own the work done beneath them.  A closure call or a
# verification is charged to the nearest enclosing stage.
STAGES = (
    "verdict", "cli.import", "cli.main", "cli.parse", "geometry.validate",
    "properties.decide", "properties.check_2ex", "properties.check_sq",
    "properties.verify_witness", "representation.build", "uniqueness.count",
    "uniqueness.is_unique", "uniqueness.enumerate", "uniqueness.reconstruct",
)


def summarize(tracer: Tracer) -> dict:
    """Calls and self ns per (span name, stage), totals per (counter, stage),
    and the two sums a caller compares: all self times and all root spans.
    """
    selfs = self_times(tracer.start, tracer.end, tracer.parent)
    names = tracer.names
    stage_ids = {tracer.name_id(s) for s in STAGES}
    stage = array("i")
    calls: dict[tuple[str, str], int] = {}
    self_ns: dict[tuple[str, str], int] = {}
    root_ns = 0
    for i in range(len(tracer)):
        name_id = tracer.name[i]
        p = tracer.parent[i]
        if name_id in stage_ids:
            stage.append(name_id)
        else:
            stage.append(stage[p] if p != NO_PARENT else name_id)
        if p == NO_PARENT:
            root_ns += tracer.end[i] - tracer.start[i]
        key = (names[name_id], names[stage[i]])
        calls[key] = calls.get(key, 0) + 1
        self_ns[key] = self_ns.get(key, 0) + selfs[i]
    counters: dict[tuple[str, str], int] = {}
    for name, span, amount in tracer.counters:
        key = (name, names[stage[span]] if span != NO_PARENT else "")
        counters[key] = counters.get(key, 0) + amount
    return {
        "calls": calls,
        "self_ns": self_ns,
        "counters": counters,
        "self_total_ns": sum(selfs),
        "root_ns": root_ns,
        "roots": sum(1 for p in tracer.parent if p == NO_PARENT),
    }


def _sum(table: dict, name: str, stage: str | None = None) -> int:
    return sum(v for (n, s), v in table.items() if n == name and (stage is None or s == stage))


def layer_metrics(summary: dict) -> dict[str, float]:
    """The per-layer metrics of one traced pass.

    Counts are totals over the pass; times are self seconds per verdict.
    """
    calls, self_ns, counters = summary["calls"], summary["self_ns"], summary["counters"]
    verdicts = max(summary["roots"], 1)

    def per_verdict(name, stage=None) -> float:
        return _sum(self_ns, name, stage) / 1e9 / verdicts

    closures = _sum(calls, "core.closure")
    build_verifies = _sum(calls, "representation.verify", "representation.build")
    return {
        "core.closure_calls": closures,
        "core.closure_s": per_verdict("core.closure"),
        "core.closure_us_per_call": _sum(self_ns, "core.closure") / 1e3 / max(closures, 1),
        "geometry.validate_s": per_verdict("geometry.validate"),
        "geometry.validate_closures": _sum(calls, "core.closure", "geometry.validate"),
        "geometry.closed_sets": _sum(counters, "closed_sets"),
        "geometry.extreme_points_calls": _sum(calls, "geometry.extreme_points"),
        "geometry.extreme_points_s": per_verdict("geometry.extreme_points"),
        "properties.check_2ex_s": per_verdict("properties.check_2ex"),
        "properties.check_2ex_closures": _sum(calls, "core.closure", "properties.check_2ex"),
        "properties.check_sq_s": per_verdict("properties.check_sq"),
        "properties.check_sq_closures": _sum(calls, "core.closure", "properties.check_sq"),
        "properties.verify_witness_s": per_verdict("properties.verify_witness"),
        "representation.build_s": per_verdict("representation.build"),
        "representation.build_closures": _sum(calls, "core.closure", "representation.build"),
        "representation.verify_calls": build_verifies,
        "representation.verify_s": per_verdict("representation.verify", "representation.build"),
        "representation.orientations_tried": _sum(counters, "orientations", "representation.build"),
        "representation.candidate_yield": (
            _sum(counters, "verified_ok", "representation.build") / build_verifies
            if build_verifies else 0.0
        ),
        "uniqueness.count_s": per_verdict("uniqueness.count"),
        "uniqueness.enumerate_s": per_verdict("uniqueness.enumerate"),
        "uniqueness.representations": _sum(counters, "representations"),
        "uniqueness.reconstruct_s": per_verdict("uniqueness.reconstruct"),
        "uniqueness.reconstruct_closures": _sum(calls, "core.closure", "uniqueness.reconstruct"),
        "uniqueness.reconstruct_verify_calls": _sum(
            calls, "representation.verify", "uniqueness.reconstruct"
        ),
        "cli.import_s": per_verdict("cli.import"),
        "cli.parse_s": per_verdict("cli.parse"),
        "cli.command_s": per_verdict("cli.main"),
    }


COUNT_METRICS = (
    "core.closure_calls", "geometry.validate_closures", "geometry.closed_sets",
    "geometry.extreme_points_calls", "properties.check_2ex_closures",
    "properties.check_sq_closures", "representation.build_closures",
    "representation.verify_calls", "representation.orientations_tried",
    "representation.candidate_yield", "uniqueness.representations",
    "uniqueness.reconstruct_closures", "uniqueness.reconstruct_verify_calls",
)
