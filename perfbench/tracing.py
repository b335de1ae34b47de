"""In-memory spans around the runner's calls into each layer.

A span records its name, layer (the name's first dotted part), start, end,
parent span and case id.  Spans stay in a list while the runner works and are
written out once, as JSON lines, when it ends.  Standard library only.
"""

from __future__ import annotations

import contextlib
import json
from time import perf_counter

_NULL = contextlib.nullcontext()


class _Span:
    __slots__ = ("tracer", "name", "case", "index")

    def __init__(self, tracer: "Tracer", name: str, case):
        self.tracer, self.name, self.case = tracer, name, case

    def __enter__(self):
        tracer = self.tracer
        self.index = len(tracer.records)
        parent = tracer.stack[-1] if tracer.stack else None
        tracer.records.append([self.name, parent, self.case, perf_counter(), None])
        tracer.stack.append(self.index)

    def __exit__(self, *exc):
        self.tracer.records[self.index][4] = perf_counter()
        self.tracer.stack.pop()
        return False


class Tracer:
    """Collects nested spans; ``span`` is a context manager."""

    def __init__(self):
        self.records: list[list] = []
        self.stack: list[int] = []

    def span(self, name: str, case=None) -> _Span:
        return _Span(self, name, case)

    def spans(self) -> list[dict]:
        return [
            {"id": i, "name": name, "layer": name.split(".", 1)[0], "start": start,
             "end": end, "parent": parent, "case": case}
            for i, (name, parent, case, start, end) in enumerate(self.records)
        ]

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for record in self.spans():
                fh.write(json.dumps(record) + "\n")


class NullTracer:
    """Same interface, records nothing."""

    def span(self, name: str, case=None):
        return _NULL


def read_spans(path) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the part of it that child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    return {
        s["id"]: (s["end"] - s["start"]) - _covered(children.get(s["id"], []), s["start"], s["end"])
        for s in spans
    }


def by_name(spans: list[dict]) -> dict[str, dict]:
    """Per span name: call count, total self time [s] and each call's duration [s]."""
    selfs = self_times(spans)
    out: dict[str, dict] = {}
    for s in spans:
        entry = out.setdefault(s["name"], {"calls": 0, "self_s": 0.0, "durations": []})
        entry["calls"] += 1
        entry["self_s"] += selfs[s["id"]]
        entry["durations"].append(s["end"] - s["start"])
    return out
