"""In-memory spans for the traced run.

A span is (id, parent, name, start, end, attrs), times in host seconds
from the tracer's creation. Spans nest through a stack, so a span opened
inside another records it as its parent. Nothing is written until
``dump`` at the end of the run.
"""
from __future__ import annotations

import contextlib
import json
import time


class Tracer:
    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.t0 = time.perf_counter()
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        rec = {
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "start": time.perf_counter() - self.t0,
            "end": None,
            "attrs": attrs,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter() - self.t0

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def dump(self, path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as f:
            f.write(json.dumps({"trace_id": self.trace_id, **header}) + "\n")
            for s in self.spans:
                f.write(json.dumps({"trace_id": self.trace_id, **s}) + "\n")
