"""Spans recorded around calls into timemg, kept in memory and written as JSON.

A span has a name, a start and an end (``time.perf_counter`` seconds), the id
of the span open when it began (its parent) and the run id.  Extra attributes
(degree, size, worker count, call count, results such as iteration counts) go
in ``attrs``; a span that covers ``count`` identical calls carries that count.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import time


class NullTracer:
    """Tracer used by the timed runs: records nothing."""

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        yield attrs


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self._open = []
        self._ids = itertools.count(1)

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        """Time the body; the yielded dict lets the caller attach results."""
        sid = next(self._ids)
        parent = self._open[-1] if self._open else None
        self._open.append(sid)
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans.append({"id": sid, "name": name, "start": start, "end": end,
                               "parent": parent, "run": self.run_id, "attrs": attrs})

    def write(self, path: str, header: dict) -> None:
        with open(path, "w") as fh:
            json.dump({**header, "run": self.run_id, "clock": "perf_counter",
                       "spans": sorted(self.spans, key=lambda s: s["id"])}, fh)


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def self_times(spans: list) -> dict:
    """Per span name: total duration minus the time its direct children cover."""
    child_time = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + duration(s)
    out = {}
    for s in spans:
        out[s["name"]] = out.get(s["name"], 0.0) + duration(s) - child_time.get(s["id"], 0.0)
    return out
