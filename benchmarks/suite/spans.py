"""In-memory span recorder for the traced benchmark run.

Spans are recorded from the benchmark's own files, around the calls into
each layer (spans inside ``src/`` are a later change).  A span has a
name, a layer (the module the call goes into), start, end and the span
that caused it; all spans of one recorder share the workload id.
Nothing is written until the benchmark ends: :func:`chrome_trace` turns
the recorders into one Chrome-trace / Perfetto JSON document.

A layer's *self time* is its spans' durations minus the part of each
interval that child spans cover (the union, because the per-rank phase
spans of one sort run side by side), so the per-layer self times of a
workload add up to its root span exactly.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

__all__ = ["Recorder", "chrome_trace"]


class Recorder:
    """Span store of one workload; ``enabled=False`` records nothing."""

    def __init__(self, workload: str, enabled: bool):
        self.workload = workload
        self.enabled = enabled
        self.spans: List[dict] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, layer: str, **args) -> Iterator[Optional[dict]]:
        """Time the enclosed block as a child of the innermost open span."""
        if not self.enabled:
            yield None
            return
        rec = self._new(name, layer, time.perf_counter(), None,
                        self._stack[-1] if self._stack else None, 0, args)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, layer: str, start: float, end: float,
            parent: dict, tid: int, **args) -> None:
        """Record a span measured elsewhere (a phase wall the program
        returned), clipped to its parent so self times stay exact."""
        if not self.enabled:
            return
        start = max(start, parent["start"])
        end = max(start, min(end, parent["end"]))
        self._new(name, layer, start, end, parent["id"], tid, args)

    @contextmanager
    def paused(self) -> Iterator[None]:
        """Run the enclosed block untraced (for the overhead comparison)."""
        was, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = was

    def _new(self, name, layer, start, end, parent, tid, args) -> dict:
        rec = {"id": len(self.spans), "name": name, "layer": layer,
               "start": start, "end": end, "parent": parent, "tid": tid,
               "args": args}
        self.spans.append(rec)
        return rec

    # -- analysis ---------------------------------------------------------

    def self_times(self) -> Dict[str, float]:
        """Layer -> seconds of self time.  Spans marked ``detail`` (rows
        that run side by side under an accounted span) are left out, so
        the values add up to :meth:`traced_wall`."""
        accounted = [r for r in self.spans if not r["args"].get("detail")]
        children: Dict[int, List[dict]] = {}
        for rec in accounted:
            if rec["parent"] is not None:
                children.setdefault(rec["parent"], []).append(rec)
        out: Dict[str, float] = {}
        for rec in accounted:
            covered, edge = 0.0, rec["start"]
            for kid in sorted(children.get(rec["id"], ()),
                              key=lambda k: k["start"]):
                lo, hi = max(kid["start"], edge), min(kid["end"], rec["end"])
                if hi > lo:
                    covered += hi - lo
                    edge = hi
            own = (rec["end"] - rec["start"]) - covered
            out[rec["layer"]] = out.get(rec["layer"], 0.0) + own
        return out

    def traced_wall(self) -> float:
        """Total duration of the root spans (the traced wall)."""
        return sum(r["end"] - r["start"] for r in self.spans
                   if r["parent"] is None)


def chrome_trace(recorders: List[Recorder]) -> dict:
    """One Chrome-trace document: a process per workload, a thread per
    rank (tid 0 is the benchmark's own thread).  Timestamps are the
    monotonic clock's own, so documents of several runs can be merged."""
    events = []
    for pid, rec in enumerate(recorders, start=1):
        events.append({"ph": "M", "name": "process_name", "pid": pid,
                       "tid": 0, "args": {"name": rec.workload}})
        for span in rec.spans:
            events.append({
                "ph": "X", "name": span["name"], "cat": span["layer"],
                "pid": pid, "tid": span["tid"],
                "ts": span["start"] * 1e6,
                "dur": (span["end"] - span["start"]) * 1e6,
                "args": {"id": span["id"], "parent": span["parent"],
                         "workload": rec.workload, **span["args"]},
            })
    return {"traceEvents": events, "displayTimeUnit": "ms"}
