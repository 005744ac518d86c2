"""In-memory span recorder for the benchmark's traced runs.

The benchmark wraps every call it makes into a ``repro`` layer in a
span named ``<layer>.<call>`` (``catalog.sample``,
``simulation.dynamic_run.lru``, ...).  A span records its name, start,
end, parent span and the id of the benchmark operation it belongs to;
spans stay in memory and are written as JSON-lines once the workload
ends.

When a ``repro.obs`` session is attached, each span also carries the
delta of the session's span aggregates and counters across the span:
the library's own spans (``sim.dynamic.kernel``, ``service.solve``,
``ccn.engine``, ...) and counters that ran inside it.  Taking the two
views costs a few microseconds per span, outside the span's own time,
so it shows as unattributed time and as tracing overhead.

With tracing off, :meth:`Tracer.span` returns one shared no-op context
manager, so the untraced runs that produce the end-to-end metrics pay
one attribute test per layer call.
"""

from __future__ import annotations

import contextlib
import json
import time
from pathlib import Path
from typing import Iterable, Optional

__all__ = ["Tracer", "obs_totals", "self_times", "write_jsonl"]

_NULL = contextlib.nullcontext()


class _Span:
    __slots__ = ("tracer", "record", "before")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        tracer._next_id += 1
        self.record = {
            "id": tracer._next_id,
            "name": name,
            "parent": tracer._stack[-1]["id"] if tracer._stack else None,
            "op": tracer.op,
        }
        self.before = None

    def __enter__(self) -> "_Span":
        tracer = self.tracer
        if tracer.obs is not None:
            self.before = _obs_view(tracer.obs)
        tracer._stack.append(self.record)
        self.record["start"] = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        tracer = self.tracer
        self.record["end"] = time.perf_counter()
        tracer._stack.pop()
        if self.before is not None:
            self.record["obs"] = _obs_delta(self.before, _obs_view(tracer.obs))
        tracer.spans.append(self.record)
        return False


class Tracer:
    """Span recorder; disabled (a no-op) until :attr:`enabled` is set.

    Attributes
    ----------
    enabled:
        Record spans only while true.
    op:
        Id of the benchmark operation subsequent spans belong to.
    obs:
        A ``repro.obs`` session whose snapshot delta is attached to
        every span, or ``None``.
    spans:
        Closed spans, in closing order.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.op: Optional[int] = None
        self.obs = None
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._next_id = 0

    def span(self, name: str):
        """Context manager timing one call into a layer (or harness step)."""
        if not self.enabled:
            return _NULL
        return _Span(self, name)

    def take(self) -> list[dict]:
        """Return the recorded spans and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans


def _obs_view(session) -> dict:
    # The registry and span tracker directly: ObsSession.snapshot() also
    # builds the run manifest, which would double the cost per span.
    return {
        "spans": {k: (v["count"], v["total_s"]) for k, v in session.tracker.aggregate().items()},
        "counters": session.registry.snapshot()["counters"],
    }


def _obs_delta(before: dict, after: dict) -> dict:
    spans = {}
    for name, (count, total) in after["spans"].items():
        count0, total0 = before["spans"].get(name, (0, 0.0))
        if count != count0:
            spans[name] = {"count": count - count0, "total_s": total - total0}
    counters = {
        name: value - before["counters"].get(name, 0)
        for name, value in after["counters"].items()
        if value != before["counters"].get(name, 0)
    }
    return {"spans": spans, "counters": counters}


def self_times(spans: Iterable[dict], wall_s: float) -> dict:
    """Per-name self time, wall coverage and the unattributed remainder.

    A span's self time is its duration minus the durations of its
    direct children.  ``covered_s`` sums the root spans (no parent), so
    ``sum(self_s.values()) == covered_s`` for properly nested spans;
    ``unattributed_s`` is the wall time no span covers.
    """
    spans = list(spans)
    child_time: dict[int, float] = {}
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] = child_time.get(span["parent"], 0.0) + (
                span["end"] - span["start"]
            )
    self_s: dict[str, float] = {}
    covered = 0.0
    for span in spans:
        duration = span["end"] - span["start"]
        self_s[span["name"]] = self_s.get(span["name"], 0.0) + duration - child_time.get(
            span["id"], 0.0
        )
        if span["parent"] is None:
            covered += duration
    return {
        "wall_s": wall_s,
        "self_s": self_s,
        "covered_s": covered,
        "unattributed_s": wall_s - covered,
    }


def obs_totals(spans: Iterable[dict], prefix: str = "") -> dict:
    """Summed library-span seconds from the obs deltas of matching spans."""
    totals: dict[str, float] = {}
    for span in spans:
        if not span["name"].startswith(prefix):
            continue
        for name, agg in span.get("obs", {}).get("spans", {}).items():
            totals[name] = totals.get(name, 0.0) + agg["total_s"]
    return totals


def write_jsonl(path: Path, spans: Iterable[dict]) -> None:
    """Write one JSON object per span."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as out:
        for span in spans:
            out.write(json.dumps(span) + "\n")
