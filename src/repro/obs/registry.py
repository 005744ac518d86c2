"""Counters, gauges and fixed-bucket histograms.

The registry is the numeric half of the observability layer: named
monotone counters (requests served, cache hits), last-value gauges
(requests/s, regret of the latest epoch) and fixed-bucket histograms
(batch sizes).  Snapshots are plain sorted dicts so they serialize to
JSON deterministically, and :meth:`MetricsRegistry.merge` folds a
worker process's snapshot into the parent with well-defined semantics
(counters and histograms add; gauges take the merged value, so a
deterministic merge order yields a deterministic result).
"""

from __future__ import annotations

import bisect
from typing import Dict, Mapping, Optional, Sequence, Tuple

from ..errors import ObservabilityError

__all__ = [
    "DEFAULT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
]

#: Default histogram bucket upper bounds: one decade per bucket, wide
#: enough for request counts and batch sizes alike.  Values above the
#: last bound land in the overflow bucket.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    1.0,
    10.0,
    100.0,
    1_000.0,
    10_000.0,
    100_000.0,
    1_000_000.0,
)


def _require_name(name: str) -> str:
    if not isinstance(name, str) or not name:
        raise ObservabilityError(f"metric name must be a non-empty string, got {name!r}")
    return name


class Counter:
    """A monotone sum (requests served, hits, stores failed)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def add(self, amount: float = 1.0) -> None:
        """Increase the counter; negative increments are rejected."""
        if amount < 0:
            raise ObservabilityError(
                f"counter {self.name!r} cannot decrease (add({amount}))"
            )
        self.value += amount


class Gauge:
    """A last-write-wins instantaneous value (rps, current regret)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        """Replace the gauge's value (last write wins, also on merge)."""
        self.value = float(value)


class Histogram:
    """Fixed-bucket distribution (batch sizes, per-point solve counts).

    ``bounds`` are inclusive upper edges in strictly increasing order;
    one implicit overflow bucket catches everything above the last
    bound.  Only the bucket counts, the observation count and the value
    sum are kept — constant memory regardless of observation volume.
    """

    __slots__ = ("name", "bounds", "bucket_counts", "count", "total")

    def __init__(self, name: str, bounds: Sequence[float] = DEFAULT_BUCKETS):
        bounds = tuple(float(b) for b in bounds)
        if not bounds:
            raise ObservabilityError(f"histogram {name!r} needs at least one bucket")
        if any(a >= b for a, b in zip(bounds, bounds[1:])):
            raise ObservabilityError(
                f"histogram {name!r} bounds must be strictly increasing, got {bounds}"
            )
        self.name = name
        self.bounds = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)  # + overflow
        self.count = 0
        self.total = 0.0

    def observe(self, value: float) -> None:
        """Record one observation into its bucket (inclusive upper edge)."""
        value = float(value)
        self.bucket_counts[bisect.bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value

    @property
    def mean(self) -> float:
        """Mean observed value (0 when nothing was observed)."""
        return self.total / self.count if self.count else 0.0


class MetricsRegistry:
    """Named metric store with deterministic snapshot/merge semantics."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        """Get-or-create the named counter."""
        metric = self._counters.get(name)
        if metric is None:
            metric = self._counters[_require_name(name)] = Counter(name)
        return metric

    def gauge(self, name: str) -> Gauge:
        """Get-or-create the named gauge."""
        metric = self._gauges.get(name)
        if metric is None:
            metric = self._gauges[_require_name(name)] = Gauge(name)
        return metric

    def histogram(
        self, name: str, bounds: Optional[Sequence[float]] = None
    ) -> Histogram:
        """Get-or-create the named histogram.

        Re-requesting an existing histogram with *different* explicit
        bounds is a caller bug and raises; omitting ``bounds`` always
        returns the existing instrument.
        """
        metric = self._histograms.get(name)
        if metric is None:
            metric = self._histograms[_require_name(name)] = Histogram(
                name, DEFAULT_BUCKETS if bounds is None else bounds
            )
        elif bounds is not None and tuple(float(b) for b in bounds) != metric.bounds:
            raise ObservabilityError(
                f"histogram {name!r} already registered with bounds "
                f"{metric.bounds}, requested {tuple(bounds)}"
            )
        return metric

    def snapshot(self) -> dict:
        """Plain-dict view of every metric, keys sorted (JSON-stable)."""
        return {
            "counters": {
                name: self._counters[name].value for name in sorted(self._counters)
            },
            "gauges": {
                name: self._gauges[name].value for name in sorted(self._gauges)
            },
            "histograms": {
                name: {
                    "bounds": list(h.bounds),
                    "bucket_counts": list(h.bucket_counts),
                    "count": h.count,
                    "total": h.total,
                }
                for name, h in sorted(self._histograms.items())
            },
        }

    def merge(self, snapshot: Mapping) -> None:
        """Fold another registry's :meth:`snapshot` into this one.

        Counters and histogram buckets add; gauges take the snapshot's
        value (so merging worker snapshots in a deterministic order —
        region order, in the sharded simulation — gives a deterministic
        result).  Histogram bounds must agree.
        """
        for name, value in snapshot.get("counters", {}).items():
            self.counter(name).add(value)
        for name, value in snapshot.get("gauges", {}).items():
            self.gauge(name).set(value)
        for name, payload in snapshot.get("histograms", {}).items():
            histogram = self.histogram(name, payload["bounds"])
            counts = payload["bucket_counts"]
            if len(counts) != len(histogram.bucket_counts):
                raise ObservabilityError(
                    f"histogram {name!r} merge has {len(counts)} buckets, "
                    f"expected {len(histogram.bucket_counts)}"
                )
            for i, c in enumerate(counts):
                histogram.bucket_counts[i] += c
            histogram.count += payload["count"]
            histogram.total += payload["total"]
