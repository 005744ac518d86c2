"""The ambient observability session instrumented code records into.

Instrumented library code never holds a session reference; it calls
:func:`get_session` and records into whatever is ambient.  By default
that is :data:`NULL_SESSION`, whose every operation is a shared no-op
singleton — the permanent instrumentation of the hot paths costs near
zero until someone opts in::

    with obs.session(JsonlSink("events.jsonl")) as s:
        run_everything()          # spans + metrics stream to the file
    # finalize ran: providers polled, metrics + manifest emitted.

Worker processes (``ProcessPoolExecutor`` sweeps) cannot share the
parent's session.  Instead each worker opens its own capture session
(default :class:`~repro.obs.sinks.NullSink`), does its slice of work,
and returns :meth:`ObsSession.snapshot` alongside its result; the
parent calls :meth:`ObsSession.merge_snapshot` on the returned
snapshots *in grid order*, so the merged registry is deterministic no
matter how the pool scheduled the work.

Providers bridge module-level statistics (the Zipf memo caches of
:mod:`repro.core.zipf`) into sessions without inverting the layering:
the owning module registers a callable returning cumulative per-process
counter values; each session samples it at open and again at finalize
and records the *delta*, so a session reports exactly the activity that
happened within it — in every process that contributed a snapshot.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Dict, Iterator, Mapping, Optional, Sequence

from ..errors import ObservabilityError
from .manifest import run_manifest
from .registry import Counter, Gauge, Histogram, MetricsRegistry
from .sinks import NullSink, Sink
from .spans import SpanTracker

__all__ = [
    "ObsSession",
    "NULL_SESSION",
    "session",
    "get_session",
    "register_provider",
    "registered_providers",
]

#: Per-process statistic providers: name -> callable returning a flat
#: ``{counter_name: cumulative_value}`` mapping.
_PROVIDERS: Dict[str, Callable[[], Mapping[str, float]]] = {}


def register_provider(name: str, fn: Callable[[], Mapping[str, float]]) -> None:
    """Register a cumulative-counter statistics source (idempotent by name).

    ``fn`` must be cheap and must return monotonically non-decreasing
    per-process values; sessions record finalize-minus-open deltas.
    Re-registering the same name replaces the callable (supports module
    reloads in tests).
    """
    if not isinstance(name, str) or not name:
        raise ObservabilityError(f"provider name must be a non-empty string, got {name!r}")
    if not callable(fn):
        raise ObservabilityError(f"provider {name!r} must be callable, got {fn!r}")
    _PROVIDERS[name] = fn


def registered_providers() -> tuple[str, ...]:
    """Names of the providers registered in this process, sorted."""
    return tuple(sorted(_PROVIDERS))


class ObsSession:
    """One recording scope: registry + span tracker + sink + manifest.

    Parameters
    ----------
    sink:
        Event destination; defaults to :class:`NullSink` (a pure
        in-memory capture session, snapshot-only).
    annotations:
        Manifest key/values describing what this run is (command line,
        scenario fingerprint).  Extend later with :meth:`annotate`.
    """

    #: Instrumented code may branch on this to skip derived-metric
    #: computation (e.g. a requests/s division) when nobody records.
    enabled = True

    def __init__(
        self,
        sink: Optional[Sink] = None,
        *,
        annotations: Optional[Mapping[str, object]] = None,
    ):
        self.sink = sink if sink is not None else NullSink()
        self.registry = MetricsRegistry()
        self.tracker = SpanTracker(emit=self.sink.emit)
        self._annotations: Dict[str, object] = dict(annotations or {})
        self._provider_base = {
            name: dict(fn()) for name, fn in _PROVIDERS.items()
        }
        self._finalized = False

    # -- recording surface (mirrored by the null session) ------------------

    def counter(self, name: str) -> Counter:
        """Get-or-create the named monotone counter."""
        return self.registry.counter(name)

    def gauge(self, name: str) -> Gauge:
        """Get-or-create the named last-write-wins gauge."""
        return self.registry.gauge(name)

    def histogram(self, name: str, bounds: Optional[Sequence[float]] = None) -> Histogram:
        """Get-or-create the named fixed-bucket histogram."""
        return self.registry.histogram(name, bounds)

    def span(self, name: str):
        """Open a nested timed span (use as a context manager)."""
        return self.tracker.span(name)

    def annotate(self, key: str, value: object) -> None:
        """Attach a manifest annotation (command, scenario fingerprint)."""
        self._annotations[str(key)] = value

    # -- merge + finalize ---------------------------------------------------

    def merge_snapshot(self, snapshot: Mapping) -> None:
        """Fold a worker session's :meth:`snapshot` into this session.

        Counters/histograms/absorbed spans add; gauges take the
        snapshot value.  Callers must merge in a deterministic order
        (the sharded simulation merges in region order).
        """
        self.registry.merge(snapshot)
        for name, agg in snapshot.get("spans", {}).items():
            self.tracker.absorb(name, agg["count"], agg["total_s"])

    def snapshot(self) -> dict:
        """Deterministic dict view: metrics, span aggregates, manifest."""
        snap = self.registry.snapshot()
        snap["spans"] = self.tracker.aggregate()
        snap["manifest"] = run_manifest(
            annotations=self._annotations, phases=self.tracker.phase_totals()
        )
        return snap

    def _poll_providers(self) -> None:
        for name, fn in sorted(_PROVIDERS.items()):
            base = self._provider_base.get(name, {})
            for key, value in sorted(dict(fn()).items()):
                delta = value - base.get(key, 0)
                if delta > 0:
                    self.counter(key).add(delta)

    def finalize(self) -> None:
        """Poll providers, emit metric + manifest events, close the sink.

        Idempotent; called automatically by the :func:`session` context
        manager.
        """
        if self._finalized:
            return
        self._finalized = True
        self._poll_providers()
        snap = self.registry.snapshot()
        emit = self.sink.emit
        for name, value in snap["counters"].items():
            emit({"type": "counter", "name": name, "value": value})
        for name, value in snap["gauges"].items():
            emit({"type": "gauge", "name": name, "value": value})
        for name, payload in snap["histograms"].items():
            emit({"type": "histogram", "name": name, **payload})
        emit(
            {
                "type": "manifest",
                **run_manifest(
                    annotations=self._annotations,
                    phases=self.tracker.phase_totals(),
                ),
            }
        )
        self.sink.close()


class _NullCounter(Counter):
    __slots__ = ()

    def add(self, amount: float = 1.0) -> None:
        pass


class _NullGauge(Gauge):
    __slots__ = ()

    def set(self, value: float) -> None:
        pass


class _NullHistogram(Histogram):
    __slots__ = ()

    def observe(self, value: float) -> None:
        pass


class _NullSpan:
    """Shared reusable no-op span; ``duration_s`` stays 0."""

    __slots__ = ()
    name = ""
    start_s = 0.0
    duration_s = 0.0
    depth = 0

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


class _NullSession(ObsSession):
    """The ambient default: every operation is a shared no-op singleton.

    This is what keeps permanently instrumented hot paths within noise
    of un-instrumented speed (see ``tests/obs/test_overhead.py``): no
    allocation, no dict lookups, no clock reads.
    """

    enabled = False

    def __init__(self) -> None:  # deliberately does NOT call super()
        self._counter = _NullCounter("null")
        self._gauge = _NullGauge("null")
        self._histogram = _NullHistogram("null")
        self._span = _NullSpan()

    def counter(self, name: str) -> Counter:
        return self._counter

    def gauge(self, name: str) -> Gauge:
        return self._gauge

    def histogram(self, name: str, bounds: Optional[Sequence[float]] = None) -> Histogram:
        return self._histogram

    def span(self, name: str):
        return self._span

    def annotate(self, key: str, value: object) -> None:
        pass

    def merge_snapshot(self, snapshot: Mapping) -> None:
        pass

    def snapshot(self) -> dict:
        return {
            "counters": {},
            "gauges": {},
            "histograms": {},
            "spans": {},
            "manifest": {},
        }

    def finalize(self) -> None:
        pass


#: The ambient default session (recording disabled).
NULL_SESSION = _NullSession()

_current: ObsSession = NULL_SESSION


def get_session() -> ObsSession:
    """The session instrumentation records into right now."""
    return _current


@contextlib.contextmanager
def session(
    sink: Optional[Sink] = None,
    *,
    annotations: Optional[Mapping[str, object]] = None,
) -> Iterator[ObsSession]:
    """Install a recording session as the ambient one for the block.

    Finalizes (providers polled, metric/manifest events emitted, sink
    closed) and restores the previous ambient session on exit — also on
    exceptions, so a crashed run still leaves a readable event stream.
    Sessions may nest; the inner session shadows the outer until it
    exits (recorded data is not forwarded between them).
    """
    global _current
    new = ObsSession(sink, annotations=annotations)
    previous = _current
    _current = new
    try:
        yield new
    finally:
        _current = previous
        new.finalize()
