"""repro.obs — metrics + tracing observability for the reproduction.

The ROADMAP's production north-star needs the layer every cache-network
evaluation framework treats as table stakes: where does a figure sweep
(eqs. 2–8) spend its wall time, what is the Zipf memo hit rate of a
real run, how many requests did each service tier absorb.  This package
provides that layer without perturbing the numbers it observes:

- :mod:`repro.obs.registry` — counters, gauges and fixed-bucket
  histograms in a :class:`MetricsRegistry` with deterministic
  snapshot/merge semantics;
- :mod:`repro.obs.spans` — nested span tracing on the monotonic clock
  (``time.perf_counter``), aggregated per span name;
- :mod:`repro.obs.sinks` — pluggable event sinks: :class:`NullSink`
  (the near-zero-overhead default), :class:`JsonlSink` (one JSON event
  per line) and :class:`TextSummarySink` (human-readable summary on
  close);
- :mod:`repro.obs.manifest` — reproducible run manifests (platform,
  python/numpy versions, per-phase wall time);
- :mod:`repro.obs.session` — the ambient :class:`ObsSession`
  instrumented code records into, plus the per-process provider
  registry and the worker-snapshot merge used by the sharded
  simulation (:func:`repro.simulation.sharded.run_sharded`);
- :mod:`repro.obs.summary` — parsing + rendering of recorded event
  streams (backs ``repro obs summarize``).

Design rule: when no session is active (the default), every
instrumentation call dispatches to shared no-op singletons — the
instrumented hot paths stay within noise of their un-instrumented
speed (guarded by ``tests/obs/test_overhead.py``).

Usage::

    from repro import obs

    with obs.session(obs.JsonlSink("events.jsonl")) as s:
        simulator.run(workload, 1_000_000)   # records spans + counters
    # events.jsonl now renders with `repro obs summarize events.jsonl`

Layering: ``obs`` sits at the foundation next to ``errors`` (it imports
nothing else from ``repro``), so every layer — core, catalog,
simulation, adaptive, analysis, cli — may record into it.
"""

from __future__ import annotations

from .manifest import available_cpus, fingerprint, machine_provenance, run_manifest
from .registry import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .session import (
    NULL_SESSION,
    ObsSession,
    get_session,
    register_provider,
    registered_providers,
    session,
)
from .sinks import JsonlSink, NullSink, Sink, TextSummarySink
from .spans import SpanHandle, SpanTracker
from .summary import read_events, render_summary, summarize_events

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "SpanHandle",
    "SpanTracker",
    "Sink",
    "NullSink",
    "JsonlSink",
    "TextSummarySink",
    "ObsSession",
    "NULL_SESSION",
    "session",
    "get_session",
    "register_provider",
    "registered_providers",
    "available_cpus",
    "machine_provenance",
    "run_manifest",
    "fingerprint",
    "read_events",
    "summarize_events",
    "render_summary",
]
