"""Region-sharded multi-process simulation with a deterministic merge.

The kernels in :mod:`repro.simulation.batch` and
:mod:`repro.simulation.dynamic_batch` are exact but dense: their cost
tables grow O(n²), which is perfect at the paper's carrier sizes
(≤ ~40 routers) and hopeless at the internet-scale hierarchies
:func:`repro.topology.generate_hierarchy` produces (a 5k-router
dynamic kernel would need ~19 GB of tables before the first request).

This module scales out by exploiting the structure those hierarchies
have anyway: clients in different access regions share no cache state
on their fetch paths below the backbone, so the request stream **shards
by client region**.  Each region becomes an independent simulation over
its small sub-topology — its own kernel, its own content stores, its
own ``SeedSequence``-spawned workload and policy streams — and regions
are farmed out to a ``ProcessPoolExecutor``.  The backbone leg of every
origin fetch is folded into the region's
:class:`~repro.simulation.routing.OriginModel` (gateway → origin hops
and latency precomputed by the generator), which keeps the paper's
Table I metrics — origin load, fetch hops, fetch latency — exact for
intra-region coordination domains.

**Determinism contract.**  The merged result is a pure function of
``(topology, workload parameters, seed)`` — the shard count only
changes wall-clock time:

- per-region RNG streams descend from ``SeedSequence(seed).spawn``
  children indexed by *region*, never by worker, so region r draws the
  same requests and policy decisions no matter which process runs it;
- per-region summaries merge through
  :meth:`~repro.simulation.metrics.MetricsCollector.merge` in region
  order (integer counters add exactly; float sums add in a fixed
  order);
- per-region obs snapshots merge into the parent session in region
  order (each worker records into its own capture session);
- :func:`deterministic_view` projects a session snapshot onto its
  reproducible parts (dropping wall-clock span times, throughput
  gauges, and per-process provider cache counters), which is what the
  shard-invariance suite compares bit-for-bit.

Failure injection (:func:`~repro.simulation.failures.fail_stores`)
stays deterministic under sharding: a :class:`RegionFailure` names the
region, the stream position, and the routers to fail; the owning
worker materializes the region's columnar batch once, replays it up to
the failure point, wipes the stores, and replays the rest — the same
segmentation regardless of how regions map to processes.
"""

from __future__ import annotations

import concurrent.futures
from dataclasses import dataclass
from typing import Hashable, Optional, Sequence, Union

import numpy as np

from ..catalog import ZipfModel
from ..catalog.workload import (
    DEFAULT_BATCH_SIZE,
    IRMWorkload,
    RequestBatch,
    Workload,
)
from ..core.strategy import ProvisioningStrategy
from ..core.validation import require_capacity, require_exponent
from ..errors import ParameterError, SimulationError
from ..obs import available_cpus, get_session, session as obs_session
from ..topology.graph import Topology
from ..topology.hierarchy import HierarchicalTopology
from .failures import fail_stores
from .metrics import MetricsCollector, SimulationMetrics
from .routing import OriginModel
from .simulator import DynamicSimulator, SteadyStateSimulator

__all__ = [
    "RegionFailure",
    "ShardedRunResult",
    "deterministic_view",
    "run_sharded",
]

NodeId = Hashable

#: Worker-side span whose total is summed into the merged result's
#: kernel time, per mode.  The dynamic one is the pure per-batch kernel
#: span (directly comparable with the small-topology bench rps); the
#: steady engine has no separate kernel span, so its whole run counts.
_KERNEL_SPANS = {"dynamic": "sim.dynamic.kernel", "steady": "sim.steady.run"}

#: Gauge-name suffixes excluded from :func:`deterministic_view` —
#: throughputs and worker-pool geometry vary run to run by design.
_NONDETERMINISTIC_GAUGE_SUFFIXES = (".rps", ".shards", "_per_s")

#: Counter-name prefixes excluded from :func:`deterministic_view`:
#: per-process memo/cache providers (``zipf.cache.*``) count how many
#: *processes* had to build tables, which legitimately depends on the
#: worker-pool size.
_PROCESS_LOCAL_COUNTER_PREFIXES = ("zipf.",)


@dataclass(frozen=True)
class RegionFailure:
    """A mid-run content-store failure inside one region.

    Attributes
    ----------
    region:
        Index of the region whose stores fail.
    after:
        Position in the region's request stream (warmup included) at
        which the failure strikes; must satisfy
        ``0 < after < region requests + region warmup``.
    nodes:
        The region's routers (global ids) whose stores are wiped.
    """

    region: int
    after: int
    nodes: tuple

    def __post_init__(self) -> None:
        if int(self.region) != self.region or self.region < 0:
            raise ParameterError(
                f"failure region must be a non-negative integer, got {self.region}"
            )
        if int(self.after) != self.after or self.after < 1:
            raise ParameterError(
                f"failure position must be a positive integer, got {self.after}"
            )
        if not self.nodes:
            raise ParameterError("a RegionFailure must name at least one router")
        object.__setattr__(self, "nodes", tuple(self.nodes))


@dataclass(frozen=True)
class ShardedRunResult:
    """Merged outcome of one region-sharded run.

    Attributes
    ----------
    metrics:
        The shard-count-invariant merged summary (counters add, float
        sums fold in region order).
    region_metrics:
        Per-region summaries, in region order.
    regions / shards:
        Region count and the worker-pool size actually used
        (``shards == 0`` marks the in-process serial path).
    requests / warmup:
        Counted and warmup requests across all regions.
    kernel_seconds:
        Sum of the per-region kernel span totals — CPU-seconds of
        kernel work, comparable across shard counts (wall clock is
        not).
    """

    metrics: SimulationMetrics
    region_metrics: tuple[SimulationMetrics, ...]
    regions: int
    shards: int
    requests: int
    warmup: int
    kernel_seconds: float

    @property
    def kernel_rps(self) -> float:
        """Stream requests per kernel-second (0 when unmeasured)."""
        if self.kernel_seconds <= 0:
            return 0.0
        return (self.requests + self.warmup) / self.kernel_seconds


class _BatchSlice(Workload):
    """A contiguous slice of a materialized columnar batch, as a workload.

    Failure segmentation needs to replay *the same* region stream in
    two pieces around the failure point.  ``Workload.batches`` restarts
    the stream on every call, so the worker materializes the region's
    batch once (``sample_batch``) and drives the simulator through
    zero-copy column slices of it.
    """

    def __init__(self, batch: RequestBatch, start: int, stop: int):
        if not 0 <= start <= stop <= len(batch):
            raise SimulationError(
                f"batch slice [{start}, {stop}) outside [0, {len(batch)}]"
            )
        self._batch = batch
        self._start = int(start)
        self._stop = int(stop)

    def __len__(self) -> int:
        return self._stop - self._start

    def requests(self, count: int):
        return self._requests_from_batches(count)

    def batches(self, count: int, *, batch_size: int = DEFAULT_BATCH_SIZE):
        if count < 0:
            raise ParameterError(f"count must be non-negative, got {count}")
        if batch_size < 1:
            raise ParameterError(f"batch size must be positive, got {batch_size}")
        if count > len(self):
            raise SimulationError(
                f"slice holds {len(self)} requests but {count} were asked for"
            )
        offset = self._start
        remaining = count
        while remaining > 0:
            size = min(batch_size, remaining)
            yield RequestBatch(
                self._batch.clients,
                self._batch.client_index[offset : offset + size],
                self._batch.ranks[offset : offset + size],
            )
            offset += size
            remaining -= size


@dataclass(frozen=True)
class _RegionTask:
    """Everything one worker needs to simulate one region (picklable)."""

    region: int
    topology: Topology  # the region's sub-topology (global node ids)
    gateway: NodeId
    origin_extra_hops: float
    origin_extra_latency_ms: float
    mode: str
    capacity: int
    policy: str
    coordination_level: float
    metric: str
    exponent: float
    catalog_size: int
    requests: int
    warmup: int
    batch_size: int
    simulator_seed: np.random.SeedSequence
    workload_seed: np.random.SeedSequence
    failure: Optional[RegionFailure]


def _simulate_region(task: _RegionTask) -> SimulationMetrics:
    """Run one region's simulation to completion (in this process)."""
    origin = OriginModel(
        task.gateway,
        extra_hops=task.origin_extra_hops,
        extra_latency_ms=task.origin_extra_latency_ms,
    )
    if task.mode == "dynamic":
        simulator: Union[DynamicSimulator, SteadyStateSimulator] = DynamicSimulator(
            task.topology,
            capacity=task.capacity,
            policy=task.policy,
            coordination_level=task.coordination_level,
            origin=origin,
            metric=task.metric,
            seed=task.simulator_seed,
        )
    else:
        strategy = ProvisioningStrategy(
            capacity=task.capacity,
            n_routers=task.topology.n_routers,
            level=task.coordination_level,
        )
        # Coordination-message accounting is a domain-level constant
        # (eq. 3); charging it per region would multiply it by the
        # region count, so the sharded steady path leaves it off.
        simulator = SteadyStateSimulator.from_strategy(
            task.topology,
            strategy,
            origin=origin,
            metric=task.metric,
            message_accounting="none",
        )
    workload = IRMWorkload(
        ZipfModel(task.exponent, task.catalog_size),
        task.topology.nodes,
        seed=task.workload_seed,
    )
    total = task.requests + task.warmup
    if task.failure is None:
        if task.mode == "dynamic":
            return simulator.run(
                workload,
                task.requests,
                warmup=task.warmup,
                batch_size=task.batch_size,
            )
        return simulator.run(workload, task.requests, batch_size=task.batch_size)
    # Segmented replay around the failure point: one materialized
    # stream, two slices, identical no matter which worker runs it.
    after = int(task.failure.after)
    if not 0 < after < total:
        raise SimulationError(
            f"region {task.region} failure position {after} outside its "
            f"stream (0, {total})"
        )
    batch = workload.sample_batch(total)
    collector = MetricsCollector()
    head_warmup = min(task.warmup, after)
    segments = (
        (_BatchSlice(batch, 0, after), after - head_warmup, head_warmup),
        (
            _BatchSlice(batch, after, total),
            (total - after) - (task.warmup - head_warmup),
            task.warmup - head_warmup,
        ),
    )
    for i, (slice_workload, counted, warmup) in enumerate(segments):
        if i == 1:
            fail_stores(simulator, task.failure.nodes)
        if task.mode == "dynamic":
            summary = simulator.run(
                slice_workload, counted, warmup=warmup, batch_size=task.batch_size
            )
        else:
            summary = simulator.run(
                slice_workload, counted, batch_size=task.batch_size
            )
        collector.merge(summary)
    return collector.summary()


def _run_region(task: _RegionTask) -> tuple[int, SimulationMetrics, dict]:
    """Worker entry point: simulate under a capturing obs session.

    Returns ``(region, metrics, snapshot)``; the parent merges the
    snapshots in region order.
    Sessions nest, so the same function serves the in-process serial
    path — shard counts change only who executes this, never what it
    records.
    """
    with obs_session() as capture:
        metrics = _simulate_region(task)
        snapshot = capture.snapshot()
    return task.region, metrics, snapshot


def deterministic_view(snapshot: dict) -> dict:
    """Project an obs snapshot onto its shard-count-invariant parts.

    Keeps counters (minus per-process provider caches), gauges (minus
    throughput/pool-geometry names), histograms, and span *counts*;
    drops span wall-times and the manifest (whose phase table is wall
    time too).  Two runs of the same scenario — any shard counts —
    compare equal under this view; the equivalence suite asserts it
    bit-for-bit.
    """
    counters = {
        name: value
        for name, value in snapshot.get("counters", {}).items()
        if not name.startswith(_PROCESS_LOCAL_COUNTER_PREFIXES)
    }
    gauges = {
        name: value
        for name, value in snapshot.get("gauges", {}).items()
        if not name.endswith(_NONDETERMINISTIC_GAUGE_SUFFIXES)
    }
    histograms = {
        name: dict(buckets)
        for name, buckets in snapshot.get("histograms", {}).items()
    }
    span_counts = {
        name: agg["count"] for name, agg in snapshot.get("spans", {}).items()
    }
    return {
        "counters": counters,
        "gauges": gauges,
        "histograms": histograms,
        "span_counts": span_counts,
    }


def _resolve_shards(
    shards: Union[int, str, None], regions: int, available: int
) -> int:
    """Worker-pool size: 0 = in-process serial, else process count."""
    if shards is None:
        return 0
    if isinstance(shards, str):
        if shards != "auto":
            raise ParameterError(
                f"shards must be an integer, 'auto', or None, got {shards!r}"
            )
        resolved = min(available, regions)
    else:
        if int(shards) != shards or shards < 1:
            raise ParameterError(
                f"shard count must be a positive integer, got {shards}"
            )
        resolved = min(int(shards), regions)
    return max(resolved, 1)


def run_sharded(
    topology: HierarchicalTopology,
    *,
    requests: int,
    capacity: int,
    mode: str = "dynamic",
    policy: str = "lru",
    coordination_level: float = 0.0,
    exponent: float = 0.8,
    catalog_size: int = 10_000,
    warmup: int = 0,
    seed: int = 0,
    shards: Union[int, str, None] = "auto",
    metric: str = "hops",
    batch_size: int = DEFAULT_BATCH_SIZE,
    origin_extra_hops: float = 1.0,
    origin_extra_latency_ms: float = 50.0,
    failures: Sequence[RegionFailure] = (),
) -> ShardedRunResult:
    """Simulate a hierarchical topology by sharding requests per region.

    The total stream splits evenly across regions (earlier regions take
    the remainder), each region runs as an independent simulation over
    its sub-topology with the backbone leg folded into its origin
    model, and the per-region results merge deterministically — see the
    module docstring for the invariance contract.

    Parameters
    ----------
    topology:
        A :func:`~repro.topology.generate_hierarchy` product; the
        region partition is the shard key.
    requests / warmup:
        Counted and warmup requests across the whole domain (``warmup``
        requires ``mode="dynamic"``).
    capacity / policy / coordination_level / metric:
        Per-router provisioning, as in the simulators.  Coordination is
        intra-region: each region hashes custodians over its own
        routers.
    mode:
        ``"dynamic"`` (replacement simulation) or ``"steady"``
        (provisioned placement).
    exponent / catalog_size:
        The Zipf workload each region's clients draw from.
    seed:
        Root seed; region r's simulator and workload streams come from
        ``SeedSequence(seed).spawn(...)[r]`` regardless of shard count.
    shards:
        ``"auto"`` sizes the pool to
        :func:`~repro.obs.manifest.available_cpus` (capped at the
        region count); an int forces a pool size; ``None`` runs
        serially in-process (no executor at all).  A pool that cannot
        start (sandboxed environments raise ``OSError``) falls back to
        the serial path.
    origin_extra_hops / origin_extra_latency_ms:
        Cost of the origin's attachment beyond backbone router 0, added
        on top of each region's gateway → attach backbone cost.
    failures:
        At most one :class:`RegionFailure` per region, applied mid-run
        by the owning worker.
    """
    if not isinstance(topology, HierarchicalTopology):
        raise ParameterError(
            "run_sharded needs a HierarchicalTopology (the region "
            f"partition is the shard key), got {type(topology).__name__}"
        )
    require_capacity(capacity, integer=True)
    require_exponent(exponent, allow_one=True)
    if mode not in ("dynamic", "steady"):
        raise ParameterError(f"mode must be 'dynamic' or 'steady', got {mode!r}")
    if int(requests) != requests or requests < 1:
        raise ParameterError(
            f"request count must be a positive integer, got {requests}"
        )
    if int(warmup) != warmup or warmup < 0:
        raise ParameterError(
            f"warmup must be a non-negative integer, got {warmup}"
        )
    if warmup and mode != "dynamic":
        raise ParameterError("warmup is only meaningful for mode='dynamic'")
    regions = topology.region_count
    failure_by_region: dict[int, RegionFailure] = {}
    for failure in failures:
        if not 0 <= failure.region < regions:
            raise ParameterError(
                f"failure names region {failure.region} but the topology "
                f"has {regions}"
            )
        if failure.region in failure_by_region:
            raise ParameterError(
                f"at most one failure per region, got two for {failure.region}"
            )
        region_nodes = set(topology.region_nodes(failure.region))
        stray = [n for n in failure.nodes if n not in region_nodes]
        if stray:
            raise ParameterError(
                f"failure routers {stray} are not in region {failure.region}"
            )
        failure_by_region[failure.region] = failure

    # Even split with the remainder on the first regions — a pure
    # function of (requests, regions), independent of the pool size.
    def _split(total: int) -> list[int]:
        base, extra = divmod(int(total), regions)
        return [base + (1 if r < extra else 0) for r in range(regions)]

    region_requests = _split(requests)
    region_warmup = _split(warmup)
    region_seqs = np.random.SeedSequence(seed).spawn(regions)
    tasks = []
    for region in range(regions):
        simulator_seed, workload_seed = region_seqs[region].spawn(2)
        backbone_hops, backbone_latency = topology.origin_cost_of(region)
        tasks.append(
            _RegionTask(
                region=region,
                topology=topology.region_subtopology(region),
                gateway=topology.gateway_of(region),
                origin_extra_hops=backbone_hops + float(origin_extra_hops),
                origin_extra_latency_ms=(
                    backbone_latency + float(origin_extra_latency_ms)
                ),
                mode=mode,
                capacity=int(capacity),
                policy=policy,
                coordination_level=float(coordination_level),
                metric=metric,
                exponent=float(exponent),
                catalog_size=int(catalog_size),
                requests=region_requests[region],
                warmup=region_warmup[region],
                batch_size=int(batch_size),
                simulator_seed=simulator_seed,
                workload_seed=workload_seed,
                failure=failure_by_region.get(region),
            )
        )

    workers = _resolve_shards(shards, regions, available_cpus())
    obs = get_session()
    with obs.span("sim.sharded.run"):
        if workers <= 1:
            outcomes = [_run_region(task) for task in tasks]
        else:
            try:
                with concurrent.futures.ProcessPoolExecutor(
                    max_workers=workers
                ) as pool:
                    outcomes = list(pool.map(_run_region, tasks))
            except OSError:
                # Process pools need spawn/fork rights some sandboxes
                # deny; the serial path computes the identical result.
                workers = 0
                outcomes = [_run_region(task) for task in tasks]
        # Merge in region order — pool.map preserves task order, so the
        # fold sequence (and thus every float sum) is pool-invariant.
        collector = MetricsCollector()
        region_metrics: list[SimulationMetrics] = []
        kernel_seconds = 0.0
        span_name = _KERNEL_SPANS[mode]
        for expected, (region, metrics, snapshot) in enumerate(outcomes):
            if region != expected:
                raise SimulationError(
                    f"worker results arrived out of order: expected region "
                    f"{expected}, got {region}"
                )
            collector.merge(metrics)
            region_metrics.append(metrics)
            obs.merge_snapshot(snapshot)
            span = snapshot.get("spans", {}).get(span_name)
            if span is not None:
                kernel_seconds += span["total_s"]
        obs.counter("sim.sharded.regions").add(regions)
        obs.counter("sim.sharded.requests").add(requests)
        obs.gauge("sim.sharded.shards").set(workers)
        if kernel_seconds > 0:
            obs.gauge("sim.sharded.rps").set(
                (requests + warmup) / kernel_seconds
            )
    return ShardedRunResult(
        metrics=collector.summary(),
        region_metrics=tuple(region_metrics),
        regions=regions,
        shards=workers,
        requests=int(requests),
        warmup=int(warmup),
        kernel_seconds=kernel_seconds,
    )
