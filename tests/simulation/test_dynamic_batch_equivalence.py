"""Batched dynamic (replacement) kernel vs the scalar reference loop.

The dynamic kernel must be a pure optimization, like the steady-state
one (:mod:`tests.simulation.test_batch_equivalence`) but with a harder
contract: replacement-policy state evolves request by request, so the
batched path must leave every store with *identical* contents, internal
ordering/frequency bookkeeping, and random-stream positions — not just
identical metrics.  On dyadic-latency topologies (every link 2.0 ms)
equality is bitwise; on the geo-calibrated topologies the counts are
exact and float totals agree to ~1e-9 relative.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.catalog.popularity import ZipfModel
from repro.catalog.workload import IRMWorkload, Request, TraceWorkload
from repro.errors import ParameterError, SimulationError
from repro.simulation.cache import CachePolicy
from repro.simulation.dynamic_batch import DynamicKernel
from repro.simulation.simulator import DynamicSimulator
from repro.topology import load_topology, ring_topology

POLICIES = ("lru", "lfu", "perfect-lfu", "fifo", "random")
LEVELS = (0.0, 0.5, 1.0)


def make_simulator(topology, policy, *, capacity=8, level=0.5, seed=42):
    return DynamicSimulator(
        topology,
        capacity=capacity,
        policy=policy,
        coordination_level=level,
        seed=seed,
    )


def make_workload(topology, *, seed=7, catalog=500):
    return IRMWorkload(ZipfModel(0.9, catalog), topology.nodes, seed=seed)


def store_counters(simulator):
    counters = {}
    for node, router in simulator.fleet.items():
        coordinated = router.coordinated_store
        counters[node] = (
            router.local_store.hits,
            router.local_store.misses,
            coordinated.hits if coordinated is not None else None,
            coordinated.misses if coordinated is not None else None,
        )
    return counters


def internal_state(simulator):
    """Every store's full private state, including RNG positions.

    Captures strictly more than ``contents``: recency/insertion order,
    frequency and last-used bookkeeping, eviction clocks, and the
    random policy's generator state.  Equality here means a batched
    segment is indistinguishable from a scalar one to any future
    request.
    """
    state = {}
    for node, router in simulator.fleet.items():
        for tag, store in (
            ("local", router.local_store),
            ("coordinated", router.coordinated_store),
        ):
            if store is None:
                state[node, tag] = None
                continue
            entry = {"contents": store.contents}
            order = getattr(store, "_order", None)
            if order is not None:
                entry["order"] = list(order)
            for attr in (
                "_frequency",
                "_last_used",
                "_global_frequency",
                "_stored",
                "_clock",
                "_items",
                "_positions",
            ):
                if hasattr(store, attr):
                    value = getattr(store, attr)
                    entry[attr] = (
                        value.copy() if hasattr(value, "copy") else value
                    )
            rng = getattr(store, "_rng", None)
            if rng is not None:
                entry["rng"] = repr(rng.bit_generator.state)
            state[node, tag] = entry
    return state


class TestBitwiseEquivalenceDyadicTopology:
    """Ring with 2.0 ms links: floats are dyadic, equality is exact."""

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("level", LEVELS)
    def test_metrics_stores_and_state_identical(self, policy, level):
        topology = ring_topology(6, link_latency_ms=2.0)
        batched_sim = make_simulator(topology, policy, level=level)
        scalar_sim = make_simulator(topology, policy, level=level)

        batched = batched_sim.run(make_workload(topology), 4000)
        scalar = scalar_sim.run_scalar(make_workload(topology), 4000)

        assert batched == scalar  # bitwise: counts, floats and served_by
        assert store_counters(batched_sim) == store_counters(scalar_sim)
        assert internal_state(batched_sim) == internal_state(scalar_sim)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_warmup_boundary_mid_batch(self, policy):
        # 137 is not a multiple of 257, so the warmup cut falls inside
        # the first batch and the kernel must split its aggregation.
        topology = ring_topology(6, link_latency_ms=2.0)
        batched_sim = make_simulator(topology, policy)
        scalar_sim = make_simulator(topology, policy)

        batched = batched_sim.run(
            make_workload(topology), 3000, warmup=137, batch_size=257
        )
        scalar = scalar_sim.run_scalar(
            make_workload(topology), 3000, warmup=137, batch_size=257
        )

        assert batched == scalar
        assert store_counters(batched_sim) == store_counters(scalar_sim)
        assert internal_state(batched_sim) == internal_state(scalar_sim)

    @pytest.mark.parametrize("batch_size", [1, 17, 1000, 100_000])
    def test_batch_size_does_not_change_metrics(self, batch_size):
        topology = ring_topology(6, link_latency_ms=2.0)
        reference = make_simulator(topology, "lru").run(
            make_workload(topology), 3000
        )
        chunked = make_simulator(topology, "lru").run(
            make_workload(topology), 3000, batch_size=batch_size
        )
        assert chunked == reference

    @pytest.mark.parametrize("policy", POLICIES)
    def test_batched_segment_continues_scalar(self, policy):
        # A batched run must leave the fleet in a state a scalar run can
        # continue from with no observable seam — and vice versa.
        topology = ring_topology(6, link_latency_ms=2.0)
        mixed = make_simulator(topology, policy)
        pure = make_simulator(topology, policy)

        workload = make_workload(topology)
        first = list(workload.batches(3000))

        class _Replay:
            def __init__(self, batches):
                self._batches = batches

            def batches(self, count, *, batch_size=65536):
                yield from self._batches

            def requests(self, count):
                for batch in self._batches:
                    yield from batch.requests()

        head = _Replay(first[:2])
        tail = _Replay(first[2:])
        head_count = sum(len(b) for b in first[:2])
        tail_count = 3000 - head_count

        mixed.run(head, head_count)
        mixed.run_scalar(tail, tail_count)
        pure.run_scalar(make_workload(topology), 3000)

        assert store_counters(mixed) == store_counters(pure)
        assert internal_state(mixed) == internal_state(pure)


class TestGeoTopologyEquivalence:
    """US-A latencies are not dyadic: counts exact, totals to 1e-9."""

    @pytest.mark.parametrize("policy", ["lru", "random"])
    def test_counts_exact_floats_close(self, policy):
        topology = load_topology("us-a")
        batched_sim = make_simulator(topology, policy, capacity=50, seed=3)
        scalar_sim = make_simulator(topology, policy, capacity=50, seed=3)

        workload = lambda: IRMWorkload(
            ZipfModel(0.8, 5_000), topology.nodes, seed=0
        )
        batched = batched_sim.run(workload(), 20_000, warmup=1000)
        scalar = scalar_sim.run_scalar(workload(), 20_000, warmup=1000)

        assert (batched.local_hits, batched.peer_hits, batched.origin_hits) == (
            scalar.local_hits,
            scalar.peer_hits,
            scalar.origin_hits,
        )
        assert batched.served_by == scalar.served_by
        assert batched.total_hops == scalar.total_hops  # integer-valued
        assert batched.total_latency_ms == pytest.approx(
            scalar.total_latency_ms, rel=1e-9
        )
        assert store_counters(batched_sim) == store_counters(scalar_sim)
        for (key, b_entry), s_entry in zip(
            sorted(
                internal_state(batched_sim).items(),
                key=lambda kv: repr(kv[0]),
            ),
            (
                entry
                for _, entry in sorted(
                    internal_state(scalar_sim).items(),
                    key=lambda kv: repr(kv[0]),
                )
            ),
        ):
            assert b_entry == s_entry, key


class TestFullStoresAtPolicyShape:
    """Every store full and evicting, at the sim-policies shape.

    The benchmark's own check runs a prefix on which no US-A store ever
    fills, so a wrong eviction would pass it.  Here c = 100 against a
    10^5 catalog fills every store: FIFO, Random and LFU stores evict
    650-960 times each, PerfectLFU stores (which displace only a
    strictly hotter rank) 34-58 times.
    """

    @pytest.mark.parametrize("policy", ["fifo", "random", "lfu", "perfect-lfu"])
    def test_evicting_stores_match_scalar(self, policy, monkeypatch):
        # The kernel never calls CachePolicy.admit, so this counts the
        # scalar run's evictions only.
        evictions = Counter()
        admit = CachePolicy.admit

        def counting_admit(store, rank):
            evicted = admit(store, rank)
            if evicted is not None:
                evictions[id(store)] += 1
            return evicted

        monkeypatch.setattr(CachePolicy, "admit", counting_admit)
        topology = load_topology("us-a")
        batched_sim = make_simulator(topology, policy, capacity=100, seed=5)
        scalar_sim = make_simulator(topology, policy, capacity=100, seed=5)

        workload = lambda: IRMWorkload(
            ZipfModel(0.8, 100_000), topology.nodes, seed=11
        )
        batched = batched_sim.run(
            workload(), 20_000, warmup=137, batch_size=7_001
        )
        scalar = scalar_sim.run_scalar(
            workload(), 20_000, warmup=137, batch_size=7_001
        )

        assert (batched.local_hits, batched.peer_hits, batched.origin_hits) == (
            scalar.local_hits,
            scalar.peer_hits,
            scalar.origin_hits,
        )
        assert batched.served_by == scalar.served_by
        assert batched.total_latency_ms == pytest.approx(
            scalar.total_latency_ms, rel=1e-9
        )
        assert store_counters(batched_sim) == store_counters(scalar_sim)
        assert internal_state(batched_sim) == internal_state(scalar_sim)
        for router in scalar_sim.fleet.values():
            for store in (router.local_store, router.coordinated_store):
                assert evictions[id(store)] >= 30
        for router in batched_sim.fleet.values():
            for store in (router.local_store, router.coordinated_store):
                assert len(store) == store.capacity == 50


class TestRunModeSelection:
    def test_batched_requires_batch_api(self):
        topology = ring_topology(4, link_latency_ms=2.0)

        class DuckWorkload:
            """Pre-batch-API duck-typed workload (requests only)."""

            def requests(self, count):
                return iter(
                    Request(topology.nodes[i % 4], 1 + i % 5)
                    for i in range(count)
                )

        simulator = make_simulator(topology, "lru")
        with pytest.raises(SimulationError):
            simulator.run(DuckWorkload(), 10, batched=True)
        # default mode silently takes the reference path
        metrics = simulator.run(DuckWorkload(), 10)
        assert metrics == make_simulator(topology, "lru").run_scalar(
            DuckWorkload(), 10
        )

    def test_unknown_client_raises_both_paths(self):
        topology = ring_topology(4, link_latency_ms=2.0)
        workload = TraceWorkload([Request("nowhere", 1)])
        with pytest.raises(SimulationError):
            make_simulator(topology, "lru").run(workload, 1)
        with pytest.raises(SimulationError):
            make_simulator(topology, "lru").run_scalar(workload, 1)

    def test_negative_warmup_rejected(self):
        topology = ring_topology(4, link_latency_ms=2.0)
        simulator = make_simulator(topology, "lru")
        with pytest.raises(ParameterError):
            simulator.run(make_workload(topology), 10, warmup=-1)


class TestKernelValidation:
    def test_unknown_policy_rejected(self):
        topology = ring_topology(4, link_latency_ms=2.0)
        simulator = make_simulator(topology, "lru")
        with pytest.raises(SimulationError):
            DynamicKernel(topology, simulator.router, "static", 4, 4)

    def test_negative_slots_rejected(self):
        topology = ring_topology(4, link_latency_ms=2.0)
        simulator = make_simulator(topology, "lru")
        with pytest.raises(SimulationError):
            DynamicKernel(topology, simulator.router, "lru", -1, 4)

    def test_run_is_one_shot(self):
        topology = ring_topology(4, link_latency_ms=2.0)
        simulator = make_simulator(topology, "lru")
        kernel = DynamicKernel(
            topology,
            simulator.router,
            "lru",
            simulator._local_slots,
            simulator._coordinated_slots,
        )
        run = kernel.start_run(simulator.fleet)
        run.finish()
        with pytest.raises(SimulationError):
            run.finish()
        batch = make_workload(topology).sample_batch(4)
        with pytest.raises(SimulationError):
            run.process(batch)
