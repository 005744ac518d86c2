"""Corners of the batched replacement engines' own structures.

LFU and PerfectLFU find their victims through frequency buckets (the
first rank of the lowest non-empty bucket), and Random draws its
victims in chunks and rewinds the unused draws when a run finishes.
Each case drives one of those structures into a corner and checks the
batched run against ``run_scalar`` on every store's full private state,
generator included.  The last cases are the checks made when a kernel
binds to a fleet whose stores it cannot reproduce.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.catalog.popularity import ZipfModel
from repro.catalog.workload import IRMWorkload, Request, TraceWorkload
from repro.errors import SimulationError
from repro.simulation import dynamic_batch
from repro.simulation.cache import RandomCache, make_policy
from repro.simulation.simulator import DynamicSimulator
from repro.topology import grid_topology, ring_topology
from tests.simulation.test_dynamic_batch_equivalence import (
    internal_state,
    store_counters,
)

CHUNK = dynamic_batch._RANDOM_DRAW_CHUNK


def run_one_store(policy, ranks, *, capacity, prepare=None, batch_size=4096):
    """Replay ``ranks`` at a single router (one store of ``capacity``).

    ``prepare`` gets each simulator's store before the run, so both
    sides start from the same state.  Returns the batched side's store
    after asserting it matches the scalar side exactly.
    """
    topology = grid_topology(1, 1, link_latency_ms=2.0)
    client = topology.nodes[0]
    batched_sim, scalar_sim = (
        DynamicSimulator(topology, capacity=capacity, policy=policy, seed=3)
        for _ in range(2)
    )
    if prepare is not None:
        prepare(batched_sim.fleet[client].local_store)
        prepare(scalar_sim.fleet[client].local_store)
    trace = [Request(client, rank) for rank in ranks]
    batched = batched_sim.run(TraceWorkload(trace), len(trace), batch_size=batch_size)
    scalar = scalar_sim.run_scalar(
        TraceWorkload(trace), len(trace), batch_size=batch_size
    )
    assert batched == scalar
    assert store_counters(batched_sim) == store_counters(scalar_sim)
    assert internal_state(batched_sim) == internal_state(scalar_sim)
    return batched_sim.fleet[client].local_store


class TestLFUBuckets:
    @pytest.mark.parametrize("batch_size", [1, 4096])
    def test_hit_empties_the_minimum_bucket(self, batch_size):
        # Both count-1 ranks are hit, so the count-1 bucket empties on a
        # hit; the next victim is the least recent rank of count 2.
        store = run_one_store(
            "lfu", [1, 2, 1, 2, 3], capacity=2, batch_size=batch_size
        )
        assert store._frequency == {2: 2, 3: 1}

    def test_lone_rank_climbs_out_of_the_minimum(self):
        # Rank 2 climbs to count 3; then rank 1, alone at the minimum,
        # climbs into the missing count-2 bucket (its emptied bucket is
        # reused), so the minimum moves to 2 and rank 1 is the victim.
        store = run_one_store("lfu", [1, 2, 2, 2, 1, 3], capacity=2)
        assert store._frequency == {2: 3, 3: 1}


class TestPerfectLFUBuckets:
    def test_eviction_empties_the_minimum_far_below_the_next_bucket(self):
        # Rank 1 counts 10^5 + 1; rank 2 (count 1) is evicted by rank 3
        # on its second request, which empties the minimum bucket with
        # the next stored count 10^5 above it.  The new minimum is rank
        # 3's count 2, so rank 4 needs three requests to displace it.
        def hot_rank_one(store):
            store.admit(1)
            for _ in range(100_000):
                store.lookup(1)

        store = run_one_store(
            "perfect-lfu", [2, 3, 3, 4, 4, 4], capacity=2, prepare=hot_rank_one
        )
        assert store.contents == {1, 4}
        assert store._global_frequency[1] == 100_001

    def test_displacing_admit_far_above_the_minimum(self):
        # A state the policy cannot reach (an outside rank counting
        # more than minimum + 1) still matches the scalar min(): the
        # new minimum after rank 1's eviction is rank 2's 10^12, not
        # rank 3's count, and nothing walks the gap between them.
        def far_counts(store):
            store.admit(1)
            store.admit(2)
            store._global_frequency[2] = 10**12
            store._global_frequency[3] = 2 * 10**12
            store._global_frequency[6] = 10**12 + 5

        store = run_one_store(
            "perfect-lfu", [3, 6], capacity=2, prepare=far_counts
        )
        assert store.contents == {3, 6}

    def test_fill_phase_admit_below_the_minimum(self):
        # Rank 1 reaches count 4 before the store fills; ranks 2 and 3
        # enter below it at count 1, and rank 4 then displaces rank 2.
        store = run_one_store(
            "perfect-lfu", [1, 1, 1, 1, 2, 3, 4, 4], capacity=3
        )
        assert store.contents == {1, 3, 4}

    def test_frequency_ties_evict_the_least_recent(self):
        # Ranks 3, 1 and then 4 reach count 2 in that order; rank 5's
        # count-3 admit evicts the least recent of them, rank 3.
        store = run_one_store(
            "perfect-lfu", [1, 2, 3, 3, 1, 4, 4, 5, 5, 5], capacity=3
        )
        assert store.contents == {1, 4, 5}


def generator_states():
    """A ``prepare`` hook recording each store's generator state, and the record."""
    states = {}

    def remember(store):
        states[id(store)] = store._rng.bit_generator.state

    return remember, states


class TestRandomDraws:
    def test_run_without_evictions_leaves_the_generator_untouched(self):
        remember, before = generator_states()
        store = run_one_store(
            "random", [1, 2, 3, 1, 2, 4, 5], capacity=8, prepare=remember
        )
        assert store._rng.bit_generator.state == before[id(store)]

    @pytest.mark.parametrize(
        "draws", [1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK]
    )
    def test_draws_around_a_chunk_boundary(self, draws):
        # Capacity 2 (integers(2) consumes bits; integers(1) does not):
        # two ranks fill the store, each further distinct rank is one
        # draw.
        remember, before = generator_states()
        store = run_one_store(
            "random", range(1, draws + 3), capacity=2, prepare=remember
        )
        assert draws + 2 in store.contents
        assert store._rng.bit_generator.state != before[id(store)]


def make_fleet(policy="random"):
    topology = ring_topology(4, link_latency_ms=2.0)
    return topology, DynamicSimulator(
        topology, capacity=4, policy=policy, coordination_level=0.5, seed=8
    )


def segment(topology, seed):
    return IRMWorkload(ZipfModel(0.9, 60), topology.nodes, seed=seed)


class TestRandomAcrossRuns:
    def test_back_to_back_runs(self):
        topology, batched = make_fleet()
        _, scalar = make_fleet()
        for seed in (1, 2):
            assert batched.run(segment(topology, seed), 1500) == scalar.run_scalar(
                segment(topology, seed), 1500
            )
        assert store_counters(batched) == store_counters(scalar)
        assert internal_state(batched) == internal_state(scalar)

    def test_batched_scalar_batched_equals_scalar(self):
        topology, mixed = make_fleet()
        _, pure = make_fleet()
        mixed.run(segment(topology, 1), 1500)
        mixed.run_scalar(segment(topology, 2), 1500)
        mixed.run(segment(topology, 3), 1500)
        for seed in (1, 2, 3):
            pure.run_scalar(segment(topology, seed), 1500)
        assert store_counters(mixed) == store_counters(pure)
        assert internal_state(mixed) == internal_state(pure)


class TestKernelBinding:
    @pytest.mark.parametrize("policy", ["lru", "fifo", "random", "lfu", "perfect-lfu"])
    def test_store_capacity_must_match_the_kernel(self, policy):
        # Every engine bounds its stores by the kernel's slot count
        # (Random's victim draws, the full-store tests, the
        # over-capacity pops); a store of another capacity would
        # silently leave the scalar path.
        topology, simulator = make_fleet(policy)
        simulator.fleet[topology.nodes[1]].local_store = make_policy(policy, 3)
        with pytest.raises(SimulationError, match="capacity 3"):
            simulator.run(segment(topology, 1), 100)

    def test_random_stores_sharing_a_generator_are_refused(self):
        # The scalar loop interleaves two such stores' draws on one
        # stream; per-store chunks cannot, so the kernel says so.
        topology, simulator = make_fleet()
        shared = np.random.default_rng(5)
        for node in topology.nodes[:2]:
            simulator.fleet[node].local_store = RandomCache(2, seed=shared)
        with pytest.raises(SimulationError, match="share one generator"):
            simulator.run(segment(topology, 1), 100)
        simulator.run_scalar(segment(topology, 1), 100)
