"""Property: the batched replacement kernel is the scalar loop, state for state.

One generated scenario feeds both dynamic-simulator paths: a tiny fleet
(1-4 routers), a tiny store and catalog so that stores fill, evict and
tie constantly, every coordination level's partition split, and batch
sizes down to one request.  After the run every store's private state
— contents, order, counts, clocks and generator — must be identical.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.catalog import IRMWorkload, ZipfModel
from repro.errors import ParameterError
from repro.simulation import DynamicSimulator
from repro.topology import grid_topology, ring_topology
from tests.simulation.test_dynamic_batch_equivalence import (
    internal_state,
    store_counters,
)

POLICIES = ("lru", "fifo", "random", "lfu", "perfect-lfu")


def fleet(routers: int):
    """A ring of ``routers`` (a line below three, where no ring exists)."""
    if routers < 3:
        return grid_topology(1, routers, link_latency_ms=2.0)
    return ring_topology(routers, link_latency_ms=2.0)


class TestBatchedKernelIsTheScalarLoop:
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        policy=st.sampled_from(POLICIES),
        routers=st.integers(min_value=1, max_value=4),
        capacity=st.integers(min_value=0, max_value=4),
        catalog=st.integers(min_value=1, max_value=30),
        level=st.sampled_from([0.0, 0.5, 1.0]),
        batch_size=st.sampled_from([1, 2, 7, 64, 65536]),
        requests=st.integers(min_value=0, max_value=400),
        exponent=st.sampled_from([0.5, 1.0, 1.5]),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_final_state_identical(
        self,
        policy,
        routers,
        capacity,
        catalog,
        level,
        batch_size,
        requests,
        exponent,
        seed,
    ):
        topology = fleet(routers)

        def simulator():
            return DynamicSimulator(
                topology,
                capacity=capacity,
                policy=policy,
                coordination_level=level,
                seed=seed,
            )

        if capacity == 0:
            # A storeless fleet is refused before either path runs.
            with pytest.raises(ParameterError):
                simulator()
            return
        workload = lambda: IRMWorkload(
            ZipfModel(exponent, catalog), topology.nodes, seed=seed
        )
        batched_sim, scalar_sim = simulator(), simulator()
        batched = batched_sim.run(workload(), requests, batch_size=batch_size)
        scalar = scalar_sim.run_scalar(workload(), requests, batch_size=batch_size)
        assert batched == scalar
        assert store_counters(batched_sim) == store_counters(scalar_sim)
        assert internal_state(batched_sim) == internal_state(scalar_sim)
