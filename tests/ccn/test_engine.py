"""Unit tests for repro.ccn.engine — the batched packet-level engine.

Scalar/batched equivalence lives in ``test_engine_equivalence.py``;
this module covers the engine's own surface: validation, outcome
codes, cohort aggregation, the finite-queue model and obs wiring.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.catalog import IRMWorkload, ZipfModel
from repro.catalog.workload import Request, TraceWorkload
from repro.ccn import (
    BatchedCCNEngine,
    BatchedCCNResult,
    CacheQueue,
    CCNMetrics,
    CCNNetwork,
)
from repro.ccn.engine import (
    N_OUTCOMES,
    OUT_AGGREGATED,
    OUT_FORWARDED,
    OUT_ORIGIN,
    OUT_QUEUED,
    OUT_REJECTED,
    OUT_SERVED_LOCAL,
)
from repro.core import ProvisioningStrategy
from repro.errors import ParameterError, SimulationError, TopologyError
from repro.obs import session as obs_session
from repro.simulation import LRUCache, StaticCache
from repro.topology import Topology, load_topology


@pytest.fixture
def triangle() -> Topology:
    return Topology.from_edges(
        [("R0", "R1"), ("R0", "R2"), ("R1", "R2")], link_latency_ms=5.0
    )


def make_engine(topology, **kwargs) -> BatchedCCNEngine:
    defaults = dict(origin_gateway=topology.nodes[0], origin_latency_ms=50.0)
    defaults.update(kwargs)
    return BatchedCCNEngine(topology, **defaults)


def provisioned_us_a(level: float = 0.5, **kwargs):
    topology = load_topology("us-a")
    engine = make_engine(topology, **kwargs)
    engine.install_strategy(
        ProvisioningStrategy(
            capacity=100, n_routers=topology.n_routers, level=level
        )
    )
    workload = IRMWorkload(ZipfModel(0.8, 10_000), topology.nodes, seed=7)
    return engine, workload


class TestValidation:
    def test_rejects_unknown_gateway(self, triangle):
        with pytest.raises(TopologyError):
            BatchedCCNEngine(triangle, origin_gateway="Z")

    def test_rejects_negative_latency(self, triangle):
        with pytest.raises(ParameterError):
            make_engine(triangle, origin_latency_ms=-1.0)

    def test_rejects_nonpositive_pit_lifetime(self, triangle):
        with pytest.raises(ParameterError):
            make_engine(triangle, pit_lifetime_ms=0.0)

    def test_rejects_bad_cohort_size(self, triangle):
        with pytest.raises(ParameterError):
            make_engine(triangle, cohort_size=0)

    def test_rejects_unknown_store_router(self, triangle):
        with pytest.raises(SimulationError):
            make_engine(triangle, stores={"Z": StaticCache(0)})

    def test_rejects_dynamic_store(self, triangle):
        with pytest.raises(SimulationError, match="scalar CCNNetwork"):
            make_engine(triangle, stores={"R1": LRUCache(4)})

    def test_capacity_zero_policy_allowed(self, triangle):
        engine = make_engine(triangle, stores={"R1": LRUCache(0)})
        result = engine.run_schedule(["R1"], [1], [0.0])
        assert result.requests_completed == 1

    def test_rejects_mismatched_schedule(self, triangle):
        engine = make_engine(triangle)
        with pytest.raises(ParameterError):
            engine.run_schedule(["R0", "R1"], [1], [0.0])

    def test_rejects_unsorted_times(self, triangle):
        engine = make_engine(triangle)
        with pytest.raises(ParameterError):
            engine.run_schedule(["R0", "R1"], [1, 2], [5.0, 1.0])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_non_finite_times(self, triangle, bad):
        engine = make_engine(triangle)
        with pytest.raises(ParameterError, match="finite"):
            engine.run_schedule(["R0", "R1", "R2"], [1, 2, 3], [0.0, bad, 1.0])

    def test_rejects_bad_rank(self, triangle):
        engine = make_engine(triangle)
        with pytest.raises(ParameterError):
            engine.run_schedule(["R0"], [0], [0.0])

    def test_rejects_negative_interarrival(self, triangle):
        engine = make_engine(triangle)
        workload = IRMWorkload(ZipfModel(0.8, 100), triangle.nodes, seed=0)
        with pytest.raises(ParameterError):
            engine.run_workload(workload, 10, interarrival_ms=-1.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_non_finite_interarrival(self, triangle, bad):
        engine = make_engine(triangle)
        workload = IRMWorkload(ZipfModel(0.8, 100), triangle.nodes, seed=0)
        for run in (engine.run_workload, engine.run_workload_reference):
            with pytest.raises(ParameterError, match="finite"):
                run(workload, 10, interarrival_ms=bad)

    @pytest.mark.parametrize(
        "entry",
        [
            "run_schedule",
            "run_schedule_reference",
            "run_workload",
            "run_workload_reference",
        ],
    )
    def test_rejects_unknown_client(self, triangle, entry):
        # The scalar network's error for the same input, not a KeyError.
        engine = make_engine(triangle)
        run = getattr(engine, entry)
        message = "unknown client router 'Z'"
        with pytest.raises(SimulationError, match=message):
            if entry.startswith("run_schedule"):
                run(["R1", "Z"], [1, 2], [0.0, 1.0])
            else:
                run(TraceWorkload([Request("R1", 1), Request("Z", 2)]), 2)
        scalar = CCNNetwork(triangle, origin_gateway="R0")
        with pytest.raises(SimulationError, match=message):
            scalar.run_workload(TraceWorkload([Request("Z", 1)]), 1)

    def test_strategy_router_count_must_match(self, triangle):
        engine = make_engine(triangle)
        with pytest.raises(ParameterError):
            engine.install_strategy(
                ProvisioningStrategy(capacity=10, n_routers=5, level=0.5)
            )

    def test_signature_table_budget(self):
        engine, workload = provisioned_us_a(table_limit_bytes=1024)
        with pytest.raises(SimulationError, match="budget"):
            engine.run_workload(workload, 1000)


class TestCacheQueueValidation:
    def test_rejects_nonpositive_size(self):
        with pytest.raises(ParameterError):
            CacheQueue(size=0)

    def test_rejects_negative_penalty(self):
        with pytest.raises(ParameterError):
            CacheQueue(size=4, read_penalty_ms=-0.1)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    @pytest.mark.parametrize("field", ["read_penalty_ms", "write_penalty_ms"])
    def test_rejects_non_finite_penalty(self, field, bad):
        with pytest.raises(ParameterError, match="finite"):
            CacheQueue(size=4, **{field: bad})

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 2.5])
    def test_rejects_non_integer_size(self, bad):
        with pytest.raises(ParameterError, match="positive integer"):
            CacheQueue(size=bad)


class TestOutcomes:
    def test_outcome_code_values(self):
        codes = (
            OUT_SERVED_LOCAL,
            OUT_FORWARDED,
            OUT_AGGREGATED,
            OUT_ORIGIN,
            OUT_QUEUED,
            OUT_REJECTED,
        )
        assert sorted(codes) == list(range(N_OUTCOMES))

    def test_local_hit_outcome(self, triangle):
        engine = make_engine(
            triangle, stores={"R1": StaticCache(1, frozenset({1}))}
        )
        result = engine.run_schedule(["R1"], [1], [0.0])
        assert result.outcome_counts[1, OUT_SERVED_LOCAL] == 1
        assert result.cs_hits == 1
        assert list(result.interest_hops) == [0]

    def test_origin_outcome(self, triangle):
        engine = make_engine(triangle)
        result = engine.run_schedule(["R1"], [1], [0.0])
        assert result.outcome_counts[1, OUT_ORIGIN] == 1
        assert result.origin_productions == 1

    def test_forwarded_outcome(self, triangle):
        # Content on the default route (at the gateway router itself).
        engine = make_engine(
            triangle, stores={"R0": StaticCache(1, frozenset({1}))}
        )
        result = engine.run_schedule(["R1"], [1], [0.0])
        assert result.outcome_counts[1, OUT_FORWARDED] == 1
        assert result.cs_hits == 1
        assert result.origin_productions == 0

    def test_aggregated_outcome(self, triangle):
        # Two Interests for one name from distinct clients inside the
        # first's in-flight window: the second aggregates in the PIT.
        engine = make_engine(triangle)
        result = engine.run_schedule(["R1", "R2"], [1, 1], [0.0, 1.0])
        assert result.pit_aggregations == 1
        assert int(result.outcome_counts[:, OUT_AGGREGATED].sum()) == 1
        assert result.origin_productions == 1  # one upstream fetch

    def test_outcome_matrix_shape_and_total(self):
        engine, workload = provisioned_us_a()
        result = engine.run_workload(workload, 4000)
        assert result.outcome_counts.shape == (engine.n_nodes, N_OUTCOMES)
        assert int(result.outcome_counts.sum()) == 4000
        assert result.outcome_counts.dtype == np.int64


class TestCohorts:
    def test_cohort_size_invariance(self):
        engine_a, workload_a = provisioned_us_a(cohort_size=64)
        engine_b, workload_b = provisioned_us_a()
        a = engine_a.run_workload(workload_a, 3000)
        b = engine_b.run_workload(workload_b, 3000)
        assert a.cohorts == -(-3000 // 64) and b.cohorts == 1
        assert np.array_equal(a.outcome_counts, b.outcome_counts)
        assert np.array_equal(
            np.sort(a.latencies_ms), np.sort(b.latencies_ms)
        )
        assert a.to_metrics() == b.to_metrics()

    def test_empty_run(self, triangle):
        engine = make_engine(triangle)
        result = engine.run_schedule([], [], [])
        assert result.requests_issued == 0
        assert result.cohorts == 0
        assert int(result.outcome_counts.sum()) == 0


class TestToMetrics:
    def test_metrics_shape(self, triangle):
        engine = make_engine(triangle)
        result = engine.run_schedule(["R1", "R2"], [1, 2], [0.0, 10.0])
        metrics = result.to_metrics()
        assert isinstance(metrics, CCNMetrics)
        assert metrics.requests_issued == 2
        assert metrics.requests_completed == 2
        assert metrics.latencies_ms == [float(v) for v in result.latencies_ms]
        assert metrics.interest_hops == [int(v) for v in result.interest_hops]

    def test_derived_properties_empty(self):
        result = BatchedCCNResult()
        assert result.origin_load == 0.0
        assert result.mean_latency_ms == 0.0
        assert result.mean_interest_hops == 0.0


class TestQueueModel:
    def test_no_queue_has_no_queue_stats(self):
        engine, workload = provisioned_us_a()
        result = engine.run_workload(workload, 3000)
        assert result.queued_ops == 0
        assert result.rejected_ops == 0
        assert result.queue_wait_ms == 0.0

    def test_generous_queue_waits_raise_latency(self):
        base_engine, base_wl = provisioned_us_a()
        base = base_engine.run_workload(base_wl, 5000)
        queued_engine, queued_wl = provisioned_us_a(
            queue=CacheQueue(size=64, read_penalty_ms=0.5, write_penalty_ms=0.2)
        )
        queued = queued_engine.run_workload(queued_wl, 5000)
        assert queued.queued_ops > 0
        assert queued.rejected_ops == 0
        assert queued.queue_wait_ms > 0
        assert queued.mean_latency_ms > base.mean_latency_ms
        assert int(queued.outcome_counts[:, OUT_QUEUED].sum()) > 0
        # Queueing delays completions but loses none.
        assert queued.requests_completed == base.requests_completed == 5000

    def test_full_queue_rejects_and_escalates(self):
        base_engine, base_wl = provisioned_us_a()
        base = base_engine.run_workload(base_wl, 5000, interarrival_ms=0.05)
        engine, workload = provisioned_us_a(
            queue=CacheQueue(size=1, read_penalty_ms=2.0, write_penalty_ms=1.0)
        )
        result = engine.run_workload(workload, 5000, interarrival_ms=0.05)
        assert result.rejected_ops > 0
        rejected = int(result.outcome_counts[:, OUT_REJECTED].sum())
        assert rejected > 0
        # Rejected reads escalate upstream: strictly more hops and more
        # origin traffic than the no-queue run of the same stream.
        assert result.mean_interest_hops > base.mean_interest_hops
        assert result.origin_productions > base.origin_productions
        assert result.requests_completed == 5000

    def test_queue_outcomes_balance(self):
        engine, workload = provisioned_us_a(
            queue=CacheQueue(size=2, read_penalty_ms=1.0, write_penalty_ms=0.5)
        )
        result = engine.run_workload(workload, 5000, interarrival_ms=0.1)
        assert int(result.outcome_counts.sum()) == 5000
        assert result.queued_ops > 0 or result.rejected_ops > 0


class TestObsWiring:
    def test_counters_and_gauge(self):
        engine, workload = provisioned_us_a(
            queue=CacheQueue(size=8, read_penalty_ms=0.2)
        )
        with obs_session() as capture:
            result = engine.run_workload(workload, 3000, interarrival_ms=0.1)
        snapshot = capture.snapshot()
        counters = snapshot["counters"]
        assert counters["ccn.engine.requests"] == 3000
        assert counters["ccn.engine.cohorts"] == result.cohorts
        assert counters["ccn.engine.aggregations"] == result.pit_aggregations
        assert counters["ccn.engine.simulated"] == result.simulated_requests
        assert counters["ccn.engine.queued"] == result.queued_ops
        assert counters["ccn.engine.rejected"] == result.rejected_ops
        assert snapshot["gauges"]["ccn.engine.rps"] > 0
        assert snapshot["spans"]["ccn.engine"]["count"] == 1
        # No operation is rejected: the vectorized queue pass ran.
        assert result.rejected_ops == 0
        assert counters["ccn.engine.queue_fallbacks"] == 0
        assert snapshot["spans"]["ccn.engine.queue"]["count"] == 1

    def test_rejecting_queue_falls_back_to_the_event_loop(self):
        engine, workload = provisioned_us_a(
            queue=CacheQueue(size=1, read_penalty_ms=0.2)
        )
        with obs_session() as capture:
            result = engine.run_workload(workload, 3000, interarrival_ms=0.1)
        snapshot = capture.snapshot()
        assert result.rejected_ops > 0
        assert snapshot["counters"]["ccn.engine.queue_fallbacks"] == 1
        assert snapshot["spans"]["ccn.engine.queue"]["count"] == 1

    def test_no_queue_records_no_queue_pass(self):
        engine, workload = provisioned_us_a()
        with obs_session() as capture:
            engine.run_workload(workload, 1000)
        snapshot = capture.snapshot()
        assert "ccn.engine.queue_fallbacks" not in snapshot["counters"]
        assert "ccn.engine.queue" not in snapshot["spans"]
