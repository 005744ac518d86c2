"""Shard-merge equivalence suite for the region-sharded simulator.

The contract under test (DESIGN.md §14): the merged metrics and the
merged observability snapshot of a sharded run are a pure function of
``(topology, scenario, seed)`` — bit-identical across shard counts
{serial in-process, 1, 2, 8}, including runs with a mid-stream store
failure on one shard.
"""

import numpy as np
import pytest

from repro import obs
from repro.catalog import ZipfModel
from repro.catalog.workload import IRMWorkload
from repro.errors import ParameterError, SimulationError
from repro.simulation import (
    DynamicSimulator,
    MetricsCollector,
    OriginModel,
    RegionFailure,
    SimulationMetrics,
    run_sharded,
)
from repro.simulation.sharded import deterministic_view
from repro.topology import generate_hierarchy

REQUESTS = 12_000
WARMUP = 800


@pytest.fixture(scope="module")
def hierarchy():
    # 8 regions so shards=8 exercises one region per worker.
    return generate_hierarchy(11, routers=72, regions=8)


def observed_run(hierarchy, shards, **kwargs):
    """Run sharded under a capturing session; return (result, view)."""
    defaults = dict(
        requests=REQUESTS,
        capacity=8,
        coordination_level=0.5,
        warmup=WARMUP,
        seed=5,
        shards=shards,
    )
    defaults.update(kwargs)
    with obs.session() as session:
        result = run_sharded(hierarchy, **defaults)
        view = deterministic_view(session.snapshot())
    return result, view


class TestShardInvariance:
    @pytest.fixture(scope="class")
    def baseline(self, hierarchy):
        return observed_run(hierarchy, None)

    @pytest.mark.parametrize("shards", [1, 2, 8])
    def test_dynamic_merge_is_bit_identical(self, hierarchy, baseline, shards):
        result, view = observed_run(hierarchy, shards)
        assert result.metrics == baseline[0].metrics
        assert result.region_metrics == baseline[0].region_metrics
        assert view == baseline[1]

    def test_view_compares_counters_gauges_histograms_and_spans(self, baseline):
        _, view = baseline
        assert view["counters"]["sim.dynamic.requests"] == REQUESTS
        assert view["counters"]["sim.sharded.regions"] == 8
        assert view["histograms"]["sim.dynamic.batch_size"]
        assert view["span_counts"]["sim.dynamic.run"] == 8
        # Wall-clock and pool-geometry values must be projected out.
        assert "sim.sharded.shards" not in view["gauges"]
        assert not any(name.endswith(".rps") for name in view["gauges"])
        assert not any(name.startswith("zipf.") for name in view["counters"])

    @pytest.mark.parametrize("shards", [1, 8])
    def test_steady_merge_is_bit_identical(self, hierarchy, shards):
        serial, serial_view = observed_run(
            hierarchy, None, mode="steady", warmup=0
        )
        sharded, sharded_view = observed_run(
            hierarchy, shards, mode="steady", warmup=0
        )
        assert sharded.metrics == serial.metrics
        assert sharded_view == serial_view

    def test_different_seed_changes_the_result(self, hierarchy, baseline):
        other, _ = observed_run(hierarchy, None, seed=6)
        assert other.metrics != baseline[0].metrics

    def test_result_shape(self, hierarchy, baseline):
        result, _ = baseline
        assert result.regions == 8
        assert result.shards == 0  # serial in-process path
        assert result.requests == REQUESTS
        assert result.warmup == WARMUP
        assert result.metrics.requests == REQUESTS
        assert len(result.region_metrics) == 8
        assert result.kernel_seconds > 0
        assert result.kernel_rps > 0


class TestFailureInvariance:
    @pytest.fixture(scope="class")
    def failure(self, hierarchy):
        return RegionFailure(
            region=3, after=900, nodes=hierarchy.region_nodes(3)[:4]
        )

    def test_failure_is_shard_count_invariant(self, hierarchy, failure):
        serial, serial_view = observed_run(hierarchy, None, failures=[failure])
        sharded, sharded_view = observed_run(hierarchy, 8, failures=[failure])
        assert sharded.metrics == serial.metrics
        assert sharded_view == serial_view
        assert serial_view["counters"]["sim.failures.injections"] == 1
        assert serial_view["counters"]["sim.failures.stores_failed"] == 4

    def test_failure_changes_only_the_failed_region(
        self, hierarchy, failure
    ):
        clean, _ = observed_run(hierarchy, None)
        failed, _ = observed_run(hierarchy, None, failures=[failure])
        assert failed.metrics != clean.metrics
        for region in range(8):
            same = failed.region_metrics[region] == clean.region_metrics[region]
            assert same == (region != failure.region)

    def test_failure_validation(self, hierarchy):
        with pytest.raises(ParameterError, match="region 9"):
            run_sharded(
                hierarchy,
                requests=100,
                capacity=4,
                shards=None,
                failures=[RegionFailure(region=9, after=10, nodes=(1,))],
            )
        with pytest.raises(ParameterError, match="not in region"):
            run_sharded(
                hierarchy,
                requests=100,
                capacity=4,
                shards=None,
                failures=[
                    RegionFailure(
                        region=0, after=10, nodes=hierarchy.region_nodes(1)[:1]
                    )
                ],
            )
        with pytest.raises(ParameterError, match="one failure per region"):
            fail = RegionFailure(
                region=0, after=10, nodes=hierarchy.region_nodes(0)[:1]
            )
            run_sharded(
                hierarchy,
                requests=8_000,
                capacity=4,
                shards=None,
                failures=[fail, fail],
            )
        with pytest.raises(SimulationError, match="outside its stream"):
            run_sharded(
                hierarchy,
                requests=80,  # region 0 gets 10 requests; failure at 900
                capacity=4,
                shards=None,
                failures=[
                    RegionFailure(
                        region=0, after=900, nodes=hierarchy.region_nodes(0)[:1]
                    )
                ],
            )


class TestSingleRegionEquivalence:
    def test_matches_a_direct_simulator_run(self):
        """One region sharded == a plain DynamicSimulator on its subgraph."""
        hierarchy = generate_hierarchy(2, routers=20, regions=1)
        result = run_sharded(
            hierarchy,
            requests=4_000,
            capacity=6,
            coordination_level=0.5,
            warmup=200,
            seed=9,
            shards=None,
        )
        simulator_seed, workload_seed = (
            np.random.SeedSequence(9).spawn(1)[0].spawn(2)
        )
        region = hierarchy.region_subtopology(0)
        backbone_hops, backbone_latency = hierarchy.origin_cost_of(0)
        simulator = DynamicSimulator(
            region,
            capacity=6,
            coordination_level=0.5,
            origin=OriginModel(
                hierarchy.gateway_of(0),
                extra_hops=backbone_hops + 1.0,
                extra_latency_ms=backbone_latency + 50.0,
            ),
            seed=simulator_seed,
        )
        workload = IRMWorkload(
            ZipfModel(0.8, 10_000), region.nodes, seed=workload_seed
        )
        direct = simulator.run(workload, 4_000, warmup=200)
        assert result.metrics == direct


class TestRunShardedValidation:
    def test_requires_a_hierarchical_topology(self):
        from repro.topology import load_topology

        with pytest.raises(ParameterError, match="HierarchicalTopology"):
            run_sharded(load_topology("abilene"), requests=10, capacity=4)

    def test_rejects_bad_parameters(self, hierarchy):
        with pytest.raises(ParameterError):
            run_sharded(hierarchy, requests=0, capacity=4, shards=None)
        with pytest.raises(ParameterError):
            run_sharded(hierarchy, requests=10, capacity=0, shards=None)
        with pytest.raises(ParameterError):
            run_sharded(
                hierarchy, requests=10, capacity=4, exponent=-1.0, shards=None
            )
        with pytest.raises(ParameterError, match="mode"):
            run_sharded(
                hierarchy, requests=10, capacity=4, mode="magic", shards=None
            )
        with pytest.raises(ParameterError, match="warmup"):
            run_sharded(
                hierarchy,
                requests=10,
                capacity=4,
                mode="steady",
                warmup=5,
                shards=None,
            )
        with pytest.raises(ParameterError, match="shards"):
            run_sharded(hierarchy, requests=10, capacity=4, shards="many")
        with pytest.raises(ParameterError, match="shard count"):
            run_sharded(hierarchy, requests=10, capacity=4, shards=-2)


class TestMetricsMerge:
    def test_merge_equals_joint_accounting(self):
        a = SimulationMetrics(
            requests=10,
            local_hits=4,
            peer_hits=3,
            origin_hits=3,
            total_hops=12.5,
            total_latency_ms=40.0,
            coordination_messages=7,
            served_by={"r1": 2, "r2": 1},
        )
        b = SimulationMetrics(
            requests=6,
            local_hits=1,
            peer_hits=2,
            origin_hits=3,
            total_hops=9.25,
            total_latency_ms=31.0,
            coordination_messages=3,
            served_by={"r2": 1, "r3": 1},
        )
        collector = MetricsCollector()
        collector.merge(a)
        collector.merge(b)
        merged = collector.summary()
        assert merged.requests == 16
        assert merged.local_hits == 5
        assert merged.peer_hits == 5
        assert merged.origin_hits == 6
        assert merged.total_hops == 12.5 + 9.25
        assert merged.total_latency_ms == 40.0 + 31.0
        assert merged.coordination_messages == 10
        assert merged.served_by == {"r1": 2, "r2": 2, "r3": 1}

    def test_merge_into_fresh_collector_is_identity(self):
        a = SimulationMetrics(
            requests=3,
            local_hits=1,
            peer_hits=1,
            origin_hits=1,
            total_hops=2.0,
            total_latency_ms=5.0,
            coordination_messages=0,
            served_by={"r": 1},
        )
        collector = MetricsCollector()
        collector.merge(a)
        assert collector.summary() == a


class TestKernelTableGuards:
    def test_dynamic_kernel_rejects_oversized_tables(self):
        from repro.simulation import DynamicSimulator
        from repro.topology import ring_topology

        simulator = DynamicSimulator(ring_topology(16), capacity=2)
        workload = IRMWorkload(ZipfModel(0.8, 100), list(range(16)), seed=0)
        with pytest.raises(SimulationError, match="run_sharded"):
            from repro.simulation.dynamic_batch import DynamicKernel

            DynamicKernel(
                simulator.topology,
                simulator.router,
                "lru",
                2,
                0,
                table_limit_bytes=1024,
            )
        # Default budget admits the small topology.
        assert simulator.run(workload, 500, batched=True).requests == 500

    def test_steady_kernel_rejects_oversized_tables(self):
        from repro.core.strategy import ProvisioningStrategy
        from repro.simulation import SteadyStateSimulator
        from repro.simulation.batch import SteadyStateKernel
        from repro.topology import ring_topology

        topology = ring_topology(16)
        strategy = ProvisioningStrategy(
            capacity=4, n_routers=16, level=0.5
        )
        simulator = SteadyStateSimulator.from_strategy(topology, strategy)
        with pytest.raises(SimulationError, match="run_sharded"):
            SteadyStateKernel(
                topology,
                simulator.fleet,
                simulator.router,
                simulator._holders,
                table_limit_bytes=128,
            )

    def test_limit_must_be_positive(self):
        from repro.simulation.dynamic_batch import _require_table_budget

        with pytest.raises(SimulationError, match="positive"):
            _require_table_budget("DynamicKernel", 100, 0)


class TestShardResolution:
    def test_explicit_counts_cap_at_regions(self):
        from repro.simulation.sharded import _resolve_shards

        assert _resolve_shards(None, 8, 4) == 0
        assert _resolve_shards(64, 8, 4) == 8
        assert _resolve_shards(2, 8, 4) == 2
        assert _resolve_shards("auto", 8, 4) == 4
        assert _resolve_shards("auto", 2, 4) == 2

    @pytest.mark.parametrize("shards", [0, -1, 2.5, "many"])
    def test_rejects_invalid_counts(self, shards):
        from repro.simulation.sharded import _resolve_shards

        with pytest.raises(ParameterError):
            _resolve_shards(shards, 8, 4)
