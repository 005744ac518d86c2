"""Integration tests for repro.ccn.network — the CCN data plane."""

from __future__ import annotations

import pytest

from repro.catalog import IRMWorkload, SequenceWorkload, ZipfModel
from repro.ccn import CCNNetwork, Name, NoCache, make_enroute_strategy
from repro.core import ProvisioningStrategy
from repro.errors import ParameterError, SimulationError, TopologyError
from repro.simulation import StaticCache
from repro.topology import Topology, load_topology


@pytest.fixture
def triangle() -> Topology:
    return Topology.from_edges(
        [("R0", "R1"), ("R0", "R2"), ("R1", "R2")], link_latency_ms=5.0
    )


def make_network(topology, **kwargs) -> CCNNetwork:
    defaults = dict(origin_gateway=topology.nodes[0], origin_latency_ms=50.0)
    defaults.update(kwargs)
    return CCNNetwork(topology, **defaults)


class TestBasics:
    def test_naming_roundtrip(self, triangle):
        net = make_network(triangle)
        name = net.rank_to_name(17)
        assert net.name_to_rank(name) == 17

    def test_naming_validation(self, triangle):
        net = make_network(triangle)
        with pytest.raises(ParameterError):
            net.rank_to_name(0)
        with pytest.raises(ParameterError):
            net.name_to_rank(Name("/foreign/1"))

    def test_rejects_unknown_gateway(self, triangle):
        with pytest.raises(TopologyError):
            CCNNetwork(triangle, origin_gateway="Z")

    def test_rejects_unknown_store_router(self, triangle):
        with pytest.raises(SimulationError):
            CCNNetwork(
                triangle, origin_gateway="R0", stores={"Z": StaticCache(0)}
            )

    def test_rejects_unknown_client(self, triangle):
        net = make_network(triangle)
        with pytest.raises(SimulationError):
            net.issue("Z", 1)

    @pytest.mark.parametrize("bad", [-1.0, float("nan"), float("inf")])
    def test_rejects_bad_interarrival(self, triangle, bad):
        net = make_network(triangle)
        workload = IRMWorkload(ZipfModel(0.8, 100), triangle.nodes, seed=0)
        with pytest.raises(ParameterError, match="finite and non-negative"):
            net.run_workload(workload, 10, interarrival_ms=bad)


class TestForwarding:
    def test_local_hit_zero_hops(self, triangle):
        net = make_network(
            triangle,
            stores={"R1": StaticCache(1, frozenset({1}))},
            enroute=NoCache(),
        )
        net.issue("R1", 1)
        metrics = net.run()
        assert metrics.requests_completed == 1
        assert metrics.origin_productions == 0
        assert metrics.interest_hops == [0]

    def test_miss_goes_to_origin(self, triangle):
        net = make_network(triangle, enroute=NoCache())
        net.issue("R1", 1)
        metrics = net.run()
        assert metrics.requests_completed == 1
        assert metrics.origin_productions == 1
        # R1 -> R0 (1 hop) + origin leg (1) = 2 interest hops.
        assert metrics.interest_hops == [2]

    def test_latency_accounting(self, triangle):
        net = make_network(triangle, enroute=NoCache(), origin_latency_ms=50.0)
        net.issue("R1", 1)
        metrics = net.run()
        # R1->R0 5ms + 100ms origin RTT + R0->R1 5ms = 110 ms.
        assert metrics.latencies_ms == [pytest.approx(110.0)]

    def test_motivating_example_noncoordinated(self, triangle):
        """Both R1, R2 store 'a': b-requests (1/3) reach the origin."""
        net = make_network(
            triangle,
            stores={
                "R1": StaticCache(1, frozenset({1})),
                "R2": StaticCache(1, frozenset({1})),
            },
            enroute=NoCache(),
        )
        workload = SequenceWorkload([("R1", [1, 1, 2]), ("R2", [1, 1, 2])])
        metrics = net.run_workload(workload, 600, interarrival_ms=1_000.0)
        assert metrics.origin_load == pytest.approx(1 / 3)
        assert metrics.mean_interest_hops == pytest.approx(2 / 3)

    def test_motivating_example_needs_fib_coordination(self, triangle):
        """Splitting contents WITHOUT custodian routes does not help:
        Interests still follow the origin default route.  The placement
        only pays off once the coordination messages install routes."""
        net = make_network(
            triangle,
            stores={
                "R1": StaticCache(1, frozenset({1})),
                "R2": StaticCache(1, frozenset({2})),
            },
            enroute=NoCache(),
        )
        workload = SequenceWorkload([("R1", [1, 1, 2]), ("R2", [1, 1, 2])])
        metrics = net.run_workload(workload, 600, interarrival_ms=1_000.0)
        assert metrics.origin_load > 0.0  # placement alone is not enough

    def test_motivating_example_coordinated_with_routes(self, triangle):
        from repro.ccn import build_fibs

        net = make_network(
            triangle,
            stores={
                "R1": StaticCache(1, frozenset({1})),
                "R2": StaticCache(1, frozenset({2})),
            },
            enroute=NoCache(),
        )
        fibs = build_fibs(
            triangle,
            "R0",
            root_prefix=net.root_prefix,
            custodians={
                net.rank_to_name(1): "R1",
                net.rank_to_name(2): "R2",
            },
        )
        for node in triangle.nodes:
            net._nodes[node].fib = fibs[node]
        workload = SequenceWorkload([("R1", [1, 1, 2]), ("R2", [1, 1, 2])])
        metrics = net.run_workload(workload, 600, interarrival_ms=1_000.0)
        assert metrics.origin_load == 0.0
        assert metrics.mean_interest_hops == pytest.approx(0.5)


class TestPitAggregation:
    def test_concurrent_interests_aggregate(self, triangle):
        net = make_network(triangle, enroute=NoCache(), origin_latency_ms=500.0)
        # Two clients of the same router ask for the same content at
        # nearly the same time; only one Interest crosses to the origin.
        net.issue("R1", 7)
        net.issue("R1", 7)
        metrics = net.run()
        assert metrics.requests_issued == 2
        assert metrics.requests_completed == 2
        assert metrics.origin_productions == 1
        assert metrics.pit_aggregations >= 1

    def test_aggregation_across_routers(self, triangle):
        net = make_network(triangle, enroute=NoCache(), origin_latency_ms=500.0)
        # R1 and R2 both forward toward R0; R0 aggregates the second.
        net.issue("R1", 7)
        net.issue("R2", 7)
        metrics = net.run()
        assert metrics.origin_productions == 1
        assert metrics.requests_completed == 2


class TestEnRouteCaching:
    def test_lce_populates_path(self, triangle):
        net = make_network(triangle, default_capacity=5)  # LRU + LCE
        net.issue("R1", 3)
        net.run()
        # Data travelled origin -> R0 -> R1; both cached it.
        assert 3 in net.store_of("R0")
        assert 3 in net.store_of("R1")
        assert 3 not in net.store_of("R2")

    def test_second_request_hits_cache(self, triangle):
        net = make_network(triangle, default_capacity=5)
        net.issue("R1", 3)
        net.run()
        net.issue("R1", 3)
        metrics = net.run()
        assert metrics.origin_productions == 1  # only the first fetch
        assert metrics.cs_hits >= 1

    def test_lcd_caches_one_level(self, triangle):
        net = make_network(
            triangle,
            default_capacity=5,
            enroute=make_enroute_strategy("lcd"),
        )
        net.issue("R1", 3)
        net.run()
        # Origin produced; first hop below the producer is R0 only.
        assert 3 in net.store_of("R0")
        assert 3 not in net.store_of("R1")

    def test_edge_caches_at_consumer(self, triangle):
        net = make_network(
            triangle,
            default_capacity=5,
            enroute=make_enroute_strategy("edge"),
        )
        net.issue("R1", 3)
        net.run()
        assert 3 in net.store_of("R1")
        assert 3 not in net.store_of("R0")


class TestInstallStrategy:
    def test_matches_flow_level_simulation(self):
        """The packet-level origin load must track the flow-level
        nearest-replica simulation and the analytical model."""
        topology = load_topology("us-a")
        strategy = ProvisioningStrategy(capacity=50, n_routers=20, level=0.5)
        net = CCNNetwork(
            topology, origin_gateway=topology.nodes[0], enroute=NoCache()
        )
        net.install_strategy(strategy)
        workload = IRMWorkload(ZipfModel(0.8, 5_000), topology.nodes, seed=3)
        metrics = net.run_workload(workload, 5_000, interarrival_ms=1_000.0)
        # Analytical origin load at this level is ~0.433 (exact CDF).
        assert metrics.origin_load == pytest.approx(0.433, abs=0.03)

    def test_counts_directive_messages(self, triangle):
        net = make_network(triangle, enroute=NoCache())
        strategy = ProvisioningStrategy(capacity=4, n_routers=3, level=0.5)
        net.install_strategy(strategy)
        # n*x coordinated ranks, each installed at n-1 routers.
        assert net.directive_messages == (3 * 2) * 2

    def test_rejects_router_count_mismatch(self, triangle):
        net = make_network(triangle)
        with pytest.raises(ParameterError):
            net.install_strategy(
                ProvisioningStrategy(capacity=4, n_routers=5, level=0.5)
            )

    def test_coordination_reduces_origin_load_end_to_end(self, triangle):
        workload = IRMWorkload(ZipfModel(0.8, 200), triangle.nodes, seed=5)
        loads = {}
        for level in (0.0, 1.0):
            net = make_network(triangle, enroute=NoCache())
            net.install_strategy(
                ProvisioningStrategy(capacity=10, n_routers=3, level=level)
            )
            loads[level] = net.run_workload(
                workload, 3_000, interarrival_ms=1_000.0
            ).origin_load
        assert loads[1.0] < loads[0.0]
