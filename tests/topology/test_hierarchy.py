"""Determinism + structure tests for the hierarchical ISP generator."""

import hashlib

import networkx as nx
import pytest

from repro.errors import TopologyError
from repro.topology import HierarchicalTopology, Topology, generate_hierarchy
from repro.topology.hierarchy import MAX_TIER_ROUTERS


def edge_list(topology):
    """Canonical (u, v, latency, distance) edge tuples, sorted."""
    return sorted(
        (min(u, v), max(u, v), data["latency_ms"], data["distance_km"])
        for u, v, data in topology.graph.edges(data=True)
    )


def hierarchy_digest(topology):
    """sha256 of the sorted (u, v, latency) edges and the sorted roles."""
    digest = hashlib.sha256()
    edges = sorted(
        (min(u, v), max(u, v), data["latency_ms"])
        for u, v, data in topology.graph.edges(data=True)
    )
    for u, v, latency in edges:
        digest.update(f"{u} {v} {latency.hex()}\n".encode())
    for node, role in sorted(topology.roles().items()):
        digest.update(f"{node} {role}\n".encode())
    return digest.hexdigest()


class TestDeterminism:
    def test_same_seed_is_bit_identical(self):
        a = generate_hierarchy(42, routers=300, regions=10)
        b = generate_hierarchy(42, routers=300, regions=10)
        assert edge_list(a) == edge_list(b)
        assert a.roles() == b.roles()
        assert a.nodes == b.nodes
        assert [a.origin_cost_of(r) for r in range(10)] == [
            b.origin_cost_of(r) for r in range(10)
        ]

    def test_different_seeds_differ(self):
        a = generate_hierarchy(42, routers=300, regions=10)
        b = generate_hierarchy(43, routers=300, regions=10)
        assert edge_list(a) != edge_list(b)

    def test_region_structure_independent_of_other_regions(self):
        # Region r's draws come from SeedSequence child r, so adding
        # regions must not disturb earlier regions' *internal* edges.
        small = generate_hierarchy(7, routers=106, regions=2, backbone_routers=6)
        large = generate_hierarchy(7, routers=156, regions=3, backbone_routers=6)

        def internal_edges(h, region):
            nodes = set(h.region_nodes(region))
            return sorted(
                (u, v, d["latency_ms"])
                for u, v, d in h.graph.edges(data=True)
                if u in nodes and v in nodes
            )

        assert internal_edges(small, 0) == internal_edges(large, 0)
        assert internal_edges(small, 1) == internal_edges(large, 1)


class TestStructure:
    @pytest.fixture(scope="class")
    def hierarchy(self):
        return generate_hierarchy(3, routers=400, regions=12)

    def test_is_a_topology(self, hierarchy):
        assert isinstance(hierarchy, HierarchicalTopology)
        assert isinstance(hierarchy, Topology)
        assert hierarchy.n_routers == 400

    def test_partition_covers_all_nodes_once(self, hierarchy):
        seen = list(hierarchy.backbone_nodes)
        for r in range(hierarchy.region_count):
            seen.extend(hierarchy.region_nodes(r))
        assert sorted(seen) == list(range(400))
        assert len(set(seen)) == 400

    def test_region_of_inverts_the_partition(self, hierarchy):
        for node in hierarchy.backbone_nodes:
            assert hierarchy.region_of(node) is None
        for r in range(hierarchy.region_count):
            for node in hierarchy.region_nodes(r):
                assert hierarchy.region_of(node) == r

    def test_roles_are_consistent(self, hierarchy):
        roles = hierarchy.roles()
        assert set(roles) == set(range(400))
        for node in hierarchy.backbone_nodes:
            assert roles[node] == "backbone"
        for r in range(hierarchy.region_count):
            gateway = hierarchy.gateway_of(r)
            assert roles[gateway] == "gateway"
            assert gateway == hierarchy.region_nodes(r)[0]
            interior = hierarchy.region_nodes(r)[1:]
            assert all(roles[n] in ("aggregation", "edge") for n in interior)
        # tiers=3 default promotes some aggregation routers
        assert "aggregation" in roles.values()

    def test_tiers_two_has_no_aggregation(self):
        flat = generate_hierarchy(3, routers=200, regions=8, tiers=2)
        assert "aggregation" not in flat.roles().values()

    def test_gateway_uplinks_reach_the_backbone(self, hierarchy):
        for r in range(hierarchy.region_count):
            gateway = hierarchy.gateway_of(r)
            backbone_neighbours = [
                n
                for n in hierarchy.graph.neighbors(gateway)
                if n in set(hierarchy.backbone_nodes)
            ]
            assert len(backbone_neighbours) >= 2

    def test_region_subtopology_is_connected_with_global_ids(self, hierarchy):
        sub = hierarchy.region_subtopology(4)
        assert set(sub.nodes) == set(hierarchy.region_nodes(4))
        assert nx.is_connected(sub.graph)

    def test_whole_graph_is_connected_with_positive_latencies(self, hierarchy):
        assert nx.is_connected(hierarchy.graph)
        assert all(
            data["latency_ms"] > 0
            for _, _, data in hierarchy.graph.edges(data=True)
        )

    def test_origin_costs_are_positive_and_finite(self, hierarchy):
        for r in range(hierarchy.region_count):
            hops, latency = hierarchy.origin_cost_of(r)
            assert hops >= 0
            assert latency >= 0

    def test_backbone_links_are_longer_than_region_links(self, hierarchy):
        backbone = set(hierarchy.backbone_nodes)
        backbone_latency = [
            d["latency_ms"]
            for u, v, d in hierarchy.graph.edges(data=True)
            if u in backbone and v in backbone
        ]
        region_latency = [
            d["latency_ms"]
            for u, v, d in hierarchy.graph.edges(data=True)
            if u not in backbone and v not in backbone
        ]
        assert backbone_latency and region_latency
        mean = lambda xs: sum(xs) / len(xs)
        assert mean(backbone_latency) > mean(region_latency)


class TestScale:
    @pytest.fixture(scope="class")
    def five_thousand(self):
        return {
            seed: generate_hierarchy(seed, routers=5000, regions=100)
            for seed in (0, 1)
        }

    def test_five_thousand_routers_generate(self, five_thousand):
        h = five_thousand[0]
        assert h.n_routers == 5000
        assert h.region_count == 100
        sizes = [len(h.region_nodes(r)) for r in range(100)]
        assert max(sizes) - min(sizes) <= 1

    @pytest.mark.parametrize(
        "seed, expected",
        [
            (0, "b91c5ba7159208e7d4cb380d40799185f32627b1b48ab255fcd578bdcd9c7726"),
            (1, "1afe526b9a931a2187998111a75a97cf11dd6c6700cf6a53f5af0bd0b8ef9098"),
        ],
        ids=["seed0", "seed1"],
    )
    def test_edges_latencies_and_roles_are_pinned(
        self, five_thousand, seed, expected
    ):
        assert hierarchy_digest(five_thousand[seed]) == expected


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"routers": 1},
            {"regions": 0},
            {"tiers": 4},
            {"waxman_alpha": 0.0},
            {"waxman_beta": 1.5},
            {"domain_km": -1.0},
            {"km_per_ms": 0.0},
            {"min_link_ms": 0.0},
            {"gateway_uplinks": 0},
            {"aggregation_fraction": 1.0},
            {"backbone_routers": 0},
            # 10 routers cannot feed 20 regions after the backbone
            {"routers": 10, "regions": 20},
        ],
    )
    def test_bad_parameters_raise(self, kwargs):
        base = {"routers": 100, "regions": 4}
        base.update(kwargs)
        with pytest.raises(TopologyError):
            generate_hierarchy(0, **base)

    def test_oversized_tier_raises(self):
        with pytest.raises(TopologyError, match=str(MAX_TIER_ROUTERS)):
            generate_hierarchy(0, routers=MAX_TIER_ROUTERS + 10, regions=1)

    def test_unknown_region_and_node_raise(self):
        h = generate_hierarchy(0, routers=60, regions=3)
        with pytest.raises(TopologyError):
            h.region_nodes(3)
        with pytest.raises(TopologyError):
            h.origin_cost_of(-1)
        with pytest.raises(TopologyError):
            h.role_of(10_000)
        with pytest.raises(TopologyError):
            h.region_of(10_000)
