"""Seeded multi-tier ISP topology generator (internet scale).

The paper evaluates coordination on four small carrier graphs (11–36
routers), but its claim — the optimal coordination split ``ℓ*`` saves
backbone traffic — matters at ISP scale.  This module grows the
:mod:`repro.topology.generators` family to 10³–10⁴ routers with the
structure real ISPs have (the ``someh2705/generator`` exemplar):

- a **tier-1 backbone** of core routers spread over a continent-sized
  ``domain_km`` square, meshed by a deterministic nearest-neighbour
  tree plus Waxman shortcut links (long, tens-of-ms latencies);
- per **region**, a tier-2/tier-3 access cluster in a metro-sized
  ``region_km`` box: a nearest-neighbour spanning tree plus Waxman
  extras (short, sub-ms to few-ms latencies), uplinked to the backbone
  through a designated **gateway** router;
- **roles** per router: ``backbone``, ``gateway``, ``aggregation``
  (the region's highest-betweenness interior routers, when
  ``tiers == 3``) and ``edge``.

All link latencies are geo-derived (Euclidean km over ``km_per_ms``),
so tier-1 spans dominate path latency exactly as in the paper's
Table III reconstruction.  Every random draw descends from one
``numpy.random.SeedSequence(seed)`` lineage (one child per region plus
one for the backbone), so a seed fixes the topology bit-exactly and
region structure is independent of how many regions exist around it.

Connectivity is **by construction** — the spanning trees and gateway
uplinks guarantee it without the sample-until-connected loops of the
flat generators, which do not scale past a few hundred routers.

The resulting :class:`HierarchicalTopology` deliberately partitions
into region-sized coordination domains: the region accessors
(:meth:`~HierarchicalTopology.region_subtopology`,
:meth:`~HierarchicalTopology.origin_cost_of`) are what
:mod:`repro.simulation.sharded` shards the request stream over.  The
inherited all-pairs matrices (``hop_matrix``/``latency_matrix``) remain
available but cost O(n²·links) — at 5k routers use the region/backbone
subgraphs instead.
"""

from __future__ import annotations

import math
from typing import Optional

import networkx as nx
import numpy as np

from ..errors import TopologyError
from .geo import FIBER_KM_PER_MS
from .graph import Topology

__all__ = ["HierarchicalTopology", "generate_hierarchy"]

#: Largest single tier (backbone or one region) the O(m²) geometric
#: construction will build; beyond this the pairwise distance matrix and
#: the downstream per-region kernels stop fitting in memory — raise the
#: ``regions`` count instead of the region size.
MAX_TIER_ROUTERS = 2048


class HierarchicalTopology(Topology):
    """A :class:`Topology` with backbone/region structure and roles.

    Instances are built by :func:`generate_hierarchy`; node identifiers
    are consecutive integers, backbone first (``0 .. n_backbone-1``)
    followed by one contiguous block per region.  The extra accessors
    expose the partition the sharded simulator needs: per-region node
    blocks, gateways, small region subtopologies, and the
    backbone-level cost from each region's gateway to the origin attach
    point (backbone router 0).
    """

    def __init__(
        self,
        graph: nx.Graph,
        *,
        name: str,
        n_backbone: int,
        region_slices: tuple[tuple[int, int], ...],
        roles: dict[int, str],
        gateway_origin_costs: tuple[tuple[float, float], ...],
    ):
        super().__init__(graph, name=name, kind="Synthetic-Hierarchical")
        self._n_backbone = int(n_backbone)
        self._region_slices = tuple(
            (int(start), int(stop)) for start, stop in region_slices
        )
        self._roles = dict(roles)
        self._gateway_origin_costs = tuple(
            (float(h), float(d)) for h, d in gateway_origin_costs
        )
        self._region_of: dict[int, int] = {}
        for region, (start, stop) in enumerate(self._region_slices):
            for node in range(start, stop):
                self._region_of[node] = region

    # -- partition accessors -------------------------------------------------

    @property
    def n_backbone(self) -> int:
        """Number of tier-1 backbone routers (node ids ``0 .. n_backbone-1``)."""
        return self._n_backbone

    @property
    def region_count(self) -> int:
        """Number of access regions."""
        return len(self._region_slices)

    @property
    def backbone_nodes(self) -> tuple[int, ...]:
        """Backbone router ids, in index order."""
        return tuple(range(self._n_backbone))

    def region_nodes(self, region: int) -> tuple[int, ...]:
        """The region's router ids (gateway first), a contiguous block."""
        start, stop = self._region_slice(region)
        return tuple(range(start, stop))

    def gateway_of(self, region: int) -> int:
        """The region's gateway router (first node of its block)."""
        return self._region_slice(region)[0]

    def region_of(self, node: int) -> Optional[int]:
        """The region a router belongs to (``None`` for backbone routers)."""
        if node not in self._index:
            raise TopologyError(f"unknown router {node!r} in topology {self.name!r}")
        return self._region_of.get(node)

    def role_of(self, node: int) -> str:
        """The router's tier role: backbone/gateway/aggregation/edge."""
        try:
            return self._roles[node]
        except KeyError:
            raise TopologyError(f"unknown router {node!r} in topology {self.name!r}")

    def roles(self) -> dict[int, str]:
        """A copy of the full node → role assignment."""
        return dict(self._roles)

    def region_subtopology(self, region: int) -> Topology:
        """The region's induced subgraph as a standalone :class:`Topology`.

        Node ids are preserved (global integers), so metrics merged
        across regions never collide.  The subgraph is connected by
        construction (the region spanning tree lies inside it); at
        typical region sizes (tens of routers) the all-pairs matrices
        and simulation kernels are cheap again — this is the unit of
        work :mod:`repro.simulation.sharded` distributes.
        """
        start, stop = self._region_slice(region)
        subgraph = self._graph.subgraph(range(start, stop)).copy()
        return Topology(subgraph, name=f"{self.name}/region{region}", kind=self.kind)

    def origin_cost_of(self, region: int) -> tuple[float, float]:
        """``(hops, latency_ms)`` from the region's gateway to the origin attach.

        The origin attaches behind backbone router 0; this is the
        backbone-level leg of every origin fetch from the region,
        computed on the small backbone+gateways subgraph at build time
        (never on the full graph).  Feed it into an
        :class:`~repro.simulation.routing.OriginModel` as extra
        hops/latency beyond the gateway.
        """
        self._region_slice(region)
        return self._gateway_origin_costs[region]

    def _region_slice(self, region: int) -> tuple[int, int]:
        if not 0 <= region < len(self._region_slices):
            raise TopologyError(
                f"region index {region} outside [0, {len(self._region_slices)}) "
                f"in topology {self.name!r}"
            )
        return self._region_slices[region]

    def __repr__(self) -> str:
        return (
            f"HierarchicalTopology(name={self.name!r}, routers={self.n_routers}, "
            f"backbone={self._n_backbone}, regions={self.region_count}, "
            f"links={self.n_links})"
        )


def _tree_plus_waxman(
    rng: np.random.Generator,
    points: np.ndarray,
    *,
    alpha: float,
    beta: float,
    scale_km: float,
) -> list[tuple[int, int, float]]:
    """Deterministically connected geometric edges over ``points``.

    Edge set = nearest-previous-node spanning tree (connected for every
    draw of the points, so no resampling loop) plus Waxman extras: pair
    ``(i, j)`` at distance ``d`` with probability
    ``alpha · exp(-d / (beta · scale_km))``.  Returns local-index edges
    with their Euclidean distances; the extra-edge draws consume one
    ``(m, m)`` uniform block in a fixed order, keeping the construction
    bit-stable under a fixed generator state.
    """
    m = points.shape[0]
    if m <= 1:
        return []
    diffs = points[:, None, :] - points[None, :, :]
    dist = np.sqrt((diffs**2).sum(axis=2))
    edges: dict[tuple[int, int], float] = {}
    for k in range(1, m):
        j = int(np.argmin(dist[k, :k]))
        edges[(j, k)] = float(dist[j, k])
    draws = rng.random((m, m))
    prob = alpha * np.exp(-dist / (beta * scale_km))
    extra_i, extra_j = np.nonzero(np.triu(draws < prob, k=1))
    for i, j in zip(extra_i.tolist(), extra_j.tolist()):
        edges.setdefault((i, j), float(dist[i, j]))
    return [(i, j, d) for (i, j), d in edges.items()]


def generate_hierarchy(
    seed: int,
    *,
    routers: int = 1000,
    regions: int = 20,
    tiers: int = 3,
    backbone_routers: Optional[int] = None,
    waxman_alpha: float = 0.4,
    waxman_beta: float = 0.25,
    domain_km: float = 4800.0,
    region_km: float = 400.0,
    km_per_ms: float = FIBER_KM_PER_MS,
    min_link_ms: float = 1e-3,
    gateway_uplinks: int = 2,
    aggregation_fraction: float = 0.15,
    name: Optional[str] = None,
) -> HierarchicalTopology:
    """Generate a seeded multi-tier ISP topology (1k–10k routers).

    Parameters
    ----------
    seed:
        Root of the ``SeedSequence`` lineage; equal seeds yield
        bit-identical topologies (edge lists, latencies, roles).
    routers / regions:
        Total router count and number of access regions.  Routers not
        in the backbone are split across regions as evenly as possible
        (earlier regions take the remainder).
    tiers:
        ``3`` assigns ``aggregation`` roles inside each region (the
        highest-betweenness interior routers); ``2`` produces flat
        regions of ``edge`` routers behind their gateway.
    backbone_routers:
        Tier-1 core size; defaults to ``max(3, 2·⌈√regions⌉)``.
    waxman_alpha / waxman_beta:
        Waxman shortcut-link parameters, shared by the backbone mesh
        and the intra-region meshes (each at its own distance scale).
    domain_km / region_km:
        Side length of the backbone's square and of each region's box.
    km_per_ms:
        Propagation speed for the geo-derived link latencies.
    min_link_ms:
        Floor on link latency (co-located routers still cost a wire).
    gateway_uplinks:
        Backbone routers each gateway homes to (≥ 2 gives the usual
        multi-homed redundancy).
    aggregation_fraction:
        Fraction of each region's interior promoted to ``aggregation``
        when ``tiers == 3``.
    """
    if int(routers) != routers or routers < 2:
        raise TopologyError(f"router count must be an integer >= 2, got {routers}")
    if int(regions) != regions or regions < 1:
        raise TopologyError(f"region count must be a positive integer, got {regions}")
    if tiers not in (2, 3):
        raise TopologyError(f"tiers must be 2 or 3, got {tiers}")
    if not 0.0 < waxman_alpha <= 1.0 or not 0.0 < waxman_beta <= 1.0:
        raise TopologyError("Waxman alpha and beta must lie in (0, 1]")
    if domain_km <= 0 or region_km <= 0:
        raise TopologyError(
            f"domain/region extents must be positive, got "
            f"({domain_km}, {region_km})"
        )
    if km_per_ms <= 0:
        raise TopologyError(f"km_per_ms must be positive, got {km_per_ms}")
    if min_link_ms <= 0:
        raise TopologyError(f"min_link_ms must be positive, got {min_link_ms}")
    if int(gateway_uplinks) != gateway_uplinks or gateway_uplinks < 1:
        raise TopologyError(
            f"gateway_uplinks must be a positive integer, got {gateway_uplinks}"
        )
    if not 0.0 <= aggregation_fraction < 1.0:
        raise TopologyError(
            f"aggregation_fraction must lie in [0, 1), got {aggregation_fraction}"
        )
    routers = int(routers)
    regions = int(regions)
    if backbone_routers is None:
        backbone_routers = max(3, 2 * math.isqrt(regions - 1) + 2)
    if int(backbone_routers) != backbone_routers or backbone_routers < 1:
        raise TopologyError(
            f"backbone size must be a positive integer, got {backbone_routers}"
        )
    n_backbone = int(backbone_routers)
    n_access = routers - n_backbone
    if n_access < regions:
        raise TopologyError(
            f"need at least one access router per region: routers={routers} "
            f"leaves {n_access} for {regions} regions after a "
            f"{n_backbone}-router backbone"
        )
    region_sizes = [
        n_access // regions + (1 if r < n_access % regions else 0)
        for r in range(regions)
    ]
    if n_backbone > MAX_TIER_ROUTERS or max(region_sizes) > MAX_TIER_ROUTERS:
        raise TopologyError(
            f"a single tier may hold at most {MAX_TIER_ROUTERS} routers "
            f"(backbone {n_backbone}, largest region {max(region_sizes)}); "
            f"increase the region count"
        )
    uplinks = min(int(gateway_uplinks), n_backbone)

    # One child per stochastic unit, so a region's structure depends
    # only on (seed, region index) — not on the other regions' draws.
    backbone_seq, *region_seqs = np.random.SeedSequence(seed).spawn(1 + regions)

    graph = nx.Graph()
    roles: dict[int, str] = {}

    def _latency(distance_km: float) -> float:
        return max(distance_km / km_per_ms, min_link_ms)

    # -- tier 1: backbone mesh over the whole domain -------------------------
    backbone_rng = np.random.default_rng(backbone_seq)
    backbone_points = backbone_rng.uniform(0.0, domain_km, size=(n_backbone, 2))
    for node in range(n_backbone):
        graph.add_node(
            node,
            x_km=float(backbone_points[node, 0]),
            y_km=float(backbone_points[node, 1]),
        )
        roles[node] = "backbone"
    for i, j, distance in _tree_plus_waxman(
        backbone_rng,
        backbone_points,
        alpha=waxman_alpha,
        beta=waxman_beta,
        scale_km=domain_km * math.sqrt(2.0),
    ):
        graph.add_edge(i, j, latency_ms=_latency(distance), distance_km=distance)

    # -- tier 2/3: one access cluster per region -----------------------------
    region_slices: list[tuple[int, int]] = []
    next_node = n_backbone
    region_scale = region_km * math.sqrt(2.0)
    for region, (size, seq) in enumerate(zip(region_sizes, region_seqs)):
        rng = np.random.default_rng(seq)
        center = rng.uniform(0.0, domain_km, size=2)
        points = center + rng.uniform(
            -region_km / 2.0, region_km / 2.0, size=(size, 2)
        )
        start = next_node
        stop = start + size
        region_slices.append((start, stop))
        next_node = stop
        for offset in range(size):
            graph.add_node(
                start + offset,
                x_km=float(points[offset, 0]),
                y_km=float(points[offset, 1]),
            )
        for i, j, distance in _tree_plus_waxman(
            rng,
            points,
            alpha=waxman_alpha,
            beta=waxman_beta,
            scale_km=region_scale,
        ):
            graph.add_edge(
                start + i, start + j,
                latency_ms=_latency(distance), distance_km=distance,
            )
        # Gateway = the block's first router, multi-homed to its
        # nearest backbone cores (ties broken by backbone index).
        gateway = start
        roles[gateway] = "gateway"
        gateway_point = points[0]
        to_backbone = np.sqrt(
            ((backbone_points - gateway_point[None, :]) ** 2).sum(axis=1)
        )
        for core in np.argsort(to_backbone, kind="stable")[:uplinks].tolist():
            distance = float(to_backbone[core])
            graph.add_edge(
                gateway, int(core),
                latency_ms=_latency(distance), distance_km=distance,
            )
        # Roles inside the region: top-betweenness interior routers
        # become the aggregation tier (computed on a copy of the small
        # region subgraph only — a subgraph view would filter every
        # neighbour lookup through the full graph).
        interior = list(range(start + 1, stop))
        if tiers == 3 and interior and aggregation_fraction > 0:
            n_aggregation = min(
                len(interior),
                math.ceil(aggregation_fraction * size),
            )
            centrality = nx.betweenness_centrality(
                graph.subgraph(range(start, stop)).copy(), normalized=True
            )
            promoted = sorted(
                interior, key=lambda node: (-centrality[node], node)
            )[:n_aggregation]
            for node in promoted:
                roles[node] = "aggregation"
            for node in interior:
                roles.setdefault(node, "edge")
        else:
            for node in interior:
                roles[node] = "edge"

    # -- origin attach costs: backbone + gateways subgraph only --------------
    # The origin sits behind backbone router 0; each region's gateway
    # reaches it across the core.  Gateways interconnect only via the
    # backbone, so the small induced subgraph suffices.
    core_nodes = list(range(n_backbone)) + [start for start, _ in region_slices]
    core_graph = graph.subgraph(core_nodes)
    attach = 0
    hop_lengths = nx.single_source_shortest_path_length(core_graph, attach)
    latency_lengths = nx.single_source_dijkstra_path_length(
        core_graph, attach, weight="latency_ms"
    )
    gateway_origin_costs = tuple(
        (float(hop_lengths[start]), float(latency_lengths[start]))
        for start, _ in region_slices
    )

    return HierarchicalTopology(
        graph,
        name=name or f"hier-{routers}r{regions}",
        n_backbone=n_backbone,
        region_slices=tuple(region_slices),
        roles=roles,
        gateway_origin_costs=gateway_origin_costs,
    )
