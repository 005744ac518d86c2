"""Event-driven CCN network: Interest/Data forwarding over a topology.

This is the packet-level realization of the system the paper models:
every router runs a Content Store (any
:class:`~repro.simulation.cache.CachePolicy`), a PIT and a FIB; clients
attach to routers through a dedicated client face; the origin attaches
behind one gateway router and answers everything.

Interest path: client face → node.  On a CS hit the node produces Data
back toward the incoming face.  On a miss the PIT aggregates or the FIB
forwards upstream; at the origin gateway, Interests with no better
route cross to the origin, which always produces.  Data retraces PIT
state hop by hop, and each node applies an en-route caching strategy
(:mod:`repro.ccn.caching`) to decide admission.

Coordinated provisioning is expressed exactly as a real deployment
would: per-name FIB entries steering the coordinated ranks toward their
custodian routers (see :func:`repro.ccn.fib.build_fibs` and
:meth:`CCNNetwork.install_strategy`).
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field
from typing import Hashable, Mapping, Optional

from ..catalog.workload import Workload
from ..core.strategy import ProvisioningStrategy
from ..errors import ParameterError, SimulationError, TopologyError
from ..simulation.cache import CachePolicy, StaticCache, make_policy
from ..topology.graph import Topology
from .caching import EnRouteCaching, CacheEverywhere
from .fib import Fib, build_fibs
from .names import Name
from .packets import Data, Interest
from .pit import Pit

__all__ = ["CCNMetrics", "CCNNetwork"]

NodeId = Hashable

#: Pseudo-face identifiers (never collide with router ids by construction).
CLIENT_FACE = "@client"
ORIGIN_FACE = "@origin"


@dataclass
class CCNMetrics:
    """Counters accumulated over one CCN run.

    Attributes
    ----------
    requests_issued / requests_completed:
        Client Interests injected and Data deliveries to client faces.
    origin_productions:
        Interests the origin had to satisfy (the paper's origin load
        numerator).
    cs_hits:
        Content-store hits across all routers.
    interest_transmissions / data_transmissions:
        Link-level packet sends (traffic volume).
    pit_aggregations:
        Interests absorbed by an existing PIT entry.
    latencies_ms:
        Completion latency per finished request (client-face issue to
        client-face delivery).
    interest_hops:
        Hops each completed request's Interest traveled to the producer.
    """

    requests_issued: int = 0
    requests_completed: int = 0
    origin_productions: int = 0
    cs_hits: int = 0
    interest_transmissions: int = 0
    data_transmissions: int = 0
    pit_aggregations: int = 0
    latencies_ms: list = field(default_factory=list)
    interest_hops: list = field(default_factory=list)

    @property
    def origin_load(self) -> float:
        """Fraction of issued requests satisfied by the origin."""
        if not self.requests_issued:
            return 0.0
        return self.origin_productions / self.requests_issued

    @property
    def mean_latency_ms(self) -> float:
        """Mean completion latency over finished requests."""
        if not self.latencies_ms:
            return 0.0
        return sum(self.latencies_ms) / len(self.latencies_ms)

    @property
    def mean_interest_hops(self) -> float:
        """Mean Interest hop count to the producing store/origin."""
        if not self.interest_hops:
            return 0.0
        return sum(self.interest_hops) / len(self.interest_hops)


@dataclass(order=True)
class _Event:
    time: float
    sequence: int
    kind: str = field(compare=False)
    node: NodeId = field(compare=False)
    packet: object = field(compare=False)
    from_face: object = field(compare=False)


class _NodeState:
    __slots__ = ("store", "pit", "fib")

    def __init__(self, store: CachePolicy, pit: Pit, fib: Fib):
        self.store = store
        self.pit = pit
        self.fib = fib


class CCNNetwork:
    """A running CCN domain over a topology.

    Parameters
    ----------
    topology:
        The router network (link latencies drive packet timing).
    origin_gateway:
        Router behind which the origin attaches.
    stores:
        Per-router content stores; omitted routers get LRU stores of
        ``default_capacity``.
    enroute:
        En-route caching strategy applied on the Data return path.
    root_prefix:
        Namespace of the domain's contents.
    origin_latency_ms:
        One-way latency between the gateway and the origin.
    client_latency_ms:
        One-way latency of the client access leg (0 keeps latencies
        comparable to the rest of the library, which books the access
        leg separately as ``d0``).
    default_capacity:
        Capacity of auto-created LRU stores.
    pit_lifetime_ms:
        PIT entry lifetime.
    """

    def __init__(
        self,
        topology: Topology,
        *,
        origin_gateway: NodeId,
        stores: Optional[Mapping[NodeId, CachePolicy]] = None,
        enroute: Optional[EnRouteCaching] = None,
        root_prefix: Name = Name("/repro/content"),
        origin_latency_ms: float = 50.0,
        client_latency_ms: float = 0.0,
        default_capacity: int = 0,
        pit_lifetime_ms: float = 60_000.0,
        custodians: Optional[Mapping[Name, NodeId]] = None,
    ):
        if origin_gateway not in topology.nodes:
            raise TopologyError(
                f"origin gateway {origin_gateway!r} is not in topology "
                f"{topology.name!r}"
            )
        if origin_latency_ms < 0 or client_latency_ms < 0:
            raise ParameterError("latencies must be non-negative")
        self.topology = topology
        self.origin_gateway = origin_gateway
        self.root_prefix = root_prefix
        self.origin_latency_ms = float(origin_latency_ms)
        self.client_latency_ms = float(client_latency_ms)
        self.enroute = enroute if enroute is not None else CacheEverywhere()
        stores = dict(stores or {})
        # Explicit per-name routes at construction time — the crafted-
        # scenario counterpart of install_strategy's custodian FIBs
        # (e.g. a custodian route deliberately pointing at a router
        # that does not hold the content, to exercise the duplicate-
        # nonce retry path).
        fibs = build_fibs(
            topology,
            origin_gateway,
            root_prefix=root_prefix,
            custodians=dict(custodians) if custodians else None,
        )
        self._nodes: dict[NodeId, _NodeState] = {}
        for node in topology.nodes:
            store = stores.pop(node, None)
            if store is None:
                store = make_policy("lru", default_capacity)
            self._nodes[node] = _NodeState(
                store=store, pit=Pit(lifetime=pit_lifetime_ms), fib=fibs[node]
            )
        if stores:
            raise SimulationError(
                f"stores given for unknown routers: {sorted(map(repr, stores))}"
            )
        self._queue: list[_Event] = []
        self._sequence = itertools.count()
        self._now = 0.0
        self._pending_issues: dict[tuple[NodeId, Name], list[float]] = {}
        self._issue_hops: dict[tuple[NodeId, Name], int] = {}
        self.metrics = CCNMetrics()
        self.directive_messages = 0

    # -- naming ------------------------------------------------------------

    def rank_to_name(self, rank: int) -> Name:
        """The CCN name of a catalog rank."""
        if rank < 1:
            raise ParameterError(f"rank must be >= 1, got {rank}")
        return self.root_prefix.child(str(rank))

    def name_to_rank(self, name: Name) -> int:
        """Inverse of :meth:`rank_to_name`."""
        if not self.root_prefix.is_prefix_of(name) or len(name) != len(
            self.root_prefix
        ) + 1:
            raise ParameterError(f"{name} is not a content name of this domain")
        return int(name.components[-1])

    # -- provisioning --------------------------------------------------------

    def install_strategy(self, strategy: ProvisioningStrategy) -> None:
        """Provision the domain per a coordination strategy.

        Every router's store is replaced by a static store holding its
        local top ranks plus its coordinated share, and per-name FIB
        routes toward each coordinated rank's custodian are installed —
        one directive message per installed route, counted toward
        :attr:`directive_messages` (eq. 3's communication term).
        """
        if strategy.n_routers != self.topology.n_routers:
            raise ParameterError(
                f"strategy is for {strategy.n_routers} routers; topology has "
                f"{self.topology.n_routers}"
            )
        nodes = self.topology.nodes
        local = frozenset(strategy.local_ranks)
        custodians: dict[Name, NodeId] = {}
        for rank, owner in strategy.iter_assignments():
            custodians[self.rank_to_name(rank)] = nodes[owner]
        fibs = build_fibs(
            self.topology,
            self.origin_gateway,
            root_prefix=self.root_prefix,
            custodians=custodians,
        )
        for index, node in enumerate(nodes):
            ranks = frozenset(strategy.contents_of_router(index))
            self._nodes[node].store = StaticCache(strategy.capacity, ranks)
            self._nodes[node].fib = fibs[node]
        # One directive per coordinated (name, router) route installed.
        self.directive_messages += len(custodians) * max(len(nodes) - 1, 0)

    def store_of(self, node: NodeId) -> CachePolicy:
        """The content store of a router (for inspection in tests)."""
        return self._nodes[node].store

    # -- event machinery -----------------------------------------------------

    def _schedule(
        self, delay: float, kind: str, node: NodeId, packet, from_face
    ) -> None:
        heapq.heappush(
            self._queue,
            _Event(
                time=self._now + delay,
                sequence=next(self._sequence),
                kind=kind,
                node=node,
                packet=packet,
                from_face=from_face,
            ),
        )

    def issue(self, client: NodeId, rank: int) -> None:
        """Inject one client request at the current logical time."""
        if client not in self._nodes:
            raise SimulationError(f"unknown client router {client!r}")
        name = self.rank_to_name(rank)
        self._pending_issues.setdefault((client, name), []).append(self._now)
        self.metrics.requests_issued += 1
        self._schedule(
            self.client_latency_ms,
            "interest",
            client,
            Interest(name=name),
            CLIENT_FACE,
        )

    def issue_at(self, client: NodeId, rank: int, time_ms: float) -> None:
        """Inject one client request at an explicit timeline position.

        Crafted-schedule counterpart of :meth:`run_workload`'s fixed
        inter-arrival injection (used by the scalar/batched equivalence
        suite to pin down aggregation races): position the logical clock
        and issue.  Call :meth:`run` afterwards to process the timeline.
        """
        if time_ms < 0:
            raise ParameterError(f"issue time must be non-negative, got {time_ms}")
        self._now = float(time_ms)
        self.issue(client, rank)

    def _handle_interest(self, node: NodeId, interest: Interest, from_face) -> None:
        state = self._nodes[node]
        rank = self.name_to_rank(interest.name)
        if state.store.lookup(rank):
            self.metrics.cs_hits += 1
            self._send_data(
                node,
                Data(name=interest.name, producer=node),
                to_face=from_face,
            )
            return
        status = state.pit.insert(
            interest.name, from_face, interest.nonce, self._now
        )
        if status == "aggregated":
            self.metrics.pit_aggregations += 1
            return
        # "forward": fresh entry — send upstream.  "duplicate": the
        # Interest looped back because the tried upstream cannot
        # produce — retry the next untried FIB alternative (NDN's
        # retry-on-duplicate-nonce behaviour).
        if interest.hop_limit <= 0:
            return  # dropped; the PIT entry will expire
        tried = state.pit.tried_faces(interest.name)
        for next_hop in state.fib.lookup_all(interest.name):
            if next_hop == from_face or next_hop in tried:
                continue
            state.pit.mark_forwarded(interest.name, next_hop)
            self.metrics.interest_transmissions += 1
            self._schedule(
                self.topology.link_latency(node, next_hop),
                "interest",
                next_hop,
                interest.decremented(),
                node,
            )
            return
        # No (untried) upstream router remains: cross to the origin if
        # we can reach it from here (the gateway, or a node whose FIB
        # has no route at all).
        if (
            node == self.origin_gateway or not state.fib.lookup_all(interest.name)
        ) and ORIGIN_FACE not in tried:
            state.pit.mark_forwarded(interest.name, ORIGIN_FACE)
            self.metrics.interest_transmissions += 1
            self.metrics.origin_productions += 1
            self._schedule(
                2.0 * self.origin_latency_ms,
                "data",
                node,
                Data(
                    name=interest.name,
                    producer=ORIGIN_FACE,
                    from_origin=True,
                    hops_from_producer=1,
                ),
                ORIGIN_FACE,
            )
            return
        # Last resort: bounce the Interest back out the arrival face,
        # once.  The upstream node sees its own nonce return (a
        # duplicate) and retries its remaining FIB alternatives — how a
        # custodian dead-end (e.g. a leaf custodian that lost the
        # content) resolves without NACK machinery.
        if (
            from_face not in (CLIENT_FACE, ORIGIN_FACE)
            and from_face not in tried
        ):
            state.pit.mark_forwarded(interest.name, from_face)
            self.metrics.interest_transmissions += 1
            self._schedule(
                self.topology.link_latency(node, from_face),
                "interest",
                from_face,
                interest.decremented(),
                node,
            )

    def _send_data(self, node: NodeId, data: Data, *, to_face) -> None:
        if to_face == CLIENT_FACE:
            self._deliver_to_client(node, data)
            return
        self.metrics.data_transmissions += 1
        self._schedule(
            self.topology.link_latency(node, to_face),
            "data",
            to_face,
            data.forwarded(),
            node,
        )

    def _deliver_to_client(self, node: NodeId, data: Data) -> None:
        key = (node, data.name)
        pending = self._pending_issues.get(key)
        if not pending:
            return
        completion = self._now + self.client_latency_ms
        # Only requests already issued by now complete; requests injected
        # at later timeline positions wait for their own Data.
        still_pending: list[float] = []
        for issue_time in pending:
            if issue_time <= completion:
                self.metrics.requests_completed += 1
                self.metrics.latencies_ms.append(completion - issue_time)
                self.metrics.interest_hops.append(data.hops_from_producer)
            else:
                still_pending.append(issue_time)
        self._pending_issues[key] = still_pending

    def _handle_data(self, node: NodeId, data: Data, from_face) -> None:
        state = self._nodes[node]
        faces = state.pit.satisfy(data.name, self._now)
        if faces is None:
            return  # unsolicited Data: dropped (flow balance)
        if self.enroute.should_cache(
            hops_from_producer=data.hops_from_producer,
            at_consumer_edge=CLIENT_FACE in faces,
        ):
            state.store.admit(self.name_to_rank(data.name))
        for face in faces:
            if face == from_face:
                continue
            self._send_data(node, data, to_face=face)

    def run(self, *, max_time_ms: float = float("inf")) -> CCNMetrics:
        """Process events until the queue drains (or ``max_time_ms``)."""
        while self._queue:
            event = heapq.heappop(self._queue)
            if event.time > max_time_ms:
                break
            self._now = event.time
            if event.kind == "interest":
                self._handle_interest(event.node, event.packet, event.from_face)
            elif event.kind == "data":
                self._handle_data(event.node, event.packet, event.from_face)
            else:  # pragma: no cover - internal invariant
                raise SimulationError(f"unknown event kind {event.kind!r}")
        return self.metrics

    def run_workload(
        self,
        workload: Workload,
        count: int,
        *,
        interarrival_ms: float = 1.0,
    ) -> CCNMetrics:
        """Issue ``count`` workload requests at fixed inter-arrival times.

        Requests are injected into the live event timeline, so
        concurrent Interests for the same name aggregate in PITs —
        behaviour the flow-level simulator cannot capture.
        """
        if not (math.isfinite(interarrival_ms) and interarrival_ms >= 0):
            raise ParameterError(
                f"interarrival must be finite and non-negative, got {interarrival_ms}"
            )
        for i, request in enumerate(workload.requests(count)):
            self._now = i * interarrival_ms
            self.issue(request.client, request.rank)
        # Events were scheduled from increasing injection times; rewind
        # the clock so run() replays them in order.
        self._now = 0.0
        return self.run()
