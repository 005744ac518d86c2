"""Batched packet-level CCN engine: vectorized PIT aggregation + queues.

The scalar :class:`~repro.ccn.network.CCNNetwork` replays one event at
a time through Python objects — faithful, but ~16k requests/s.  This
module is its batched counterpart (DESIGN.md §16): the request stream
is resolved as timestamp-ordered *cohorts* over flat arrays, with the
packet-level machinery exercised only where packets actually interact.

The load-bearing observation: with membership-static content stores
(the provisioned/:class:`~repro.simulation.cache.StaticCache` regime
this repo's CCN scenarios run in), the full event timeline decomposes
*exactly* by content name.  PIT entries, FIB routes, CS membership and
pending-issue sweeps are all per-name state, so two requests can only
influence each other when they ask for the same rank with overlapping
PIT windows.  The engine therefore:

1. memoizes one *journey* per (client, rank-signature) cell — the
   deterministic solo walk of an Interest through CS probes, FIB
   alternatives, duplicate-nonce bounces, origin crossing and the Data
   retrace — and resolves non-interacting requests as pure array
   gathers over the journey table;
2. detects potentially-interacting requests with a conservative
   vectorized overlap test on per-rank injection gaps and routes those
   rank groups through an exact event-ordered micro-simulation (the
   same (time, sequence) heap discipline as the scalar network, over
   integer faces instead of packet objects);
3. aggregates per-request outcome codes (``served-local / forwarded /
   aggregated / origin / queued / rejected``) cohort by cohort with the
   combined-key ``np.bincount`` pattern of
   :mod:`repro.simulation.dynamic_batch`.

Equivalence contract (enforced by ``tests/ccn/test_engine_equivalence``):
with ``queue=None`` every counter of :class:`CCNMetrics` is
bit-identical to the scalar network, and the completed-request latency
and hop multisets match exactly on dyadic-latency topologies (to
float-sum tolerance on measured geo latencies, where the scalar's
absolute-time accumulation rounds differently than the engine's
issue-relative accumulation).

Finite store queues (``queue=CacheQueue(...)``) are *new* behaviour the
scalar network does not model — each serving store is a single server
with ``size`` pending-operation slots and read/write service penalties
(after icarus's packet-level cache-delay experiments).  Reads that find
the queue full are rejected and escalate upstream (local store →
custodian → origin); queue delays shift completions but are decoupled
from PIT windows.  An event loop over every store operation is the
queue model's reference (``run_*_reference``); runs in which no
operation is rejected drain through an exact vectorized pass instead,
bit-identical to it.  See DESIGN.md §16 for the model's exact scope.
"""

from __future__ import annotations

# The resolve pipeline's stages share one set of per-request result
# arrays (outcome/latency/hops/leader/serve/deliver) and a counter
# vector, each stage writing its slice in place — the aliasing IS the
# contract (one allocation per run, scalar-equivalent booking order).
# repro-lint: disable-file=R4

import bisect
import heapq
import math
from dataclasses import dataclass, field
from typing import Hashable, Mapping, Optional, Sequence

import numpy as np

from ..catalog.workload import Workload
from ..core.strategy import ProvisioningStrategy
from ..errors import ParameterError, SimulationError, TopologyError
from ..obs import get_session
from ..simulation.cache import CachePolicy, StaticCache
from ..simulation.dynamic_batch import DEFAULT_TABLE_LIMIT_BYTES
from ..topology.graph import Topology
from .fib import build_fibs
from .names import Name
from .network import CCNMetrics
from .packets import Interest

__all__ = [
    "N_OUTCOMES",
    "OUT_AGGREGATED",
    "OUT_FORWARDED",
    "OUT_ORIGIN",
    "OUT_QUEUED",
    "OUT_REJECTED",
    "OUT_SERVED_LOCAL",
    "BatchedCCNEngine",
    "BatchedCCNResult",
    "CacheQueue",
]

NodeId = Hashable

#: Per-request outcome codes (cohort aggregation and the obs layer).
OUT_SERVED_LOCAL = 0  #: CS hit at the client's own router
OUT_FORWARDED = 1  #: forwarded upstream (served by another router's store)
OUT_AGGREGATED = 2  #: absorbed by a live PIT entry of an in-flight Interest
OUT_ORIGIN = 3  #: crossed to the origin server
OUT_QUEUED = 4  #: served after waiting in a finite store queue
OUT_REJECTED = 5  #: bounced off a full store queue and escalated upstream
N_OUTCOMES = 6

#: Integer pseudo-faces (router faces are their node indices >= 0).
_CLIENT = -1
_ORIGIN = -2

#: Initial Interest hop budget — mirrors :class:`repro.ccn.packets.Interest`.
_HOP_LIMIT = Interest.__dataclass_fields__["hop_limit"].default

#: The queue pass trusts its closed-form finish guess only where the
#: guess clears an arrival by more than this share of the largest term
#: of the form, far above the form's rounding.
_BUSY_GUESS_MARGIN = 1e-9


def _fill_busy_periods(
    begin: np.ndarray,
    end: np.ndarray,
    arrival: np.ndarray,
    service: np.ndarray,
    finish: np.ndarray,
) -> None:
    """Finish times of the busy periods ``[begin, end)``, in place.

    Position by position across all periods at once, with the event
    loop's float operations: ``max(arrival, previous finish) + service``.
    """
    finish[begin] = arrival[begin] + service[begin]
    length = end - begin
    order = np.argsort(-length, kind="stable")
    begin, length = begin[order], length[order]
    # active[t - 1] = how many periods are longer than t positions.
    steps = np.arange(1, int(length[0]), dtype=np.int64)
    active = np.searchsorted(-length, -steps, side="left")
    for step, count in enumerate(active, start=1):
        pos = begin[:count] + step
        finish[pos] = np.maximum(arrival[pos], finish[pos - 1]) + service[pos]


def _fifo_starts(
    node: np.ndarray, arrival: np.ndarray, service: np.ndarray, size: int
) -> Optional[np.ndarray]:
    """Start times of per-node FIFO single servers, or None on a rejection.

    The operations come sorted by (node, arrival, sequence).  The start
    times are the exact floats of the event loop's
    ``max(arrival, previous finish)``; None means some operation would
    find ``size`` operations pending at its store, where the loop
    rejects it (DESIGN.md §16.2).
    """
    count = len(arrival)
    first = np.ones(count, dtype=bool)
    first[1:] = node[1:] != node[:-1]
    # Guess the busy periods from the max-plus closed form
    # F_k = C_k + max_{j<=k}(A_j - C_{j-1}), with C the node's service
    # prefix sums.  It rounds differently from the loop, so it only
    # places the period starts the exact pass below starts from.
    segment = np.cumsum(first) - 1
    before = np.cumsum(service) - service
    before -= before[first][segment]
    slack = arrival - before
    shift = segment * (float(np.ptp(slack)) + 1.0)
    guess = before + service + (np.maximum.accumulate(slack + shift) - shift)
    margin = _BUSY_GUESS_MARGIN * float(
        np.abs(slack).max() + shift[-1] + before.max() + service.max()
    )
    # An arrival finds `size` operations pending when the operation
    # `size` places earlier at its node finishes after it (see below).
    # Where the guess shows that clearly, the run rejects: hand it to
    # the loop before filling busy periods, which on an overloaded
    # store last the whole run and cost one step per operation.
    if size < count and np.any(
        (node[size:] == node[:-size]) & (guess[:-size] > arrival[size:] + margin)
    ):
        return None
    is_start = first.copy()
    is_start[1:] |= arrival[1:] > guess[:-1] + margin

    finish = np.empty(count)
    starts = np.flatnonzero(is_start)
    redo = np.arange(len(starts), dtype=np.intp)
    while True:
        ends = np.append(starts[1:], count)
        _fill_busy_periods(starts[redo], ends[redo], arrival, service, finish)
        # A guessed start that arrives before the exact previous finish
        # continues that busy period: merge and refill the merged ones.
        inner = starts[~first[starts]]
        merge = inner[arrival[inner] < finish[inner - 1]]
        if merge.size == 0:
            break
        is_start[merge] = False
        starts = np.flatnonzero(is_start)
        redo = np.unique(np.searchsorted(starts, merge, side="right") - 1)

    # Finish times never decrease at a node, so an arrival finds `size`
    # operations pending exactly when the operation `size` places
    # earlier at its node finishes after it (a finish equal to the
    # arrival has freed its slot, as in the loop).  The exact check
    # catches the rejections too close for the guess.
    if size < count and np.any(
        (node[size:] == node[:-size]) & (finish[:-size] > arrival[size:])
    ):
        return None
    start = arrival.copy()
    cont = np.flatnonzero(~is_start)
    start[cont] = np.maximum(arrival[cont], finish[cont - 1])
    return start


@dataclass(frozen=True)
class CacheQueue:
    """Finite admission queue of a content store (single server).

    Parameters
    ----------
    size:
        Pending-operation slots (waiting + in service).  An operation
        arriving when ``size`` operations are already pending is
        *rejected*: reads escalate the Interest upstream, writes are
        dropped.
    read_penalty_ms / write_penalty_ms:
        Service time of one store read (serving an Interest) / write
        (admitting returning Data at the consumer edge).
    """

    size: int
    read_penalty_ms: float = 0.0
    write_penalty_ms: float = 0.0

    def __post_init__(self) -> None:
        finite = math.isfinite(self.size)
        if not (finite and self.size >= 1 and int(self.size) == self.size):
            raise ParameterError(
                f"cache queue size must be a positive integer, got {self.size}"
            )
        # NaN compares false both ways: the loop would never free its
        # slot while the pass never saw it pending.
        for penalty in (self.read_penalty_ms, self.write_penalty_ms):
            if not (math.isfinite(penalty) and penalty >= 0):
                raise ParameterError(
                    f"queue penalties must be finite and non-negative, got {penalty}"
                )


@dataclass
class BatchedCCNResult:
    """One batched run's counters, per-request arrays and cohort matrix.

    The counter fields mirror :class:`~repro.ccn.network.CCNMetrics`
    exactly (see :meth:`to_metrics`); on top the engine reports the
    per-client-node × outcome-code cohort matrix and, in queue mode,
    the queueing statistics.
    """

    requests_issued: int = 0
    requests_completed: int = 0
    origin_productions: int = 0
    cs_hits: int = 0
    interest_transmissions: int = 0
    data_transmissions: int = 0
    pit_aggregations: int = 0
    latencies_ms: np.ndarray = field(default_factory=lambda: np.empty(0))
    interest_hops: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int64)
    )
    #: (n_nodes, N_OUTCOMES) int64 — requests by client node and outcome.
    outcome_counts: np.ndarray = field(
        default_factory=lambda: np.zeros((0, N_OUTCOMES), dtype=np.int64)
    )
    cohorts: int = 0
    #: Requests resolved through the exact per-rank micro-simulation.
    simulated_requests: int = 0
    queued_ops: int = 0
    rejected_ops: int = 0
    queue_wait_ms: float = 0.0

    @property
    def origin_load(self) -> float:
        """Fraction of issued requests satisfied by the origin."""
        if not self.requests_issued:
            return 0.0
        return self.origin_productions / self.requests_issued

    @property
    def mean_latency_ms(self) -> float:
        """Mean completion latency over finished requests."""
        if self.latencies_ms.size == 0:
            return 0.0
        return float(np.mean(self.latencies_ms))

    @property
    def mean_interest_hops(self) -> float:
        """Mean Interest hop count to the producing store/origin."""
        if self.interest_hops.size == 0:
            return 0.0
        return float(np.mean(self.interest_hops))

    def to_metrics(self) -> CCNMetrics:
        """This result as scalar-shaped :class:`CCNMetrics` (lists)."""
        return CCNMetrics(
            requests_issued=self.requests_issued,
            requests_completed=self.requests_completed,
            origin_productions=self.origin_productions,
            cs_hits=self.cs_hits,
            interest_transmissions=self.interest_transmissions,
            data_transmissions=self.data_transmissions,
            pit_aggregations=self.pit_aggregations,
            latencies_ms=[float(v) for v in self.latencies_ms],
            interest_hops=[int(v) for v in self.interest_hops],
        )


class _Journey:
    """The memoized solo walk of one (client, rank-signature) cell."""

    __slots__ = (
        "completes",
        "latency",
        "hops",
        "itx",
        "dtx",
        "cs_hit",
        "origin",
        "outcome",
        "serving_node",
        "serve_offset",
        "deliver_offset",
        "span",
        "has_pit",
        "pit_mask",
    )

    def __init__(self) -> None:
        self.completes = False
        self.latency = np.nan
        self.hops = -1
        self.itx = 0
        self.dtx = 0
        self.cs_hit = 0
        self.origin = 0
        self.outcome = OUT_FORWARDED
        self.serving_node = -1
        self.serve_offset = np.nan
        self.deliver_offset = np.nan
        self.span = 0.0
        self.has_pit = False
        self.pit_mask = 0


class _PitState:
    """One node's live PIT entry for the rank under micro-simulation."""

    __slots__ = ("faces", "nonces", "out_faces", "expires_at")

    def __init__(self, face: int, nonce: int, expires_at: float) -> None:
        self.faces = [face]  # insertion order (deterministic Data fan-out)
        self.nonces = {nonce}
        self.out_faces: set = set()
        self.expires_at = expires_at


class _RankRun:
    """Output of one rank's exact micro-simulation."""

    __slots__ = (
        "cs_hits",
        "itx",
        "dtx",
        "origin",
        "aggregations",
        "entries_created",
        "live_expiry_max",
        "last_event",
        "pit_nodes",
    )

    def __init__(self) -> None:
        self.cs_hits = 0
        self.itx = 0
        self.dtx = 0
        self.origin = 0
        self.aggregations = 0
        self.entries_created = 0
        self.live_expiry_max = 0.0
        self.last_event = 0.0
        self.pit_nodes: set = set()


class BatchedCCNEngine:
    """Vectorized packet-level CCN simulator over static content stores.

    Construction mirrors :class:`~repro.ccn.network.CCNNetwork` (same
    topology/gateway/latency/PIT parameters, same
    :meth:`install_strategy` provisioning path), but the engine only
    supports *membership-static* stores: :class:`StaticCache` instances
    or capacity-0 policies.  Dynamic replacement would couple every
    request through store state and needs the scalar network — passing
    such a store raises :class:`SimulationError` pointing there.

    Parameters beyond the scalar network's:

    queue:
        Optional :class:`CacheQueue` enabling the finite-store-queue
        model (reads/writes occupy a per-node single server; full
        queues reject).  ``None`` (default) reproduces the scalar
        network's zero-service-time stores exactly.
    custodians:
        Optional explicit ``{name: custodian node}`` FIB overrides, the
        constructor-level equivalent of the per-name routes
        :meth:`install_strategy` installs (used by tests to craft
        dead-end custodian scenarios).
    cohort_size:
        Requests per aggregation cohort (outcome bincounts and obs
        counters are accumulated cohort by cohort; results are
        invariant to the choice).
    """

    def __init__(
        self,
        topology: Topology,
        *,
        origin_gateway: NodeId,
        stores: Optional[Mapping[NodeId, CachePolicy]] = None,
        root_prefix: Name = Name("/repro/content"),
        origin_latency_ms: float = 50.0,
        client_latency_ms: float = 0.0,
        pit_lifetime_ms: float = 60_000.0,
        queue: Optional[CacheQueue] = None,
        custodians: Optional[Mapping[Name, NodeId]] = None,
        cohort_size: int = 65_536,
        table_limit_bytes: int = DEFAULT_TABLE_LIMIT_BYTES,
    ):
        if origin_gateway not in topology.nodes:
            raise TopologyError(
                f"origin gateway {origin_gateway!r} is not in topology "
                f"{topology.name!r}"
            )
        if origin_latency_ms < 0 or client_latency_ms < 0:
            raise ParameterError("latencies must be non-negative")
        if pit_lifetime_ms <= 0:
            raise ParameterError(
                f"PIT lifetime must be positive, got {pit_lifetime_ms}"
            )
        if int(cohort_size) != cohort_size or cohort_size < 1:
            raise ParameterError(
                f"cohort size must be a positive integer, got {cohort_size}"
            )
        self.topology = topology
        self.nodes = tuple(topology.nodes)
        self.n_nodes = len(self.nodes)
        self._index = {node: i for i, node in enumerate(self.nodes)}
        self.origin_gateway = origin_gateway
        self._gateway = self._index[origin_gateway]
        self.root_prefix = root_prefix
        self.origin_latency_ms = float(origin_latency_ms)
        self.client_latency_ms = float(client_latency_ms)
        self.pit_lifetime_ms = float(pit_lifetime_ms)
        self.queue = queue
        self.cohort_size = int(cohort_size)
        self.table_limit_bytes = int(table_limit_bytes)
        self.directive_messages = 0

        self._membership: list[frozenset[int]] = [frozenset()] * self.n_nodes
        self._writable = np.zeros(self.n_nodes, dtype=bool)
        given = dict(stores or {})
        for node, index in self._index.items():
            store = given.pop(node, None)
            if store is None:
                continue
            self._membership[index] = self._static_contents(node, store)
            self._writable[index] = store.capacity > 0
        if given:
            raise SimulationError(
                f"stores given for unknown routers: {sorted(map(repr, given))}"
            )

        self._custodian_of: dict[int, int] = {}
        custodian_names: dict[Name, NodeId] = dict(custodians or {})
        for name, owner in custodian_names.items():
            self._custodian_of[self._name_to_rank(name)] = self._index[owner]
        self._fibs = build_fibs(
            topology,
            origin_gateway,
            root_prefix=root_prefix,
            custodians=custodian_names or None,
        )
        self._invalidate_caches()

    # -- configuration -------------------------------------------------------

    @staticmethod
    def _static_contents(node: NodeId, store: CachePolicy) -> frozenset[int]:
        """The fixed membership of a store, or raise for dynamic ones."""
        if isinstance(store, StaticCache):
            return store.contents
        if store.capacity == 0:
            return frozenset()
        raise SimulationError(
            f"router {node!r} has a dynamic {type(store).__name__} "
            f"(capacity {store.capacity}); the batched engine requires "
            f"membership-static content stores — use the scalar CCNNetwork "
            f"for dynamic replacement"
        )

    def _name_to_rank(self, name: Name) -> int:
        if not self.root_prefix.is_prefix_of(name) or len(name) != len(
            self.root_prefix
        ) + 1:
            raise ParameterError(f"{name} is not a content name of this domain")
        return int(name.components[-1])

    def rank_to_name(self, rank: int) -> Name:
        """The CCN name of a catalog rank."""
        if rank < 1:
            raise ParameterError(f"rank must be >= 1, got {rank}")
        return self.root_prefix.child(str(rank))

    def install_strategy(self, strategy: ProvisioningStrategy) -> None:
        """Provision the domain per a coordination strategy.

        Identical contract to :meth:`CCNNetwork.install_strategy`:
        every router's membership becomes its local top ranks plus its
        coordinated share, per-name FIB routes steer coordinated ranks
        toward their custodians, and one directive message per
        installed route is booked.
        """
        if strategy.n_routers != self.n_nodes:
            raise ParameterError(
                f"strategy is for {strategy.n_routers} routers; topology has "
                f"{self.n_nodes}"
            )
        custodian_names: dict[Name, NodeId] = {}
        self._custodian_of = {}
        for rank, owner in strategy.iter_assignments():
            custodian_names[self.rank_to_name(rank)] = self.nodes[owner]
            self._custodian_of[rank] = owner
        self._fibs = build_fibs(
            self.topology,
            self.origin_gateway,
            root_prefix=self.root_prefix,
            custodians=custodian_names,
        )
        for index in range(self.n_nodes):
            self._membership[index] = frozenset(
                strategy.contents_of_router(index)
            )
            self._writable[index] = strategy.capacity > 0
        self.directive_messages += len(custodian_names) * max(
            self.n_nodes - 1, 0
        )
        self._invalidate_caches()

    def _invalidate_caches(self) -> None:
        self._journeys: list[_Journey] = []
        self._memo: dict[tuple[int, object], int] = {}
        self._tier_memo: dict[tuple[int, object, frozenset], _Journey] = {}
        self._alt_memo: dict[tuple[int, int], tuple[int, ...]] = {}
        self._link_memo: dict[tuple[int, int], float] = {}
        self._sig_cache: Optional[tuple] = None
        self._journey_arrays_cache: Optional[dict] = None

    # -- per-rank structure --------------------------------------------------

    def _link(self, a: int, b: int) -> float:
        lat = self._link_memo.get((a, b))
        if lat is None:
            lat = float(self.topology.link_latency(self.nodes[a], self.nodes[b]))
            self._link_memo[(a, b)] = lat
        return lat

    def _alternatives(self, node: int, rank: int) -> tuple[int, ...]:
        """Ranked FIB next hops (as node indices) for a rank at a node.

        Routes depend only on (node, custodian-of-rank): the default
        origin route plus the exact-name custodian route, so the memo
        collapses the whole catalog onto at most n+1 keys per node.
        """
        custodian = self._custodian_of.get(rank, -1)
        key = (node, custodian)
        alts = self._alt_memo.get(key)
        if alts is None:
            name = self.rank_to_name(rank)
            alts = tuple(
                self._index[hop]
                for hop in self._fibs[self.nodes[node]].lookup_all(name)
            )
            self._alt_memo[key] = alts
        return alts

    def _holders(self, rank: int) -> frozenset[int]:
        return frozenset(
            i for i in range(self.n_nodes) if rank in self._membership[i]
        )

    def _rank_signatures(self, max_rank: int):
        """Per-rank structural signatures (custodian + holder pattern).

        Two ranks with the same custodian and the same set of holding
        routers traverse identical journeys from every client, so the
        journey memo is keyed on this signature rather than the rank.
        Returns ``(sig_of_rank, rep_rank, stable_keys)``: the int
        signature id per rank (index 0 unused), one representative rank
        per signature, and a per-signature hashable key that is stable
        across runs (memo key material).
        """
        if self._sig_cache is not None and self._sig_cache[0] >= max_rank:
            return self._sig_cache[1]
        table_bytes = (self.n_nodes + 1) * (max_rank + 1) * 4
        if table_bytes > self.table_limit_bytes:
            raise SimulationError(
                f"rank-signature table needs {table_bytes:,} bytes for "
                f"catalog rank {max_rank} over {self.n_nodes} routers, above "
                f"the {self.table_limit_bytes:,}-byte budget; shrink the "
                f"catalog or raise table_limit_bytes"
            )
        matrix = np.zeros((self.n_nodes + 1, max_rank + 1), dtype=np.int32)
        # Rank 0 is not a content rank; poison its column so no real
        # rank shares its signature (and thus its representative).
        matrix[0, 0] = -1
        for index, members in enumerate(self._membership):
            if members:
                held = np.fromiter(
                    (r for r in members if r <= max_rank), dtype=np.int64
                )
                if held.size:
                    matrix[index + 1, held] = 1
        for rank, owner in self._custodian_of.items():
            if rank <= max_rank:
                matrix[0, rank] = owner + 1
        columns, rep_rank, sig_of_rank = np.unique(
            matrix, axis=1, return_index=True, return_inverse=True
        )
        sig_of_rank = np.asarray(sig_of_rank, dtype=np.int64).reshape(-1)
        stable_keys = tuple(
            columns[:, s].tobytes() for s in range(columns.shape[1])
        )
        result = (sig_of_rank, np.asarray(rep_rank, dtype=np.int64), stable_keys)
        self._sig_cache = (max_rank, result)
        return result

    # -- the exact per-rank event machine ------------------------------------

    def _simulate_rank(
        self,
        rank: int,
        reqs: np.ndarray,
        req_clients: np.ndarray,
        req_times: np.ndarray,
        outcome: np.ndarray,
        latency: np.ndarray,
        hops_arr: np.ndarray,
        leader_arr: np.ndarray,
        serve_node: np.ndarray,
        serve_time: np.ndarray,
        deliver_time: np.ndarray,
        *,
        holders: Optional[frozenset] = None,
        seq_base: Optional[int] = None,
    ) -> _RankRun:
        """Exact event-ordered replay of one rank's requests.

        This is the scalar network's event loop restricted to a single
        name, over integer faces: the same (time, sequence) heap order,
        the same CS → PIT insert → FIB/origin/bounce Interest rules,
        the same PIT retrace and pending-issue sweep on the Data path.
        ``reqs`` must be sorted by (time, request id); request ids play
        the role of nonces.  Results are written into the per-request
        arrays at the global request indices.
        """
        run = _RankRun()
        if holders is None:
            holders = self._holders(rank)
        lifetime = self.pit_lifetime_ms
        client_lat = self.client_latency_ms
        entries: dict[int, _PitState] = {}
        pending: dict[int, list] = {}
        heap: list = []
        for position in range(len(reqs)):
            req = int(reqs[position])
            client = int(req_clients[position])
            t_issue = float(req_times[position])
            pending.setdefault(client, []).append((t_issue, req))
            # Issue events carry their global request index as the heap
            # sequence — matching the scalar network, where run_workload
            # schedules every injection (sequence 0..count-1) before any
            # derived event exists.
            heap.append(
                (t_issue + client_lat, req, 0, client, _CLIENT, req, _HOP_LIMIT)
            )
        heapq.heapify(heap)
        # Derived events (forwards, Data) outrank every issue sequence.
        next_seq = (seq_base if seq_base is not None else len(reqs)) + (
            1 << 32
        )

        def purge(node: int, now: float) -> None:
            entry = entries.get(node)
            if entry is not None and entry.expires_at <= now:
                del entries[node]

        def deliver(node: int, hops: int, leader: int, now: float) -> None:
            completion = now + client_lat
            plist = pending.get(node)
            if not plist:
                return
            keep = []
            for t_issue, req in plist:
                if t_issue <= completion:
                    latency[req] = completion - t_issue
                    hops_arr[req] = hops
                    leader_arr[req] = leader
                    deliver_time[req] = now
                else:
                    keep.append((t_issue, req))
            pending[node] = keep

        def send_data(
            node: int, to_face: int, hops: int, leader: int, now: float
        ) -> None:
            nonlocal next_seq
            if to_face == _CLIENT:
                deliver(node, hops, leader, now)
                return
            run.dtx += 1
            heap_item = (
                now + self._link(node, to_face),
                next_seq,
                1,
                to_face,
                node,
                hops + 1,
                leader,
            )
            next_seq += 1
            heapq.heappush(heap, heap_item)

        while heap:
            now, _, kind, node, from_face, a, b = heapq.heappop(heap)
            run.last_event = now  # heap pops nondecreasing: ends at max
            if kind == 0:  # Interest: a = nonce (request id), b = hop limit
                nonce, hop_limit = a, b
                purge(node, now)
                if node in holders:
                    run.cs_hits += 1
                    serve_node[nonce] = node
                    serve_time[nonce] = now
                    if from_face == _CLIENT:
                        outcome[nonce] = OUT_SERVED_LOCAL
                    send_data(node, from_face, 0, nonce, now)
                    continue
                entry = entries.get(node)
                if entry is None:
                    entry = _PitState(from_face, nonce, now + lifetime)
                    entries[node] = entry
                    run.entries_created += 1
                    run.pit_nodes.add(node)
                elif nonce in entry.nonces:
                    entry.expires_at = now + lifetime  # duplicate: refresh
                else:
                    if from_face not in entry.faces:
                        entry.faces.append(from_face)
                    entry.nonces.add(nonce)
                    entry.expires_at = now + lifetime
                    run.aggregations += 1
                    outcome[nonce] = OUT_AGGREGATED
                    continue
                if hop_limit <= 0:
                    continue  # dropped; the PIT entry will expire
                tried = entry.out_faces
                forwarded = False
                for next_hop in self._alternatives(node, rank):
                    if next_hop == from_face or next_hop in tried:
                        continue
                    entry.out_faces.add(next_hop)
                    run.itx += 1
                    heapq.heappush(
                        heap,
                        (
                            now + self._link(node, next_hop),
                            next_seq,
                            0,
                            next_hop,
                            node,
                            nonce,
                            hop_limit - 1,
                        ),
                    )
                    next_seq += 1
                    forwarded = True
                    break
                if forwarded:
                    continue
                if (
                    node == self._gateway
                    or not self._alternatives(node, rank)
                ) and _ORIGIN not in tried:
                    entry.out_faces.add(_ORIGIN)
                    run.itx += 1
                    run.origin += 1
                    outcome[nonce] = OUT_ORIGIN
                    heapq.heappush(
                        heap,
                        (
                            now + 2.0 * self.origin_latency_ms,
                            next_seq,
                            1,
                            node,
                            _ORIGIN,
                            1,
                            nonce,
                        ),
                    )
                    next_seq += 1
                    continue
                if from_face not in (_CLIENT, _ORIGIN) and from_face not in tried:
                    entry.out_faces.add(from_face)
                    run.itx += 1
                    heapq.heappush(
                        heap,
                        (
                            now + self._link(node, from_face),
                            next_seq,
                            0,
                            from_face,
                            node,
                            nonce,
                            hop_limit - 1,
                        ),
                    )
                    next_seq += 1
            else:  # Data: a = hops_from_producer, b = producing leader
                hops, leader = a, b
                purge(node, now)
                entry = entries.pop(node, None)
                if entry is None:
                    continue  # unsolicited Data: dropped (flow balance)
                for face in entry.faces:
                    if face == from_face:
                        continue
                    send_data(node, face, hops, leader, now)
        if entries:
            run.live_expiry_max = max(e.expires_at for e in entries.values())
        return run

    # -- journeys ------------------------------------------------------------

    def _walk(
        self, client: int, rank: int, holders: frozenset[int]
    ) -> _Journey:
        """The solo journey of one request, via the exact machine."""
        journey = _Journey()
        outcome = np.array([OUT_FORWARDED], dtype=np.uint8)
        latency = np.full(1, np.nan)
        hops = np.full(1, -1, dtype=np.int64)
        leader = np.zeros(1, dtype=np.int64)
        s_node = np.full(1, -1, dtype=np.int64)
        s_time = np.full(1, np.nan)
        d_time = np.full(1, np.nan)
        run = self._simulate_rank(
            rank,
            np.zeros(1, dtype=np.int64),
            np.array([client], dtype=np.int64),
            np.zeros(1),
            outcome,
            latency,
            hops,
            leader,
            s_node,
            s_time,
            d_time,
            holders=holders,
        )
        journey.completes = bool(np.isfinite(latency[0]))
        journey.latency = float(latency[0])
        journey.hops = int(hops[0])
        journey.itx = run.itx
        journey.dtx = run.dtx
        journey.cs_hit = run.cs_hits
        journey.origin = run.origin
        journey.outcome = int(outcome[0])
        journey.serving_node = int(s_node[0])
        journey.serve_offset = float(s_time[0])
        if journey.completes:
            journey.deliver_offset = journey.latency - self.client_latency_ms
        journey.has_pit = run.entries_created > 0
        for node in run.pit_nodes:
            journey.pit_mask |= 1 << node
        # Influence window: entries this request leaves behind stay live
        # until satisfied (<= delivery) or expired, its delivery sweeps
        # same-cell pending issues up to completion, and Data still in
        # flight after its own entries expired (short PIT lifetimes) can
        # satisfy a *fresh* entry — so the last solo event counts too.
        journey.span = max(
            run.last_event + self.client_latency_ms, run.live_expiry_max
        )
        return journey

    def _journey_ids(
        self,
        clients_idx: np.ndarray,
        ranks: np.ndarray,
        sig_of_rank: np.ndarray,
        rep_rank: np.ndarray,
        stable_keys: tuple,
    ) -> np.ndarray:
        """Per-request journey ids, walking missing cells on demand."""
        n_sigs = len(stable_keys)
        sig_ids = sig_of_rank[ranks]
        # Packed (client, signature) cell key; bound: client < n_nodes
        # and sig < n_sigs, so the key is < n_nodes * n_sigs — far under
        # int64 overflow for any representable table.
        cell_key = clients_idx.astype(np.int64) * n_sigs
        cell_key += sig_ids
        table = np.full(self.n_nodes * n_sigs, -1, dtype=np.int64)
        for cell in np.unique(cell_key):
            client, sig = divmod(int(cell), n_sigs)
            memo_key = (client, stable_keys[sig])
            jid = self._memo.get(memo_key)
            if jid is None:
                rank = int(rep_rank[sig])
                journey = self._walk(client, rank, self._holders(rank))
                jid = len(self._journeys)
                self._journeys.append(journey)
                self._memo[memo_key] = jid
                self._journey_arrays_cache = None
            table[cell] = jid
        return table[cell_key]

    def _journey_arrays(self) -> dict:
        cached = self._journey_arrays_cache
        if cached is not None:
            return cached
        js = self._journeys
        arrays = {
            "completes": np.array([j.completes for j in js], dtype=bool),
            "latency": np.array([j.latency for j in js]),
            "hops": np.array([j.hops for j in js], dtype=np.int64),
            "itx": np.array([j.itx for j in js], dtype=np.int64),
            "dtx": np.array([j.dtx for j in js], dtype=np.int64),
            "cs": np.array([j.cs_hit for j in js], dtype=np.int64),
            "origin": np.array([j.origin for j in js], dtype=np.int64),
            "outcome": np.array([j.outcome for j in js], dtype=np.uint8),
            "serving": np.array([j.serving_node for j in js], dtype=np.int64),
            "serve_off": np.array([j.serve_offset for j in js]),
            "deliver_off": np.array([j.deliver_offset for j in js]),
            "span": np.array([j.span for j in js]),
            "has_pit": np.array([j.has_pit for j in js], dtype=bool),
        }
        self._journey_arrays_cache = arrays
        return arrays

    # -- interaction detection -----------------------------------------------

    def _resolve_clusters(
        self,
        participate: np.ndarray,
        clients_idx: np.ndarray,
        ranks: np.ndarray,
        times: np.ndarray,
        spans: np.ndarray,
        jid: np.ndarray,
        sim_final: np.ndarray,
        counters: dict,
        outcome: np.ndarray,
        latency: np.ndarray,
        hops_arr: np.ndarray,
        leader_arr: np.ndarray,
        serve_node: np.ndarray,
        serve_time: np.ndarray,
        deliver_time: np.ndarray,
    ) -> None:
        """Find interacting request clusters; micro-simulate the live ones.

        Sorted by (rank, time), request C can only interact *directly*
        with an earlier same-rank participant A when ``t_C <= t_A +
        span_A`` (inclusive — the pending-issue sweep completes
        boundary-equal issues), which forces every consecutive gap in
        the chain to be at most the rank's maximum solo span.  Chained
        influence (late Data keeping a middle request's entries alive)
        needs a direct link at every step, so a gap above the rank max
        span is a sound independence boundary: requests split into
        vectorized *runs* at such gaps, and only multi-member runs need
        finer treatment.

        Within a run, members chain into clusters by their actual solo
        windows (``t + span``).  A cluster goes to the exact
        micro-simulation only when two members could genuinely meet:
        their journeys visit a common PIT node (bitmask intersection),
        or — with a client access leg — share a client (delivery-sweep
        coupling).  Mask-disjoint clusters provably behave as
        independent solo journeys and stay on the fast path.

        Solo windows under-estimate *interacting* members (an aggregated
        request's Data may return long after its solo latency, keeping
        its downstream PIT entries alive), so every simulated cluster is
        verified a posteriori: if its actual influence end — last event
        plus client leg, or latest surviving entry expiry — reaches the
        next same-rank participant, that one is absorbed and the cluster
        re-simulated until the boundary is clean.  Cluster counters are
        booked from the final simulation only.
        """
        part = np.flatnonzero(participate)
        if part.size < 2:
            return
        # Issue times are non-decreasing, so a stable sort on rank alone
        # yields (rank, time, request-id) order.
        order = np.argsort(ranks[part], kind="stable")
        cand = part[order]
        r_s = ranks[cand]
        t_s = times[cand]
        s_s = spans[cand]
        j_s = jid[cand]
        group_start = np.empty(r_s.size, dtype=bool)
        group_start[0] = True
        group_start[1:] = r_s[1:] != r_s[:-1]
        starts = np.flatnonzero(group_start)
        group_max_span = np.maximum.reduceat(s_s, starts)
        group_id = np.cumsum(group_start) - 1
        gaps = t_s[1:] - t_s[:-1]
        linked = ~group_start[1:] & (gaps <= group_max_span[group_id[1:]])
        if not np.any(linked):
            return
        # Maximal runs of linked edges -> member intervals [mlo, mhi).
        edges = np.concatenate(([False], linked, [False]))
        flips = np.diff(edges.astype(np.int8))
        run_lo = np.flatnonzero(flips == 1)
        run_hi = np.flatnonzero(flips == -1) + 1
        group_stop = np.concatenate((starts[1:], [r_s.size]))
        masks = [j.pit_mask for j in self._journeys]
        client_lat = self.client_latency_ms
        consumed = 0
        for mlo, mhi in zip(run_lo.tolist(), run_hi.tolist()):
            rank = int(r_s[mlo])
            gstop = int(group_stop[group_id[mlo]])
            holders: Optional[frozenset] = None
            lo = max(mlo, consumed)
            while lo < mhi:
                hi = lo + 1
                window = t_s[lo] + s_s[lo]
                while hi < mhi and t_s[hi] <= window:
                    window = max(window, t_s[hi] + s_s[hi])
                    hi += 1
                if hi - lo >= 2 and self._cluster_conflicts(
                    cand[lo:hi], j_s[lo:hi], masks, clients_idx, client_lat
                ):
                    if holders is None:
                        holders = self._holders(rank)
                    while True:
                        members = cand[lo:hi]
                        self._reset_requests(
                            members,
                            outcome,
                            latency,
                            hops_arr,
                            leader_arr,
                            serve_node,
                            serve_time,
                            deliver_time,
                        )
                        run = self._simulate_rank(
                            rank,
                            members,
                            clients_idx[members],
                            times[members],
                            outcome,
                            latency,
                            hops_arr,
                            leader_arr,
                            serve_node,
                            serve_time,
                            deliver_time,
                            holders=holders,
                            seq_base=len(ranks),
                        )
                        actual_end = max(
                            run.last_event + client_lat, run.live_expiry_max
                        )
                        if hi < gstop and t_s[hi] <= actual_end:
                            hi += 1  # boundary violated: absorb + re-run
                            continue
                        break
                    counters["cs"] += run.cs_hits
                    counters["itx"] += run.itx
                    counters["dtx"] += run.dtx
                    counters["origin"] += run.origin
                    counters["agg"] += run.aggregations
                    sim_final[cand[lo:hi]] = True
                lo = hi
            consumed = lo

    def _sweep_stale_pendings(
        self,
        clients_idx: np.ndarray,
        ranks: np.ndarray,
        times: np.ndarray,
        latency: np.ndarray,
        hops_arr: np.ndarray,
        leader_arr: np.ndarray,
        deliver_time: np.ndarray,
    ) -> None:
        """Complete failed requests via later same-cell deliveries.

        The scalar network's pending-issue book has no expiry: a request
        whose own Data never arrives (PIT lifetime shorter than the
        round trip) is still completed by the *next* delivery at its
        (client node, name) — however much later, far outside any
        cluster window.  Mirror that globally: every still-incomplete
        request adopts the earliest delivery at its cell whose
        completion time is at or after its issue.  No state changes
        downstream, so this is purely a metrics fix-up (zero cost in
        runs where every request completes).
        """
        incomplete = np.flatnonzero(~np.isfinite(latency))
        if incomplete.size == 0:
            return
        client_lat = self.client_latency_ms
        # Combined (client, rank) cell key.  Overflow bound: client <
        # n_nodes and rank <= max rank, both far below int64 range for
        # any table the signature budget admits.
        cell_stride = int(ranks.max()) + 1
        cell_key = clients_idx * cell_stride
        cell_key += ranks
        completed = np.flatnonzero(np.isfinite(latency))
        needed = np.isin(cell_key[completed], np.unique(cell_key[incomplete]))
        sweepers = completed[needed]
        if sweepers.size == 0:
            return
        deliveries: dict[int, list] = {}
        for j in sweepers.tolist():
            deliveries.setdefault(int(cell_key[j]), []).append(
                (float(deliver_time[j]) + client_lat, j)
            )
        for schedule in deliveries.values():
            schedule.sort()
        for i in incomplete.tolist():
            schedule = deliveries.get(int(cell_key[i]))
            if not schedule:
                continue
            t_issue = float(times[i])
            pos = bisect.bisect_left(schedule, (t_issue, -1))
            if pos < len(schedule):
                completion, j = schedule[pos]
                latency[i] = completion - t_issue
                hops_arr[i] = hops_arr[j]
                leader_arr[i] = leader_arr[j]
                deliver_time[i] = deliver_time[j]

    @staticmethod
    def _cluster_conflicts(
        members: np.ndarray,
        jids: np.ndarray,
        masks: list,
        clients_idx: np.ndarray,
        client_lat: float,
    ) -> bool:
        """Whether any two cluster members can touch shared state."""
        seen_mask = 0
        seen_clients: set = set()
        for pos in range(len(members)):
            mask = masks[jids[pos]]
            if mask & seen_mask:
                return True
            seen_mask |= mask
            if client_lat > 0.0:
                client = int(clients_idx[members[pos]])
                if client in seen_clients:
                    return True
                seen_clients.add(client)
        return False

    @staticmethod
    def _reset_requests(
        members: np.ndarray,
        outcome: np.ndarray,
        latency: np.ndarray,
        hops_arr: np.ndarray,
        leader_arr: np.ndarray,
        serve_node: np.ndarray,
        serve_time: np.ndarray,
        deliver_time: np.ndarray,
    ) -> None:
        """Return members' result slots to their pre-simulation state."""
        outcome[members] = OUT_FORWARDED
        latency[members] = np.nan
        hops_arr[members] = -1
        leader_arr[members] = members
        serve_node[members] = -1
        serve_time[members] = np.nan
        deliver_time[members] = np.nan

    # -- queue model ---------------------------------------------------------

    def _walk_tier(
        self, client: int, rank: int, skip: frozenset[int]
    ) -> _Journey:
        """A journey re-walk ignoring the stores in ``skip`` (escalation)."""
        holders = self._holders(rank) - skip
        key = (client, (self._custodian_of.get(rank, -1), holders), skip)
        journey = self._tier_memo.get(key)
        if journey is None:
            journey = self._walk(client, rank, holders)
            self._tier_memo[key] = journey
        return journey

    def _apply_queue(
        self,
        result: BatchedCCNResult,
        clients_idx: np.ndarray,
        ranks: np.ndarray,
        times: np.ndarray,
        outcome: np.ndarray,
        latency: np.ndarray,
        hops_arr: np.ndarray,
        leader_arr: np.ndarray,
        serve_node: np.ndarray,
        serve_time: np.ndarray,
        deliver_time: np.ndarray,
        counters: dict,
        queue_loop: bool,
    ) -> None:
        """Post-pass: finite single-server store queues (DESIGN.md §16).

        Every store-served request books one *read* at its serving
        store; every remotely/origin-served completion books one
        *write* at the (writable) client-edge store.  Operations drain
        a per-node FIFO single server; arrivals beyond ``size`` pending
        operations are rejected — rejected reads escalate the request
        to its next journey tier (skipping the rejecting store),
        rejected writes are dropped.  Queue delays shift completions
        (leaders propagate their delay to the requests their Data
        completed) but deliberately do not feed back into PIT windows
        or op arrival times — the decoupling documented in §16.

        A vectorized pass drains the queues when no operation would be
        rejected, with bit-identical results; otherwise (and always
        with ``queue_loop``) the event loop of :meth:`_queue_loop` runs.
        """
        obs = get_session()
        with obs.span("ccn.engine.queue"):
            delay = None if queue_loop else self._queue_pass(
                result, clients_idx, outcome, serve_node, serve_time, deliver_time
            )
            fallback = delay is None
            if delay is None:
                delay = self._queue_loop(
                    result,
                    clients_idx,
                    ranks,
                    times,
                    outcome,
                    latency,
                    hops_arr,
                    serve_node,
                    serve_time,
                    deliver_time,
                    counters,
                )
            # Leaders propagate their accumulated store delay to every
            # request their Data completed (leader_arr[req] == req for
            # leaders themselves, so one gather covers both).
            completed = np.isfinite(latency)
            latency[completed] += delay[leader_arr[completed]]
        if obs.enabled:
            obs.counter("ccn.engine.queue_fallbacks").add(int(fallback))

    def _queue_pass(
        self,
        result: BatchedCCNResult,
        clients_idx: np.ndarray,
        outcome: np.ndarray,
        serve_node: np.ndarray,
        serve_time: np.ndarray,
        deliver_time: np.ndarray,
    ) -> Optional[np.ndarray]:
        """The queue drain as array passes; None when some op is rejected.

        Books exactly what :meth:`_queue_loop` books and returns the
        per-request store delay.  Without rejections every store is an
        independent FIFO single server, so the operations are the
        loop's (reads first, then writes, each in request order), and
        each node drains them in (arrival, sequence) order.
        """
        queue = self.queue
        assert queue is not None
        reads = np.flatnonzero(serve_node >= 0)
        if queue.write_penalty_ms > 0:
            writes = np.flatnonzero(
                np.isfinite(deliver_time)
                & ((outcome == OUT_FORWARDED) | (outcome == OUT_ORIGIN))
                & self._writable[clients_idx]
            )
        else:
            writes = np.empty(0, dtype=np.int64)
        n_reads = len(reads)
        delay = np.zeros(len(clients_idx))
        if n_reads + len(writes) == 0:
            return delay
        node = np.concatenate((serve_node[reads], clients_idx[writes]))
        arrival = np.concatenate((serve_time[reads], deliver_time[writes]))
        service = np.repeat(
            np.array([queue.read_penalty_ms, queue.write_penalty_ms], dtype=np.float64),
            [n_reads, len(writes)],
        )
        seq = np.arange(len(arrival), dtype=np.int64)
        order = np.lexsort((seq, arrival, node))
        arrival = arrival[order]
        service = service[order]
        start = _fifo_starts(node[order], arrival, service, int(queue.size))
        if start is None:
            return None

        wait = start - arrival
        queued = np.flatnonzero(wait > 0)
        result.queued_ops += len(queued)
        # The loop sums the waits one at a time in (arrival, sequence)
        # order; np.add.accumulate keeps that order (np.sum would not).
        by_time = np.lexsort((order[queued], arrival[queued]))
        result.queue_wait_ms = float(
            np.add.accumulate(
                np.concatenate(([result.queue_wait_ms], wait[queued][by_time]))
            )[-1]
        )
        is_read = order < n_reads
        req = reads[order[is_read]]
        read_wait = wait[is_read]
        delay[req] = read_wait + service[is_read]
        waited = req[read_wait > 0]
        waited = waited[
            (outcome[waited] == OUT_SERVED_LOCAL) | (outcome[waited] == OUT_FORWARDED)
        ]
        outcome[waited] = OUT_QUEUED
        return delay

    def _queue_loop(
        self,
        result: BatchedCCNResult,
        clients_idx: np.ndarray,
        ranks: np.ndarray,
        times: np.ndarray,
        outcome: np.ndarray,
        latency: np.ndarray,
        hops_arr: np.ndarray,
        serve_node: np.ndarray,
        serve_time: np.ndarray,
        deliver_time: np.ndarray,
        counters: dict,
    ) -> np.ndarray:
        """The queue drain as an event loop over every store operation.

        The reference of the queue model, and the path for runs that
        reject.  Returns the per-request store delay.
        """
        queue = self.queue
        assert queue is not None
        ops: list = []
        seq = 0
        for req in np.flatnonzero(serve_node >= 0):
            ops.append((float(serve_time[req]), seq, 0, int(req), frozenset()))
            seq += 1
        if queue.write_penalty_ms > 0:
            for req in np.flatnonzero(np.isfinite(deliver_time)):
                if outcome[req] in (OUT_FORWARDED, OUT_ORIGIN) and self._writable[
                    clients_idx[req]
                ]:
                    ops.append(
                        (float(deliver_time[req]), seq, 1, int(req), frozenset())
                    )
                    seq += 1
        heapq.heapify(ops)
        finish: dict[int, list] = {}
        delay = np.zeros(len(clients_idx))
        while ops:
            arrival, _, kind, req, skip = heapq.heappop(ops)
            node = (
                int(serve_node[req]) if kind == 0 and not skip else None
            )
            if kind == 0 and skip:
                journey = self._walk_tier(
                    int(clients_idx[req]), int(ranks[req]), skip
                )
                node = journey.serving_node
            if kind == 1:
                node = int(clients_idx[req])
            queue_state = finish.setdefault(node, [])
            while queue_state and queue_state[0] <= arrival:
                queue_state.pop(0)
            if len(queue_state) >= queue.size:
                result.rejected_ops += 1
                if kind == 1:
                    continue  # dropped write
                outcome[req] = OUT_REJECTED
                next_skip = skip | {node}
                journey = self._walk_tier(
                    int(clients_idx[req]), int(ranks[req]), next_skip
                )
                self._escalate(
                    req,
                    journey,
                    times,
                    outcome,
                    latency,
                    hops_arr,
                    counters,
                )
                if journey.serving_node >= 0:
                    heapq.heappush(
                        ops,
                        (
                            float(times[req]) + journey.serve_offset,
                            seq,
                            0,
                            req,
                            next_skip,
                        ),
                    )
                    seq += 1
                continue
            penalty = (
                queue.read_penalty_ms if kind == 0 else queue.write_penalty_ms
            )
            start = max(arrival, queue_state[-1] if queue_state else arrival)
            queue_state.append(start + penalty)
            wait = start - arrival
            if wait > 0:
                result.queued_ops += 1
                result.queue_wait_ms += wait
            if kind == 0:
                delay[req] += wait + penalty
                if wait > 0 and outcome[req] in (
                    OUT_SERVED_LOCAL,
                    OUT_FORWARDED,
                ):
                    outcome[req] = OUT_QUEUED
        return delay

    def _escalate(
        self,
        req: int,
        journey: _Journey,
        times: np.ndarray,
        outcome: np.ndarray,
        latency: np.ndarray,
        hops_arr: np.ndarray,
        counters: dict,
    ) -> None:
        """Re-point a rejected request at its next-tier journey."""
        counters["itx"] += journey.itx
        counters["dtx"] += journey.dtx
        counters["cs"] += journey.cs_hit
        counters["origin"] += journey.origin
        if journey.completes:
            latency[req] = journey.latency
            hops_arr[req] = journey.hops
        else:
            latency[req] = np.nan
            hops_arr[req] = -1
        outcome[req] = OUT_REJECTED

    # -- resolution ----------------------------------------------------------

    def run_schedule(
        self,
        clients: Sequence[NodeId],
        ranks: Sequence[int],
        times_ms: Sequence[float],
    ) -> BatchedCCNResult:
        """Resolve an explicit (client, rank, issue-time) schedule.

        Times must be non-decreasing (the injection order defines the
        scalar-equivalent event sequence).
        """
        return self._run(*self._schedule(clients, ranks, times_ms))

    def run_schedule_reference(
        self,
        clients: Sequence[NodeId],
        ranks: Sequence[int],
        times_ms: Sequence[float],
    ) -> BatchedCCNResult:
        """:meth:`run_schedule` with the store queues drained by the event loop.

        The queue model's reference: only the queue pass differs from
        :meth:`run_schedule`, whose vectorized pass must match it
        bit for bit.
        """
        return self._run(*self._schedule(clients, ranks, times_ms), queue_loop=True)

    def run_workload(
        self,
        workload: Workload,
        count: int,
        *,
        interarrival_ms: float = 1.0,
    ) -> BatchedCCNResult:
        """Resolve ``count`` workload requests at fixed inter-arrival times.

        The batched counterpart of :meth:`CCNNetwork.run_workload`
        (same columnar request stream, same ``i * interarrival_ms``
        injection timeline).
        """
        return self._run(*self._stream(workload, count, interarrival_ms))

    def run_workload_reference(
        self,
        workload: Workload,
        count: int,
        *,
        interarrival_ms: float = 1.0,
    ) -> BatchedCCNResult:
        """:meth:`run_workload` with the store queues drained by the event loop.

        The queue model's reference, as :class:`CCNNetwork` is for the
        queue-free engine: only the queue pass differs from
        :meth:`run_workload`, whose vectorized pass must match it bit
        for bit.
        """
        return self._run(
            *self._stream(workload, count, interarrival_ms), queue_loop=True
        )

    def _schedule(
        self,
        clients: Sequence[NodeId],
        ranks: Sequence[int],
        times_ms: Sequence[float],
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Validated (client index, rank, time) arrays of a schedule."""
        count = len(ranks)
        if len(clients) != count or len(times_ms) != count:
            raise ParameterError(
                f"schedule arrays disagree: {len(clients)} clients, "
                f"{count} ranks, {len(times_ms)} times"
            )
        clients_idx = self._client_indices(clients)
        rank_arr = np.asarray(ranks, dtype=np.int64)
        time_arr = np.asarray(times_ms, dtype=np.float64)
        if count and int(rank_arr.min()) < 1:
            raise ParameterError("ranks must be >= 1")
        if not np.all(np.isfinite(time_arr)):
            # NaN compares false both ways, so it would pass the order
            # check below and leave the event order undefined.
            raise ParameterError("issue times must be finite")
        if count and (
            float(time_arr.min()) < 0 or np.any(np.diff(time_arr) < 0)
        ):
            raise ParameterError("issue times must be non-negative and sorted")
        return clients_idx, rank_arr, time_arr

    def _stream(
        self, workload: Workload, count: int, interarrival_ms: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(client index, rank, time) arrays of ``count`` workload requests."""
        if not (math.isfinite(interarrival_ms) and interarrival_ms >= 0):
            # 0 * inf is NaN: the first issue time would have no order.
            raise ParameterError(
                f"interarrival must be finite and non-negative, got {interarrival_ms}"
            )
        batch = workload.sample_batch(count)
        clients_idx = self._client_indices(batch.clients, batch.client_index)
        times = np.arange(len(clients_idx), dtype=np.float64) * float(
            interarrival_ms
        )
        ranks = np.asarray(batch.ranks, dtype=np.int64)
        return clients_idx, ranks, times

    def _client_indices(
        self,
        palette: Sequence[NodeId],
        client_index: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Topology index of each request's client.

        The clients are ``palette`` itself, or ``palette[client_index]``
        for a sampled batch.  A request from a node outside the topology
        raises the ``SimulationError`` that ``CCNNetwork.issue`` raises
        for it; an unrequested palette entry does not.
        """
        get = self._index.get
        idx = np.fromiter(
            (get(c, -1) for c in palette), dtype=np.int64, count=len(palette)
        )
        if client_index is not None:
            idx = idx[client_index] if len(palette) else np.empty(0, dtype=np.int64)
        if idx.size and int(idx.min()) < 0:
            first = int(np.argmin(idx))
            if client_index is not None:
                first = int(client_index[first])
            raise SimulationError(f"unknown client router {palette[first]!r}")
        return idx

    def _run(
        self,
        clients_idx: np.ndarray,
        ranks: np.ndarray,
        times: np.ndarray,
        *,
        queue_loop: bool = False,
    ) -> BatchedCCNResult:
        obs = get_session()
        count = len(ranks)
        with obs.span("ccn.engine") as span:
            result = self._resolve(clients_idx, ranks, times, queue_loop)
        if obs.enabled:
            obs.counter("ccn.engine.requests").add(count)
            obs.counter("ccn.engine.cohorts").add(result.cohorts)
            obs.counter("ccn.engine.aggregations").add(result.pit_aggregations)
            obs.counter("ccn.engine.simulated").add(result.simulated_requests)
            if self.queue is not None:
                obs.counter("ccn.engine.queued").add(result.queued_ops)
                obs.counter("ccn.engine.rejected").add(result.rejected_ops)
            if span.duration_s > 0:
                obs.gauge("ccn.engine.rps").set(count / span.duration_s)
        return result

    def _resolve(
        self,
        clients_idx: np.ndarray,
        ranks: np.ndarray,
        times: np.ndarray,
        queue_loop: bool,
    ) -> BatchedCCNResult:
        count = len(ranks)
        result = BatchedCCNResult(requests_issued=count)
        result.outcome_counts = np.zeros(
            (self.n_nodes, N_OUTCOMES), dtype=np.int64
        )
        if count == 0:
            return result

        sig_of_rank, rep_rank, stable_keys = self._rank_signatures(
            int(ranks.max())
        )
        jid = self._journey_ids(
            clients_idx, ranks, sig_of_rank, rep_rank, stable_keys
        )
        journeys = self._journey_arrays()

        # Per-request output arrays (nan latency = not completed).
        outcome = np.full(count, OUT_FORWARDED, dtype=np.uint8)
        latency = np.full(count, np.nan)
        hops_arr = np.full(count, -1, dtype=np.int64)
        leader_arr = np.arange(count, dtype=np.int64)
        serve_node = np.full(count, -1, dtype=np.int64)
        serve_time = np.full(count, np.nan)
        deliver_time = np.full(count, np.nan)

        # A request participates in interaction detection iff it can
        # touch shared per-name state: any journey that creates PIT
        # entries, or (with a client access leg) any completion whose
        # delivery can sweep a same-cell pending issue.
        participate = journeys["has_pit"][jid]
        if self.client_latency_ms > 0.0:
            participate = np.ones(count, dtype=bool)
        spans = journeys["span"][jid]

        counters = {"cs": 0, "itx": 0, "dtx": 0, "origin": 0, "agg": 0}
        sim_final = np.zeros(count, dtype=bool)
        self._resolve_clusters(
            participate,
            clients_idx,
            ranks,
            times,
            spans,
            jid,
            sim_final,
            counters,
            outcome,
            latency,
            hops_arr,
            leader_arr,
            serve_node,
            serve_time,
            deliver_time,
        )
        result.simulated_requests = int(np.count_nonzero(sim_final))

        fast = ~sim_final
        fast_j = jid[fast]
        if fast_j.size:
            counters["cs"] += int(journeys["cs"][fast_j].sum())
            counters["itx"] += int(journeys["itx"][fast_j].sum())
            counters["dtx"] += int(journeys["dtx"][fast_j].sum())
            counters["origin"] += int(journeys["origin"][fast_j].sum())
            outcome[fast] = journeys["outcome"][fast_j]
            completes = journeys["completes"][fast_j]
            latency[fast] = np.where(
                completes, journeys["latency"][fast_j], np.nan
            )
            hops_arr[fast] = np.where(
                completes, journeys["hops"][fast_j], -1
            )
            serve_node[fast] = journeys["serving"][fast_j]
            with np.errstate(invalid="ignore"):
                serve_time[fast] = times[fast] + journeys["serve_off"][fast_j]
                deliver_time[fast] = (
                    times[fast] + journeys["deliver_off"][fast_j]
                )

        self._sweep_stale_pendings(
            clients_idx,
            ranks,
            times,
            latency,
            hops_arr,
            leader_arr,
            deliver_time,
        )

        if self.queue is not None:
            self._apply_queue(
                result,
                clients_idx,
                ranks,
                times,
                outcome,
                latency,
                hops_arr,
                leader_arr,
                serve_node,
                serve_time,
                deliver_time,
                counters,
                queue_loop,
            )

        completed = np.isfinite(latency)
        result.requests_completed = int(np.count_nonzero(completed))
        result.cs_hits = counters["cs"]
        result.interest_transmissions = counters["itx"]
        result.data_transmissions = counters["dtx"]
        result.origin_productions = counters["origin"]
        result.pit_aggregations = counters["agg"]
        result.latencies_ms = latency[completed]
        result.interest_hops = hops_arr[completed]

        cohort = self.cohort_size
        flat_counts = np.zeros(self.n_nodes * N_OUTCOMES, dtype=np.int64)
        for start in range(0, count, cohort):
            chunk = slice(start, min(start + cohort, count))
            # Combined (client, outcome) key for this cohort's bincount.
            # Overflow bound: client < n_nodes and outcome < N_OUTCOMES,
            # so the packed key is < n_nodes * 6 — the signature-table
            # budget already caps n_nodes far below int64 range.
            cohort_key = clients_idx[chunk].astype(np.int64) * N_OUTCOMES
            cohort_key += outcome[chunk]
            flat_counts += np.bincount(
                cohort_key, minlength=self.n_nodes * N_OUTCOMES
            )
            result.cohorts += 1
        result.outcome_counts = flat_counts.reshape(self.n_nodes, N_OUTCOMES)
        return result
