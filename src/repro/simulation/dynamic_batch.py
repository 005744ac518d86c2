"""Array-backed batched engines for online (dynamic) replacement simulation.

``DynamicSimulator``'s scalar loop resolves one request at a time
against dict/OrderedDict cache state.  Replacement is inherently
sequential — every decision depends on the store state the previous
request left behind — so unlike the static steady-state kernel
(:mod:`repro.simulation.batch`) the dynamic path cannot be expressed as
pure numpy gathers.  What *can* be hoisted out of the per-request work
is everything around the state machine: custodian assignment
(``rank % n`` over a whole column), the per-(client, custodian) peer
and origin cost tables, tier/latency aggregation and per-store
statistics (``np.bincount``), and the workload columns themselves.  The
per-request residue is a minimal Python loop that emits one small
*outcome code* per request; metrics and store counters are then derived
from the code array in bulk.  The loop makes no NumPy call, and no
policy's per-request cost grows with the store size:

- LRU and FIFO run on the policies' own C-implemented ordered maps
  (move-to-end / append, pop-oldest);
- LFU and PerfectLFU find victims through frequency buckets (one
  insertion-ordered map of stored ranks per count, Shah, Mitra & Matani
  2010), whose lowest non-empty bucket starts with the scalar
  ``min(key=(count, last_used))``;
- Random takes victim positions from chunks drawn in advance from the
  policy's own generator and rewinds the unused draws at the end of the
  run, so the stream ends where the scalar loop leaves it.

The contract is exact equivalence with the scalar path: same tier
counts, same per-store hit/miss counters, same final cache contents
(including identical random streams so a batched segment can be
continued scalar-wise and vice versa), with float cost sums equal up to
summation order exactly as in the steady-state kernel — bit-identical
on dyadic-latency topologies, ``rel=1e-9`` elsewhere.  Gallo et al.
("Performance Evaluation of the Random Replacement Policy for Networks
of Caches") and Fricker et al. ("Impact of traffic mix on caching
performance in a content-centric network") validate cache
approximations against exactly this kind of large-sample replacement
simulation; the kernel exists so those regimes run at millions of
requests per second (DESIGN.md §11).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from functools import partial
from typing import Hashable, Mapping, Optional, Sequence

import numpy as np

from ..catalog.workload import RequestBatch
from ..errors import SimulationError
from ..topology.graph import Topology
from .router import CCNRouter
from .routing import NearestReplicaRouter

__all__ = [
    "DEFAULT_TABLE_LIMIT_BYTES",
    "DynamicBatchAggregate",
    "DynamicKernel",
    "DynamicKernelRun",
]

NodeId = Hashable

#: Ceiling on a kernel's dense cost tables (2 GiB).  The dynamic
#: kernel's flat lookup is O(n² · outcomes) — ~19 GB at n = 5000 — so a
#: whole-graph kernel at internet scale is a mistake, not a workload:
#: shard by client region (:mod:`repro.simulation.sharded`) and give
#: each region its own small kernel instead.
DEFAULT_TABLE_LIMIT_BYTES = 2 << 30


def _require_table_budget(
    kernel: str, estimated_bytes: int, limit_bytes: int
) -> None:
    """Refuse to allocate dense kernel tables beyond ``limit_bytes``.

    Failing fast with a pointer to the sharded path beats an opaque
    ``MemoryError`` minutes into an internet-scale run.
    """
    if limit_bytes < 1:
        raise SimulationError(
            f"table_limit_bytes must be positive, got {limit_bytes}"
        )
    if estimated_bytes > limit_bytes:
        raise SimulationError(
            f"{kernel} cost tables need ~{estimated_bytes / 2**30:.1f} GiB, "
            f"over the {limit_bytes / 2**30:.1f} GiB limit; at this scale "
            "shard the run by client region with "
            "repro.simulation.sharded.run_sharded (per-region kernels), or "
            "raise table_limit_bytes explicitly"
        )

#: Outcome codes, one per simulated request.  Codes 0/1 are the LOCAL
#: tier, 2 is PEER, 3-5 are ORIGIN; codes 1-5 imply a local-store miss,
#: codes 2-4 additionally an own-coordinated-store miss at the client
#: (the scalar ``CCNRouter.lookup`` probes both partitions).
_OUT_LOCAL_HIT = 0
_OUT_OWN_COORDINATED_HIT = 1
_OUT_PEER_HIT = 2
_OUT_MISS_VIA_CUSTODIAN = 3
_OUT_MISS_AT_CUSTODIAN = 4
_OUT_MISS_UNCOORDINATED = 5
_N_OUTCOMES = 6


@dataclass(frozen=True)
class DynamicBatchAggregate:
    """Reductions of one processed batch (post-warmup slice).

    Attributes
    ----------
    local_hits / peer_hits / origin_hits:
        Requests served per tier; sum to the counted slice length.
    total_hops / total_latency_ms:
        Fetch-path sums over the counted slice, matching the scalar
        ``RouteDecision`` accounting.
    served_by_counts:
        ``int64`` array over topology node indices: peer-tier requests
        served per custodian router.
    """

    local_hits: int
    peer_hits: int
    origin_hits: int
    total_hops: float
    total_latency_ms: float
    served_by_counts: np.ndarray


#: Victim positions a Random store draws from its generator in one
#: ``integers(slots, size=...)`` call.  Bounded draws fill sequentially
#: from the bit stream, so a chunk's first k values and the generator
#: state after them equal k scalar ``integers(slots)`` calls;
#: :func:`_bind_random` rewinds the unused tail at the end of the run.
_RANDOM_DRAW_CHUNK = 1024


def _checked(store, slots: int):
    """``store``, once its capacity is the kernel's slot count.

    Every engine bounds a store by the kernel's slot count (LRU/FIFO
    over-capacity pops, the LFU family's full-store test, Random's draw
    bound); a store of another capacity would silently leave the scalar
    path.
    """
    if store.capacity != slots:
        raise SimulationError(
            f"store capacity {store.capacity} does not match the "
            f"kernel's {slots} slots"
        )
    return store


class _EngineBase:
    """Per-policy batch state machine; one instance per kernel run."""

    def __init__(self, local_slots: int, coordinated_slots: int):
        self._local_slots = int(local_slots)
        self._coordinated_slots = int(coordinated_slots)

    def finish(self) -> None:
        """Write any engine-held state back to the policies (default: none)."""


class _LiveMapEngine(_EngineBase):
    """Binds the policies' live ordered maps (LRU recency, FIFO insertion)."""

    def __init__(self, routers: Sequence[CCNRouter], local_slots: int, coordinated_slots: int):
        super().__init__(local_slots, coordinated_slots)
        self._local = tuple(
            _checked(r.local_store, self._local_slots).kernel_state()
            for r in routers
        )
        self._coordinated = (
            tuple(
                _checked(r.coordinated_store, self._coordinated_slots).kernel_state()
                for r in routers
            )
            if coordinated_slots
            else None
        )


class _LRUEngine(_LiveMapEngine):
    """LRU over the policies' live ordered maps (shared state, no sync).

    The recency structure *is* the policy's ``OrderedDict`` — measured
    faster in CPython than slot/clock arrays with argmin eviction,
    because move-to-end/popitem are single C calls (DESIGN.md §11).
    The loop is hand-inlined: this is the throughput-gated path.
    """

    def process(
        self, ranks: list, clients: list, custodians: Optional[list]
    ) -> bytearray:
        """Advance the LRU maps over one batch, returning outcome codes."""
        codes = bytearray()
        append = codes.append
        lo = self._local
        lslots = self._local_slots
        if custodians is None:
            for r, c in zip(ranks, clients):
                od = lo[c]
                if r in od:
                    od.move_to_end(r)
                    append(0)
                else:
                    append(5)
                    od[r] = None
                    if len(od) > lslots:
                        od.popitem(last=False)
            return codes
        co = self._coordinated
        cslots = self._coordinated_slots
        for r, c, k in zip(ranks, clients, custodians):
            od = lo[c]
            if r in od:
                od.move_to_end(r)
                append(0)
                continue
            cod = co[k]
            if r in cod:
                cod.move_to_end(r)
                if c == k:
                    append(1)
                    continue
                append(2)
            else:
                append(4 if c == k else 3)
                cod[r] = None
                if len(cod) > cslots:
                    cod.popitem(last=False)
            if lslots:
                od[r] = None
                if len(od) > lslots:
                    od.popitem(last=False)
        return codes


class _FIFOEngine(_LiveMapEngine):
    """FIFO over the policies' live insertion-order maps (no sync).

    The LRU loop without the move-to-end: a hit leaves the rank where
    it is, an admit appends and pops the oldest entry once the store
    is over capacity — ``FIFOCache._admit``'s transitions exactly.
    """

    def process(
        self, ranks: list, clients: list, custodians: Optional[list]
    ) -> bytearray:
        """Advance the FIFO maps over one batch, returning outcome codes."""
        codes = bytearray()
        append = codes.append
        lo = self._local
        lslots = self._local_slots
        if custodians is None:
            for r, c in zip(ranks, clients):
                od = lo[c]
                if r in od:
                    append(0)
                else:
                    append(5)
                    od[r] = None
                    if len(od) > lslots:
                        od.popitem(last=False)
            return codes
        co = self._coordinated
        cslots = self._coordinated_slots
        for r, c, k in zip(ranks, clients, custodians):
            od = lo[c]
            if r in od:
                append(0)
                continue
            cod = co[k]
            if r in cod:
                if c == k:
                    append(1)
                    continue
                append(2)
            else:
                append(4 if c == k else 3)
                cod[r] = None
                if len(cod) > cslots:
                    cod.popitem(last=False)
            if lslots:
                od[r] = None
                if len(od) > lslots:
                    od.popitem(last=False)
        return codes


def _ignore(*_args) -> None:
    """The touch/admit/finish of a store that keeps no bookkeeping."""


def _bind_lfu(store, slots: int, *, perfect: bool = False) -> tuple:
    """LFU over frequency buckets (Shah, Mitra & Matani, 2010).

    ``buckets[f]`` holds the stored ranks of count ``f`` in last-used
    order: a rank enters a bucket at the current clock, later than
    every stored last-used time, so the first rank of bucket ``minf``
    is the scalar ``min(key=(count, last_used))``.  In-cache LFU counts
    stored ranks only; ``perfect`` keys the buckets by the global
    counts of ``PerfectLFUCache`` instead and keeps its ``<=``
    never-displace-hotter rule.  The policy's own dicts (and stored
    set) are updated in place exactly as its ``_touch``/``_admit`` do;
    only the clock is written back.
    """
    if perfect:
        counts, last_used, stored, clock = store.kernel_state()
    else:
        counts, last_used, clock = store.kernel_state()
        stored = counts
    buckets: dict[int, OrderedDict] = {}
    for rank in sorted(stored, key=last_used.__getitem__):
        buckets.setdefault(counts[rank], OrderedDict())[rank] = None
    minf = min(buckets, default=0)

    def touch(r: int) -> None:
        nonlocal clock, minf
        clock += 1
        f = counts[r]
        g = f + 1
        counts[r] = g
        last_used[r] = clock
        bucket = buckets[f]
        del bucket[r]
        up = buckets.get(g)
        if up is None:
            if bucket:
                up = buckets[g] = OrderedDict()
            else:
                # Reuse the emptied bucket: a lone hot rank climbs
                # without allocating.
                del buckets[f]
                up = buckets[g] = bucket
                if f == minf:
                    minf = g
        elif not bucket:
            del buckets[f]
            if f == minf:
                minf = g
        up[r] = None

    def admit(r: int) -> None:
        nonlocal clock, minf
        clock += 1
        if len(counts) >= slots:
            bucket = buckets[minf]
            victim = bucket.popitem(last=False)[0]
            if not bucket:
                del buckets[minf]
            del counts[victim]
            del last_used[victim]
        counts[r] = 1
        last_used[r] = clock
        ones = buckets.get(1)
        if ones is None:
            ones = buckets[1] = OrderedDict()
        ones[r] = None
        minf = 1

    def admit_perfect(r: int) -> None:
        nonlocal clock, minf
        clock += 1
        gf = counts.get(r, 0) + 1
        counts[r] = gf
        last_used[r] = clock
        if len(stored) >= slots:
            if gf <= minf:
                return
            bucket = buckets[minf]
            stored.discard(bucket.popitem(last=False)[0])
            if not bucket:
                del buckets[minf]
                # Once the store is full no rank outside it counts more
                # than minf (each failed admit adds one, and the first
                # count above minf gets in), so gf == minf + 1 and no
                # bucket lies between; min() covers only states the
                # policy cannot reach.
                minf = gf if gf == minf + 1 else min(gf, *buckets)
        elif not stored or gf < minf:
            minf = gf
        stored.add(r)
        target = buckets.get(gf)
        if target is None:
            target = buckets[gf] = OrderedDict()
        target[r] = None

    def finish() -> None:
        store.restore_kernel_state(clock)

    return stored, touch, admit_perfect if perfect else admit, finish


def _bind_random(store, slots: int, *, claimed: set) -> tuple:
    """Random eviction on the policy's live items/positions/generator.

    A victim is drawn only when the store is full, so every draw is
    ``integers(slots)``; victims come from chunks of
    :data:`_RANDOM_DRAW_CHUNK` drawn in advance.  ``finish`` restores
    the generator state from before the current chunk and redraws only
    the positions used, so the stream ends exactly where the scalar
    loop leaves it.  The swap-remove is ``RandomCache._admit``'s.

    Chunks need each store to own its generator: two stores sharing
    one interleave their draws in the scalar loop.  ``claimed`` holds
    the ids of the generators the run has bound so far.
    """
    items, positions, rng = store.kernel_state()
    if id(rng) in claimed:
        raise SimulationError(
            "two random stores share one generator; the batched engine "
            "draws each store's victims in chunks, so run them with "
            "run_scalar or give each store its own seed"
        )
    claimed.add(id(rng))
    bit_generator = rng.bit_generator
    last = slots - 1
    victims: list = []
    used = 0
    saved_state = None

    def admit(r: int) -> None:
        nonlocal victims, used, saved_state
        if len(items) < slots:
            positions[r] = len(items)
            items.append(r)
            return
        if used == len(victims):
            saved_state = bit_generator.state
            victims = rng.integers(slots, size=_RANDOM_DRAW_CHUNK).tolist()
            used = 0
        v = victims[used]
        used += 1
        evicted = items[v]
        if v != last:
            moved = items[last]
            items[v] = moved
            positions[moved] = v
        del positions[evicted]
        positions[r] = last
        items[last] = r

    def finish() -> None:
        if used < len(victims):
            bit_generator.state = saved_state
            rng.integers(slots, size=used)

    return positions, _ignore, admit, finish


class _StoreEngine(_EngineBase):
    """One inlined loop over per-store ``(members, touch, admit)`` bindings.

    ``bind(store, slots)`` returns the store's membership container, the
    hit bookkeeping (``touch``), the miss-path admission (``admit``) and
    a ``finish`` hook; the LFU, PerfectLFU and Random engines differ
    only in it.  Zero-slot partitions bind to an empty store whose
    admit does nothing, like ``CachePolicy.admit`` at capacity 0.
    """

    def __init__(
        self,
        bind,
        routers: Sequence[CCNRouter],
        local_slots: int,
        coordinated_slots: int,
    ):
        super().__init__(local_slots, coordinated_slots)
        local = [
            self._bind(bind, r.local_store, self._local_slots) for r in routers
        ]
        coordinated = (
            [
                self._bind(bind, r.coordinated_store, self._coordinated_slots)
                for r in routers
            ]
            if coordinated_slots
            else []
        )
        self._lmem, self._ltouch, self._ladmit = (
            tuple(b[i] for b in local) for i in range(3)
        )
        self._cmem, self._ctouch, self._cadmit = (
            tuple(b[i] for b in coordinated) for i in range(3)
        )
        self._finishers = tuple(b[3] for b in local + coordinated)

    @staticmethod
    def _bind(bind, store, slots: int) -> tuple:
        if not _checked(store, slots).capacity:
            return frozenset(), _ignore, _ignore, _ignore
        return bind(store, slots)

    def process(
        self, ranks: list, clients: list, custodians: Optional[list]
    ) -> bytearray:
        """Advance the stores over one batch, returning outcome codes.

        The scalar ``DynamicSimulator._resolve`` flow with all routing
        and metric work stripped out: local probe, (optionally)
        custodian probe, admissions.
        """
        codes = bytearray()
        append = codes.append
        lmem = self._lmem
        ltouch = self._ltouch
        ladmit = self._ladmit
        if custodians is None:
            for r, c in zip(ranks, clients):
                if r in lmem[c]:
                    ltouch[c](r)
                    append(0)
                else:
                    append(5)
                    ladmit[c](r)
            return codes
        cmem = self._cmem
        ctouch = self._ctouch
        cadmit = self._cadmit
        for r, c, k in zip(ranks, clients, custodians):
            if r in lmem[c]:
                ltouch[c](r)
                append(0)
                continue
            if r in cmem[k]:
                ctouch[k](r)
                if c == k:
                    append(1)
                    continue
                append(2)
            else:
                append(4 if c == k else 3)
                cadmit[k](r)
            ladmit[c](r)
        return codes

    def finish(self) -> None:
        """Write clocks back and rewind unused random draws."""
        for finish in self._finishers:
            finish()


_ENGINE_TYPES = {
    "lru": _LRUEngine,
    "lfu": partial(_StoreEngine, _bind_lfu),
    "perfect-lfu": partial(_StoreEngine, partial(_bind_lfu, perfect=True)),
    "fifo": _FIFOEngine,
    # A fresh set of claimed generators for every run.
    "random": lambda *args: _StoreEngine(
        partial(_bind_random, claimed=set()), *args
    ),
}


class DynamicKernelRun:
    """Mutable engine state bound to one fleet for one run.

    Obtained from :meth:`DynamicKernel.start_run`; drive it with
    :meth:`process` once per batch, then :meth:`finish` exactly once to
    settle the engine with the fleet (LFU-family clocks written back,
    Random's unused draws rewound) and add the per-store hit/miss
    counters.  A run is a one-shot session: finishing twice would
    double-count statistics, so it raises.
    """

    def __init__(self, kernel: "DynamicKernel", fleet: Mapping[NodeId, CCNRouter]):
        self._kernel = kernel
        self._fleet = fleet
        routers = [fleet[node] for node in kernel.nodes]
        self._engine = _ENGINE_TYPES[kernel.policy](
            routers, kernel.local_slots, kernel.coordinated_slots
        )
        n = len(kernel.nodes)
        self._client_code_counts = np.zeros((n, _N_OUTCOMES), dtype=np.int64)
        self._custodian_hits = np.zeros(n, dtype=np.int64)
        self._custodian_misses = np.zeros(n, dtype=np.int64)
        self._palette_indices: dict[tuple[NodeId, ...], np.ndarray] = {}
        self._finished = False

    def process(self, batch: RequestBatch, counted_from: int = 0) -> DynamicBatchAggregate:
        """Advance the caches over one batch and aggregate its outcomes.

        Store statistics always cover the whole batch; the returned
        aggregate covers requests from ``counted_from`` on, so a warmup
        boundary may fall mid-batch.
        """
        if self._finished:
            raise SimulationError("dynamic kernel run already finished")
        kernel = self._kernel
        idx = self._palette_indices.get(batch.clients)
        if idx is None:
            try:
                idx = kernel.node_indices(batch.clients)
            except KeyError as exc:
                raise SimulationError(
                    f"request from unknown router {exc.args[0]!r}"
                ) from exc
            self._palette_indices[batch.clients] = idx
        client_idx = idx[batch.client_index]
        n = kernel.n_nodes
        if kernel.coordinated_slots:
            custodian_idx = batch.ranks % n
            codes = self._engine.process(
                batch.ranks.tolist(), client_idx.tolist(), custodian_idx.tolist()
            )
            code_arr = np.frombuffer(codes, dtype=np.uint8)
            # One combined (client, custodian, code) key drives the store
            # statistics, the tier counts, and the cost gather — a single
            # bincount pass instead of one per statistic.
            # key fits int64: max value is n·n·_N_OUTCOMES - 1 (< 6·n²,
            # e.g. 9 600 at n = 40), nowhere near 2**63 — no overflow;
            # the explicit int64 coercion keeps the packing exact even
            # where the platform default int is 32-bit.
            key = client_idx.astype(np.int64) * n
            key += custodian_idx
            key *= _N_OUTCOMES
            key += code_arr
            matrix = np.bincount(
                key, minlength=n * n * _N_OUTCOMES
            ).reshape(n, n, _N_OUTCOMES)
            self._client_code_counts += matrix.sum(axis=1)
            by_custodian = matrix.sum(axis=0)
            self._custodian_hits += by_custodian[:, _OUT_PEER_HIT]
            self._custodian_misses += by_custodian[:, _OUT_MISS_VIA_CUSTODIAN]
            if counted_from == 0:
                tier = by_custodian.sum(axis=0)
                costs = kernel._cost_table[key].sum(axis=0)
                return DynamicBatchAggregate(
                    local_hits=int(
                        tier[_OUT_LOCAL_HIT] + tier[_OUT_OWN_COORDINATED_HIT]
                    ),
                    peer_hits=int(tier[_OUT_PEER_HIT]),
                    origin_hits=int(
                        tier[_OUT_MISS_VIA_CUSTODIAN]
                        + tier[_OUT_MISS_AT_CUSTODIAN]
                        + tier[_OUT_MISS_UNCOORDINATED]
                    ),
                    total_hops=float(costs[0]),
                    total_latency_ms=float(costs[1]),
                    served_by_counts=by_custodian[:, _OUT_PEER_HIT].copy(),
                )
            return kernel.aggregate(code_arr, client_idx, custodian_idx, counted_from)
        codes = self._engine.process(batch.ranks.tolist(), client_idx.tolist(), None)
        code_arr = np.frombuffer(codes, dtype=np.uint8)
        # key fits int64: max value is n·_N_OUTCOMES - 1 (< 6·n), so no
        # overflow; coerced to int64 for the same dtype discipline as the
        # coordinated path.
        key = client_idx.astype(np.int64) * _N_OUTCOMES
        key += code_arr
        matrix = np.bincount(key, minlength=n * _N_OUTCOMES).reshape(n, _N_OUTCOMES)
        self._client_code_counts += matrix
        if counted_from == 0:
            tier = matrix.sum(axis=0)
            costs = kernel._uncoordinated_cost_table[key].sum(axis=0)
            return DynamicBatchAggregate(
                local_hits=int(tier[_OUT_LOCAL_HIT]),
                peer_hits=0,
                origin_hits=int(tier[_OUT_MISS_UNCOORDINATED]),
                total_hops=float(costs[0]),
                total_latency_ms=float(costs[1]),
                served_by_counts=np.zeros(n, dtype=np.int64),
            )
        return kernel.aggregate(code_arr, client_idx, None, counted_from)

    def finish(self) -> None:
        """Settle engine state and add the store counters to the fleet."""
        if self._finished:
            raise SimulationError("dynamic kernel run already finished")
        self._finished = True
        self._engine.finish()
        counts = self._client_code_counts
        local_hits = counts[:, _OUT_LOCAL_HIT]
        total = counts.sum(axis=1)
        own_hits = counts[:, _OUT_OWN_COORDINATED_HIT]
        own_misses = (
            counts[:, _OUT_PEER_HIT]
            + counts[:, _OUT_MISS_VIA_CUSTODIAN]
            + counts[:, _OUT_MISS_AT_CUSTODIAN]
        )
        for i, node in enumerate(self._kernel.nodes):
            router = self._fleet[node]
            router.local_store.hits += int(local_hits[i])
            router.local_store.misses += int(total[i] - local_hits[i])
            store = router.coordinated_store
            if store is not None:
                store.hits += int(own_hits[i] + self._custodian_hits[i])
                store.misses += int(own_misses[i] + self._custodian_misses[i])


class DynamicKernel:
    """Precomputed cost tables + engine factory for batched dynamic runs.

    The kernel itself is immutable and placement-independent: it holds
    the per-(client, custodian) peer tables, the via-custodian and
    origin cost tables (float-add order matching the scalar path's
    cached ``origin_distance`` exactly), and the node indexing.  Per-run
    cache state lives in the :class:`DynamicKernelRun` returned by
    :meth:`start_run`.

    Parameters
    ----------
    topology:
        The router network (fixes node-index order and ``rank % n``
        custodian assignment).
    router:
        The nearest-replica router whose matrices and origin model the
        scalar path uses; the kernel reads the same tables.
    policy:
        Normalized replacement-policy name (one of ``lru``, ``lfu``,
        ``perfect-lfu``, ``fifo``, ``random``).
    local_slots / coordinated_slots:
        The per-router partition split (``c - x`` / ``x``);
        ``coordinated_slots == 0`` selects the fully non-coordinated
        flow (misses go straight to the origin).
    table_limit_bytes:
        Ceiling on the dense cost tables
        (:data:`DEFAULT_TABLE_LIMIT_BYTES`); topologies whose O(n²)
        tables would exceed it fail fast with a pointer to the
        region-sharded path.
    """

    def __init__(
        self,
        topology: Topology,
        router: NearestReplicaRouter,
        policy: str,
        local_slots: int,
        coordinated_slots: int,
        *,
        table_limit_bytes: int = DEFAULT_TABLE_LIMIT_BYTES,
    ):
        if policy not in _ENGINE_TYPES:
            raise SimulationError(
                f"no batched engine for policy {policy!r}; expected one of "
                f"{sorted(_ENGINE_TYPES)}"
            )
        if local_slots < 0 or coordinated_slots < 0:
            raise SimulationError(
                f"partition slot counts must be non-negative, got "
                f"({local_slots}, {coordinated_slots})"
            )
        self._policy = policy
        self._local_slots = int(local_slots)
        self._coordinated_slots = int(coordinated_slots)
        self._nodes = topology.nodes
        self._node_index = {node: i for i, node in enumerate(topology.nodes)}
        self._n_nodes = topology.n_routers
        # Dense allocations below: the flat cost table (n·n·outcomes·2
        # doubles) plus the two via-custodian n×n matrices.
        _require_table_budget(
            "DynamicKernel",
            self._n_nodes * self._n_nodes * (_N_OUTCOMES * 2 + 2) * 8,
            int(table_limit_bytes),
        )
        hops_matrix, latency_matrix = router.path_matrices()
        gateway = self._node_index[router.origin.gateway]
        self._origin_hops = hops_matrix[:, gateway] + router.origin.extra_hops
        self._origin_latency = (
            latency_matrix[:, gateway] + router.origin.extra_latency_ms
        )
        self._peer_hops = hops_matrix
        self._peer_latency = latency_matrix
        # Via-custodian = peer leg + custodian→origin leg; adding the
        # precomputed origin vector reproduces the scalar path's
        # ``to_custodian.hops + origin_cost[custodian]`` float order.
        self._via_hops = hops_matrix + self._origin_hops[None, :]
        self._via_latency = latency_matrix + self._origin_latency[None, :]
        # Flat (client, custodian, code) -> (hops, latency) lookup so the
        # per-batch cost reduction is one fancy gather plus one sum.  The
        # gathered sequence matches the masked-scatter form of
        # :meth:`aggregate` element for element (LOCAL codes cost 0.0),
        # so both reductions share the same pairwise summation order.
        n = self._n_nodes
        table = np.zeros((n, n, _N_OUTCOMES, 2))
        table[:, :, _OUT_PEER_HIT, 0] = self._peer_hops
        table[:, :, _OUT_PEER_HIT, 1] = self._peer_latency
        table[:, :, _OUT_MISS_VIA_CUSTODIAN, 0] = self._via_hops
        table[:, :, _OUT_MISS_VIA_CUSTODIAN, 1] = self._via_latency
        for code in (_OUT_MISS_AT_CUSTODIAN, _OUT_MISS_UNCOORDINATED):
            table[:, :, code, 0] = self._origin_hops[:, None]
            table[:, :, code, 1] = self._origin_latency[:, None]
        self._cost_table = table.reshape(n * n * _N_OUTCOMES, 2)
        uncoordinated = np.zeros((n, _N_OUTCOMES, 2))
        uncoordinated[:, _OUT_MISS_UNCOORDINATED, 0] = self._origin_hops
        uncoordinated[:, _OUT_MISS_UNCOORDINATED, 1] = self._origin_latency
        self._uncoordinated_cost_table = uncoordinated.reshape(
            n * _N_OUTCOMES, 2
        )

    @property
    def nodes(self) -> tuple[NodeId, ...]:
        """Topology nodes in kernel index order."""
        return self._nodes

    @property
    def n_nodes(self) -> int:
        """Router count (the custodian hash modulus)."""
        return self._n_nodes

    @property
    def policy(self) -> str:
        """The normalized replacement-policy name."""
        return self._policy

    @property
    def local_slots(self) -> int:
        """Per-router non-coordinated partition size (``c - x``)."""
        return self._local_slots

    @property
    def coordinated_slots(self) -> int:
        """Per-router coordinated partition size (``x``)."""
        return self._coordinated_slots

    def node_indices(self, clients: Sequence[NodeId]) -> np.ndarray:
        """Map a client palette to topology node indices (``KeyError`` if unknown)."""
        return np.array(
            [self._node_index[client] for client in clients], dtype=np.int64
        )

    def start_run(self, fleet: Mapping[NodeId, CCNRouter]) -> DynamicKernelRun:
        """Bind the kernel to a fleet's live cache state for one run."""
        return DynamicKernelRun(self, fleet)

    def aggregate(
        self,
        codes: np.ndarray,
        client_idx: np.ndarray,
        custodian_idx: Optional[np.ndarray],
        counted_from: int = 0,
    ) -> DynamicBatchAggregate:
        """Reduce an outcome-code array to tier counts and cost sums.

        Semantically this is recording one scalar ``RouteDecision`` per
        request from ``counted_from`` on: LOCAL decisions cost nothing,
        PEER hits the client→custodian leg, custodian misses the
        via-custodian path, custodian-self and uncoordinated misses the
        client→origin path.
        """
        cc = codes[counted_from:] if counted_from else codes
        ci = client_idx[counted_from:] if counted_from else client_idx
        tier = np.bincount(cc, minlength=_N_OUTCOMES)
        hops = np.zeros(cc.shape[0], dtype=np.float64)
        latency = np.zeros(cc.shape[0], dtype=np.float64)
        if custodian_idx is None:
            miss = cc == _OUT_MISS_UNCOORDINATED
            mc = ci[miss]
            hops[miss] = self._origin_hops[mc]
            latency[miss] = self._origin_latency[mc]
            served_by = np.zeros(self._n_nodes, dtype=np.int64)
        else:
            ki = custodian_idx[counted_from:] if counted_from else custodian_idx
            peer = cc == _OUT_PEER_HIT
            hops[peer] = self._peer_hops[ci[peer], ki[peer]]
            latency[peer] = self._peer_latency[ci[peer], ki[peer]]
            via = cc == _OUT_MISS_VIA_CUSTODIAN
            hops[via] = self._via_hops[ci[via], ki[via]]
            latency[via] = self._via_latency[ci[via], ki[via]]
            at_origin = cc >= _OUT_MISS_AT_CUSTODIAN
            oc = ci[at_origin]
            hops[at_origin] = self._origin_hops[oc]
            latency[at_origin] = self._origin_latency[oc]
            served_by = np.bincount(ki[peer], minlength=self._n_nodes)
        return DynamicBatchAggregate(
            local_hits=int(tier[_OUT_LOCAL_HIT] + tier[_OUT_OWN_COORDINATED_HIT]),
            peer_hits=int(tier[_OUT_PEER_HIT]),
            origin_hits=int(
                tier[_OUT_MISS_VIA_CUSTODIAN]
                + tier[_OUT_MISS_AT_CUSTODIAN]
                + tier[_OUT_MISS_UNCOORDINATED]
            ),
            total_hops=float(hops.sum()),
            total_latency_ms=float(latency.sum()),
            served_by_counts=served_by,
        )
