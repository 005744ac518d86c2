"""Content-store replacement policies.

The analytical model assumes steady-state placements (a
:class:`StaticCache` holding exactly the ranks the strategy assigns),
while real CCN routers run online replacement.  The classic policies
are provided behind one interface so the simulator can exercise both
the paper's steady-state abstraction and its dynamic counterparts:

- :class:`StaticCache` — fixed contents, no replacement (the paper's
  provisioned store);
- :class:`LRUCache` — least-recently-used (CCN's default content
  store behaviour);
- :class:`LFUCache` — in-cache least-frequently-used (frequency state
  only for stored items);
- :class:`PerfectLFUCache` — LFU with global frequency state; under
  IRM traffic it converges to the exact top-``c`` ranked contents,
  i.e. the paper's non-coordinated steady state;
- :class:`FIFOCache` — first-in-first-out;
- :class:`RandomCache` — random eviction (memoryless baseline).

All policies are capacity-bounded over integer content ranks.
"""

from __future__ import annotations

import abc
from collections import OrderedDict
from typing import Optional, Union

import numpy as np

from ..core.validation import require_capacity
from ..errors import ParameterError, SimulationError

__all__ = [
    "CachePolicy",
    "StaticCache",
    "LRUCache",
    "LFUCache",
    "PerfectLFUCache",
    "FIFOCache",
    "RandomCache",
    "make_policy",
]


class CachePolicy(abc.ABC):
    """A capacity-bounded store of content ranks.

    The two-call protocol is: ``lookup(rank)`` on every request touching
    this store (returns and records hit/miss), then ``admit(rank)`` if
    the caller decides to cache the fetched content after a miss.
    """

    def __init__(self, capacity: int):
        if int(capacity) != capacity or capacity < 0:
            raise ParameterError(
                f"cache capacity must be a non-negative integer, got {capacity}"
            )
        self.capacity = int(capacity)
        self.hits = 0
        self.misses = 0

    @abc.abstractmethod
    def __contains__(self, rank: int) -> bool:
        """Whether the rank is currently stored (no statistics side effects)."""

    @abc.abstractmethod
    def _touch(self, rank: int) -> None:
        """Record a hit on a stored rank (policy-specific bookkeeping)."""

    @abc.abstractmethod
    def _admit(self, rank: int) -> Optional[int]:
        """Insert a rank, returning the evicted rank if any."""

    @property
    @abc.abstractmethod
    def contents(self) -> frozenset[int]:
        """The currently stored ranks."""

    def lookup(self, rank: int) -> bool:
        """Check for ``rank``, recording hit/miss statistics."""
        if rank in self:
            self.hits += 1
            self._touch(rank)
            return True
        self.misses += 1
        return False

    def admit(self, rank: int) -> Optional[int]:
        """Cache ``rank`` (if capacity > 0), returning any evicted rank."""
        if self.capacity == 0:
            return None
        if rank in self:
            self._touch(rank)
            return None
        return self._admit(rank)

    def __len__(self) -> int:
        return len(self.contents)

    @property
    def hit_ratio(self) -> float:
        """Fraction of lookups that hit; 0.0 before any lookup."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def reset_statistics(self) -> None:
        """Zero the hit/miss counters without touching the contents."""
        self.hits = 0
        self.misses = 0


class StaticCache(CachePolicy):
    """A provisioned store with fixed contents and no replacement."""

    def __init__(self, capacity: int, contents: frozenset[int] = frozenset()):
        super().__init__(capacity)
        contents = frozenset(int(r) for r in contents)
        if len(contents) > capacity:
            raise SimulationError(
                f"static cache of capacity {capacity} cannot hold "
                f"{len(contents)} contents"
            )
        if any(r < 1 for r in contents):
            raise ParameterError("content ranks must be >= 1")
        self._contents = contents

    def __contains__(self, rank: int) -> bool:
        return rank in self._contents

    def _touch(self, rank: int) -> None:
        pass

    def _admit(self, rank: int) -> Optional[int]:
        # A provisioned store ignores admission requests by design.
        return None

    @property
    def contents(self) -> frozenset[int]:
        return self._contents


class LRUCache(CachePolicy):
    """Least-recently-used replacement."""

    def __init__(self, capacity: int):
        super().__init__(capacity)
        self._order: OrderedDict[int, None] = OrderedDict()

    def __contains__(self, rank: int) -> bool:
        return rank in self._order

    def _touch(self, rank: int) -> None:
        self._order.move_to_end(rank)

    def _admit(self, rank: int) -> Optional[int]:
        evicted = None
        if len(self._order) >= self.capacity:
            evicted, _ = self._order.popitem(last=False)
        self._order[rank] = None
        return evicted

    @property
    def contents(self) -> frozenset[int]:
        return frozenset(self._order)

    def kernel_state(self) -> "OrderedDict[int, None]":
        """The live recency map, least-recent first.

        The batched dynamic kernel mutates it in place (same ordered-map
        transitions the scalar path performs), so no write-back step is
        needed; hit/miss counters are settled separately by the kernel.
        """
        return self._order


class LFUCache(CachePolicy):
    """Least-frequently-used replacement with LRU tie-breaking.

    Frequencies persist for stored items only ("in-cache" LFU, the
    standard content-store variant); under IRM Zipf traffic the steady
    state is the top-``c`` ranks, matching the paper's non-coordinated
    provisioning.
    """

    def __init__(self, capacity: int):
        super().__init__(capacity)
        self._frequency: dict[int, int] = {}
        self._clock = 0
        self._last_used: dict[int, int] = {}

    def __contains__(self, rank: int) -> bool:
        return rank in self._frequency

    def _touch(self, rank: int) -> None:
        self._clock += 1
        self._frequency[rank] += 1
        self._last_used[rank] = self._clock

    def _admit(self, rank: int) -> Optional[int]:
        self._clock += 1
        evicted = None
        if len(self._frequency) >= self.capacity:
            evicted = min(
                self._frequency,
                key=lambda r: (self._frequency[r], self._last_used[r]),
            )
            del self._frequency[evicted]
            del self._last_used[evicted]
        self._frequency[rank] = 1
        self._last_used[rank] = self._clock
        return evicted

    @property
    def contents(self) -> frozenset[int]:
        return frozenset(self._frequency)

    def kernel_state(self) -> tuple[dict[int, int], dict[int, int], int]:
        """``(frequency, last_used, clock)`` for the batched kernel.

        The dicts are live: the kernel updates them in place exactly as
        :meth:`_touch`/:meth:`_admit` do (it finds victims through its
        own frequency buckets) and hands the final clock back through
        :meth:`restore_kernel_state`.
        """
        return self._frequency, self._last_used, self._clock

    def restore_kernel_state(self, clock: int) -> None:
        """Install the kernel's post-run eviction clock."""
        self._clock = int(clock)


class PerfectLFUCache(CachePolicy):
    """LFU with *global* frequency state ("perfect" LFU).

    Unlike :class:`LFUCache`, request counts persist for every rank ever
    seen — evicted or not — so under IRM traffic the cache converges to
    the exact top-``c`` ranked contents.  This is the paper's
    "canonical caching policy based on frequency or historical usage"
    (§II): routers that have accumulated full popularity information.
    """

    def __init__(self, capacity: int):
        super().__init__(capacity)
        self._global_frequency: dict[int, int] = {}
        self._stored: set[int] = set()
        self._clock = 0
        self._last_used: dict[int, int] = {}

    def __contains__(self, rank: int) -> bool:
        return rank in self._stored

    def _touch(self, rank: int) -> None:
        self._clock += 1
        self._global_frequency[rank] = self._global_frequency.get(rank, 0) + 1
        self._last_used[rank] = self._clock

    def _admit(self, rank: int) -> Optional[int]:
        self._clock += 1
        self._global_frequency[rank] = self._global_frequency.get(rank, 0) + 1
        self._last_used[rank] = self._clock
        if len(self._stored) < self.capacity:
            self._stored.add(rank)
            return None
        victim = min(
            self._stored,
            key=lambda r: (self._global_frequency.get(r, 0), self._last_used.get(r, 0)),
        )
        # Only displace the victim if the newcomer is strictly more
        # frequent; perfect LFU never replaces a hotter item.
        if self._global_frequency[rank] <= self._global_frequency.get(victim, 0):
            return None
        self._stored.discard(victim)
        self._stored.add(rank)
        return victim

    @property
    def contents(self) -> frozenset[int]:
        return frozenset(self._stored)

    def kernel_state(self) -> tuple[dict[int, int], dict[int, int], set[int], int]:
        """``(global_frequency, last_used, stored, clock)`` for the kernel.

        The dicts and the set are live: the kernel updates them in
        place exactly as :meth:`_touch`/:meth:`_admit` do (the global
        table keeps covering evicted ranks) and hands the final clock
        back through :meth:`restore_kernel_state`.
        """
        return self._global_frequency, self._last_used, self._stored, self._clock

    def restore_kernel_state(self, clock: int) -> None:
        """Install the kernel's post-run eviction clock."""
        self._clock = int(clock)


class FIFOCache(CachePolicy):
    """First-in-first-out replacement (insertion order, hits don't refresh)."""

    def __init__(self, capacity: int):
        super().__init__(capacity)
        self._order: OrderedDict[int, None] = OrderedDict()

    def __contains__(self, rank: int) -> bool:
        return rank in self._order

    def _touch(self, rank: int) -> None:
        pass

    def _admit(self, rank: int) -> Optional[int]:
        evicted = None
        if len(self._order) >= self.capacity:
            evicted, _ = self._order.popitem(last=False)
        self._order[rank] = None
        return evicted

    @property
    def contents(self) -> frozenset[int]:
        return frozenset(self._order)

    def kernel_state(self) -> "OrderedDict[int, None]":
        """The live insertion-order map, oldest first.

        The batched kernel mutates it in place (same appends and
        oldest-first pops as :meth:`_admit`), so no write-back step is
        needed.
        """
        return self._order


class RandomCache(CachePolicy):
    """Random-eviction replacement (seeded for reproducibility).

    ``seed`` may be an integer or a :class:`numpy.random.SeedSequence`
    (the simulator derives per-router, per-partition child sequences so
    no two stores share a stream).
    """

    def __init__(
        self, capacity: int, *, seed: Union[int, np.random.SeedSequence] = 0
    ):
        super().__init__(capacity)
        self._rng = np.random.default_rng(seed)
        self._items: list[int] = []
        self._positions: dict[int, int] = {}

    def __contains__(self, rank: int) -> bool:
        return rank in self._positions

    def _touch(self, rank: int) -> None:
        pass

    def _admit(self, rank: int) -> Optional[int]:
        evicted = None
        if len(self._items) >= self.capacity:
            victim_pos = int(self._rng.integers(len(self._items)))
            evicted = self._items[victim_pos]
            last = self._items.pop()
            if victim_pos < len(self._items):
                self._items[victim_pos] = last
                self._positions[last] = victim_pos
            del self._positions[evicted]
        self._positions[rank] = len(self._items)
        self._items.append(rank)
        return evicted

    @property
    def contents(self) -> frozenset[int]:
        return frozenset(self._positions)

    def kernel_state(
        self,
    ) -> tuple[list[int], dict[int, int], np.random.Generator]:
        """``(items, positions, rng)`` live references.

        The batched kernel mutates them in place with :meth:`_admit`'s
        swap-remove and draws the same victims from the same generator
        (in bulk, rewinding the unused draws when its run finishes), so
        the random stream continues seamlessly across scalar and
        batched segments.
        """
        return self._items, self._positions, self._rng


_POLICY_FACTORIES = {
    "lru": LRUCache,
    "lfu": LFUCache,
    "perfect-lfu": PerfectLFUCache,
    "fifo": FIFOCache,
    "random": RandomCache,
}


def make_policy(
    name: str, capacity: int, *, seed: Union[int, np.random.SeedSequence] = 0
) -> CachePolicy:
    """Instantiate a replacement policy by name (``lru``/``lfu``/``fifo``/``random``).

    ``seed`` only matters for randomized policies and may be an integer
    or a :class:`numpy.random.SeedSequence` child stream.
    """
    require_capacity(capacity, integer=True, allow_zero=True, name="cache capacity")
    key = name.strip().lower()
    if key not in _POLICY_FACTORIES:
        raise ParameterError(
            f"unknown cache policy {name!r}; expected one of "
            f"{sorted(_POLICY_FACTORIES)}"
        )
    if key == "random":
        return RandomCache(capacity, seed=seed)
    return _POLICY_FACTORIES[key](capacity)
