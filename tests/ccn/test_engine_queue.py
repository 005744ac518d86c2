"""The batched engine's finite store-queue model (DESIGN.md §16.2).

- Pins the queue model's results on provisioned US-A streams, for a
  queue that never rejects and for one that does, by digests of every
  counter and per-request array.
- Checks the vectorized queue pass against the event loop
  (``run_*_reference``) on crafted schedules: exact ties, zero
  penalties, no writes, one long busy period, random mixes.
- Checks both against queueing theory with code they do not share: a
  store that serves every request is an M/D/1/K queue under Poisson
  arrivals (blocking from the embedded Markov chain at departures,
  Gross & Harris), and an M/D/1 queue when it never rejects
  (Pollaczek-Khinchine mean wait).
"""

from __future__ import annotations

import hashlib
from math import exp, factorial

import numpy as np
import pytest

from repro.catalog import IRMWorkload, ZipfModel
from repro.ccn import BatchedCCNEngine, CacheQueue
from repro.ccn import engine as engine_module
from repro.core import ProvisioningStrategy
from repro.obs import session as obs_session
from repro.simulation import StaticCache
from repro.topology import load_topology

COUNTERS = (
    "requests_issued",
    "requests_completed",
    "origin_productions",
    "cs_hits",
    "interest_transmissions",
    "data_transmissions",
    "pit_aggregations",
)


def result_digest(result) -> str:
    """sha256 over the counters, queue statistics and result arrays."""
    digest = hashlib.sha256()
    digest.update(repr(tuple(getattr(result, name) for name in COUNTERS)).encode())
    digest.update(
        repr(
            (result.queued_ops, result.rejected_ops, repr(result.queue_wait_ms))
        ).encode()
    )
    for values, dtype in (
        (result.latencies_ms, np.float64),
        (result.interest_hops, np.int64),
        (result.outcome_counts, np.int64),
    ):
        digest.update(np.ascontiguousarray(values, dtype=dtype).tobytes())
    return digest.hexdigest()


def us_a_engine(queue: CacheQueue) -> BatchedCCNEngine:
    topology = load_topology("us-a")
    engine = BatchedCCNEngine(
        topology, origin_gateway=topology.nodes[0], queue=queue
    )
    engine.install_strategy(
        ProvisioningStrategy(
            capacity=100, n_routers=topology.n_routers, level=0.5
        )
    )
    return engine


def us_a_workload(seed: int) -> IRMWorkload:
    return IRMWorkload(
        ZipfModel(0.8, 10_000), load_topology("us-a").nodes, seed=seed
    )


def triangle_engine(topology, queue: CacheQueue, **stores) -> BatchedCCNEngine:
    return BatchedCCNEngine(
        topology,
        origin_gateway="R0",
        origin_latency_ms=50.0,
        queue=queue,
        stores={
            node: StaticCache(len(ranks), frozenset(ranks))
            for node, ranks in stores.items()
        },
    )


def run_both(engine, clients, ranks, times):
    """(vectorized pass, event loop, queue_fallbacks) for one schedule."""
    with obs_session() as capture:
        fast = engine.run_schedule(clients, ranks, times)
    fallbacks = capture.snapshot()["counters"]["ccn.engine.queue_fallbacks"]
    return fast, engine.run_schedule_reference(clients, ranks, times), fallbacks


def batch_means(values: np.ndarray, batches: int = 20) -> tuple[float, float]:
    """Mean and batch-means standard error of an autocorrelated series."""
    means = values[: len(values) // batches * batches].reshape(batches, -1)
    means = means.mean(axis=1)
    return float(values.mean()), float(means.std(ddof=1) / np.sqrt(batches))


def md1k_blocking(rho: float, k: int) -> float:
    """M/D/1/K blocking probability, 1 - 1/(pi_0 + rho).

    pi is the stationary law of the number left behind at departures:
    a departure leaving i > 0 is followed by one leaving
    min(i - 1 + A, K - 1), where A ~ Poisson(rho) counts the arrivals
    during one service (i = 0 waits for the next arrival first).
    """
    arrivals = [exp(-rho) * rho**j / factorial(j) for j in range(k)]
    chain = np.zeros((k, k))
    for i in range(k):
        for j in range(max(i - 1, 0), k - 1):
            chain[i, j] = arrivals[j - max(i - 1, 0)]
        chain[i, k - 1] = 1.0 - chain[i, : k - 1].sum()
    system = np.vstack([(chain - np.eye(k)).T, np.ones(k)])
    rhs = np.zeros(k + 1)
    rhs[-1] = 1.0
    pi = np.linalg.lstsq(system, rhs, rcond=None)[0]
    return 1.0 - 1.0 / (pi[0] + rho)


class TestPinnedQueueResults:
    """20k interests 0.05 ms apart; digests recorded from the event loop."""

    @pytest.mark.parametrize(
        "seed, size, rejected, expected",
        [
            (0, 8, 0, "7c650312daf6034704afcbab5a2138a05f3b833360529a049818aa0b824cffb4"),
            (1, 8, 0, "a482a46eca962273f602b4e7af9efa4a17a1ec1e005f812ea524fe7eaf662aae"),
            (0, 2, 93, "eeef5b526aeaaea51f82e408eb9e094a725d1d5aa8a28c73faa3c9dd8968a7b4"),
            (1, 2, 98, "f681590efe563ad870e1d379694f6d8d4fa44ac5be7d550048e446c4f635cdec"),
        ],
        ids=["no-reject-seed0", "no-reject-seed1", "reject-seed0", "reject-seed1"],
    )
    def test_digest(self, seed, size, rejected, expected):
        engine = us_a_engine(CacheQueue(size, 0.05, 0.1))
        result = engine.run_workload(
            us_a_workload(seed), 20_000, interarrival_ms=0.05
        )
        assert result.rejected_ops == rejected
        assert result_digest(result) == expected

    @pytest.mark.parametrize("size", [8, 2])
    def test_reference_twin_reproduces_seed0_digest(self, size):
        engine = us_a_engine(CacheQueue(size, 0.05, 0.1))
        fast = engine.run_workload(us_a_workload(0), 20_000, interarrival_ms=0.05)
        loop = engine.run_workload_reference(
            us_a_workload(0), 20_000, interarrival_ms=0.05
        )
        assert result_digest(fast) == result_digest(loop)


class TestQueuePassMatchesLoop:
    """The vectorized pass equals the event loop bit for bit."""

    @pytest.mark.parametrize("penalty", [0.25, 0.5, 1.0])
    def test_exact_ties(self, triangle_topology, penalty):
        # Two arrivals every 0.5 ms: arrivals land exactly on finish
        # times, and at 0.5 and 1.0 ms one busy period spans all 20k.
        count = 20_000
        times = np.repeat(np.arange(count // 2) * 0.5, 2)
        engine = triangle_engine(triangle_topology, CacheQueue(10**6, penalty), R1={1})
        fast, loop, fallbacks = run_both(engine, ["R1"] * count, [1] * count, times)
        assert fallbacks == 0
        assert fast.queued_ops > 0
        assert result_digest(fast) == result_digest(loop)

    def test_zero_penalties(self, triangle_topology):
        # Zero service: every finish equals its arrival and frees its
        # slot at once, even for a size-1 queue with simultaneous ops.
        times = np.repeat(np.arange(50) * 1.0, 4)
        clients = ["R1", "R2"] * 100
        engine = triangle_engine(triangle_topology, CacheQueue(1, 0.0, 0.0), R0={2}, R1={1})
        ranks = [1, 2] * 100
        fast, loop, fallbacks = run_both(engine, clients, ranks, times)
        assert fallbacks == 0
        assert fast.queued_ops == fast.rejected_ops == 0
        assert fast.queue_wait_ms == 0.0
        assert result_digest(fast) == result_digest(loop)

    @pytest.mark.parametrize("write_ms", [0.0, 0.3])
    def test_reads_and_writes(self, triangle_topology, write_ms):
        # Local hits, forwarded reads at R0 and origin fetches; writes
        # land at the writable client stores unless write_ms == 0.
        rng = np.random.default_rng(4)
        count = 3_000
        times = np.sort(rng.integers(0, 4 * count, count) * 0.25)
        clients = list(rng.choice(["R0", "R1", "R2"], count))
        ranks = rng.integers(1, 9, count)
        engine = triangle_engine(
            triangle_topology,
            CacheQueue(10**6, 0.5, write_ms),
            R0={5, 6},
            R1={1, 2},
            R2={3},
        )
        fast, loop, fallbacks = run_both(engine, clients, ranks, times)
        assert fallbacks == 0
        assert fast.queued_ops > 0
        assert result_digest(fast) == result_digest(loop)

    def test_one_busy_period(self, triangle_topology):
        # A burst at t = 0 keeps R1 busy for the whole run.
        count = 5_000
        engine = triangle_engine(triangle_topology, CacheQueue(10**6, 0.1), R1={1})
        fast, loop, fallbacks = run_both(
            engine, ["R1"] * count, [1] * count, np.zeros(count)
        )
        assert fallbacks == 0
        assert fast.queued_ops == count - 1
        assert result_digest(fast) == result_digest(loop)

    def test_random_schedules_and_exact_fallback(self, triangle_topology):
        # The loop runs exactly when some operation is rejected.
        rng = np.random.default_rng(11)
        fallbacks_seen = set()
        for _ in range(40):
            queue = CacheQueue(
                int(rng.integers(1, 6)),
                float(rng.choice([0.0, 0.1, 0.25, 0.5, 1.0])),
                float(rng.choice([0.0, 0.1, 0.25, 0.5])),
            )
            engine = triangle_engine(
                triangle_topology, queue, R0={1, 9, 10}, R1=set(range(1, 6)), R2=set(range(4, 9))
            )
            count = int(rng.integers(1, 300))
            times = np.sort(rng.integers(0, count, count) * rng.choice([0.1, 0.25, 0.5]))
            clients = list(rng.choice(["R0", "R1", "R2"], count))
            ranks = rng.integers(1, 14, count)
            fast, loop, fallbacks = run_both(engine, clients, ranks, times)
            assert result_digest(fast) == result_digest(loop)
            assert fallbacks == int(loop.rejected_ops > 0)
            fallbacks_seen.add(fallbacks)
        assert fallbacks_seen == {0, 1}


def poisson_schedule(rho: float, count: int, seed: int = 0) -> np.ndarray:
    """Poisson issue times at rate rho per unit (1 ms) service time."""
    return np.cumsum(np.random.default_rng(seed).exponential(1.0 / rho, count))


class TestRejectingRunsFallBack:
    """A run that rejects goes to the loop, before any fill if it can."""

    @pytest.mark.parametrize("size", [2, 8])
    def test_overloaded_store_skips_the_fill(
        self, triangle_topology, monkeypatch, size
    ):
        # At rho = 1.5 the rejection-free busy period at R1 lasts the
        # whole run; the closed-form guess already shows a rejection.
        def no_fill(*args):
            raise AssertionError("busy periods filled for a rejecting run")

        monkeypatch.setattr(engine_module, "_fill_busy_periods", no_fill)
        count = 4_000
        engine = triangle_engine(triangle_topology, CacheQueue(size, 1.0), R1={1})
        fast, loop, fallbacks = run_both(
            engine, ["R1"] * count, [1] * count, poisson_schedule(1.5, count)
        )
        assert fallbacks == 1
        assert fast.rejected_ops > 0
        assert result_digest(fast) == result_digest(loop)

    def test_rejection_too_close_for_the_guess(self, triangle_topology, monkeypatch):
        # The second read arrives 2^-40 ms before the first finishes,
        # inside the guess's margin: only the exact check sees it.
        fills = []

        def counting_fill(*args):
            fills.append(args)
            fill(*args)

        fill = engine_module._fill_busy_periods
        monkeypatch.setattr(engine_module, "_fill_busy_periods", counting_fill)
        engine = triangle_engine(triangle_topology, CacheQueue(1, 1.0), R1={1})
        fast, loop, fallbacks = run_both(
            engine, ["R1", "R1"], [1, 1], [0.0, 1.0 - 2.0**-40]
        )
        assert fills
        assert fallbacks == 1
        assert fast.rejected_ops == 1
        assert result_digest(fast) == result_digest(loop)


class TestQueueingTheoryOracle:
    """R1 holds the only copy and issues every request: a 1 ms server.

    Every request is a local-hit read at R1; a rejected one escalates
    to the origin, so it never returns to R1's queue and shows as a
    positive hop count.  Rejections and waits are autocorrelated, so
    the bounds are batch-means standard errors, floored by the
    binomial one where rejections are too rare for batch means.
    """

    COUNT = 40_000
    Z_BOUND = 4.0

    def run(self, topology, rho, size):
        engine = triangle_engine(topology, CacheQueue(size, 1.0), R1={1})
        count = self.COUNT
        with obs_session() as capture:
            result = engine.run_schedule(
                ["R1"] * count, [1] * count, poisson_schedule(rho, count)
            )
        assert result.requests_completed == count
        fallbacks = capture.snapshot()["counters"]["ccn.engine.queue_fallbacks"]
        return result, fallbacks

    def test_blocking_formula_matches_erlang_loss(self):
        # K = 1 is the M/G/1/1 loss system: rho / (1 + rho).
        for rho in (0.5, 0.9, 1.5):
            assert md1k_blocking(rho, 1) == pytest.approx(rho / (1 + rho))

    @pytest.mark.parametrize("rho", [0.5, 0.9, 1.5])
    @pytest.mark.parametrize("size", [1, 2, 8])
    def test_md1k_blocking(self, triangle_topology, rho, size):
        result, fallbacks = self.run(triangle_topology, rho, size)
        rejected = (result.interest_hops > 0).astype(np.float64)
        assert int(rejected.sum()) == result.rejected_ops
        assert fallbacks == int(result.rejected_ops > 0)
        model = md1k_blocking(rho, size)
        share, se = batch_means(rejected)
        se = max(se, np.sqrt(model * (1.0 - model) / self.COUNT))
        assert abs(share - model) <= self.Z_BOUND * se, (share, model, se)

    @pytest.mark.parametrize("rho", [0.5, 0.8])
    def test_pollaczek_khinchine_mean_wait(self, triangle_topology, rho):
        result, fallbacks = self.run(triangle_topology, rho, 10**6)
        assert result.rejected_ops == 0 and fallbacks == 0
        waits = result.latencies_ms - 1.0
        mean, se = batch_means(waits)
        assert result.queue_wait_ms / self.COUNT == pytest.approx(mean, rel=1e-9)
        model = rho * 1.0 / (2.0 * (1.0 - rho))
        assert abs(mean - model) <= self.Z_BOUND * se, (mean, model, se)
