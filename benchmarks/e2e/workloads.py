"""The six benchmark workloads: seeded inputs, timed rounds, checks.

Each workload builds its inputs from the benchmark seed, runs rounds of
a fixed composition until the requested seconds have passed, and then
checks the program's outputs against the scalar oracles.  Everything
the program receives is generated here; the program is reached only
through the public functions of ``repro.catalog``, ``repro.topology``,
``repro.core``, ``repro.approx``, ``repro.simulation``, ``repro.ccn``
and ``repro.service``.

Round ``k`` of input stream ``s`` draws from
``SeedSequence([seed, s, k, ...])``.  Stream 0 is the measured phase
(and the traced phase of a traced run); stream 1 is the untraced
reference phase a traced run times first, so both phases see fresh
inputs of the same kind; stream 2 is the warm-up; stream 3 picks what
the checks sample.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import math
import statistics
import time
import traceback
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.approx import approx_batch
from repro.catalog import IRMWorkload, RequestBatch, Workload, ZipfModel
from repro.ccn import BatchedCCNEngine, CacheQueue, CCNNetwork
from repro.core import ProvisioningStrategy, Scenario, optimal_strategy
from repro.core.batch_solver import ScenarioGrid, resolve_incremental, solve_batch
from repro.obs import available_cpus
from repro.obs import session as obs_session
from repro.service import DeadBandPolicy, OptimizerService, parse_line
from repro.simulation import (
    DynamicSimulator,
    SteadyStateSimulator,
    deterministic_view,
    run_sharded,
)
from repro.topology import generate_hierarchy, load_topology

from tracer import Tracer

MEASURED, REFERENCE, WARMUP, CHECKS = 0, 1, 2, 3

#: ScenarioGrid takes one keyword column per Scenario field.
GRID_COLUMNS = tuple(f.name for f in dataclasses.fields(Scenario))


@dataclass
class Op:
    """One call of the program whose output the checks examine."""

    id: int
    kind: str
    stream: int
    round: int
    units: float
    latency_s: float = 0.0
    failure: Optional[str] = None
    out: dict = field(default_factory=dict)

    def fail(self, message: str) -> None:
        if self.failure is None:
            self.failure = message


class ReplayWorkload(Workload):
    """Hands request batches sampled beforehand to a simulator.

    Sampling (``IRMWorkload.batches``) is timed as program work in its
    own ``catalog.sample`` span; replaying the same batches keeps the
    simulator's span free of sampling time.
    """

    def __init__(self, batches: list[RequestBatch]):
        self._batches = batches

    def requests(self, count: int):
        return self._requests_from_batches(count)

    def batches(self, count: int, *, batch_size: int = 65536):
        left = count
        for batch in self._batches:
            for start in range(0, len(batch), batch_size):
                if left <= 0:
                    return
                stop = min(start + batch_size, len(batch), start + left)
                yield RequestBatch(
                    batch.clients, batch.client_index[start:stop], batch.ranks[start:stop]
                )
                left -= stop - start
        if left > 0:
            raise ValueError(f"replay holds {count - left} requests, {count} asked for")


def _feed(digest, obj) -> None:
    """Fold one generated input (arrays, scalars, containers) into a hash."""
    if isinstance(obj, np.ndarray):
        digest.update(str(obj.dtype).encode())
        digest.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            _feed(digest, item)
    elif isinstance(obj, dict):
        for key in sorted(obj):
            digest.update(key.encode())
            _feed(digest, obj[key])
    else:
        digest.update(json.dumps(obj).encode())


def _hits(metrics) -> tuple[int, int, int]:
    return (metrics.local_hits, metrics.peer_hits, metrics.origin_hits)


class BenchWorkload:
    """Shared machinery: seeded streams, operations, phases, metrics.

    Subclasses define ``name``, ``why``, the ``FULL`` and ``SMOKE``
    sizes, and implement :meth:`inputs`, :meth:`round` and
    :meth:`check` (plus :meth:`setup` when rounds share state).
    ``LATENCY`` says what one latency sample is: a whole round
    (``"round"``) or each operation of it (``"op"``).
    """

    name = ""
    why = ""
    FULL: dict = {}
    SMOKE: dict = {}
    LATENCY = "round"

    def __init__(self, seed: int, *, smoke: bool = False, tracer: Optional[Tracer] = None):
        self.seed = int(seed)
        self.cfg = dict(self.SMOKE if smoke else self.FULL)
        self.tracer = tracer if tracer is not None else Tracer()
        self.ops: list[Op] = []
        self.latencies: list[float] = []
        self.counts: dict[str, float] = {}
        self.details: dict = {}

    # -- building blocks -----------------------------------------------------

    def seed_seq(self, *key: int) -> np.random.SeedSequence:
        # SeedSequence([a, b]) equals SeedSequence([a, b, 0]); the closing
        # 1 keeps keys of different lengths from colliding.
        return np.random.SeedSequence([self.seed, *key, 1])

    def rng(self, *key: int) -> np.random.Generator:
        return np.random.default_rng(self.seed_seq(*key))

    def layer(self, name: str):
        return self.tracer.span(name)

    @contextlib.contextmanager
    def operation(self, kind: str, stream: int, rnd: int, units: float = 0):
        """Time one program call; an exception marks it failed, not fatal."""
        op = Op(len(self.ops), kind, stream, rnd, units)
        self.ops.append(op)
        self.tracer.op = op.id
        start = time.perf_counter()
        try:
            yield op
        except Exception:  # the benchmark keeps running and counts the failure
            op.fail(traceback.format_exc(limit=4))
        finally:
            op.latency_s = time.perf_counter() - start
            self.tracer.op = None

    def measured_ops(self, kind: Optional[str] = None) -> list[Op]:
        """Stream-0 operations that returned, optionally of one kind."""
        return [
            op
            for op in self.ops
            if op.stream == MEASURED and op.failure is None and kind in (None, op.kind)
        ]

    def count(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def count_hits(self, hits: tuple[int, int, int]) -> None:
        for tier, value in zip(("local", "peer", "origin"), hits):
            self.count(f"simulation.{tier}_hits", value)
        self.count("simulation.requests", sum(hits))

    # -- lifecycle -----------------------------------------------------------

    def setup(self) -> None:
        """Build what every round shares (topology, model, inputs)."""

    def warmup(self) -> None:
        """One small unit of every operation kind, on stream 2."""
        self.round(WARMUP, 0)

    def inputs(self, stream: int, k: int) -> object:
        """The generated inputs of round ``k`` of ``stream``."""
        raise NotImplementedError

    def round(self, stream: int, k: int) -> None:
        raise NotImplementedError

    def check(self) -> None:
        """Mark measured operations whose outputs are wrong as failed."""
        raise NotImplementedError

    def input_digest(self) -> str:
        """sha256 of the sizes and the first measured round's inputs."""
        digest = hashlib.sha256(self.name.encode())
        _feed(digest, self.cfg)
        _feed(digest, self.inputs(MEASURED, 0))
        return digest.hexdigest()

    def run_phase(self, seconds: float, stream: int) -> dict:
        """Run rounds until ``seconds`` have passed (at least one round).

        Returns the phase wall time and one work rate per round: the
        work units of the round's successful operations over its wall.
        """
        self.latencies = []
        rates = []
        start = time.perf_counter()
        k = 0
        while True:
            first_op = len(self.ops)
            began = time.perf_counter()
            self.round(stream, k)
            wall = time.perf_counter() - began
            ops = [op for op in self.ops[first_op:] if op.failure is None]
            rates.append(sum(op.units for op in ops) / wall)
            if self.LATENCY == "round":
                self.latencies.append(wall)
            else:
                self.latencies.extend(op.latency_s for op in ops)
            k += 1
            if time.perf_counter() - start >= seconds:
                break
        return {"wall_s": time.perf_counter() - start, "rounds": k, "rates": rates}

    def end_to_end(self, phase: dict) -> dict:
        """``throughput`` (median round rate) and ``op_p50_ms`` of a phase."""
        return {
            "throughput": statistics.median(phase["rates"]),
            "op_p50_ms": statistics.median(self.latencies) * 1e3,
        }

    def layer_ratios(self) -> dict:
        """Per-layer ratio metrics this workload supplies (default none)."""
        return {}


# -- grid-plan --------------------------------------------------------------


def _axes(shape: tuple[int, int, int]) -> dict:
    n_alpha, n_s, n_gamma = shape
    exponent = np.linspace(0.5, 1.9, n_s)
    # Keep the product grid off the s = 1 singularity.
    exponent = np.where(np.abs(exponent - 1.0) < 0.02, 1.03, exponent)
    return dict(
        alpha=np.linspace(0.0, 1.0, n_alpha),
        exponent=exponent,
        gamma=np.linspace(1.0, 12.0, n_gamma),
    )


#: Steps per block of stratified catalog and capacity draws.
STRATA = 8


def _perturbed(grid: ScenarioGrid, mask: np.ndarray) -> ScenarioGrid:
    """The grid with gamma moved +3% on the masked points."""
    columns = {name: np.array(getattr(grid, name)) for name in GRID_COLUMNS}
    columns["gamma"][mask] *= 1.03
    return ScenarioGrid(**columns)


class GridPlan(BenchWorkload):
    name = "grid-plan"
    why = (
        "Operator planning queries: all time is in core and approx, none in the "
        "simulators or the service, so it bypasses every simulator change."
    )
    # Re-plans 0, 5, ..., 25 are checked, so the kept outputs (and the
    # peak RSS) do not grow with the number of steps a run completes.
    FULL = dict(
        axes=(50, 40, 50),
        approx_axes=(25, 20, 20),
        oracle_points=20,
        replan_checks=(0, 5, 10, 15, 20, 25),
    )
    SMOKE = dict(axes=(5, 4, 5), approx_axes=(3, 2, 2), oracle_points=3, replan_checks=(0,))

    def inputs(self, stream: int, k: int) -> dict:
        """Step ``k``'s base scenario, perturbation and oracle sample.

        Every block of ``STRATA`` steps takes each of ``STRATA``
        log-spaced catalog sizes from 1e4 to 1e6 once, and c from each
        of ``STRATA`` strata of 0.1..5% of N once, in a seeded order.
        Catalog size sets the approx time and the Zipf table memory, so
        this keeps both from varying between seeds.
        """
        block = self.rng(stream, k // STRATA, STRATA)
        n_order, c_order = block.permutation(STRATA), block.permutation(STRATA)
        rng = self.rng(stream, k)
        catalog = int(round(10 ** (4.0 + 2.0 * n_order[k % STRATA] / (STRATA - 1))))
        u_c = (c_order[k % STRATA] + rng.random()) / STRATA
        points = math.prod(self.cfg["axes"])
        return dict(
            n_routers=int(rng.integers(10, 201)),
            catalog_size=catalog,
            capacity=float(max(1, round(catalog * (0.001 + 0.049 * u_c)))),
            changed=np.sort(rng.choice(points, size=max(1, points // 20), replace=False)),
            oracle=rng.choice(points, size=self.cfg["oracle_points"], replace=False),
        )

    @staticmethod
    def _base(spec: dict) -> Scenario:
        return Scenario(
            n_routers=spec["n_routers"],
            catalog_size=spec["catalog_size"],
            capacity=spec["capacity"],
        )

    def _mask(self, spec: dict) -> np.ndarray:
        mask = np.zeros(math.prod(self.cfg["axes"]), dtype=bool)
        mask[spec["changed"]] = True
        return mask

    def round(self, stream: int, k: int) -> None:
        spec = self.inputs(stream, k)
        base = self._base(spec)
        points = math.prod(self.cfg["axes"])
        with self.operation("solve", stream, k, points) as op:
            with self.layer("core.scenario_grid"):
                grid = ScenarioGrid.from_product(base, **_axes(self.cfg["axes"]))
            with self.layer("core.solve_batch"):
                cold = solve_batch(grid, check_conditions=False)
            op.out["levels"] = np.array(cold.level[spec["oracle"]])
        with self.operation("replan", stream, k, points) as op:
            mask = self._mask(spec)
            with self.layer("core.scenario_grid"):
                perturbed = _perturbed(grid, mask)
            with self.layer("core.resolve_incremental"):
                warm = resolve_incremental(perturbed, cold, mask, check_conditions=False)
            if k in self.cfg["replan_checks"]:
                op.out["levels"] = warm.level
        approx_points = math.prod(self.cfg["approx_axes"])
        with self.operation("approx", stream, k, approx_points) as op:
            with self.layer("core.scenario_grid"):
                sub = ScenarioGrid.from_product(base, **_axes(self.cfg["approx_axes"]))
            with self.layer("approx.batch"):
                result = approx_batch(sub, policy="lru")
            # NaN propagates through min and max, so the range covers it.
            op.out["range"] = (float(result.level.min()), float(result.level.max()))
        if stream == MEASURED and k == 0 and all(op.failure is None for op in self.ops[-3:]):
            self.counts.update(
                {
                    "core.points": 2 * points,
                    "core.bisection_iterations": cold.iterations,
                    "core.changed_points": int(mask.sum()),
                    "approx.points": approx_points,
                    "approx.unique_solves": result.unique_solves,
                    "approx.fixed_point_iterations": result.iterations,
                }
            )

    def check(self) -> None:
        for op in self.measured_ops():
            spec = self.inputs(op.stream, op.round)
            if op.kind == "solve":
                grid = ScenarioGrid.from_product(self._base(spec), **_axes(self.cfg["axes"]))
                for index, level in zip(spec["oracle"], op.out["levels"]):
                    model = grid.scenario_at(int(index)).model()
                    want = optimal_strategy(model, check_conditions=False).level
                    if not abs(level - want) <= 1e-9:
                        op.fail(f"point {index}: batch level {level!r} != oracle {want!r}")
            elif op.kind == "replan" and "levels" in op.out:
                grid = ScenarioGrid.from_product(self._base(spec), **_axes(self.cfg["axes"]))
                cold = solve_batch(_perturbed(grid, self._mask(spec)), check_conditions=False)
                diff = float(np.max(np.abs(op.out["levels"] - cold.level)))
                if not diff <= 1e-9:
                    op.fail(f"re-plan differs from a cold solve by {diff!r}")
            elif op.kind == "approx":
                low, high = op.out["range"]
                if not 0.0 <= low <= high <= 1.0:
                    op.fail(f"approx levels span [{low!r}, {high!r}], not within [0, 1]")


# -- request-level simulators -----------------------------------------------


class _SimulationWorkload(BenchWorkload):
    """US-A topology, sampling, and the batched-vs-scalar prefix check.

    ``PARTS`` names the sizes entry listing one round's runs; run ``i``
    of round ``k`` draws its requests from ``seed_seq(stream, k, i)``.
    """

    PARTS = ""

    def inputs(self, stream: int, k: int) -> dict:
        parts = self.cfg[self.PARTS]
        return {
            "parts": parts,
            "streams": [self.seed_seq(stream, k, i).entropy for i in range(len(parts))],
        }

    def setup(self) -> None:
        with self.layer("topology.load"):
            self.topology = load_topology("us-a")
        self.zipf = ZipfModel(self.cfg["exponent"], self.cfg["catalog"])

    def sample(self, key: np.random.SeedSequence, count: int) -> list[RequestBatch]:
        with self.layer("catalog.sample"):
            return list(IRMWorkload(self.zipf, self.topology.nodes, seed=key).batches(count))

    def dynamic_run(self, policy: str, level: float, seed, batches, count: int, warmup: int = 0):
        """One batched dynamic run; returns its tier counts and timing."""
        with self.layer(f"simulation.dynamic_run.{policy}"):
            began = time.perf_counter()
            simulator = DynamicSimulator(
                self.topology,
                capacity=self.cfg["capacity"],
                policy=policy,
                coordination_level=level,
                seed=seed,
            )
            metrics = simulator.run(ReplayWorkload(batches), count, warmup=warmup)
            run_s = time.perf_counter() - began
        return {"hits": _hits(metrics), "run_s": run_s, "requests": count + warmup}

    def prefix_check(self, kind: str, make_simulator, key, count: int) -> Optional[float]:
        """Batched vs scalar counts on one prefix; returns the scalar req/s."""
        with self.operation(kind, CHECKS, 0) as op:
            batches = list(IRMWorkload(self.zipf, self.topology.nodes, seed=key).batches(count))
            batched = make_simulator().run(ReplayWorkload(batches), count)
            began = time.perf_counter()
            scalar = make_simulator().run_scalar(ReplayWorkload(batches), count)
            op.out["scalar_rps"] = count / (time.perf_counter() - began)
            if _hits(batched) != _hits(scalar):
                op.fail(f"batched {_hits(batched)} != scalar {_hits(scalar)} on {count} requests")
        return op.out.get("scalar_rps")

    def layer_ratios(self) -> dict:
        """Batched whole-run req/s over the scalar loop's, per policy."""
        ratios = {}
        for policy, scalar_rps in self.details.get("scalar_rps", {}).items():
            runs = [op.out[policy] for op in self.measured_ops() if policy in op.out]
            seconds = sum(run["run_s"] for run in runs)
            if seconds and scalar_rps:
                batched_rps = sum(run["requests"] for run in runs) / seconds
                ratios[f"simulation.batched_over_scalar.{policy}"] = batched_rps / scalar_rps
        return ratios


class SimLruSweep(_SimulationWorkload):
    name = "sim-lru-sweep"
    why = (
        "The paper's model-vs-simulation check over l = 0..1: LRU kernel and catalog "
        "sampling dominate, so dynamic-LRU and sampling changes show here."
    )
    FULL = dict(
        levels=tuple(round(0.1 * i, 1) for i in range(11)),
        steady=250_000,
        dynamic=250_000,
        warmup=25_000,
        prefix=20_000,
        catalog=10_000,
        capacity=100,
        exponent=0.8,
    )
    # The steady count keeps the 0.005 origin-load tolerance above 4 sigma.
    SMOKE = dict(
        FULL, levels=(0.0, 0.5, 1.0), steady=200_000, dynamic=4_000, warmup=400, prefix=1_000
    )
    LATENCY = "op"
    PARTS = "levels"

    def setup(self) -> None:
        super().setup()
        with self.layer("core.performance_model"):
            self.model = Scenario(
                exponent=self.cfg["exponent"],
                catalog_size=self.cfg["catalog"],
                capacity=self.cfg["capacity"],
                n_routers=self.topology.n_routers,
            ).performance_model()

    def warmup(self) -> None:
        self._point(WARMUP, 0, 0, 0.5, steady=5_000, dynamic=5_000, warmup=500)

    def _strategy(self, level: float) -> ProvisioningStrategy:
        return ProvisioningStrategy(
            capacity=self.cfg["capacity"], n_routers=self.topology.n_routers, level=level
        )

    def _point(self, stream, k, i, level, *, steady, dynamic, warmup) -> Op:
        """One l point: a steady run of the eq. 1 placement, then dynamic LRU."""
        steady_key, dynamic_key = self.seed_seq(stream, k, i).spawn(2)
        with self.operation("point", stream, k, steady + dynamic + warmup) as op:
            op.out["level"] = level
            batches = self.sample(steady_key, steady)
            with self.layer("simulation.steady_run"):
                simulator = SteadyStateSimulator.from_strategy(
                    self.topology, self._strategy(level), message_accounting="none"
                )
                op.out["steady"] = _hits(simulator.run(ReplayWorkload(batches), steady))
            batches = self.sample(dynamic_key, dynamic + warmup)
            op.out["lru"] = self.dynamic_run("lru", level, 0, batches, dynamic, warmup)
        return op

    def round(self, stream: int, k: int) -> None:
        cfg = self.cfg
        for i, level in enumerate(cfg["levels"]):
            op = self._point(
                stream,
                k,
                i,
                level,
                steady=cfg["steady"],
                dynamic=cfg["dynamic"],
                warmup=cfg["warmup"],
            )
            if stream == MEASURED and k == 0 and op.failure is None:
                self.count("catalog.requests", op.units)
                self.count_hits(op.out["steady"])
                self.count_hits(op.out["lru"]["hits"])

    def check(self) -> None:
        cfg = self.cfg
        for op in self.measured_ops():
            steady, dynamic = op.out["steady"], op.out["lru"]["hits"]
            if sum(steady) != cfg["steady"] or sum(dynamic) != cfg["dynamic"]:
                op.fail(f"tier counts {steady} / {dynamic} do not sum to the requests")
            x = self._strategy(op.out["level"]).coordinated_slots
            model = float(self.model.origin_load(x, exact=True))
            measured = steady[2] / cfg["steady"]
            if not abs(measured - model) <= 0.005:
                op.fail(f"steady origin load {measured:.4f} vs model {model:.4f}")
        scalar_rps = []
        for i, level in enumerate(cfg["levels"]):
            steady_key, dynamic_key = self.seed_seq(MEASURED, 0, i).spawn(2)
            strategy = self._strategy(level)
            self.prefix_check(
                "check-steady",
                lambda: SteadyStateSimulator.from_strategy(
                    self.topology, strategy, message_accounting="none"
                ),
                steady_key,
                cfg["prefix"],
            )
            scalar_rps.append(
                self.prefix_check(
                    "check-dynamic",
                    lambda: DynamicSimulator(
                        self.topology,
                        capacity=cfg["capacity"],
                        policy="lru",
                        coordination_level=level,
                    ),
                    dynamic_key,
                    cfg["prefix"],
                )
            )
        rates = [r for r in scalar_rps if r]
        if rates:
            self.details["scalar_rps"] = {"lru": statistics.median(rates)}


class SimPolicies(_SimulationWorkload):
    name = "sim-policies"
    why = (
        "Paper-scale catalog far larger than the stores, one run per replacement "
        "policy: the non-LRU engines, where LRU is a small share of the time."
    )
    FULL = dict(
        runs=(
            ("lru", 400_000),
            ("fifo", 400_000),
            ("random", 200_000),
            ("lfu", 50_000),
            ("perfect-lfu", 50_000),
        ),
        level=0.5,
        prefix=5_000,
        catalog=1_000_000,
        capacity=1_000,
        exponent=0.8,
    )
    SMOKE = dict(
        FULL,
        runs=(
            ("lru", 4_000),
            ("fifo", 4_000),
            ("random", 2_000),
            ("lfu", 1_000),
            ("perfect-lfu", 1_000),
        ),
        prefix=500,
    )
    PARTS = "runs"

    def warmup(self) -> None:
        with self.operation("warmup", WARMUP, 0):
            batches = self.sample(self.seed_seq(WARMUP, 0), 2_000)
            for policy, _ in self.cfg["runs"]:
                self.dynamic_run(policy, self.cfg["level"], 0, batches, 2_000)

    def round(self, stream: int, k: int) -> None:
        for i, (policy, count) in enumerate(self.cfg["runs"]):
            sample_key, simulator_key = self.seed_seq(stream, k, i).spawn(2)
            with self.operation(policy, stream, k, count) as op:
                batches = self.sample(sample_key, count)
                op.out[policy] = self.dynamic_run(
                    policy, self.cfg["level"], simulator_key, batches, count
                )
            if stream == MEASURED and k == 0 and op.failure is None:
                self.count("catalog.requests", count)
                self.count_hits(op.out[policy]["hits"])

    def check(self) -> None:
        for op in self.measured_ops():
            if sum(op.out[op.kind]["hits"]) != dict(self.cfg["runs"])[op.kind]:
                op.fail(f"tier counts {op.out[op.kind]['hits']} do not sum to the requests")
        scalar_rps = {}
        for i, (policy, _) in enumerate(self.cfg["runs"]):
            sample_key, simulator_key = self.seed_seq(MEASURED, 0, i).spawn(2)
            scalar_rps[policy] = self.prefix_check(
                f"check-{policy}",
                lambda: DynamicSimulator(
                    self.topology,
                    capacity=self.cfg["capacity"],
                    policy=policy,
                    coordination_level=self.cfg["level"],
                    seed=simulator_key,
                ),
                sample_key,
                self.cfg["prefix"],
            )
        self.details["scalar_rps"] = {p: r for p, r in scalar_rps.items() if r}


# -- packet engine ----------------------------------------------------------


_CCN_COUNTERS = (
    "requests_issued",
    "requests_completed",
    "origin_productions",
    "cs_hits",
    "interest_transmissions",
    "data_transmissions",
    "pit_aggregations",
)


class CcnContention(_SimulationWorkload):
    name = "ccn-contention"
    why = (
        "Packet engine at falling inter-arrival times, then with finite cache queues: "
        "separates journey memoization, PIT micro-simulation and queueing."
    )
    FULL = dict(
        phases=(
            ("relaxed", 500_000, 1.0, False),
            ("contended", 250_000, 0.05, False),
            ("queued", 125_000, 0.05, True),
        ),
        queue=(8, 0.05, 0.1),
        level=0.5,
        prefix=10_000,
        catalog=10_000,
        capacity=100,
        exponent=0.8,
    )
    SMOKE = dict(
        FULL,
        phases=(
            ("relaxed", 5_000, 1.0, False),
            ("contended", 2_500, 0.05, False),
            ("queued", 1_250, 0.05, True),
        ),
        prefix=500,
    )
    PARTS = "phases"

    def setup(self) -> None:
        super().setup()
        self.strategy = ProvisioningStrategy(
            capacity=self.cfg["capacity"],
            n_routers=self.topology.n_routers,
            level=self.cfg["level"],
        )

    def _engine(self, queued: bool) -> BatchedCCNEngine:
        size, read_ms, write_ms = self.cfg["queue"]
        queue = CacheQueue(size, read_penalty_ms=read_ms, write_penalty_ms=write_ms)
        engine = BatchedCCNEngine(
            self.topology, origin_gateway=self.topology.nodes[0], queue=queue if queued else None
        )
        engine.install_strategy(self.strategy)
        return engine

    def warmup(self) -> None:
        with self.operation("warmup", WARMUP, 0):
            batches = self.sample(self.seed_seq(WARMUP, 0), 5_000)
            for queued in (False, True):
                self._engine(queued).run_workload(
                    ReplayWorkload(batches), 5_000, interarrival_ms=0.05
                )

    def round(self, stream: int, k: int) -> None:
        for i, (phase, count, interarrival_ms, queued) in enumerate(self.cfg["phases"]):
            with self.operation(phase, stream, k, count) as op:
                batches = self.sample(self.seed_seq(stream, k, i), count)
                with self.layer(f"ccn.run.{phase}"):
                    result = self._engine(queued).run_workload(
                        ReplayWorkload(batches), count, interarrival_ms=interarrival_ms
                    )
                op.out.update(
                    count=count,
                    counters=tuple(getattr(result, name) for name in _CCN_COUNTERS),
                    outcomes=int(result.outcome_counts.sum()),
                )
            if stream == MEASURED and k == 0 and op.failure is None:
                self.count("catalog.requests", count)
                self.count("ccn.interests", count)
                self.count(f"ccn.pit_aggregations.{phase}", result.pit_aggregations)
                self.count(
                    f"ccn.fast_path_frac.{phase}", 1.0 - result.simulated_requests / count
                )
                self.count("ccn.simulated_requests", result.simulated_requests)
                self.count("ccn.queued_ops", result.queued_ops)
                self.count("ccn.rejected_ops", result.rejected_ops)
                self.count("ccn.cohorts", result.cohorts)

    def check(self) -> None:
        for op in self.measured_ops():
            issued = op.out["counters"][0]
            if not issued == op.out["outcomes"] == op.out["count"]:
                op.fail(
                    f"outcomes {op.out['outcomes']} / issued {issued} "
                    f"!= {op.out['count']} interests"
                )
        for i, (phase, _, interarrival_ms, queued) in enumerate(self.cfg["phases"]):
            if queued:
                continue  # the scalar network has no queue model
            with self.operation(f"check-{phase}", CHECKS, 0) as op:
                count = self.cfg["prefix"]
                key = self.seed_seq(MEASURED, 0, i)
                replay = ReplayWorkload(
                    list(IRMWorkload(self.zipf, self.topology.nodes, seed=key).batches(count))
                )
                batched = self._engine(False).run_workload(
                    replay, count, interarrival_ms=interarrival_ms
                )
                network = CCNNetwork(self.topology, origin_gateway=self.topology.nodes[0])
                network.install_strategy(self.strategy)
                scalar = network.run_workload(replay, count, interarrival_ms=interarrival_ms)
                for name in _CCN_COUNTERS:
                    want, got = getattr(scalar, name), getattr(batched, name)
                    if got != want:
                        op.fail(f"{name}: engine {got} != scalar {want}")


# -- online service ---------------------------------------------------------


class ServeDrift(BenchWorkload):
    name = "serve-drift"
    why = (
        "The online path: wire-format lines with a drifting Zipf exponent, open loop "
        "then closed loop; tiny warm re-solves where per-call overhead dominates."
    )
    FULL = dict(
        catalog=50_000,
        mean=500,
        idle=0.05,
        period=1_000,
        rate=200.0,
        group=200,
        min_ticks=0,
        oracle_ticks=50,
    )
    SMOKE = dict(
        FULL, catalog=5_000, mean=50, period=40, rate=2e3, group=10, min_ticks=20, oracle_ticks=5
    )
    LATENCY = "op"

    def setup(self) -> None:
        self.scenario = Scenario(
            alpha=0.6, n_routers=20, capacity=500.0, catalog_size=self.cfg["catalog"]
        )
        self.lines = {}
        with self.layer("harness.inputs"):
            self.lines[MEASURED] = self.inputs(MEASURED, 0)

    def inputs(self, stream: int, k: int = 0, count: Optional[int] = None) -> list[str]:
        """Wire-format lines: Poisson(mean) ranks drawn from Zipf(s(t), N).

        ``s(t) = 1 + 0.4 sin(2 pi t / period)``; a share ``idle`` of the
        lines is blank (idle ticks).  Ranks come from the bounded
        continuous power law's inverse CDF, floored to integers.
        """
        cfg = self.cfg
        count = cfg["period"] if count is None else count
        rng = self.rng(stream, k)
        sizes = rng.poisson(cfg["mean"], count)
        sizes[rng.random(count) < cfg["idle"]] = 0
        phase = 2.0 * np.pi * np.arange(count) / cfg["period"]
        exponent = np.repeat(1.0 + 0.4 * np.sin(phase), sizes)
        u = rng.random(int(sizes.sum()))
        a = 1.0 - exponent
        top = cfg["catalog"] + 1.0
        flat = np.abs(a) < 1e-9
        a_safe = np.where(flat, 1.0, a)
        x = np.where(flat, top**u, (1.0 + u * (top**a_safe - 1.0)) ** (1.0 / a_safe))
        ranks = np.clip(np.floor(x), 1, cfg["catalog"]).astype(np.int64)
        lines = np.split(ranks, np.cumsum(sizes)[:-1])
        return [" ".join(map(str, line.tolist())) for line in lines]

    def _service(self) -> OptimizerService:
        with self.layer("service.construct"):
            return OptimizerService(
                self.scenario, memory=0.6, policy=DeadBandPolicy(dead_band=0.01)
            )

    def warmup(self) -> None:
        service = self._service()
        for i, line in enumerate(self.inputs(WARMUP, 0, count=5)):
            self._tick(service, line, WARMUP, i)

    def _tick(self, service: OptimizerService, line: str, stream: int, index: int) -> None:
        with self.operation("tick", stream, index, 1) as op:
            with self.layer("service.parse_line"):
                batch = parse_line(line)
            with self.layer("service.ingest"):
                tick = service.ingest(batch)
            op.out.update(
                action=tick.action, estimate=tick.estimate, level=tick.level, clamped=tick.clamped
            )

    def run_phase(self, seconds: float, stream: int) -> dict:
        """Open loop at ``rate`` ticks/s for half the time, then closed loop.

        Open-loop ticks are timed from when they were due, so a stall
        delays every later tick's latency; ``throughput`` is the
        closed-loop rate, one sample per ``group`` ticks.
        """
        cfg = self.cfg
        if stream not in self.lines:
            with self.layer("harness.inputs"):
                self.lines[stream] = self.inputs(stream, 0)
        lines = self.lines[stream]
        service = self._service()
        self.latencies = []
        lags = []
        n_open = max(cfg["min_ticks"], int(round(cfg["rate"] * seconds / 2)))
        start = time.perf_counter()
        for i in range(n_open):
            due = start + i / cfg["rate"]
            wait = due - time.perf_counter()
            if wait > 0:
                with self.layer("harness.idle"):
                    time.sleep(wait)
            lags.append(max(0.0, time.perf_counter() - due))
            self._tick(service, lines[i % len(lines)], stream, i)
            self.latencies.append(time.perf_counter() - due)
        opened = [op for op in self.ops if op.stream == stream and op.kind == "tick"]
        closed_start = time.perf_counter()
        rates = []
        i = n_open
        while True:
            group_start = time.perf_counter()
            for _ in range(cfg["group"]):
                self._tick(service, lines[i % len(lines)], stream, i)
                i += 1
            rates.append(cfg["group"] / (time.perf_counter() - group_start))
            elapsed = time.perf_counter() - closed_start
            if elapsed >= seconds / 2 and i - n_open >= cfg["min_ticks"]:
                break
        if stream == MEASURED:
            for op in opened:
                if op.failure is None:
                    self.count(f"service.ticks_{op.out['action']}", 1)
                    self.count("service.estimate_clamped", int(op.out["clamped"]))
            self.details.update(
                open_ticks=n_open,
                closed_ticks=i - n_open,
                tick_p99_ms=float(np.percentile(self.latencies, 99)) * 1e3,
                generator_lag_p99_ms=float(np.percentile(lags, 99)) * 1e3,
            )
        return {"wall_s": time.perf_counter() - start, "rounds": len(rates), "rates": rates}

    def check(self) -> None:
        solved = []
        for op in self.measured_ops():
            if op.out["action"] not in ("idle", "cold", "warm", "skipped"):
                op.fail(f"unknown tick action {op.out['action']!r}")
            level = op.out["level"]
            if level is not None and not 0.0 <= level <= 1.0:
                op.fail(f"provisioned level {level!r} outside [0, 1]")
            if op.out["action"] in ("cold", "warm"):
                solved.append(op)
        picks = self.rng(CHECKS).permutation(len(solved))[: self.cfg["oracle_ticks"]]
        for index in picks:
            op = solved[int(index)]
            model = self.scenario.replace(exponent=op.out["estimate"]).model()
            want = optimal_strategy(model, check_conditions=False).level
            if not abs(op.out["level"] - want) <= 1e-9:
                op.fail(
                    f"tick level {op.out['level']!r} != oracle {want!r} "
                    f"at s={op.out['estimate']!r}"
                )


# -- sharded simulation -----------------------------------------------------


class ScaleSharded(BenchWorkload):
    name = "scale-sharded"
    why = (
        "The only process-parallel path: 100 small region fleets behind partition, "
        "dispatch and merge, against the same run on one shard."
    )
    FULL = dict(
        routers=5_000,
        regions=100,
        runs=(("auto", 4_000_000), ("serial", 1_000_000)),
        check=200_000,
        level=0.5,
        catalog=10_000,
        capacity=100,
        exponent=0.8,
    )
    SMOKE = dict(
        FULL, routers=600, regions=12, runs=(("auto", 40_000), ("serial", 10_000)), check=10_000
    )

    def setup(self) -> None:
        with self.layer("topology.generate_hierarchy"):
            self.topology = generate_hierarchy(
                self.seed, routers=self.cfg["routers"], regions=self.cfg["regions"]
            )

    def _run(self, topology, requests: int, seed: int, shards):
        return run_sharded(
            topology,
            requests=requests,
            capacity=self.cfg["capacity"],
            policy="lru",
            coordination_level=self.cfg["level"],
            exponent=self.cfg["exponent"],
            catalog_size=self.cfg["catalog"],
            seed=seed,
            shards=shards,
        )

    def warmup(self) -> None:
        with self.operation("warmup", WARMUP, 0):
            with self.layer("topology.generate_hierarchy"):
                small = generate_hierarchy(self.seed, routers=200, regions=4)
            for shards in ("auto", 1):
                self._run(small, 20_000, self.seed, shards)

    def inputs(self, stream: int, k: int) -> dict:
        seeds = self.rng(stream, k).integers(0, 2**31, size=len(self.cfg["runs"]))
        return {"topology_seed": self.seed, "run_seeds": [int(s) for s in seeds]}

    def round(self, stream: int, k: int) -> None:
        seeds = self.inputs(stream, k)["run_seeds"]
        for (kind, requests), seed in zip(self.cfg["runs"], seeds):
            shards = "auto" if kind == "auto" else 1
            with self.operation(kind, stream, k, requests) as op:
                with self.layer("simulation.run_sharded"):
                    result = self._run(self.topology, requests, seed, shards)
                op.out.update(
                    requests=requests,
                    hits=_hits(result.metrics),
                    shards=result.shards,
                    kernel_s=result.kernel_seconds,
                )
            if stream == MEASURED and k == 0 and op.failure is None:
                self.count_hits(op.out["hits"])
                if kind == "auto":
                    self.counts["simulation.shards"] = result.shards

    def check(self) -> None:
        auto_shards = min(available_cpus(), self.cfg["regions"])
        for op in self.measured_ops():
            if sum(op.out["hits"]) != op.out["requests"]:
                op.fail(f"tier counts {op.out['hits']} do not sum to {op.out['requests']}")
            want = auto_shards if op.kind == "auto" else 1
            if op.out["shards"] != want:
                op.fail(f"ran on {op.out['shards']} shards, expected {want}")
        with self.operation("check-shard-invariance", CHECKS, 0) as op:
            seed = int(self.rng(CHECKS).integers(0, 2**31))
            views = []
            for shards in (1, "auto"):
                with obs_session() as capture:
                    self._run(self.topology, self.cfg["check"], seed, shards)
                    views.append(deterministic_view(capture.snapshot()))
            if views[0] != views[1]:
                op.fail("deterministic_view differs between shards=1 and shards='auto'")

    def layer_ratios(self) -> dict:
        runs = {kind: self.measured_ops(kind) for kind, _ in self.cfg["runs"]}
        rate = {
            kind: sum(op.units for op in ops) / sum(op.latency_s for op in ops)
            for kind, ops in runs.items()
            if ops
        }
        ratios = {}
        if len(rate) == 2:
            ratios["simulation.sharded_speedup"] = rate["auto"] / rate["serial"]
        pool_s = sum(op.latency_s * max(op.out["shards"], 1) for op in runs["auto"])
        if pool_s:
            ratios["simulation.sharded_kernel_share"] = (
                sum(op.out["kernel_s"] for op in runs["auto"]) / pool_s
            )
        return ratios


WORKLOADS = {
    cls.name: cls
    for cls in (GridPlan, SimLruSweep, SimPolicies, CcnContention, ServeDrift, ScaleSharded)
}
