"""Does the paper's optimum ℓ* survive packet-level contention?

The latency model behind eq. 5/7 treats every request as independent:
``T(x)`` prices a request by where its content sits, never by who else
is asking at the same instant.  The batched packet engine
(:mod:`repro.ccn.engine`, DESIGN.md §16) models exactly the two
mechanisms that break that assumption:

- **PIT interest aggregation** — concurrent Interests for one name
  collapse into a single upstream fetch, *thinning* remote demand, so
  crowding requests onto custodians is cheaper than the model prices it;
- **finite store queues** — every read serializes through a bounded
  admission queue, so concentrating load on few custodians *costs more*
  than the model prices it (waits, and rejections that escalate
  upstream).

This sweep measures mean completion latency as a function of the
coordination level ℓ under increasing contention (shorter inter-arrival
times, smaller queues) and reports where each measured argmin ℓ̂* lands
relative to the analytic optimum — the ROADMAP item 2 question.

Measured answer (US-A, c=100, Zipf(0.8, 10k), 40k requests): with
independent arrivals the packet-level argmin sits at the analytic
optimum's grid cell (ℓ̂* = 0.90 vs ℓ* = 0.933).  Under contention
aggregation pushes it *up* (ℓ̂* = 0.95–1.0): only single-copy custodian
ranks can aggregate — replicated edge copies are each asked separately —
so coordinated placement is cheaper than eq. 5/7 prices it.  Finite
queues keep the argmin high but *flatten* the curve (the ℓ=0 → ℓ̂* gain
compresses ~6×, and heavy rejection regimes invert parts of it as
escalations bypass saturated stores), so under queueing the optimum
survives in position but loses most of its value.

Deliberately *not* part of ``ALL_EXPERIMENTS``: it is not a paper
artifact but a model-stress experiment, exposed via ``repro ccn
--sweep`` instead of ``repro run``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from ..catalog.popularity import ZipfModel
from ..catalog.workload import IRMWorkload
from ..ccn.engine import BatchedCCNEngine, CacheQueue
from ..core.optimizer import optimal_strategy
from ..core.strategy import ProvisioningStrategy
from ..errors import ParameterError
from ..topology.datasets import load_topology
from .defaults import BASE_SCENARIO
from .sweep import FigureData, Series

__all__ = [
    "ContentionConfig",
    "DEFAULT_CONTENTION_CONFIGS",
    "contention_sweep",
]


@dataclass(frozen=True)
class ContentionConfig:
    """One contention regime: arrival spacing plus optional store queue."""

    label: str
    interarrival_ms: float
    queue: Optional[CacheQueue] = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.interarrival_ms) and self.interarrival_ms >= 0):
            raise ParameterError(
                f"interarrival must be finite and non-negative, got {self.interarrival_ms}"
            )


#: The default regimes, ordered from the model's world to the hostile
#: one: independent arrivals, then closing inter-arrival gaps (PIT
#: aggregation kicks in), then finite queues of shrinking size (waits,
#: then rejection escalation).
DEFAULT_CONTENTION_CONFIGS = (
    ContentionConfig("independent arrivals", 1.0),
    ContentionConfig("contended arrivals", 0.02),
    ContentionConfig(
        "contended + queue 8",
        0.02,
        CacheQueue(size=8, read_penalty_ms=0.2, write_penalty_ms=0.1),
    ),
    ContentionConfig(
        "contended + queue 2",
        0.02,
        CacheQueue(size=2, read_penalty_ms=0.2, write_penalty_ms=0.1),
    ),
)


def _measured_optimum(levels: Sequence[float], latencies: Sequence[float]) -> float:
    best = min(range(len(levels)), key=lambda i: latencies[i])
    return float(levels[best])


def contention_sweep(
    *,
    topology_name: str = "us-a",
    capacity: int = 100,
    exponent: float = 0.8,
    catalog_size: int = 10_000,
    levels: Optional[Sequence[float]] = None,
    configs: Sequence[ContentionConfig] = DEFAULT_CONTENTION_CONFIGS,
    requests: int = 40_000,
    seed: int = 7,
) -> FigureData:
    """Mean packet-level latency vs coordination level ℓ, per regime.

    One curve per :class:`ContentionConfig`; ``parameters`` carries the
    measured argmin ℓ̂* of each curve, the analytic eq. 5/7 optimum of
    the matching scenario, and the engine's aggregation/rejection
    tallies so the mechanism behind any shift is visible in the result.
    """
    if requests < 1:
        raise ParameterError(f"requests must be positive, got {requests}")
    topology = load_topology(topology_name)
    # Default grid: 0.1 steps over [0, 0.8], refined to 0.05 near the
    # analytic optimum (which sits above 0.9 for the default scenario).
    grid = (
        tuple(float(v) for v in levels)
        if levels is not None
        else tuple(round(i / 10, 1) for i in range(9))
        + (0.85, 0.9, 0.95, 1.0)
    )
    if not grid:
        raise ParameterError("level grid must not be empty")
    for level in grid:
        if not 0.0 <= level <= 1.0:
            raise ParameterError(f"levels must lie in [0, 1], got {level}")

    scenario = BASE_SCENARIO.replace(
        n_routers=topology.n_routers,
        capacity=float(capacity),
        catalog_size=catalog_size,
        exponent=exponent,
    )
    analytic = optimal_strategy(scenario.model(), check_conditions=False).level

    popularity = ZipfModel(exponent, catalog_size)
    series = []
    optima: dict[str, float] = {}
    aggregations: dict[str, int] = {}
    rejections: dict[str, int] = {}
    for config in configs:
        latencies = []
        agg_total = 0
        rej_total = 0
        for level in grid:
            engine = BatchedCCNEngine(
                topology,
                origin_gateway=topology.nodes[0],
                queue=config.queue,
            )
            engine.install_strategy(
                ProvisioningStrategy(
                    capacity=capacity,
                    n_routers=topology.n_routers,
                    level=level,
                )
            )
            workload = IRMWorkload(popularity, topology.nodes, seed=seed)
            result = engine.run_workload(
                workload, requests, interarrival_ms=config.interarrival_ms
            )
            latencies.append(result.mean_latency_ms)
            agg_total += result.pit_aggregations
            rej_total += result.rejected_ops
        series.append(Series(label=config.label, x=grid, y=tuple(latencies)))
        optima[config.label] = _measured_optimum(grid, latencies)
        aggregations[config.label] = agg_total
        rejections[config.label] = rej_total

    return FigureData(
        figure_id="contention",
        title="Packet-level latency vs coordination level under contention",
        xlabel="coordination level l",
        ylabel="mean completion latency (ms)",
        series=tuple(series),
        parameters={
            "topology": topology.name,
            "capacity": capacity,
            "exponent": exponent,
            "catalog_size": catalog_size,
            "requests": requests,
            "seed": seed,
            "analytic_level": float(analytic),
            "measured_optima": optima,
            "pit_aggregations": aggregations,
            "rejected_ops": rejections,
        },
    )
