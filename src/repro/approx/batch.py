"""Grid-scale batching of the Che approximation (``approx_batch``).

The dynamic-policy counterpart of :func:`repro.core.batch_solver.solve_batch`:
where that solver optimizes the paper's *analytical* objective (eq. 5)
over a :class:`~repro.core.batch_solver.ScenarioGrid`, this one predicts
the objective under a *real replacement policy* (LRU / Random / FIFO /
perfect-LFU) for every grid point and picks the best coordination level
on a shared level grid — the question that previously cost one dynamic
simulation per (point, level) pair.

Two structural facts make this fast:

1. The Che fixed points depend only on ``(s, N, c, n)`` — not on the
   objective weights ``α``/``γ``/``w`` — so a dense evaluation grid
   (which typically sweeps α/γ around few popularity/storage settings)
   collapses to a handful of *unique* cache solves shared by thousands
   of points.
2. Each solve runs on a log-rank quadrature of the catalog (exact unit
   bins over the head, geometric bins over the tail, bin-mean rates
   from per-bin Euler–Maclaurin sums) rather than all ``N`` ranks —
   the occupancy sum ``Σ w_j h(λ_j T)`` varies slowly within a log bin.
   All levels of one cell, and the ℓ = 0 baseline, solve in lock step.

The pooled-custodian model: at level ``ℓ`` every router keeps a local
partition of ``c·(1-ℓ)`` slots fed the full Zipf stream, and the ``n``
custodian partitions act as one aggregate cache of ``n·c·ℓ`` slots fed
the thinned miss stream ``p_i (1 - h_loc,i)`` — the large-``N`` limit of
:func:`repro.approx.network.solve_custodian`'s per-custodian solves
(each custodian's residue class of ranks is a ``1/n`` self-similar
sample of the catalog).  Tier fractions then combine with the grid's
``d0``/``d1``/``d2`` and eq. 3/4 cost exactly like the analytical
batch solver, so results are directly comparable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from ..core.batch_solver import ScenarioGrid
from ..core.objective import combine_objective
from ..errors import ParameterError
from ..obs import get_session
from .che import POLICIES, _hit_form, solve_fixed_point_batch

__all__ = [
    "ApproxBatchResult",
    "approx_batch",
    "DEFAULT_LEVEL_COUNT",
    "DEFAULT_QUADRATURE",
]

#: Default coordination-level grid resolution (ℓ = 0, 0.05, ..., 1).
DEFAULT_LEVEL_COUNT = 21

#: Default log-rank quadrature resolution; 512 bins keep the aggregate
#: hit-rate quadrature error below ~1e-4 across the Table IV ranges
#: while making each fixed-point solve O(512) instead of O(N).
DEFAULT_QUADRATURE = 512


@dataclass(frozen=True)
class ApproxBatchResult:
    """Best predicted coordination level per grid point (read-only arrays).

    The :class:`~repro.core.batch_solver.BatchStrategy` analogue for the
    approximation layer: ``level[i]``/``storage[i]`` are the best level
    ``ℓ`` on the evaluated grid and its per-router coordinated storage
    ``ℓ·c``; ``objective_value[i]`` is the eq. 4 blend at that level;
    ``latency[i]``/``origin_load[i]``/``local_fraction[i]``/
    ``peer_fraction[i]`` describe the predicted tier behaviour there;
    ``origin_gain``/``routing_gain`` are the §IV-E gains against the
    non-coordinated ``ℓ = 0`` baseline under the *same* policy.
    """

    policy: str
    levels: np.ndarray
    level: np.ndarray
    storage: np.ndarray
    objective_value: np.ndarray
    latency: np.ndarray
    origin_load: np.ndarray
    local_fraction: np.ndarray
    peer_fraction: np.ndarray
    origin_gain: np.ndarray
    routing_gain: np.ndarray
    iterations: int
    unique_solves: int

    def __len__(self) -> int:
        return int(self.level.size)

    def point_at(self, index: int) -> Mapping[str, float]:
        """Scalar view of one grid point (keys match the array fields)."""
        return {
            "level": float(self.level[index]),
            "storage": float(self.storage[index]),
            "objective_value": float(self.objective_value[index]),
            "latency": float(self.latency[index]),
            "origin_load": float(self.origin_load[index]),
            "local_fraction": float(self.local_fraction[index]),
            "peer_fraction": float(self.peer_fraction[index]),
            "origin_gain": float(self.origin_gain[index]),
            "routing_gain": float(self.routing_gain[index]),
        }


#: Bins that start below this rank add their terms exactly.  Past it,
#: the first Euler–Maclaurin term dropped by :func:`_bin_masses` (B₈)
#: is below 1e-14 of the bin's sum for every s in (0, 2).
_EXACT_HEAD = 64


def _rank_quadrature(
    exponent: float, catalog_size: int, quadrature: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(edges, weights, rates)`` of the log-rank catalog quadrature.

    ``edges`` are integer rank-bin boundaries ``[1, ..., N+1]``;
    ``weights[j]`` counts the ranks of bin ``j`` and ``rates[j]`` is the
    bin's *mean* eq. 1 probability, so ``Σ w_j λ_j = 1`` up to rounding
    and the head bins (where geometric spacing is sub-integer)
    degenerate to exact per-rank bins.  The bins are normalised by
    their own total, so no call builds an O(N) table.
    """
    if catalog_size <= quadrature:
        edges = np.arange(1, catalog_size + 2, dtype=np.int64)
    else:
        edges = np.unique(
            np.round(np.geomspace(1.0, catalog_size + 1.0, quadrature + 1))
        ).astype(np.int64)
        edges[0] = 1
        edges[-1] = catalog_size + 1
    masses = _bin_masses(exponent, edges)
    weights = (edges[1:] - edges[:-1]).astype(np.float64)
    rates = masses / masses.sum() / weights
    return edges, weights, rates


def _bin_masses(exponent: float, edges: np.ndarray) -> np.ndarray:
    """``Σ_{a ≤ j < b} j^(-s)`` for each bin ``[a, b)`` of the rank ``edges``.

    Bins that start below :data:`_EXACT_HEAD` add their terms.  The
    rest use Euler–Maclaurin for ``f(x) = x^(-s)`` to the B₆ term:

        ∫_a^b f + (f(a) - f(b))/2
        + Σ_{k=1..3} B_2k/(2k)! · (f^(2k-1)(b) - f^(2k-1)(a)),

    with the integral written ``a^(1-s)·expm1((1-s)·log(b/a))/(1-s)``
    (``log(b/a)`` at ``s = 1``) so it keeps its precision near s = 1
    and on narrow bins.  Each bin thus keeps its own relative precision
    (within ~1e-15 of ``math.fsum`` of its terms), where differences of
    an O(N) prefix table lose up to ~6e-8 on the tail bins at N = 1e6.
    """
    s = exponent
    head = int(np.searchsorted(edges[:-1], _EXACT_HEAD))
    masses = np.empty(edges.size - 1)
    terms = np.arange(1, edges[head], dtype=np.float64) ** -s
    masses[:head] = np.add.reduceat(terms, edges[:head] - 1)
    a = edges[head:-1].astype(np.float64)
    b = edges[head + 1 :].astype(np.float64)
    log_ratio = np.log1p((b - a) / a)
    rise = 1.0 - s
    if rise == 0.0:
        integral = log_ratio
    else:
        integral = a**rise * np.expm1(rise * log_ratio) / rise
    f_a, f_b = a**-s, b**-s
    inv_a, inv_b = 1.0 / a, 1.0 / b
    # f^(2k-1)(x) = -s(s+1)…(s+2k-2)·f(x)/x^(2k-1); B₂/2! = 1/12,
    # B₄/4! = -1/720, B₆/6! = 1/30240.
    c1 = s / 12.0
    c3 = s * (s + 1.0) * (s + 2.0) / 720.0
    c5 = s * (s + 1.0) * (s + 2.0) * (s + 3.0) * (s + 4.0) / 30240.0
    masses[head:] = (
        integral
        + 0.5 * (f_a - f_b)
        - c1 * (f_b * inv_b - f_a * inv_a)
        + c3 * (f_b * inv_b**3 - f_a * inv_a**3)
        - c5 * (f_b * inv_b**5 - f_a * inv_a**5)
    )
    return masses


def _pinned_fraction(
    edges: np.ndarray, threshold_lo: np.ndarray, threshold_hi: np.ndarray
) -> np.ndarray:
    """Per-bin occupied fraction of pinned rank bands ``(lo, hi]``, one per row.

    The perfect-LFU hit vector: ranks in ``(threshold_lo, threshold_hi]``
    are cached with probability 1, and a threshold falling inside a bin
    covers it fractionally (rank-uniform within the bin).  The
    thresholds are ``(P, 1)`` columns; the result is ``(P, K)``.
    """
    starts = edges[:-1].astype(np.float64)
    ends = edges[1:].astype(np.float64)
    overlap = np.minimum(ends, threshold_hi + 1.0) - np.maximum(
        starts, threshold_lo + 1.0
    )
    return np.clip(overlap, 0.0, None) / (ends - starts)


def _row_hits(rates: np.ndarray, t: np.ndarray, policy: str) -> np.ndarray:
    """Hit probabilities of each row of ``rates`` at its own timer ``t[p]``.

    Row ``p`` equals ``hit_probabilities(rates[p], t[p])``: an infinite
    timer caches every positive-rate bin.
    """
    timed = np.isfinite(t)
    x = rates * np.where(timed, t, 0.0)[:, None]
    return np.where(timed[:, None], _hit_form(x, policy), rates > 0.0)


def _cell_fractions(
    edges: np.ndarray,
    weights: np.ndarray,
    rates: np.ndarray,
    capacity: float,
    n_routers: float,
    level_grid: np.ndarray,
    policy: str,
) -> tuple[np.ndarray, np.ndarray, int]:
    """``(f_local, f_peer, iterations)`` of one unique (s, N, c, n) cell.

    Row ``l`` is level ``level_grid[l]``: a local store of ``c·(1-ℓ)``
    on the full stream and a pool of ``n·c·ℓ`` on its miss stream.  The
    last row is the ℓ = 0 gains baseline.  Each tier's rows are solved
    in one lock-step :func:`solve_fixed_point_batch` call, whose rows
    are bit-identical to scalar :func:`solve_fixed_point` solves.
    ``f_origin`` is recovered as ``1 - f_local - f_peer`` by the caller.
    """
    local_capacity = np.append(capacity * (1.0 - level_grid), capacity)
    pooled_capacity = np.append(n_routers * capacity * level_grid, 0.0)
    rows = (local_capacity.size, rates.size)
    iterations = 0
    if policy == "perfect-lfu":
        h_local = _pinned_fraction(edges, 0.0, local_capacity[:, None])
    else:
        t, its, _ = solve_fixed_point_batch(
            np.broadcast_to(rates, rows),
            local_capacity,
            policy=policy,
            weights=np.broadcast_to(weights, rows),
        )
        iterations += its
        h_local = _row_hits(rates, t, policy)
    miss = 1.0 - h_local
    if policy == "perfect-lfu":
        h_pool = _pinned_fraction(
            edges,
            local_capacity[:, None],
            (local_capacity + pooled_capacity)[:, None],
        )
        # Renormalize: within the pinned band the local tier misses
        # everything, so the conditional pool hit probability is 1.
        with np.errstate(divide="ignore", invalid="ignore"):
            h_pool = np.where(miss > 0.0, np.minimum(h_pool / miss, 1.0), 0.0)
    else:
        pooled_rates = rates * miss
        t, its, _ = solve_fixed_point_batch(
            pooled_rates,
            pooled_capacity,
            policy=policy,
            weights=np.broadcast_to(weights, rows),
        )
        iterations += its
        h_pool = _row_hits(pooled_rates, t, policy)
    served = weights * rates
    f_local = (served * (h_local + miss * h_pool / n_routers)).sum(axis=1)
    f_peer = (served * miss * h_pool * (n_routers - 1.0) / n_routers).sum(axis=1)
    return f_local, f_peer, iterations


def approx_batch(
    grid: ScenarioGrid,
    *,
    policy: str = "lru",
    levels: Optional[Sequence[float]] = None,
    quadrature: int = DEFAULT_QUADRATURE,
) -> ApproxBatchResult:
    """Predict the best coordination level per grid point (module docstring).

    Parameters
    ----------
    grid:
        The Table IV parameter grid (same object the analytical batch
        solver consumes).
    policy:
        Replacement policy of every store: one of :data:`POLICIES`.
    levels:
        Coordination-level grid to evaluate; defaults to 21 uniform
        points on ``[0, 1]``.  ``ℓ = 0`` is always solved internally as
        the §IV-E gains baseline, whether or not it is on the grid.
    quadrature:
        Log-rank catalog quadrature resolution (≥ 16 bins).

    Reports an ``approx.batch`` span with point/solve counters and a
    points/s gauge to :mod:`repro.obs`.
    """
    if not isinstance(grid, ScenarioGrid):
        raise ParameterError(
            f"approx_batch needs a ScenarioGrid, got {type(grid).__name__}"
        )
    policy = policy.strip().lower()
    if policy not in POLICIES:
        raise ParameterError(
            f"unknown replacement policy {policy!r}; expected one of "
            f"{list(POLICIES)}"
        )
    if levels is None:
        level_grid = np.linspace(0.0, 1.0, DEFAULT_LEVEL_COUNT)
    else:
        level_grid = np.asarray(list(levels), dtype=np.float64)
        if level_grid.size == 0:
            raise ParameterError("need at least one coordination level")
        if np.any(~np.isfinite(level_grid)) or np.any(
            (level_grid < 0.0) | (level_grid > 1.0)
        ):
            raise ParameterError("coordination levels must lie in [0, 1]")
    if quadrature < 16:
        raise ParameterError(f"quadrature must be >= 16 bins, got {quadrature}")

    obs = get_session()
    with obs.span("approx.batch") as span:
        result = _approx_batch_impl(grid, policy, level_grid, quadrature)
    if obs.enabled:
        obs.counter("approx.batch.grids").add()
        obs.counter("approx.batch.points").add(len(grid))
        obs.counter("approx.batch.unique_solves").add(result.unique_solves)
        if span.duration_s > 0:
            obs.gauge("approx.batch.points_per_s").set(
                len(grid) / span.duration_s
            )
    return result


def _approx_batch_impl(
    grid: ScenarioGrid,
    policy: str,
    level_grid: np.ndarray,
    quadrature: int,
) -> ApproxBatchResult:
    derived = grid.derived()
    keys = np.stack(
        [grid.exponent, grid.catalog_size, grid.capacity, grid.n_routers],
        axis=1,
    )
    # Unique cells by their raw key bytes: one 32-byte void per row sorts
    # ~7x faster than np.unique(axis=0)'s field-by-field compare.  The
    # cell order does not matter; every key is positive and finite.
    rows = keys.view(np.dtype((np.void, keys.dtype.itemsize * keys.shape[1])))
    _, first, inverse = np.unique(
        rows.ravel(), return_index=True, return_inverse=True
    )
    unique_keys = keys[first]
    n_unique = unique_keys.shape[0]
    n_levels = level_grid.size

    # Tier fractions per (unique cell, level), plus the ℓ = 0 baseline.
    f_local = np.zeros((n_unique, n_levels))
    f_peer = np.zeros((n_unique, n_levels))
    base_local = np.zeros(n_unique)
    iterations = 0
    quad_cache: dict[tuple[float, int], tuple] = {}
    for u in range(n_unique):
        s, n_catalog, capacity, n_routers = unique_keys[u]
        quad_key = (float(s), int(n_catalog))
        quad = quad_cache.get(quad_key)
        if quad is None:
            quad = quad_cache[quad_key] = _rank_quadrature(
                float(s), int(n_catalog), quadrature
            )
        loc, peer, its = _cell_fractions(
            *quad, capacity, n_routers, level_grid, policy
        )
        f_local[u] = loc[:-1]
        f_peer[u] = peer[:-1]
        base_local[u] = loc[-1]
        iterations += its
    unique_solves = n_unique * (n_levels + 1)
    f_origin = np.clip(1.0 - f_local - f_peer, 0.0, 1.0)

    # Scatter to points and combine with the eq. 2/3/4 coefficients.
    d0 = derived["d0"][:, None]
    d1 = derived["d1"][:, None]
    d2 = derived["d2"][:, None]
    p_local = f_local[inverse]
    p_peer = f_peer[inverse]
    p_origin = f_origin[inverse]
    latency = p_local * d0 + p_peer * d1 + p_origin * d2
    storage = level_grid[None, :] * grid.capacity[:, None]
    cost = derived["marginal_cost"][:, None] * storage + derived[
        "fixed_scaled"
    ][:, None]
    objective = combine_objective(grid.alpha[:, None], latency, cost)
    best = np.argmin(objective, axis=1)
    rows = np.arange(len(grid))

    base_origin = np.clip(1.0 - base_local, 0.0, 1.0)[inverse]
    base_latency = (
        base_local[inverse] * derived["d0"]
        + base_origin * derived["d2"]
    )
    best_origin = p_origin[rows, best]
    degenerate = base_origin <= 0.0
    origin_gain = np.where(
        degenerate,
        0.0,
        1.0 - best_origin / np.where(degenerate, 1.0, base_origin),
    )
    routing_gain = 1.0 - latency[rows, best] / base_latency

    arrays = dict(
        levels=np.array(level_grid),
        level=level_grid[best],
        storage=storage[rows, best],
        objective_value=objective[rows, best],
        latency=latency[rows, best],
        origin_load=best_origin,
        local_fraction=p_local[rows, best],
        peer_fraction=p_peer[rows, best],
        origin_gain=origin_gain,
        routing_gain=routing_gain,
    )
    for arr in arrays.values():
        arr.flags.writeable = False
    return ApproxBatchResult(
        policy=policy,
        iterations=iterations,
        unique_solves=unique_solves,
        **arrays,
    )
