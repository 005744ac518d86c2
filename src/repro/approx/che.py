"""Che/TTL characteristic-time fixed points (networks-of-caches layer).

The paper's analytical model (eqs. 5-7) covers only provisioned
placements; the *dynamic* replacement policies it simulates (LRU,
Random, FIFO) admit a classical approximation instead of a closed form:
Che's characteristic time.  A cache of capacity ``C`` serving IRM
arrivals with per-content rates ``λ_i`` behaves like a TTL cache whose
timer ``T_C`` solves the occupancy fixed point

.. math::

    \\sum_i h_i(λ_i T_C) = C,

where the per-policy hit probability is

- **LRU** (Che & Tung):      ``h_i = 1 - exp(-λ_i T_C)``,
- **Random/FIFO** (Gallo et al., "Performance Evaluation of the Random
  Replacement Policy for Networks of Caches", see PAPERS.md):
  ``h_i = λ_i T_C / (1 + λ_i T_C)`` — under IRM the FIFO and Random
  eviction chains have the same stationary occupancy, so both map to
  the same formula,
- **perfect-LFU**: the degenerate limit — the top-``C`` contents are
  pinned, exactly the provisioned steady state of the paper's model.

``Σ_i h_i`` is continuous and strictly increasing in ``T_C`` wherever
some rate is positive, so the root is unique; :func:`solve_fixed_point`
finds it with a damped Newton iteration safeguarded by a maintained
bisection bracket, vectorized over the whole catalog (and, in the
``_batch`` variant, over whole scenario grids at once).

All formulas are scale-invariant in the rates (only the products
``λ_i·T_C`` matter), so callers may pass unnormalized rate vectors;
the returned ``T_C`` is then expressed in the reciprocal unit.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..core.validation import require_finite
from ..core.zipf import register_zipf_cache_clearer, validate_exponent, zipf_tables
from ..errors import ConvergenceError, ParameterError
from ..obs import get_session, register_provider

__all__ = [
    "POLICIES",
    "CharacteristicTime",
    "hit_probabilities",
    "solve_fixed_point",
    "solve_fixed_point_batch",
    "characteristic_time",
    "approx_memo_stats",
    "clear_approx_caches",
]

#: Replacement policies with a Che/TTL hit-probability form.  ``fifo``
#: aliases ``random`` (identical stationary occupancy under IRM);
#: ``perfect-lfu`` is handled as the pinned top-``C`` limit without a
#: timer.  In-cache ``lfu`` has no stationary TTL description (its state
#: depends on the full request history), so it is rejected.
POLICIES = ("lru", "random", "fifo", "perfect-lfu")

#: Convergence thresholds of the occupancy fixed point: the residual
#: ``|Σh - C|`` must drop below ``OCCUPANCY_TOLERANCE`` (absolute, in
#: cache slots) within ``MAX_FIXED_POINT_ITERATIONS`` damped-Newton
#: steps.  40 doubling steps bracket any representable root, and Newton
#: then converges quadratically, so the cap is generous.
OCCUPANCY_TOLERANCE = 1e-9
MAX_FIXED_POINT_ITERATIONS = 200

#: Memoized characteristic times keyed
#: ``(policy, exponent, catalog_size, capacity)`` — pure derived values
#: of the eq. 1 tables, so :func:`repro.core.zipf.clear_zipf_caches`
#: clears this memo too (registered below).
_CHARACTERISTIC_CACHE: "OrderedDict[tuple, float]" = OrderedDict()
_CHARACTERISTIC_CACHE_MAX = 512

_MEMO_STATS = {"hits": 0, "misses": 0}


def clear_approx_caches() -> None:
    """Drop the characteristic-time memo (and reset its counters)."""
    _CHARACTERISTIC_CACHE.clear()
    _MEMO_STATS["hits"] = 0
    _MEMO_STATS["misses"] = 0


def approx_memo_stats() -> dict:
    """Hit/miss statistics of the characteristic-time memo."""
    return {
        "hits": _MEMO_STATS["hits"],
        "misses": _MEMO_STATS["misses"],
        "entries": len(_CHARACTERISTIC_CACHE),
    }


def _approx_obs_provider() -> dict:
    """Obs provider: the fixed-point memo counters as per-process values."""
    stats = approx_memo_stats()
    return {
        "approx.memo.hits": stats["hits"],
        "approx.memo.misses": stats["misses"],
    }


register_provider("approx", _approx_obs_provider)
register_zipf_cache_clearer(clear_approx_caches)


def _validate_policy(policy: str) -> str:
    policy = policy.strip().lower()
    if policy not in POLICIES:
        raise ParameterError(
            f"no characteristic-time form for policy {policy!r}; "
            f"expected one of {POLICIES} (in-cache 'lfu' has no "
            f"stationary TTL description — use 'perfect-lfu')"
        )
    return policy


@dataclass(frozen=True)
class CharacteristicTime:
    """One solved occupancy fixed point.

    Attributes
    ----------
    value:
        The characteristic time ``T_C`` in reciprocal rate units
        (``0`` for an empty cache, ``inf`` when the cache holds the
        whole support).
    policy:
        The replacement policy the hit form belongs to.
    capacity:
        The occupancy target ``C`` the root satisfies.
    iterations:
        Damped-Newton steps spent (0 on the degenerate branches).
    residual:
        ``|Σ_i h_i(λ_i T_C) - C|`` at the returned root.
    """

    value: float
    policy: str
    capacity: float
    iterations: int
    residual: float


def hit_probabilities(
    rates: np.ndarray, t_c: float, *, policy: str = "lru"
) -> np.ndarray:
    """Per-content hit probabilities ``h_i(λ_i T_C)`` for one cache.

    Implements the Che (LRU) and Gallo et al. (Random/FIFO) forms
    quoted in the module docstring (see PAPERS.md); ``perfect-lfu``
    has no timer and is resolved by rank in the callers.
    """
    policy = _validate_policy(policy)
    if policy == "perfect-lfu":
        raise ParameterError(
            "perfect-lfu pins the top-C contents and has no characteristic "
            "time; resolve its hit vector by rank instead"
        )
    rates = np.asarray(rates, dtype=np.float64)
    if np.any(rates < 0.0) or np.any(~np.isfinite(rates)):
        raise ParameterError("arrival rates must be finite and non-negative")
    if t_c < 0.0:
        raise ParameterError(f"characteristic time must be non-negative, got {t_c}")
    if math.isinf(t_c):
        return np.where(rates > 0.0, 1.0, 0.0)
    return _hit_form(rates * t_c, policy)


def _hit_form(x: np.ndarray, policy: str) -> np.ndarray:
    """The policy's hit probability ``h(x)`` at ``x = λ_i T`` (finite ``T``)."""
    if policy == "lru":
        return -np.expm1(-x)
    return x / (1.0 + x)


def _occupancy(
    x: np.ndarray, weights: Optional[np.ndarray], policy: str, axis: int = -1
) -> np.ndarray:
    """``Σ_i w_i h_i`` and its derivative factor input ``x = λ_i T``."""
    h = _hit_form(x, policy)
    if weights is not None:
        h = h * weights
    return h.sum(axis=axis)


def _occupancy_slope(
    x: np.ndarray,
    rates: np.ndarray,
    weights: Optional[np.ndarray],
    policy: str,
    axis: int = -1,
) -> np.ndarray:
    """``d/dT Σ_i w_i h_i(λ_i T)`` evaluated at ``x = λ_i T``."""
    if policy == "lru":
        slope = rates * np.exp(-x)
    else:
        slope = rates / (1.0 + x) ** 2
    if weights is not None:
        slope = slope * weights
    return slope.sum(axis=axis)


def solve_fixed_point(
    rates: np.ndarray,
    capacity: float,
    *,
    policy: str = "lru",
    weights: Optional[np.ndarray] = None,
    tolerance: float = OCCUPANCY_TOLERANCE,
    max_iterations: int = MAX_FIXED_POINT_ITERATIONS,
) -> CharacteristicTime:
    """Solve ``Σ_i w_i h_i(λ_i T) = C`` for one cache (module docstring).

    Parameters
    ----------
    rates:
        Per-content arrival rates ``λ_i`` (any non-negative scale).
    capacity:
        Target occupancy ``C >= 0`` in slots; clamped branches handle
        ``C = 0`` (empty, ``T = 0``) and ``C >=`` the weighted support
        size (everything cached, ``T = inf``).
    policy:
        ``"lru"`` / ``"random"`` / ``"fifo"`` (see :data:`POLICIES`).
    weights:
        Optional per-entry multiplicities (the quadrature path of the
        batched grid solver); ``None`` means unit weight per content.
    tolerance / max_iterations:
        Residual target and damped-Newton step cap; a bracket that
        fails to converge raises :class:`~repro.errors.ConvergenceError`.
    """
    policy = _validate_policy(policy)
    if policy == "perfect-lfu":
        raise ParameterError(
            "perfect-lfu has no occupancy fixed point; its hit vector is "
            "the top-C indicator"
        )
    capacity = require_finite(capacity, "cache capacity")
    if capacity < 0.0:
        raise ParameterError(f"cache capacity must be non-negative, got {capacity}")
    rates = np.asarray(rates, dtype=np.float64)
    if rates.ndim != 1:
        raise ParameterError(f"rates must be a 1-D vector, got shape {rates.shape}")
    if np.any(rates < 0.0) or np.any(~np.isfinite(rates)):
        raise ParameterError("arrival rates must be finite and non-negative")
    if weights is not None:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != rates.shape:
            raise ParameterError(
                f"weights shape {weights.shape} does not match rates "
                f"shape {rates.shape}"
            )
        if np.any(weights < 0.0) or np.any(~np.isfinite(weights)):
            raise ParameterError("weights must be finite and non-negative")
    active = rates > 0.0
    support = (
        float(np.count_nonzero(active))
        if weights is None
        else float(weights[active].sum())
    )
    if capacity <= 0.0:
        return CharacteristicTime(0.0, policy, capacity, 0, capacity)
    if capacity >= support:
        # Everything with positive rate fits: the timer never expires.
        return CharacteristicTime(
            math.inf, policy, capacity, 0, abs(support - capacity)
        )
    total_rate = (
        float(rates.sum()) if weights is None else float((rates * weights).sum())
    )
    # Small-T linearization Σwh ≈ T·Σwλ underestimates the root for both
    # concave hit forms, so it seeds the lower bracket edge; doubling
    # finds the upper edge.
    t_lo, t_hi = 0.0, capacity / total_rate
    for _ in range(1024):
        if _occupancy(rates * t_hi, weights, policy) >= capacity:
            break
        t_lo = t_hi
        t_hi *= 2.0
    t = 0.5 * (t_lo + t_hi)
    iterations = 0
    residual = math.inf
    for iterations in range(1, max_iterations + 1):
        x = rates * t
        g = _occupancy(x, weights, policy) - capacity
        residual = abs(float(g))
        if residual <= tolerance:
            break
        if g > 0.0:
            t_hi = t
        else:
            t_lo = t
        slope = float(_occupancy_slope(x, rates, weights, policy))
        step = t - g / slope if slope > 0.0 else math.nan
        # Damping: fall back to the bracket midpoint whenever Newton
        # leaves the bracket (or the slope degenerates).
        t = step if t_lo < step < t_hi else 0.5 * (t_lo + t_hi)
    else:
        raise ConvergenceError(
            f"characteristic-time fixed point did not reach |residual| <= "
            f"{tolerance} within {max_iterations} iterations "
            f"(policy {policy!r}, C={capacity}, residual={residual:.3e})"
        )
    obs = get_session()
    if obs.enabled:
        obs.counter("approx.fixed_point.iterations").add(iterations)
        obs.counter("approx.fixed_point.solves").add()
        obs.gauge("approx.fixed_point.residual").set(residual)
    return CharacteristicTime(float(t), policy, capacity, iterations, residual)


def solve_fixed_point_batch(
    rates: np.ndarray,
    capacities: np.ndarray,
    *,
    policy: str = "lru",
    weights: Optional[np.ndarray] = None,
    tolerance: float = OCCUPANCY_TOLERANCE,
    max_iterations: int = MAX_FIXED_POINT_ITERATIONS,
) -> tuple[np.ndarray, int, np.ndarray]:
    """Vectorized :func:`solve_fixed_point` over a stack of caches.

    ``rates`` has shape ``(P, K)`` — one row of per-content arrival
    rates per cache — and ``capacities`` shape ``(P,)``.  The rows that
    still need a root iterate in lock step, and each row sees exactly
    the float64 operations of :func:`solve_fixed_point`, so its ``T``
    and residual are bit-identical to the scalar solve.  A row leaves
    the sweep once it converges; degenerate rows never enter it.
    Returns ``(T, iterations, residuals)`` where ``T[p]`` may be
    ``0``/``inf`` on the degenerate branches and ``iterations`` sums
    the damped-Newton steps of all rows, as the scalar solves would.
    """
    policy = _validate_policy(policy)
    if policy == "perfect-lfu":
        raise ParameterError(
            "perfect-lfu has no occupancy fixed point; its hit vector is "
            "the top-C indicator"
        )
    rates = np.asarray(rates, dtype=np.float64)
    if rates.ndim != 2:
        raise ParameterError(f"rates must be (P, K), got shape {rates.shape}")
    capacities = np.asarray(capacities, dtype=np.float64)
    if capacities.shape != (rates.shape[0],):
        raise ParameterError(
            f"capacities shape {capacities.shape} does not match "
            f"{rates.shape[0]} rate rows"
        )
    if np.any(rates < 0.0) or np.any(~np.isfinite(rates)):
        raise ParameterError("arrival rates must be finite and non-negative")
    if np.any(capacities < 0.0) or np.any(~np.isfinite(capacities)):
        raise ParameterError("capacities must be finite and non-negative")
    if weights is not None:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != rates.shape:
            raise ParameterError(
                f"weights shape {weights.shape} does not match rates "
                f"shape {rates.shape}"
            )
        if np.any(weights < 0.0) or np.any(~np.isfinite(weights)):
            raise ParameterError("weights must be finite and non-negative")
    support = (
        (rates > 0.0).sum(axis=1).astype(np.float64)
        if weights is None
        else np.where(rates > 0.0, weights, 0.0).sum(axis=1)
    )
    t = np.zeros(rates.shape[0], dtype=np.float64)
    empty = capacities <= 0.0
    full = ~empty & (capacities >= support)
    t[full] = np.inf
    residuals = np.zeros(rates.shape[0], dtype=np.float64)
    residuals[full] = np.abs(support[full] - capacities[full])
    iterations = 0
    rows = np.flatnonzero(~(empty | full))
    if rows.size:
        # Only the rows being solved are swept, so no sweep multiplies a
        # finished row's infinite T by a zero rate.
        rate = rates[rows]
        weight = None if weights is None else weights[rows]
        capacity = capacities[rows]
        total_rate = rate.sum(axis=1) if weight is None else (rate * weight).sum(axis=1)
        t_lo = np.zeros(rows.size, dtype=np.float64)
        t_hi = capacity / total_rate
        for _ in range(1024):
            grow = _occupancy(rate * t_hi[:, None], weight, policy) < capacity
            if not np.any(grow):
                break
            t_lo[grow] = t_hi[grow]
            t_hi[grow] *= 2.0
        t_row = 0.5 * (t_lo + t_hi)
        for _ in range(max_iterations):
            iterations += rows.size
            x = rate * t_row[:, None]
            g = _occupancy(x, weight, policy) - capacity
            res = np.abs(g)
            done = res <= tolerance
            if np.any(done):
                t[rows[done]] = t_row[done]
                residuals[rows[done]] = res[done]
                keep = ~done
                if not np.any(keep):
                    break
                rows, rate, capacity, t_row, t_lo, t_hi, x, g = (
                    column[keep]
                    for column in (rows, rate, capacity, t_row, t_lo, t_hi, x, g)
                )
                weight = None if weight is None else weight[keep]
            above = g > 0.0
            t_hi = np.where(above, t_row, t_hi)
            t_lo = np.where(above, t_lo, t_row)
            slope = _occupancy_slope(x, rate, weight, policy)
            with np.errstate(divide="ignore", invalid="ignore"):
                step = t_row - g / slope
            inside = (slope > 0.0) & (t_lo < step) & (step < t_hi)
            t_row = np.where(inside, step, 0.5 * (t_lo + t_hi))
        else:
            raise ConvergenceError(
                f"batched characteristic-time solve left "
                f"{rows.size} of {rates.shape[0]} caches above "
                f"|residual| = {tolerance} after {max_iterations} iterations"
            )
    obs = get_session()
    if obs.enabled:
        obs.counter("approx.fixed_point.iterations").add(iterations)
        obs.counter("approx.fixed_point.solves").add(int(rates.shape[0]))
        obs.gauge("approx.fixed_point.residual").set(float(residuals.max()))
    return t, iterations, residuals


def characteristic_time(
    exponent: float,
    catalog_size: int,
    capacity: float,
    *,
    policy: str = "lru",
) -> float:
    """Memoized ``T_C`` of one cache under exact Zipf(``s``, ``N``) IRM.

    The arrival vector is the discrete eq. 1 pmf served read-only from
    the :func:`repro.core.zipf.zipf_tables` memo (``s = 1`` included —
    the discrete tables carry the singularity exactly, no eq. 6
    continuous approximation involved), so ``T_C`` is expressed in
    units of mean inter-request time.  Results are memoized per
    ``(policy, s, N, C)``; :func:`repro.core.zipf.clear_zipf_caches`
    clears this memo along with the tables it derives from.
    """
    policy = _validate_policy(policy)
    exponent = validate_exponent(exponent, allow_one=True)
    capacity = require_finite(capacity, "cache capacity")
    if capacity < 0.0:
        raise ParameterError(f"cache capacity must be non-negative, got {capacity}")
    key = (policy, exponent, int(catalog_size), capacity)
    cached = _CHARACTERISTIC_CACHE.get(key)
    if cached is not None:
        _MEMO_STATS["hits"] += 1
        _CHARACTERISTIC_CACHE.move_to_end(key)
        return cached
    _MEMO_STATS["misses"] += 1
    pmf, _ = zipf_tables(exponent, catalog_size)
    if policy == "perfect-lfu":
        raise ParameterError(
            "perfect-lfu has no characteristic time; its hit vector is "
            "the top-C indicator"
        )
    solved = solve_fixed_point(pmf, capacity, policy=policy)
    self_cache = _CHARACTERISTIC_CACHE
    self_cache[key] = solved.value
    while len(self_cache) > _CHARACTERISTIC_CACHE_MAX:
        self_cache.popitem(last=False)
    return solved.value
