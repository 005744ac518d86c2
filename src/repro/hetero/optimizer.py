"""Optimal per-router provisioning for the heterogeneous model.

Solves ``min_{0 ≤ x_i ≤ c_i} α·T̄(x) + (1-α)·W(x)`` (the §VII
"heterogeneous storage capability" extension) with scipy's SLSQP, and
provides two restricted baselines for comparison:

- ``uniform-level`` — one scalar level ``ℓ`` with ``x_i = ℓ·c_i``
  (the closest analogue of the paper's homogeneous strategy);
- ``equal-share`` — one scalar ``x`` with ``x_i = min(x, c_i)``.

The free per-router optimum can only improve on both; the benchmark
quantifies by how much as capacity dispersion grows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ParameterError
from .model import HeterogeneousModel

__all__ = ["HeterogeneousStrategy", "optimize_shares", "optimize_uniform_level"]


@dataclass(frozen=True)
class HeterogeneousStrategy:
    """A solved heterogeneous provisioning plan.

    Attributes
    ----------
    shares:
        Optimal coordinated slots per router ``x_i``.
    levels:
        Per-router coordination levels ``x_i / c_i``.
    objective_value:
        The achieved objective.
    method:
        Solver identifier.
    """

    shares: tuple[float, ...]
    levels: tuple[float, ...]
    objective_value: float
    method: str

    @property
    def total_coordinated(self) -> float:
        """``Σ x_i`` — the coordinated pool size."""
        return float(sum(self.shares))

    @property
    def mean_level(self) -> float:
        """Unweighted mean of the per-router coordination levels."""
        return float(np.mean(self.levels))


def optimize_shares(
    model: HeterogeneousModel,
    *,
    restarts: int = 4,
    tolerance: float = 1e-10,
) -> HeterogeneousStrategy:
    """Free per-router optimization via SLSQP with multi-start.

    The objective is convex in each coordinate but the ``max_i l_i``
    pool-start term makes it only piecewise smooth, so we restart from
    several structured initial points (all-zero, all-full, uniform
    half, capacity-proportional) and keep the best.
    """
    if restarts < 1:
        raise ParameterError(f"need at least one restart, got {restarts}")
    caps = np.asarray(model.capacities)
    n = len(caps)
    bounds = [(0.0, float(c)) for c in caps]
    # Seed from the best uniform level too, and keep it as a candidate:
    # the free optimum can then never lose to the restricted strategy.
    uniform = optimize_uniform_level(model, resolution=401)
    starts = [
        np.asarray(uniform.shares),
        np.zeros(n),
        caps.copy(),
        0.5 * caps,
        caps * (caps / caps.max()) * 0.5,
    ][: restarts + 1]

    # scipy.optimize is imported on first use, not with the package.
    from scipy import optimize

    best_x: np.ndarray = np.asarray(uniform.shares)
    best_value = float(model.objective(best_x))
    for start in starts:
        result = optimize.minimize(
            model.objective,
            start,
            method="SLSQP",
            bounds=bounds,
            options={"maxiter": 500, "ftol": tolerance},
        )
        if not np.isfinite(result.fun):
            continue
        candidate = np.clip(result.x, 0.0, caps)
        value = float(model.objective(candidate))
        if value < best_value:
            best_value = value
            best_x = candidate
    levels = model.levels_of(best_x)
    return HeterogeneousStrategy(
        shares=tuple(float(v) for v in best_x),
        levels=tuple(float(v) for v in levels),
        objective_value=best_value,
        method="slsqp",
    )


def optimize_uniform_level(
    model: HeterogeneousModel, *, resolution: int = 2001
) -> HeterogeneousStrategy:
    """Best single level ``ℓ`` with ``x_i = ℓ·c_i`` (grid + refine).

    This is the strategy a carrier applying the paper's homogeneous
    result to a heterogeneous network would deploy.  The grid scan is
    one vectorized :meth:`~repro.hetero.model.HeterogeneousModel.objective_levels`
    call; only the bracketing refinement stays scalar.
    """
    if resolution < 2:
        raise ParameterError(f"resolution must be at least 2, got {resolution}")
    levels = np.linspace(0.0, 1.0, resolution)
    values = model.objective_levels(levels)
    k = int(np.argmin(values))
    lo = levels[max(k - 1, 0)]
    hi = levels[min(k + 1, resolution - 1)]
    from scipy import optimize

    refine = optimize.minimize_scalar(
        lambda l: model.objective(model.uniform_shares(float(l))),
        bounds=(float(lo), float(hi)),
        method="bounded",
    )
    level = float(refine.x) if refine.success else float(levels[k])
    if model.objective(model.uniform_shares(float(levels[k]))) < model.objective(
        model.uniform_shares(level)
    ):
        level = float(levels[k])
    shares = model.uniform_shares(level)
    return HeterogeneousStrategy(
        shares=tuple(float(v) for v in shares),
        levels=tuple(float(v) for v in model.levels_of(shares)),
        objective_value=float(model.objective(shares)),
        method="uniform-level",
    )
