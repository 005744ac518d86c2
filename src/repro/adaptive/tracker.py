"""Warm-started strategy tracking for online control loops.

The paper solves the eq. 5/7 optimum once per static scenario; a control
loop re-solves it every tick as its exponent estimate drifts.
:class:`WarmStrategyTracker` makes that cheap: the first solve is a cold
:func:`~repro.core.batch_solver.solve_batch`, every later solve is a
warm :func:`~repro.core.batch_solver.resolve_incremental` seeded from
the previous optimum (1-3 Newton corrections instead of ~40 bisection
sweeps), and estimates inside a dead-band skip the solve entirely —
the eq. 5 optimum is continuous in ``s``, so a sub-dead-band estimate
move cannot change the provisioned level materially.
"""

from __future__ import annotations

from typing import Optional

from ..core.batch_solver import (
    BatchStrategy,
    ScenarioGrid,
    resolve_incremental,
    solve_batch,
)
from ..core.optimizer import OptimalStrategy
from ..core.scenario import Scenario
from ..errors import ParameterError
from ..obs import get_session

__all__ = ["WarmStrategyTracker"]


class WarmStrategyTracker:
    """Tracks the eq. 5 optimum of one scenario under a drifting exponent.

    Parameters
    ----------
    scenario:
        Scenario template supplying every parameter but the exponent.
    dead_band:
        Exponent moves with ``|Δs| <= dead_band`` of the last *solved*
        estimate return the cached strategy without solving (0 still
        deduplicates exactly repeated estimates).  Re-solves happen only
        when the estimate moves *strictly past* the band.

    Attributes
    ----------
    cold_solves / warm_solves / skipped:
        Counters of how each :meth:`solve` call was served — the
        counting model the adaptive equivalence tests assert on.
    """

    def __init__(self, scenario: Scenario, *, dead_band: float = 0.0):
        if dead_band < 0.0:
            raise ParameterError(
                f"dead_band must be non-negative, got {dead_band}"
            )
        self.scenario = scenario
        self.dead_band = float(dead_band)
        self.cold_solves = 0
        self.warm_solves = 0
        self.skipped = 0
        self._grid: Optional[ScenarioGrid] = None
        self._prev: Optional[BatchStrategy] = None
        self._solved_exponent: Optional[float] = None
        self._strategy: Optional[OptimalStrategy] = None

    @property
    def current(self) -> Optional[OptimalStrategy]:
        """The most recently solved strategy (``None`` before any solve)."""
        return self._strategy

    @property
    def solved_exponent(self) -> Optional[float]:
        """The exponent the cached strategy was solved at."""
        return self._solved_exponent

    def solve(self, exponent: float) -> OptimalStrategy:
        """The optimal strategy at ``exponent``, warm or cached.

        Inside the dead-band the cached eq. 5 optimum is returned
        untouched; outside it the single-point grid is re-solved warm
        from the previous optimum (cold only on the very first call).
        The grid is built and validated once, on that first call; a warm
        re-solve swaps in only its exponent column
        (:meth:`~repro.core.batch_solver.ScenarioGrid.replace`).
        """
        if (
            self._strategy is not None
            and abs(exponent - self._solved_exponent) <= self.dead_band
        ):
            self.skipped += 1
            obs = get_session()
            if obs.enabled:
                obs.counter("adaptive.tracker.skipped").add()
            return self._strategy
        obs = get_session()
        if self._grid is None:
            grid = ScenarioGrid.from_product(self.scenario, exponent=[exponent])
            batch = solve_batch(grid, warm_start=False, check_conditions=False)
            self.cold_solves += 1
            if obs.enabled:
                obs.counter("adaptive.tracker.cold_solves").add()
        else:
            grid = self._grid.replace(exponent=exponent)
            batch = resolve_incremental(grid, self._prev, check_conditions=False)
            self.warm_solves += 1
            if obs.enabled:
                obs.counter("adaptive.tracker.warm_solves").add()
        self._grid = grid
        self._prev = batch
        self._solved_exponent = float(exponent)
        self._strategy = batch.strategy_at(0)
        return self._strategy
