"""Generic parameter-sweep engine for the evaluation figures.

Every figure of the paper is a family of 1-D sweeps: one scenario
field varies along the x-axis, one field distinguishes the curves, and
some scalar of the solved optimum (``ℓ*``, ``G_O`` or ``G_R``) is the
y-value.  :func:`sweep` runs exactly that and returns structured
:class:`Series`/:class:`FigureData` objects the benchmarks and the CLI
render.

``solver=`` is the one knob that picks how a grid is answered (see
:data:`SOLVERS`).  The default, ``"batched"``, hands the whole grid to
:func:`repro.core.batch_solver.solve_batch` as one structure-of-arrays
solve (~40 array bisection iterations total); ``"scalar"`` solves each
point with the :func:`~repro.core.optimizer.optimal_strategy` oracle;
``"approx"`` answers from the Che/TTL approximation layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Sequence

from ..approx.batch import approx_batch
from ..core.batch_solver import ScenarioGrid, evaluate_gains_batch, solve_batch
from ..core.gains import evaluate_gains
from ..core.optimizer import optimal_strategy
from ..core.scenario import Scenario
from ..errors import ParameterError
from ..obs import get_session

__all__ = [
    "Series",
    "FigureData",
    "QUANTITIES",
    "SOLVERS",
    "solve_quantity",
    "sweep",
]


@dataclass(frozen=True)
class Series:
    """One labelled curve: parallel x and y sequences."""

    label: str
    x: tuple[float, ...]
    y: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.x) != len(self.y):
            raise ParameterError(
                f"series {self.label!r} has mismatched lengths "
                f"({len(self.x)} x vs {len(self.y)} y)"
            )

    def y_at(self, x_value: float, *, tolerance: float = 1e-9) -> float:
        """The y value at an exact x grid point."""
        for xv, yv in zip(self.x, self.y):
            if abs(xv - x_value) <= tolerance:
                return yv
        raise ParameterError(f"x = {x_value} is not a grid point of {self.label!r}")

    def is_monotone_increasing(self, *, tolerance: float = 1e-9) -> bool:
        """Whether the curve never decreases (up to tolerance)."""
        return all(b >= a - tolerance for a, b in zip(self.y, self.y[1:]))

    def is_monotone_decreasing(self, *, tolerance: float = 1e-9) -> bool:
        """Whether the curve never increases (up to tolerance)."""
        return all(b <= a + tolerance for a, b in zip(self.y, self.y[1:]))


@dataclass(frozen=True)
class FigureData:
    """All series of one reproduced figure, plus axis metadata."""

    figure_id: str
    title: str
    xlabel: str
    ylabel: str
    series: tuple[Series, ...]
    parameters: Mapping[str, object] = field(default_factory=dict)

    def series_by_label(self, label: str) -> Series:
        """Find a series by its label."""
        for s in self.series:
            if s.label == label:
                return s
        raise ParameterError(
            f"figure {self.figure_id} has no series labelled {label!r}"
        )


def _solve_level(scenario: Scenario) -> float:
    return optimal_strategy(scenario.model(), check_conditions=False).level


def _solve_origin_gain(scenario: Scenario) -> float:
    model = scenario.model()
    strategy = optimal_strategy(model, check_conditions=False)
    return evaluate_gains(model, strategy).origin_load_reduction


def _solve_routing_gain(scenario: Scenario) -> float:
    model = scenario.model()
    strategy = optimal_strategy(model, check_conditions=False)
    return evaluate_gains(model, strategy).routing_improvement


#: Named y-axis quantities a sweep can compute from a scenario.
QUANTITIES: Mapping[str, Callable[[Scenario], float]] = {
    "level": _solve_level,
    "origin_gain": _solve_origin_gain,
    "routing_gain": _solve_routing_gain,
}

def solve_quantity(scenario: Scenario, quantity: str) -> float:
    """Solve one scenario for one named quantity (``level``, ``origin_gain``, ``routing_gain``)."""
    try:
        fn = QUANTITIES[quantity]
    except KeyError:
        raise ParameterError(
            f"unknown quantity {quantity!r}; expected one of {sorted(QUANTITIES)}"
        )
    return fn(scenario)


def _solve_scalar(scenarios: Sequence[Scenario], quantity: str) -> list[float]:
    """Per-point scalar solve with a per-point span (no-op cheap by default)."""
    obs = get_session()
    results = []
    for scenario in scenarios:
        with obs.span("sweep.point"):
            results.append(solve_quantity(scenario, quantity))
    return results


def _solve_batched(scenarios: Sequence[Scenario], quantity: str) -> list[float]:
    """Vectorized grid solve: one batched eq. 5 pass over all points.

    Columnizes the scenarios into a
    :class:`~repro.core.batch_solver.ScenarioGrid` and solves every
    point with a single :func:`~repro.core.batch_solver.solve_batch`
    call (which records its own ``solver.batch`` span and points/s
    gauge); results are ordered like ``scenarios``.
    """
    grid = ScenarioGrid.from_scenarios(scenarios)
    strategy = solve_batch(grid, check_conditions=False)
    if quantity == "level":
        ys = strategy.level
    elif quantity == "origin_gain":
        ys = evaluate_gains_batch(grid, strategy).origin_load_reduction
    else:
        ys = evaluate_gains_batch(grid, strategy).routing_improvement
    return [float(y) for y in ys]


def _solve_approx(scenarios: Sequence[Scenario], quantity: str) -> list[float]:
    """Whole-grid solve through the Che/TTL approximation layer.

    Columnizes the scenarios exactly like :func:`_solve_batched` but
    hands the grid to :func:`repro.approx.batch.approx_batch`, which
    re-optimizes the coordination level per point under approximated
    LRU dynamics (memoized per-``(N, s, c, n)`` fixed points; records
    its own ``approx.batch`` span and points/s gauge).  The three sweep
    quantities map directly onto the result columns.
    """
    grid = ScenarioGrid.from_scenarios(scenarios)
    result = approx_batch(grid)
    if quantity == "level":
        ys = result.level
    elif quantity == "origin_gain":
        ys = result.origin_gain
    else:
        ys = result.routing_gain
    return [float(y) for y in ys]


_SOLVE_GRID: Mapping[str, Callable[[Sequence[Scenario], str], list[float]]] = {
    "batched": _solve_batched,
    "scalar": _solve_scalar,
    "approx": _solve_approx,
}

#: Back-end selectors for :func:`sweep`; the first is the default.
#: ``"batched"`` solves the whole grid with one vectorized eq. 5 pass;
#: ``"scalar"`` solves point by point with the scalar oracle (one
#: ``sweep.point`` span each); ``"approx"`` swaps the closed-form model
#: for the Che/TTL approximation layer
#: (:func:`repro.approx.batch.approx_batch`), answering the same three
#: quantities under *dynamic* replacement (LRU by default) instead of
#: the paper's idealized placement.
SOLVERS = tuple(_SOLVE_GRID)


def sweep(
    base: Scenario,
    *,
    x_field: str,
    x_values: Sequence[float],
    quantity: str,
    curve_field: Optional[str] = None,
    curve_values: Sequence[float] = (),
    curve_label: Optional[Callable[[float], str]] = None,
    solver: str = "batched",
) -> tuple[Series, ...]:
    """Run a 1-D sweep, optionally fanned out into multiple curves.

    Parameters
    ----------
    base:
        The scenario supplying every non-swept parameter.
    x_field / x_values:
        The scenario field for the x-axis and its grid.
    quantity:
        Which y-quantity to solve (a key of :data:`QUANTITIES`).
    curve_field / curve_values:
        Optional second field: one :class:`Series` per value.
    curve_label:
        Formats a curve value into a series label; defaults to
        ``"{field}={value}"``.
    solver:
        Which solver backs the y-values (one of :data:`SOLVERS`).
        ``"batched"`` (the default) solves the grid in one vectorized
        pass; ``"scalar"`` solves it point by point with the scalar
        oracle, and agrees with ``"batched"`` per point to well below
        1e-9 (bit-identical except where Theorem 2 warm starts shrink
        the bisection bracket); ``"approx"`` answers the same
        quantities from the Che/TTL approximation of LRU dynamics
        (:mod:`repro.approx`).  Grid order is preserved in every mode.
    """
    if quantity not in QUANTITIES:
        raise ParameterError(
            f"unknown quantity {quantity!r}; expected one of {sorted(QUANTITIES)}"
        )
    if solver not in SOLVERS:
        raise ParameterError(
            f"unknown solver {solver!r}; expected one of {list(SOLVERS)}"
        )
    if solver == "approx" and type(base) is not Scenario:
        raise ParameterError(
            "solver='approx' solves plain Scenario grids only; "
            f"got {type(base).__name__} — heterogeneous (repro.hetero) and "
            "adaptive (repro.adaptive) scenario types have no "
            "Che-approximation path yet"
        )
    if curve_field is None:
        curve_values = (None,)  # type: ignore[assignment]

    def label_for(value: object) -> str:
        if curve_field is None:
            return quantity
        if curve_label is not None:
            return curve_label(value)  # type: ignore[arg-type]
        return f"{curve_field}={value}"

    scenarios: list[Scenario] = []
    for curve_value in curve_values:
        scenario = (
            base
            if curve_field is None
            else base.replace(**{curve_field: curve_value})
        )
        scenarios.extend(scenario.replace(**{x_field: xv}) for xv in x_values)
    obs = get_session()
    with obs.span("sweep.grid"):
        ys = _SOLVE_GRID[solver](scenarios, quantity)
    if obs.enabled:
        obs.counter("sweep.grid_points").add(len(scenarios))
        obs.counter("sweep.grids").add()

    result: list[Series] = []
    n_x = len(x_values)
    for i, curve_value in enumerate(curve_values):
        result.append(
            Series(
                label=label_for(curve_value),
                x=tuple(float(v) for v in x_values),
                y=tuple(ys[i * n_x : (i + 1) * n_x]),
            )
        )
    return tuple(result)
