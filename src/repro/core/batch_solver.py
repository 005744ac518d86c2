"""Vectorized batch solver for the optimal strategy (paper §IV, eqs. 5–8).

Every figure, sweep and sensitivity scan of the paper evaluates the same
optimum at many parameter points.  The scalar solvers in
:mod:`repro.core.optimizer` bisect one instance at a time (~40 Python
iterations each); this module holds a *structure-of-arrays* scenario
grid (:class:`ScenarioGrid`, one numpy column per Table IV parameter)
and bisects **all** points simultaneously: the exact first-order
condition (Appendix A, eq. 10) is evaluated as an array expression, so
a whole grid converges in ~40 vectorized iterations instead of
``40·|grid|`` scalar objective calls.  The Lemma 2 (eq. 7) and Theorem 2
(eq. 8) references stay scalar, in :mod:`repro.core.optimizer`.

Equivalence contract (mirrors the PR 2/4 simulation kernels):

- the scalar :func:`~repro.core.optimizer.optimal_strategy` remains the
  oracle; with ``warm_start=False`` the batched first-order path
  performs the *same* float64 operations in the same order per point
  and is bit-identical to it;
- with Theorem 2 closed-form warm starts (``α ≈ 1``) the bracket is
  pre-shrunk, so results agree with the oracle to within the solver
  tolerance: ≤1e-9 in level, ≤1e-9·max(1, c) in storage, ≤1e-9 in
  objective and gains (tests enforce exactly this);
- per-point boundary masks reproduce ``optimal_strategy``'s ``α = 0``
  shortcut and clip-at-``c`` handling exactly, and
  :func:`existence_mask` reproduces Lemma 1's conditions per point.

All derived coefficient columns are memoized on the grid and served as
*read-only* arrays (like the eq. 1 tables in :mod:`repro.core.zipf`), so
an aliasing caller can never corrupt a cached coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Optional, Sequence, Union

import numpy as np

from ..errors import (
    ConvergenceError,
    ExistenceConditionError,
    ParameterError,
)
from ..obs import get_session
from .conditions import MIN_LARGE_CATALOG, check_existence
from .gains import PerformanceGains
from .latency import tier_latencies_from_gamma
from .objective import combine_objective
from .optimizer import LEVEL_TOLERANCE, MAX_BISECTION_ITERATIONS, OptimalStrategy
from .scenario import BALANCED_COST_SCALE, Scenario
from .validation import SINGULARITY_TOLERANCE
from .zipf import continuous_cdf_columns, continuous_normalizer_columns

__all__ = [
    "ScenarioGrid",
    "BatchStrategy",
    "BatchGains",
    "WARM_START_MIN_ALPHA",
    "solve_batch",
    "resolve_incremental",
    "evaluate_gains_batch",
    "existence_mask",
    "mean_latency_batch",
    "coordination_cost_batch",
]

#: Minimum per-point ``α`` at which Theorem 2's closed form is a useful
#: bracket predictor: the closed form drops the ``(1-α)`` cost term, so
#: it only localizes the root when the objective is latency-dominated.
WARM_START_MIN_ALPHA = 0.9


def _column(value: object, dtype=np.float64) -> np.ndarray:
    return np.asarray(value, dtype=dtype)


def _positive(column: np.ndarray) -> np.ndarray:
    return np.isfinite(column) & (column > 0.0)


def _integral(column: np.ndarray) -> np.ndarray:
    return np.isfinite(column) & (column == np.floor(column))


#: The pointwise domain rule of each grid column — the guards the scalar
#: model stack enforces at construction — as ``(holds, message)``, where
#: ``holds`` maps a column to its mask of valid entries (NaN fails every
#: comparison, so it is never valid).
_COLUMN_RULES: Mapping[str, tuple[Callable[[np.ndarray], np.ndarray], str]] = {
    "alpha": (lambda c: (c >= 0.0) & (c <= 1.0), "alpha column must lie in [0, 1]"),
    "gamma": (_positive, "gamma column must be positive and finite"),
    "exponent": (
        lambda c: (c > 0.0) & (c < 2.0),
        "exponent column must lie in (0, 2) (paper eq. 6 domain; "
        "s = 1 is representable and takes the limit branch)",
    ),
    "n_routers": (
        lambda c: _integral(c) & (c >= 1.0),
        "n_routers column must be a positive integer",
    ),
    "catalog_size": (
        lambda c: _integral(c) & (c > 1.0),
        "catalog_size column must be an integer > 1",
    ),
    "capacity": (_positive, "capacity column must be positive and finite"),
    "unit_cost": (_positive, "unit_cost column must be positive and finite"),
    "peer_delta": (_positive, "peer_delta column must be positive and finite"),
    "access_latency": (
        _positive,
        "access_latency column must be positive and finite",
    ),
    "fixed_cost": (
        lambda c: np.isfinite(c) & (c >= 0.0),
        "fixed_cost column must be non-negative and finite",
    ),
    "cost_scale": (_positive, "cost_scale column must be positive and finite"),
}


def _column_violation(**columns: np.ndarray) -> Optional[str]:
    """The first domain rule the given grid columns break, or ``None``.

    Checks each column's pointwise rule, then, when both columns are
    given, the bound ``capacity <= catalog_size`` at every point.
    """
    for name, column in columns.items():
        holds, message = _COLUMN_RULES[name]
        if not holds(column).all():
            return message
    capacity, catalog = columns.get("capacity"), columns.get("catalog_size")
    if capacity is not None and catalog is not None and (capacity > catalog).any():
        return (
            "capacity column exceeds catalog_size at some grid point "
            "(per-router c must satisfy c <= N, paper §III-B)"
        )
    return None


class ScenarioGrid:
    """Structure-of-arrays grid of model parameter points (paper Table IV).

    One read-only float64 column per :class:`~repro.core.scenario.Scenario`
    field; scalar inputs broadcast against array inputs, so
    ``ScenarioGrid(alpha=np.linspace(0, 1, 101))`` is a 101-point α-sweep
    at the Table IV base setting.  Columns are validated with the same
    domain rules the scalar model stack enforces at construction (α a
    probability, γ > 0, s ∈ (0, 2) — the s = 1 eq. 6 singularity is
    representable here, like in ``ZipfPopularity``, and handled by the
    per-point limit branch — n ≥ 1 integral, N > 1, 0 < c ≤ N).

    Derived coefficient columns (latency tiers d0/d1/d2, the eq. 6
    normalizer, scaled costs) are computed once, memoized, and served
    as read-only arrays via :meth:`derived`.
    """

    _COLUMNS = (
        "alpha",
        "gamma",
        "exponent",
        "n_routers",
        "catalog_size",
        "capacity",
        "unit_cost",
        "peer_delta",
        "access_latency",
        "fixed_cost",
        "cost_scale",
    )

    def __init__(
        self,
        *,
        alpha: object = 0.5,
        gamma: object = 5.0,
        exponent: object = 0.8,
        n_routers: object = 20,
        catalog_size: object = 10**6,
        capacity: object = 10**3,
        unit_cost: object = 26.7,
        peer_delta: object = 2.2842,
        access_latency: object = 1.0,
        fixed_cost: object = 0.0,
        cost_scale: object = BALANCED_COST_SCALE,
    ):
        """Broadcast and validate the Table IV parameter columns.

        Defaults are the paper's base setting, matching
        :class:`~repro.core.scenario.Scenario` (Table IV rows for
        Figures 4/8/12).
        """
        raw = (
            alpha,
            gamma,
            exponent,
            n_routers,
            catalog_size,
            capacity,
            unit_cost,
            peer_delta,
            access_latency,
            fixed_cost,
            cost_scale,
        )
        try:
            arrays = np.broadcast_arrays(*(_column(v) for v in raw))
        except ValueError as exc:
            raise ParameterError(
                f"scenario grid columns have incompatible shapes: {exc}"
            ) from exc
        columns = {}
        for name, arr in zip(self._COLUMNS, arrays):
            col = np.ascontiguousarray(np.atleast_1d(arr), dtype=np.float64)
            if col.ndim != 1:
                col = col.ravel()
            columns[name] = col
        # Rebind the parameters to their broadcast columns so the guard
        # tests the names it validates (R3 contract).
        alpha = columns["alpha"]
        gamma = columns["gamma"]
        exponent = columns["exponent"]
        n_c = columns["n_routers"]
        catalog_c = columns["catalog_size"]
        capacity = columns["capacity"]
        unit_cost_c = columns["unit_cost"]
        peer_delta_c = columns["peer_delta"]
        access_c = columns["access_latency"]
        fixed_c = columns["fixed_cost"]
        scale_c = columns["cost_scale"]
        if alpha.size == 0:
            raise ParameterError("scenario grid must contain at least one point")
        if (
            problem := _column_violation(
                alpha=alpha,
                gamma=gamma,
                exponent=exponent,
                n_routers=n_c,
                catalog_size=catalog_c,
                capacity=capacity,
                unit_cost=unit_cost_c,
                peer_delta=peer_delta_c,
                access_latency=access_c,
                fixed_cost=fixed_c,
                cost_scale=scale_c,
            )
        ) is not None:
            raise ParameterError(problem)
        for name, col in columns.items():
            col.flags.writeable = False
            setattr(self, name, col)
        self._derived_cache: Optional[Mapping[str, np.ndarray]] = None

    # -- construction helpers ------------------------------------------

    @classmethod
    def from_scenarios(cls, scenarios: Iterable[Scenario]) -> "ScenarioGrid":
        """Columnize an iterable of scalar ``Scenario`` points (Table IV).

        Point ``i`` of the grid is exactly ``scenarios[i]``; this is the
        bridge the sweep engine uses to hand its per-point payloads to
        the batched solver.
        """
        points = list(scenarios)
        if not points:
            raise ParameterError("from_scenarios needs at least one scenario")
        return cls(
            **{
                name: np.array([getattr(p, name) for p in points], dtype=np.float64)
                for name in cls._COLUMNS
            }
        )

    @classmethod
    def from_product(cls, base: Scenario, **axes: Sequence[float]) -> "ScenarioGrid":
        """Dense cartesian product of parameter axes around ``base``.

        The grid enumerates ``axes`` in C order (last axis fastest),
        i.e. like nested loops in keyword order — the layout the paper's
        dense (α, s, γ) evaluation grids use.  Non-swept columns are
        filled from ``base`` (Table IV defaults).
        """
        if not axes:
            raise ParameterError("from_product needs at least one axis")
        unknown = sorted(set(axes) - set(cls._COLUMNS))
        if unknown:
            raise ParameterError(
                f"unknown scenario field(s) {unknown}; expected among "
                f"{list(cls._COLUMNS)}"
            )
        values = [np.atleast_1d(_column(v)) for v in axes.values()]
        mesh = np.meshgrid(*values, indexing="ij")
        columns = {name: grid.ravel() for name, grid in zip(axes, mesh)}
        return cls(
            **{
                name: columns.get(name, getattr(base, name))
                for name in cls._COLUMNS
            }
        )

    # -- basic protocol -------------------------------------------------

    @property
    def size(self) -> int:
        """Number of grid points (length of every column), cf. Table IV."""
        return int(self.alpha.size)

    def __len__(self) -> int:
        return self.size

    def __repr__(self) -> str:
        return f"ScenarioGrid(size={self.size})"

    def scenario_at(self, index: int) -> Scenario:
        """The scalar ``Scenario`` of one grid point (Table IV row).

        Round-trips exactly: solving ``scenario_at(i).model()`` with the
        scalar oracle is the per-point reference for the batch result.
        """
        return Scenario(
            alpha=float(self.alpha[index]),
            gamma=float(self.gamma[index]),
            exponent=float(self.exponent[index]),
            n_routers=int(self.n_routers[index]),
            catalog_size=int(self.catalog_size[index]),
            capacity=float(self.capacity[index]),
            unit_cost=float(self.unit_cost[index]),
            peer_delta=float(self.peer_delta[index]),
            access_latency=float(self.access_latency[index]),
            fixed_cost=float(self.fixed_cost[index]),
            cost_scale=float(self.cost_scale[index]),
        )

    def subset(self, indices: np.ndarray) -> "ScenarioGrid":
        """A new grid holding only the selected points (Table IV rows).

        ``indices`` may be an integer index array or a boolean mask of
        length :attr:`size`.  Point ``j`` of the subset is exactly point
        ``indices[j]`` of this grid (``scenario_at`` round-trips), so a
        solver may re-solve a perturbed subset and scatter the results
        back without changing any per-point semantics.
        """
        idx = np.asarray(indices)
        if idx.dtype == np.bool_:
            if idx.shape != (self.size,):
                raise ParameterError(
                    f"boolean subset mask must have length {self.size}, "
                    f"got shape {idx.shape}"
                )
            idx = np.flatnonzero(idx)
        else:
            idx = idx.astype(np.intp)
            if idx.ndim != 1:
                raise ParameterError("subset indices must be one-dimensional")
            if idx.size and (idx.min() < -self.size or idx.max() >= self.size):
                raise ParameterError(
                    f"subset indices out of range for grid of size {self.size}"
                )
        if idx.size == 0:
            raise ParameterError("subset must select at least one grid point")
        # Row selection preserves every per-point invariant the
        # constructor checks (all guards are pointwise, including
        # capacity <= catalog_size), so skip re-validation: this sits on
        # the warm re-solve hot path where it would dominate the solve.
        out = ScenarioGrid.__new__(ScenarioGrid)
        for name in self._COLUMNS:
            col = np.ascontiguousarray(getattr(self, name)[idx])
            col.flags.writeable = False
            setattr(out, name, col)
        out._derived_cache = None
        return out

    def replace(self, **columns: object) -> "ScenarioGrid":
        """This grid with the named columns replaced (Table IV fields).

        Each new value broadcasts to :attr:`size` points and is checked
        with the constructor's domain rules.  The other columns are this
        grid's own read-only arrays, shared without a copy or a second
        check — the contract of :meth:`subset` — so a warm re-solve that
        moves one parameter (``grid.replace(exponent=s)``) pays for one
        column only.
        """
        unknown = sorted(set(columns) - set(self._COLUMNS))
        if unknown:
            raise ParameterError(
                f"unknown scenario field(s) {unknown}; expected among "
                f"{list(self._COLUMNS)}"
            )
        replaced = {}
        for name, value in columns.items():
            try:
                col = np.array(np.broadcast_to(_column(value), (self.size,)))
            except (TypeError, ValueError) as exc:
                raise ParameterError(
                    f"{name} column must broadcast to the grid's "
                    f"{self.size} points"
                ) from exc
            col.flags.writeable = False
            replaced[name] = col
        checked = dict(replaced)
        if "capacity" in checked or "catalog_size" in checked:
            checked.setdefault("capacity", self.capacity)
            checked.setdefault("catalog_size", self.catalog_size)
        if (problem := _column_violation(**checked)) is not None:
            raise ParameterError(problem)
        out = ScenarioGrid.__new__(ScenarioGrid)
        for name in self._COLUMNS:
            setattr(out, name, replaced.get(name, getattr(self, name)))
        out._derived_cache = None
        return out

    def derived(self) -> Mapping[str, np.ndarray]:
        """Memoized derived coefficient columns (eqs. 2, 3, 6).

        Keys: ``d0``/``d1``/``d2`` (the tier latencies built exactly
        like ``LatencyModel.from_gamma``), ``peer_delta``/``origin_delta``
        (``d1-d0``, ``d2-d1``), ``normalizer`` (the eq. 6 prefactor,
        with the s → 1 limit), ``w_scaled``/``fixed_scaled`` (eq. 3
        costs after ``cost_scale``) and ``marginal_cost`` (``w·scale·n``).

        The arrays are **read-only** and shared across calls — the same
        contract as the memoized eq. 1 tables in :mod:`repro.core.zipf`;
        callers needing a mutable array must copy.
        """
        if self._derived_cache is None:
            d0, d1, d2 = tier_latencies_from_gamma(
                self.gamma, self.access_latency, self.peer_delta
            )
            normalizer = continuous_normalizer_columns(
                self.exponent, self.catalog_size
            )
            w_scaled = self.unit_cost * self.cost_scale
            fixed_scaled = self.fixed_cost * self.cost_scale
            marginal_cost = w_scaled * self.n_routers
            derived = {
                "d0": d0,
                "d1": d1,
                "d2": d2,
                "peer_delta": d1 - d0,
                "origin_delta": d2 - d1,
                "normalizer": normalizer,
                "w_scaled": w_scaled,
                "fixed_scaled": fixed_scaled,
                "marginal_cost": marginal_cost,
            }
            for arr in derived.values():
                arr.flags.writeable = False
            self._derived_cache = derived
        return self._derived_cache


# -- vectorized model primitives (exact scalar-op-order replicas) -------


def _cdf_columns(grid: ScenarioGrid, x: np.ndarray) -> np.ndarray:
    return continuous_cdf_columns(x, grid.exponent, grid.catalog_size)


def _mean_latency_columns(
    grid: ScenarioGrid, derived: Mapping[str, np.ndarray], x: np.ndarray
) -> np.ndarray:
    # Tier boundaries exactly as tier_fractions: c-x and c-x+x·n.
    f_local = _cdf_columns(grid, grid.capacity - x)
    f_coord = _cdf_columns(grid, grid.capacity - x + x * grid.n_routers)
    return (
        f_local * derived["d0"]
        + (f_coord - f_local) * derived["d1"]
        + (1.0 - f_coord) * derived["d2"]
    )


def _cost_columns(
    grid: ScenarioGrid, derived: Mapping[str, np.ndarray], x: np.ndarray
) -> np.ndarray:
    return derived["w_scaled"] * grid.n_routers * x + derived["fixed_scaled"]


def _objective_columns(
    grid: ScenarioGrid, derived: Mapping[str, np.ndarray], x: np.ndarray
) -> np.ndarray:
    t = _mean_latency_columns(grid, derived, x)
    w = _cost_columns(grid, derived, x)
    return combine_objective(grid.alpha, t, w)


class _FirstOrder:
    """The Appendix A eq. 10 first derivative ``dT_w/dx`` on fixed points.

    Built once per solve for the grid points ``index`` (all points when
    ``None``): the loop invariants ``-s``, ``(d2-d1)·(n-1)`` and
    ``(1-α)·w·scale·n`` are hoisted, and each call evaluates into
    preallocated buffers.  Every point still gets the float64 operations
    of ``RoutingPerformanceModel.derivative`` and ``combine_objective``
    in the same order (same clamp, same products), so the values are
    bit-identical to the scalar oracle's.  A call returns a buffer,
    valid until the next call.
    """

    def __init__(
        self,
        grid: ScenarioGrid,
        derived: Mapping[str, np.ndarray],
        index: Optional[np.ndarray] = None,
    ):
        columns = (
            grid.capacity,
            grid.n_routers,
            grid.exponent,
            grid.alpha,
            derived["normalizer"],
            derived["peer_delta"],
            derived["origin_delta"],
            derived["marginal_cost"],
        )
        if index is not None:
            columns = tuple(column[index] for column in columns)
        (
            self.capacity,
            n_routers,
            exponent,
            self.alpha,
            self.normalizer,
            self.peer_delta,
            origin_delta,
            marginal_cost,
        ) = columns
        self.routers_less_one = n_routers - 1.0
        self.neg_s = -exponent
        self.origin_weight = origin_delta * self.routers_less_one
        self.cost_slope = (1.0 - self.alpha) * marginal_cost
        # In-place steps: on grid-sized arrays NumPy runs them ~2x faster
        # than steps into a third buffer.
        self._local = np.empty(self.capacity.size)
        self._coordinated = np.empty(self.capacity.size)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        local = np.subtract(self.capacity, x, out=self._local)
        np.maximum(local, 1e-12, out=local)
        np.power(local, self.neg_s, out=local)
        np.multiply(self.peer_delta, local, out=local)
        coordinated = np.multiply(self.routers_less_one, x, out=self._coordinated)
        np.add(self.capacity, coordinated, out=coordinated)
        np.power(coordinated, self.neg_s, out=coordinated)
        np.multiply(self.origin_weight, coordinated, out=coordinated)
        t_prime = np.subtract(local, coordinated, out=local)
        np.multiply(self.normalizer, t_prime, out=t_prime)
        np.multiply(self.alpha, t_prime, out=t_prime)
        return np.add(t_prime, self.cost_slope, out=t_prime)


def _newton_step_columns(
    grid: ScenarioGrid, derived: Mapping[str, np.ndarray], x: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    # Fused Appendix A first + second derivative of the eq. 5 objective
    # at x.  The first derivative replays _FirstOrder bit-exactly
    # (same clamp, same op order), so bracket updates made from it stay
    # interchangeable with the cold bisection's.  The cost term (eq. 3)
    # is linear, so f''(x) = α·T''(x) with
    # T''(x) = normalizer·s·((d1-d0)·(c-x)^{-s-1}
    #          + (d2-d1)·(n-1)²·(c+(n-1)x)^{-s-1}) > 0
    # on the interior (Lemma 1 convexity) — the curvature the damped
    # Newton correction divides by; it only scales the step, so reusing
    # the x^{-s} powers (one divide instead of a second pow) is safe.
    s = grid.exponent
    local = np.clip(grid.capacity - x, 1e-12, None)
    coordinated = grid.capacity + (grid.n_routers - 1.0) * x
    local_pow = local**-s
    coordinated_pow = coordinated**-s
    t_prime = derived["normalizer"] * (
        derived["peer_delta"] * local_pow
        - derived["origin_delta"] * (grid.n_routers - 1.0) * coordinated_pow
    )
    d = combine_objective(grid.alpha, t_prime, derived["marginal_cost"])
    t_double = derived["normalizer"] * s * (
        derived["peer_delta"] * local_pow / local
        + derived["origin_delta"]
        * (grid.n_routers - 1.0) ** 2
        * coordinated_pow / coordinated
    )
    return d, grid.alpha * t_double


def _closed_form_columns(grid: ScenarioGrid) -> np.ndarray:
    # Theorem 2 closed form, unvalidated (warm-start probe only); nan
    # at extreme (γ, s) underflow is harmless — nan probes never pass
    # the bracket-validity comparison and are ignored.
    s = grid.exponent
    with np.errstate(over="ignore", invalid="ignore"):
        return 1.0 / (
            grid.gamma ** (-1.0 / s) * grid.n_routers ** (1.0 - 1.0 / s) + 1.0
        )


# -- existence conditions (Lemma 1, vectorized) -------------------------


def existence_mask(grid: ScenarioGrid) -> np.ndarray:
    """Per-point Lemma 1 existence conditions (paper §IV-B).

    Reproduces :func:`repro.core.conditions.check_existence` for every
    grid point: ``True`` exactly where the scalar check reports no
    violations.  The returned boolean array is read-only.
    """
    c = grid.capacity
    n = grid.n_routers
    n_cat = grid.catalog_size
    s = grid.exponent
    # Tier latencies computed directly (not via derived()): the warm
    # incremental path masks existence on the full grid but only ever
    # solves a small subset, so populating the full derived cache here
    # would dominate its runtime.
    d0, d1, d2 = tier_latencies_from_gamma(
        grid.gamma, grid.access_latency, grid.peer_delta
    )
    capacity_ok = np.isfinite(c) & (c > 0.0)
    catalog_ok = n_cat >= MIN_LARGE_CATALOG
    aggregate_bad = capacity_ok & catalog_ok & (c * np.maximum(n, 1.0) > n_cat)
    catalog_ok = catalog_ok & ~aggregate_bad
    routers_ok = n > 1.0
    exponent_ok = (0.0 < s) & (s < 2.0) & (np.abs(s - 1.0) > SINGULARITY_TOLERANCE)
    latency_ok = (d0 < d1) & (d1 <= d2)
    ok = capacity_ok & catalog_ok & routers_ok & exponent_ok & latency_ok
    ok.flags.writeable = False
    return ok


def _raise_existence(grid: ScenarioGrid, ok: np.ndarray) -> None:
    bad = np.flatnonzero(~ok)
    violations: list[str] = []
    for index in bad[:5]:
        point = grid.scenario_at(int(index))
        conditions = check_existence(
            capacity=point.capacity,
            catalog_size=point.catalog_size,
            n_routers=point.n_routers,
            exponent=point.exponent,
            latency=point.latency(),
        )
        violations.extend(
            f"grid point {int(index)}: {reason}" for reason in conditions.violations
        )
    if bad.size > 5:
        violations.append(f"... and {bad.size - 5} more violating grid points")
    raise ExistenceConditionError(violations)


# -- batched solvers ----------------------------------------------------


def _solve_first_order_columns(
    grid: ScenarioGrid,
    derived: Mapping[str, np.ndarray],
    warm_start: bool,
) -> tuple[np.ndarray, int]:
    """Bisect the Appendix A eq. 10 first-order condition per point.

    Mirrors :func:`~repro.core.optimizer.solve_first_order` exactly:
    ``α ≤ 0`` points return 0; ``d(0) ≥ 0`` points return 0;
    ``d(c·(1-1e-12)) ≤ 0`` points return ``c``; everything else bisects
    to ``hi - lo ≤ LEVEL_TOLERANCE·c``.  ``warm_start`` pre-shrinks the
    bracket for ``α ≥ WARM_START_MIN_ALPHA`` points with two monotone
    probes around the Theorem 2 closed form.
    """
    capacity = grid.capacity
    alpha = grid.alpha
    positive = alpha > 0.0
    hi_all = capacity * (1.0 - 1e-12)
    derivative = _FirstOrder(grid, derived)
    at_zero = positive & (derivative(np.zeros(len(grid))) >= 0.0)
    at_capacity = positive & ~at_zero & (derivative(hi_all) <= 0.0)
    interior = np.flatnonzero(positive & ~at_zero & ~at_capacity)
    x_star = np.where(at_capacity, capacity, 0.0)
    if interior.size == 0:
        return x_star, 0

    # Only the interior points bisect: compact them once and sweep them
    # in preallocated buffers.  Each point keeps its own bracket and
    # float64 operations, so the compaction moves no bits.
    derivative = _FirstOrder(grid, derived, interior)
    lo = np.zeros(interior.size)
    hi = hi_all[interior]
    if warm_start:
        warm = derivative.alpha >= WARM_START_MIN_ALPHA
        if warm.any():
            x_hat = _closed_form_columns(grid)[interior] * derivative.capacity
            # Two probes bracketing the Theorem 2 prediction.  The
            # objective is convex (Lemma 1) so its derivative is
            # increasing: any probe with d < 0 is a valid new lo, any
            # probe with d >= 0 a valid new hi — warm starts can shrink
            # but never invalidate the bracket.  Probes outside the
            # current bracket (and nan probes from underflowed closed
            # forms) fail the comparison and are ignored.
            for probe in (0.75 * x_hat, np.minimum(1.25 * x_hat, 0.5 * (x_hat + hi))):
                inside = warm & (lo < probe) & (probe < hi)
                if not inside.any():
                    continue
                d_probe = derivative(np.where(inside, probe, lo))
                lo = np.where(inside & (d_probe < 0.0), probe, lo)
                hi = np.where(inside & (d_probe >= 0.0), probe, hi)

    tolerance = LEVEL_TOLERANCE * derivative.capacity
    # Rows lo and hi of one bracket array, so one bitwise select moves
    # both: bits ^= (bits ^ mid) & -take sets lo := mid where d(mid) < 0
    # and hi := mid on the other active points.  The select is exact by
    # construction and ~3x faster than np.copyto(where=) on the
    # unpredictable masks a bisection makes.
    bracket = np.stack([lo, hi])
    lo, hi = bracket
    bits = bracket.view(np.int64)
    take = np.empty(bracket.shape, dtype=bool)
    flip = np.empty(bracket.shape, dtype=np.int64)
    select = np.empty(bracket.shape, dtype=np.int64)
    mid = np.empty(interior.size)
    mid_bits = mid.view(np.int64)
    width = hi - lo
    active = width > tolerance
    iterations = 0
    while active.any():
        if iterations >= MAX_BISECTION_ITERATIONS:
            raise ConvergenceError(
                f"batched first-order bisection failed to converge within "
                f"{MAX_BISECTION_ITERATIONS} iterations"
            )
        iterations += 1
        np.add(lo, hi, out=mid)
        np.multiply(0.5, mid, out=mid)
        np.less(derivative(mid), 0.0, out=take[0])
        np.logical_and(active, take[0], out=take[0])
        np.logical_xor(active, take[0], out=take[1])
        np.negative(take, dtype=np.int64, out=select)
        np.bitwise_xor(bits, mid_bits, out=flip)
        np.bitwise_and(flip, select, out=flip)
        np.bitwise_xor(bits, flip, out=bits)
        np.subtract(hi, lo, out=width)
        np.greater(width, tolerance, out=active)
    np.add(lo, hi, out=mid)
    x_star[interior] = np.multiply(0.5, mid, out=mid)
    return x_star, iterations


@dataclass(frozen=True)
class BatchStrategy:
    """Solved optimal strategies for every grid point (paper eq. 5).

    The array analogue of :class:`~repro.core.optimizer.OptimalStrategy`:
    ``level[i]``/``storage[i]``/``objective_value[i]`` are ``ℓ*``, ``x*``
    and ``T_w(x*)`` of grid point ``i``; ``method[i]`` names the solver
    that produced it (``"boundary"`` for the α = 0 shortcut);
    ``existence_ok[i]`` is the Lemma 1 mask; ``iterations`` counts the
    vectorized bisection sweeps the whole grid needed.  All arrays are
    read-only.
    """

    level: np.ndarray
    storage: np.ndarray
    objective_value: np.ndarray
    method: np.ndarray
    alpha: np.ndarray
    existence_ok: np.ndarray
    iterations: int

    def __len__(self) -> int:
        return int(self.level.size)

    def strategy_at(self, index: int) -> OptimalStrategy:
        """The scalar ``OptimalStrategy`` view of one grid point (eq. 5)."""
        return OptimalStrategy(
            level=float(self.level[index]),
            storage=float(self.storage[index]),
            objective_value=float(self.objective_value[index]),
            method=str(self.method[index]),
            alpha=float(self.alpha[index]),
        )

    @property
    def fully_coordinated(self) -> np.ndarray:
        """Per-point ``ℓ* ≥ 1 - 1e-9`` saturation mask (cf. §IV-C)."""
        return self.level >= 1.0 - 1e-9

    @property
    def non_coordinated(self) -> np.ndarray:
        """Per-point ``ℓ* ≤ 1e-9`` collapse mask (cf. §IV-C)."""
        return self.level <= 1e-9


def _lock(*arrays: np.ndarray) -> None:
    for arr in arrays:
        arr.flags.writeable = False


def _finish_columns(
    grid: ScenarioGrid,
    derived: Mapping[str, np.ndarray],
    x_star: np.ndarray,
    method: np.ndarray,
    existence_ok: np.ndarray,
    iterations: int,
) -> BatchStrategy:
    # Vectorized replica of optimal_strategy's finish(): clip to [0, c],
    # then keep the best of (x*, 0, c) with min()'s first-wins tie-break.
    capacity = grid.capacity
    x_clip = np.minimum(np.maximum(x_star, 0.0), capacity)
    f_x = _objective_columns(grid, derived, x_clip)
    f_0 = _objective_columns(grid, derived, np.zeros(len(grid)))
    f_c = _objective_columns(grid, derived, capacity)
    pick_x = f_x <= np.minimum(f_0, f_c)
    pick_0 = ~pick_x & (f_0 <= f_c)
    best_x = np.where(pick_x, x_clip, np.where(pick_0, 0.0, capacity))
    best_f = np.where(pick_x, f_x, np.where(pick_0, f_0, f_c))
    level = best_x / capacity
    alpha = np.array(grid.alpha)
    _lock(level, best_x, best_f, method, alpha)
    return BatchStrategy(
        level=level,
        storage=best_x,
        objective_value=best_f,
        method=method,
        alpha=alpha,
        existence_ok=existence_ok,
        iterations=iterations,
    )


def solve_batch(
    grid: ScenarioGrid,
    *,
    check_conditions: bool = True,
    warm_start: bool = True,
) -> BatchStrategy:
    """Solve eq. 5 for every grid point in one vectorized pass.

    The batched analogue of
    :func:`~repro.core.optimizer.optimal_strategy`; per-point semantics
    (the α = 0 boundary shortcut, clip-at-``c`` handling, the
    finish-time boundary comparison) are reproduced exactly, and the
    bisection of the exact first-order condition (Appendix A eq. 10)
    runs as ~40 whole-grid array iterations.  The scalar oracle's
    ``lemma2``, ``closed-form`` and ``scalar-min`` methods have no
    batched form: the Lemma 2 (eq. 7) and Theorem 2 (eq. 8) references
    stay in :func:`~repro.core.optimizer.optimal_strategy`.

    Parameters
    ----------
    grid:
        The structure-of-arrays parameter grid.
    check_conditions:
        When True (default), Lemma 1's conditions are checked per point
        and :class:`~repro.errors.ExistenceConditionError` is raised if
        any point violates them (mirroring the scalar solver).  The
        per-point mask is recorded on the result either way.
    warm_start:
        Pre-shrink first-order brackets with Theorem 2 probes for
        ``α ≥ WARM_START_MIN_ALPHA`` points.  ``False`` makes the
        first-order path bit-identical to the scalar oracle.

    Reports a ``solver.batch`` span with ``solver.batch.points`` /
    ``solver.batch.grids`` counters and an iterations + points/s gauge
    pair to :mod:`repro.obs`.
    """
    obs = get_session()
    with obs.span("solver.batch") as span:
        strategy = _solve_batch_impl(grid, check_conditions, warm_start)
    if obs.enabled:
        obs.counter("solver.batch.grids").add()
        obs.counter("solver.batch.points").add(len(grid))
        obs.gauge("solver.batch.iterations").set(float(strategy.iterations))
        if span.duration_s > 0:
            obs.gauge("solver.batch.points_per_s").set(
                len(grid) / span.duration_s
            )
    return strategy


def _solve_batch_impl(
    grid: ScenarioGrid, check_conditions: bool, warm_start: bool
) -> BatchStrategy:
    ok = existence_mask(grid)
    if check_conditions and not bool(ok.all()):
        _raise_existence(grid, ok)
    derived = grid.derived()
    x_star, iterations = _solve_first_order_columns(grid, derived, warm_start)
    labels = np.where(grid.alpha == 0.0, "boundary", "first-order")
    return _finish_columns(grid, derived, x_star, labels, ok, iterations)


def _newton_resolve_columns(
    grid: ScenarioGrid,
    derived: Mapping[str, np.ndarray],
    x0: np.ndarray,
    max_newton: int,
) -> tuple[np.ndarray, np.ndarray, int, int]:
    """Damped Newton corrections on the eq. 10 first-order condition.

    Seeds every interior point from ``x0`` (the previous optimum) and
    applies up to ``max_newton`` Newton steps ``x − f'(x)/f''(x)``
    (Appendix A derivatives), each safeguarded by the sign bracket the
    convex objective guarantees: a step that escapes the validity
    window (leaves the open bracket, or meets non-positive curvature
    from the boundary clamps) is damped to the bracket midpoint.
    Boundary handling (``α ≤ 0``, ``d(0) ≥ 0``, ``d(c·(1−1e-12)) ≤ 0``)
    mirrors :func:`_solve_first_order_columns` exactly; points whose
    last step still exceeds the bisection tolerance fall back to the
    bracketed bisection per point.

    Returns ``(x_star, labels, iterations, fallback_count)``.
    """
    capacity = grid.capacity
    alpha = grid.alpha
    positive = alpha > 0.0
    lo = np.zeros(len(grid))
    hi = capacity * (1.0 - 1e-12)
    derivative = _FirstOrder(grid, derived)
    at_zero = positive & (derivative(lo) >= 0.0)
    at_capacity = positive & ~at_zero & (derivative(hi) <= 0.0)
    interior = positive & ~at_zero & ~at_capacity

    tolerance = LEVEL_TOLERANCE * capacity
    x = np.where(interior, np.clip(x0, lo, hi), 0.0)
    active = interior.copy()
    iterations = 0

    def newton_sweeps(sweeps: int) -> int:
        """Damped Newton corrections on the active points; returns #sweeps."""
        nonlocal x, lo, hi, active
        used = 0
        # Sentinel forbidding step-convergence on the first sweep: the
        # non-growth guard needs a real previous step to compare with.
        previous_step = np.full(x.shape, -1.0)
        for _ in range(sweeps):
            if not active.any():
                break
            used += 1
            d, curvature = _newton_step_columns(grid, derived, x)
            # Maintain the sign bracket: f' is increasing (convexity),
            # so d < 0 makes x a valid lower bound, d >= 0 an upper one.
            below = active & (d < 0.0)
            lo = np.where(below, x, lo)
            hi = np.where(active & ~below, x, hi)
            with np.errstate(divide="ignore", invalid="ignore"):
                step = d / curvature
            finite = (curvature > 0.0) & np.isfinite(step)
            # Convergence is judged on the raw Newton step *before* the
            # bracket check: once |Δ| falls under a ulp of x the proposal
            # can collide with a bracket edge that has collapsed onto the
            # root, and the midpoint fallback would fling a converged
            # point back into slow per-bit bisection.  A tiny step alone
            # is not enough: near the x = c singularity the curvature
            # blows up a power of (c-x) faster than the derivative, so
            # |Δ| ≈ (c-x)/s is small at a point that is nowhere near a
            # root.  True Newton convergence shrinks steps quadratically
            # while the singular crawl *grows* them geometrically, so
            # also require the step not to have grown.
            step_size = np.abs(step)
            active &= ~(
                finite & (step_size <= tolerance) & (step_size <= previous_step)
            )
            previous_step = step_size
            raw = x - step
            valid = finite & (lo < raw) & (raw < hi)
            proposed = np.where(valid, raw, 0.5 * (lo + hi))
            moved = np.abs(proposed - x)
            x = np.where(active, proposed, x)
            # A midpoint fallback that barely moves means the bracket
            # itself has collapsed to the tolerance — done.  (A barely
            # moving *Newton* proposal is NOT conclusive: that is the
            # singular crawl again, handled by the guarded test above.)
            active &= ~(~valid & (moved <= tolerance))
        return used

    def bisect_to(width: np.ndarray) -> int:
        """Halve the active brackets until ``hi − lo ≤ width``; x := midpoint."""
        nonlocal x, lo, hi, active
        used = 0
        halving = active & (hi - lo > width)
        while halving.any():
            if iterations + used >= MAX_BISECTION_ITERATIONS:
                raise ConvergenceError(
                    f"incremental re-solve failed to converge within "
                    f"{MAX_BISECTION_ITERATIONS} iterations"
                )
            used += 1
            mid = 0.5 * (lo + hi)
            below = halving & (derivative(mid) < 0.0)
            lo = np.where(below, mid, lo)
            hi = np.where(halving & ~below, mid, hi)
            halving = active & (hi - lo > width)
        x = np.where(active, 0.5 * (lo + hi), x)
        return used

    def boundary_polish(sweeps: int) -> int:
        """Dominant-balance fixed point for roots near the x = c singularity.

        Near the upper boundary the eq. 10 derivative is dominated by
        the ``(d1-d0)·(c-x)^{-s}`` term (the eq. 6 CDF's local tier), so
        ``d(x) = 0`` rearranges to the map
        ``x ← c − (pd·norm·α / (α·norm·od·(n-1)·coord(x)^{-s} −
        (1-α)·mc))^{1/s}`` whose contraction factor ``~s·(n-1)·(c-x)/
        coord`` vanishes as x → c: exactly where the Newton step
        degenerates to ~(c-x)/s, this map converges in 2-3 sweeps.
        Points whose map value is invalid (non-positive balance) or
        escapes the bracket are left for the bisection ladder.
        """
        nonlocal x, active
        s = grid.exponent
        n1 = grid.n_routers - 1.0
        safe_alpha = np.where(positive, alpha, 1.0)
        balance_scale = (
            (1.0 - safe_alpha)
            * derived["marginal_cost"]
            / (safe_alpha * derived["normalizer"])
        )
        used = 0
        for _ in range(sweeps):
            if not active.any():
                break
            used += 1
            coordinated = capacity + n1 * x
            balance = derived["origin_delta"] * n1 * coordinated**-s - balance_scale
            with np.errstate(divide="ignore", invalid="ignore"):
                proposed = capacity - (derived["peer_delta"] / balance) ** (
                    1.0 / s
                )
            finite = active & np.isfinite(proposed)
            moved = np.abs(proposed - x)
            # A contraction step under the tolerance means the fixed
            # point has converged — accept it (clipped into the
            # bracket) even when the proposal collides with a collapsed
            # bracket edge, which the strict interior test would bounce
            # back into per-bit bisection.
            done = finite & (moved <= tolerance)
            valid = finite & (lo < proposed) & (proposed < hi)
            x = np.where(valid | done, np.clip(proposed, lo, hi), x)
            active &= ~done
        return used

    # Phase A: pure warm corrections — perturbed interior optima settle
    # here in 1-3 Newton steps (+1 sweep to confirm the step shrank).
    iterations += newton_sweeps(max_newton + 1)
    fallback = active.copy()
    fallback_count = int(fallback.sum())
    if fallback_count:
        # Escaped the validity window (stale seed, e.g. a previously
        # clipped boundary optimum whose Newton step degenerates to
        # ~(c-x)/s): the dominant-balance fixed point settles near-
        # boundary roots in 2-3 sweeps without needing a tight bracket,
        # and a short Newton re-check retires points the fixed point
        # parked on the root with its last contraction just above the
        # step tolerance.
        iterations += boundary_polish(max_newton + 2)
        iterations += newton_sweeps(2)
    if active.any():
        # Whatever survives all three (rare: far-moved interior roots)
        # is re-localized by coarse bracketed bisection, finished
        # quadratically by a Newton polish, and only then pays the
        # plain bisection ladder down to the cold tolerance.
        iterations += bisect_to(np.maximum(tolerance, 1e-3 * capacity))
        iterations += newton_sweeps(max_newton + 1)
        iterations += boundary_polish(max_newton + 2)
        iterations += bisect_to(tolerance)

    x_star = np.where(at_capacity, capacity, x)
    labels = np.where(positive, "warm-newton", "boundary")
    labels[fallback] = "first-order"
    return x_star, labels, iterations, fallback_count


def _carried_columns(
    grid: ScenarioGrid, prev: Union[BatchStrategy, np.ndarray]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Writable (level, storage, objective, method) columns seeded from ``prev``.

    A :class:`BatchStrategy` carries its solved arrays verbatim, so
    unchanged points of the incremental re-solve are bitwise identical
    to the previous solve (eq. 5 optimum unchanged parameters →
    unchanged optimum).  A raw level array is evaluated through the
    eq. 2/3 objective at ``ℓ·c`` and labelled ``"carried"``.
    """
    if isinstance(prev, BatchStrategy):
        if len(prev) != len(grid):
            raise ParameterError(
                f"previous strategy has {len(prev)} points but the grid "
                f"has {len(grid)}"
            )
        # Widen the label column so every incremental label fits without
        # truncation (numpy fixed-width strings truncate on assignment).
        width = max(prev.method.dtype.itemsize // np.dtype("U1").itemsize, 11)
        return (
            np.array(prev.level),
            np.array(prev.storage),
            np.array(prev.objective_value),
            prev.method.astype(f"<U{width}"),
        )
    levels = _column(prev)
    if levels.shape != (len(grid),):
        raise ParameterError(
            f"previous level column must have shape ({len(grid)},), "
            f"got {levels.shape}"
        )
    if np.any(~np.isfinite(levels)) or np.any((levels < 0.0) | (levels > 1.0)):
        raise ParameterError("previous level column must lie in [0, 1]")
    storage = levels * grid.capacity
    objective = np.array(
        _objective_columns(grid, grid.derived(), storage)
    )
    return (
        np.array(levels),
        storage,
        objective,
        np.full(len(grid), "carried", dtype="<U11"),
    )


def resolve_incremental(
    grid: ScenarioGrid,
    prev: Union[BatchStrategy, np.ndarray],
    changed_mask: Optional[np.ndarray] = None,
    *,
    check_conditions: bool = True,
    max_newton: int = 3,
) -> BatchStrategy:
    """Warm incremental re-solve of eq. 5 seeded from a previous optimum.

    The eq. 5/7 optimum is continuous in the Table IV parameters
    ``(s, N, n, γ, α, c)``, so after a small perturbation the previous
    per-point optimum already localizes the new root of the Appendix A
    first-order condition (eq. 10): instead of the ~40 whole-grid
    bisection iterations of a cold :func:`solve_batch`, each perturbed
    point takes 1–3 damped Newton corrections seeded from its previous
    ``x*`` (see :func:`_newton_resolve_columns`), falling back to the
    bracketed bisection per point only when the Newton step escapes its
    validity window.  Unchanged points carry the previous solution
    bitwise.

    Parameters
    ----------
    grid:
        The *new* (perturbed) parameter grid.
    prev:
        The previous solution on a same-size grid: a
        :class:`BatchStrategy` (carried verbatim for unchanged points)
        or a raw level column in [0, 1] (re-evaluated through the
        objective and labelled ``"carried"``).
    changed_mask:
        Boolean column marking the perturbed points; ``None`` re-solves
        every point warm.
    check_conditions:
        As in :func:`solve_batch` — per-point Lemma 1 checks.
    max_newton:
        Newton corrections per point before the bisection fallback.

    Agrees with the cold solve within 1e-9 per point in level (the
    Newton stop tolerance is the bisection tolerance
    ``LEVEL_TOLERANCE·c``); the equivalence suite enforces this.
    Reports a ``solver.resolve`` span with points/changed/fallback
    counters and an iterations + points/s gauge pair to
    :mod:`repro.obs`.
    """
    if max_newton < 1:
        raise ParameterError(f"max_newton must be >= 1, got {max_newton}")
    obs = get_session()
    with obs.span("solver.resolve") as span:
        strategy, changed_count, fallback_count = _resolve_incremental_impl(
            grid, prev, changed_mask, check_conditions, max_newton
        )
    if obs.enabled:
        obs.counter("solver.resolve.grids").add()
        obs.counter("solver.resolve.points").add(len(grid))
        obs.counter("solver.resolve.changed").add(changed_count)
        obs.counter("solver.resolve.fallbacks").add(fallback_count)
        obs.gauge("solver.resolve.iterations").set(float(strategy.iterations))
        if span.duration_s > 0:
            obs.gauge("solver.resolve.points_per_s").set(
                len(grid) / span.duration_s
            )
    return strategy


def _resolve_incremental_impl(
    grid: ScenarioGrid,
    prev: Union[BatchStrategy, np.ndarray],
    changed_mask: Optional[np.ndarray],
    check_conditions: bool,
    max_newton: int,
) -> tuple[BatchStrategy, int, int]:
    level, storage, objective, method = _carried_columns(grid, prev)
    if changed_mask is None:
        changed = np.ones(len(grid), dtype=bool)
    else:
        changed = np.asarray(changed_mask)
        if changed.dtype != np.bool_ or changed.shape != (len(grid),):
            raise ParameterError(
                f"changed_mask must be a boolean column of length "
                f"{len(grid)}"
            )
    idx = np.flatnonzero(changed)
    if idx.size == len(grid):
        sub = grid  # every point changed: the subset would be a copy
    else:
        sub = grid.subset(idx) if idx.size else None
    # The Lemma 1 mask depends only on per-point parameters, so the
    # carry contract (unchanged mask entry ⇒ unchanged parameters) lets
    # a previous BatchStrategy carry its verdicts and re-checks only
    # the perturbed subset; a raw level column has no verdicts to carry.
    if isinstance(prev, BatchStrategy):
        ok = np.array(prev.existence_ok)
        if sub is not None:
            ok[idx] = existence_mask(sub)
    else:
        ok = existence_mask(grid)
    if check_conditions and not bool(ok.all()):
        _raise_existence(grid, ok)
    fallback_count = 0
    iterations = 0
    if sub is not None:
        derived = sub.derived()
        x0 = storage[idx]
        x_star, labels, iterations, fallback_count = _newton_resolve_columns(
            sub, derived, x0, max_newton
        )
        finished = _finish_columns(sub, derived, x_star, labels, ok[idx], iterations)
        level[idx] = finished.level
        storage[idx] = finished.storage
        objective[idx] = finished.objective_value
        method[idx] = finished.method
    alpha = np.array(grid.alpha)
    _lock(level, storage, objective, method, alpha)
    return (
        BatchStrategy(
            level=level,
            storage=storage,
            objective_value=objective,
            method=method,
            alpha=alpha,
            existence_ok=ok,
            iterations=iterations,
        ),
        int(idx.size),
        fallback_count,
    )


@dataclass(frozen=True)
class BatchGains:
    """Both §IV-E gains for every solved grid point.

    The array analogue of :class:`~repro.core.gains.PerformanceGains`
    (``G_O`` of §IV-E.1, ``G_R`` of §IV-E.2, plus the underlying origin
    loads and latencies).  All arrays are read-only.
    """

    origin_load_reduction: np.ndarray
    routing_improvement: np.ndarray
    origin_load_optimal: np.ndarray
    origin_load_baseline: np.ndarray
    latency_optimal: np.ndarray
    latency_baseline: np.ndarray

    def __len__(self) -> int:
        return int(self.origin_load_reduction.size)

    def gains_at(self, index: int) -> PerformanceGains:
        """The scalar ``PerformanceGains`` view of one grid point (§IV-E)."""
        return PerformanceGains(
            origin_load_reduction=float(self.origin_load_reduction[index]),
            routing_improvement=float(self.routing_improvement[index]),
            origin_load_optimal=float(self.origin_load_optimal[index]),
            origin_load_baseline=float(self.origin_load_baseline[index]),
            latency_optimal=float(self.latency_optimal[index]),
            latency_baseline=float(self.latency_baseline[index]),
        )


def mean_latency_batch(grid: ScenarioGrid, storage: np.ndarray) -> np.ndarray:
    """Mean latency ``T(x)`` (eq. 2) for one storage value per grid point."""
    x = _column(storage)
    if np.any((x < 0.0) | (x > grid.capacity)):
        raise ParameterError("storage column must lie in [0, c] per point")
    return _mean_latency_columns(grid, grid.derived(), x)


def coordination_cost_batch(grid: ScenarioGrid, storage: np.ndarray) -> np.ndarray:
    """Coordination cost ``W(x)`` (eq. 3, after cost_scale) per grid point."""
    x = _column(storage)
    if np.any((x < 0.0) | (x > grid.capacity)):
        raise ParameterError("storage column must lie in [0, c] per point")
    return _cost_columns(grid, grid.derived(), x)


def evaluate_gains_batch(
    grid: ScenarioGrid, strategy: Union[BatchStrategy, np.ndarray]
) -> BatchGains:
    """Evaluate both §IV-E gains on a solved level array.

    Vectorized replica of :func:`~repro.core.gains.evaluate_gains`:
    ``G_O = 1 - origin_load(x*)/origin_load(0)`` (0 where the baseline
    is degenerate, §IV-E.1) and ``G_R = 1 - T(x*)/T(0)`` (§IV-E.2),
    computed column-wise from a :class:`BatchStrategy` (or a raw storage
    array).
    """
    x = _column(strategy.storage if isinstance(strategy, BatchStrategy) else strategy)
    if np.any((x < 0.0) | (x > grid.capacity)):
        raise ParameterError("storage column must lie in [0, c] per point")
    derived = grid.derived()
    zeros = np.zeros(len(grid))
    # origin_load via the tier boundary c-x+x·n, exactly as tier_fractions.
    load_optimal = 1.0 - _cdf_columns(
        grid, grid.capacity - x + x * grid.n_routers
    )
    load_baseline = 1.0 - _cdf_columns(
        grid, grid.capacity - zeros + zeros * grid.n_routers
    )
    degenerate = load_baseline <= 0.0
    g_o = np.where(
        degenerate,
        0.0,
        1.0 - load_optimal / np.where(degenerate, 1.0, load_baseline),
    )
    latency_optimal = _mean_latency_columns(grid, derived, x)
    latency_baseline = _mean_latency_columns(grid, derived, zeros)
    g_r = 1.0 - latency_optimal / latency_baseline
    _lock(g_o, g_r, load_optimal, load_baseline, latency_optimal, latency_baseline)
    return BatchGains(
        origin_load_reduction=g_o,
        routing_improvement=g_r,
        origin_load_optimal=load_optimal,
        origin_load_baseline=load_baseline,
        latency_optimal=latency_optimal,
        latency_baseline=latency_baseline,
    )
