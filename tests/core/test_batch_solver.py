"""Equivalence tests for repro.core.batch_solver vs the scalar oracle.

The contract under test (batch_solver module docstring): with
``warm_start=False`` the batched first-order path is bit-identical to
:func:`repro.core.optimizer.optimal_strategy`; with warm starts it
agrees within the solver tolerance — per point ``level`` within 1e-9,
``storage`` within ``1e-9·max(1, c)``, ``objective``/``G_O``/``G_R``
within 1e-9.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core.batch_solver import (
    BatchStrategy,
    ScenarioGrid,
    _closed_form_columns,
    evaluate_gains_batch,
    existence_mask,
    resolve_incremental,
    solve_batch,
)
from repro.core.conditions import check_existence
from repro.core.gains import evaluate_gains
from repro.core.optimizer import closed_form_alpha1, optimal_strategy
from repro.core.scenario import Scenario
from repro.errors import ExistenceConditionError, ParameterError
from repro.obs import session

BASE = Scenario()  # Table IV base point

LEVEL_TOL = 1e-9
VALUE_TOL = 1e-9


def random_scenarios(seed: int, count: int) -> list[Scenario]:
    """Fixed-seed scenario soup covering the solver's regimes.

    Exponents span both sides of the s = 1 singularity (kept at least
    0.02 away so the scalar model stack accepts them); α covers the
    boundary 0, interior values and the closed-form regime at 1.
    """
    rng = np.random.default_rng(seed)
    scenarios = []
    for i in range(count):
        if i % 7 == 0:
            alpha = 0.0
        elif i % 7 == 1:
            alpha = 1.0
        elif i % 7 == 2:
            alpha = float(rng.uniform(0.9, 1.0))  # warm-start regime
        else:
            alpha = float(rng.uniform(0.01, 0.99))
        exponent = float(rng.uniform(0.3, 1.95))
        if abs(exponent - 1.0) < 0.02:
            exponent = 1.05
        catalog = int(rng.integers(10_000, 2_000_000))
        scenarios.append(
            BASE.replace(
                alpha=alpha,
                gamma=float(rng.uniform(0.5, 15.0)),
                exponent=exponent,
                n_routers=int(rng.integers(2, 60)),
                catalog_size=catalog,
                capacity=float(rng.uniform(10.0, catalog / 100.0)),
                unit_cost=float(rng.uniform(1.0, 60.0)),
            )
        )
    return scenarios


def assert_matches_scalar(
    grid: ScenarioGrid, batched: BatchStrategy, **solve_kwargs
) -> None:
    for i in range(len(grid)):
        scenario = grid.scenario_at(i)
        scalar = optimal_strategy(
            scenario.model(), check_conditions=False, **solve_kwargs
        )
        assert batched.level[i] == pytest.approx(scalar.level, abs=LEVEL_TOL)
        assert batched.storage[i] == pytest.approx(
            scalar.storage, abs=VALUE_TOL * max(1.0, scenario.capacity)
        )
        assert batched.objective_value[i] == pytest.approx(
            scalar.objective_value, rel=VALUE_TOL, abs=VALUE_TOL
        )


class TestScenarioGrid:
    def test_from_product_round_trips_every_point(self):
        alphas = [0.1, 0.5, 0.9]
        gammas = [2.0, 8.0]
        grid = ScenarioGrid.from_product(BASE, alpha=alphas, gamma=gammas)
        assert len(grid) == 6
        expected = [
            BASE.replace(alpha=a, gamma=g) for a in alphas for g in gammas
        ]
        assert [grid.scenario_at(i) for i in range(6)] == expected

    def test_from_scenarios_round_trips(self):
        scenarios = random_scenarios(seed=3, count=12)
        grid = ScenarioGrid.from_scenarios(scenarios)
        assert [grid.scenario_at(i) for i in range(len(grid))] == scenarios

    def test_broadcasts_scalars_against_columns(self):
        grid = ScenarioGrid(alpha=[0.2, 0.4, 0.8], gamma=5.0)
        assert grid.gamma.tolist() == [5.0, 5.0, 5.0]

    def test_rejects_mismatched_column_lengths(self):
        with pytest.raises(ParameterError):
            ScenarioGrid(alpha=[0.2, 0.4], gamma=[1.0, 2.0, 3.0])

    def test_rejects_out_of_range_alpha(self):
        with pytest.raises(ParameterError):
            ScenarioGrid(alpha=[0.5, 1.5])

    def test_rejects_unknown_product_axis(self):
        with pytest.raises(ParameterError):
            ScenarioGrid.from_product(BASE, bogus=[1.0, 2.0])

    def test_rejects_empty_scenario_list(self):
        with pytest.raises(ParameterError):
            ScenarioGrid.from_scenarios([])

    def test_columns_and_derived_arrays_are_read_only(self):
        grid = ScenarioGrid(alpha=[0.3, 0.7])
        with pytest.raises(ValueError):
            grid.alpha[0] = 0.9
        derived = grid.derived()
        for name, column in derived.items():
            if isinstance(column, np.ndarray):
                assert not column.flags.writeable, name


class TestGridReplace:
    def test_matches_a_fresh_grid_and_shares_untouched_columns(self):
        grid = ScenarioGrid.from_product(BASE, alpha=[0.2, 0.6, 0.9])
        moved = grid.replace(exponent=[0.7, 1.0, 1.3], gamma=9.0)
        columns = {name: getattr(grid, name) for name in ScenarioGrid._COLUMNS}
        fresh = ScenarioGrid(**{**columns, "exponent": [0.7, 1.0, 1.3], "gamma": 9.0})
        for name in ScenarioGrid._COLUMNS:
            np.testing.assert_array_equal(getattr(moved, name), getattr(fresh, name))
            assert not getattr(moved, name).flags.writeable
        for name, column in moved.derived().items():
            np.testing.assert_array_equal(column, fresh.derived()[name], err_msg=name)
        assert moved.alpha is grid.alpha
        assert grid.exponent.tolist() == [BASE.exponent] * 3  # original untouched

    def test_copies_the_callers_array(self):
        grid = ScenarioGrid(alpha=[0.3])
        exponent = np.array([0.9])
        moved = grid.replace(exponent=exponent)
        exponent[0] = 1.9
        assert moved.exponent.tolist() == [0.9]

    @pytest.mark.parametrize(
        "columns",
        [
            {"exponent": 2.0},
            {"exponent": [0.5, float("nan")]},
            {"alpha": 1.5},
            {"n_routers": 2.5},
            {"capacity": 2e6},  # exceeds the grid's catalog_size
            {"catalog_size": 10.0},  # falls below the grid's capacity
            {"exponent": [0.5, 0.6, 0.7]},  # does not broadcast to 2 points
            {"bogus": 1.0},
        ],
    )
    def test_validates_only_what_it_replaces(self, columns):
        grid = ScenarioGrid(alpha=[0.3, 0.4])
        with pytest.raises(ParameterError):
            grid.replace(**columns)


class TestFirstOrderEquivalence:
    def test_random_grid_matches_scalar_within_tolerance(self):
        scenarios = random_scenarios(seed=11, count=40)
        grid = ScenarioGrid.from_scenarios(scenarios)
        batched = solve_batch(grid, check_conditions=False)
        assert_matches_scalar(grid, batched)

    def test_cold_path_is_bit_identical_to_scalar(self):
        scenarios = random_scenarios(seed=23, count=25)
        grid = ScenarioGrid.from_scenarios(scenarios)
        batched = solve_batch(grid, check_conditions=False, warm_start=False)
        for i, scenario in enumerate(scenarios):
            scalar = optimal_strategy(scenario.model(), check_conditions=False)
            assert float(batched.level[i]) == scalar.level
            assert float(batched.storage[i]) == scalar.storage

    def test_singular_exponent_matches_scalar(self):
        grid = ScenarioGrid.from_product(
            BASE.replace(exponent=1.0), alpha=[0.3, 0.6, 1.0]
        )
        batched = solve_batch(grid, check_conditions=False, warm_start=False)
        assert_matches_scalar(grid, batched)

    def test_alpha_zero_is_boundary(self):
        grid = ScenarioGrid(alpha=[0.0, 0.5])
        batched = solve_batch(grid, check_conditions=False)
        assert batched.level[0] == 0.0
        assert str(batched.method[0]) == "boundary"
        assert str(batched.method[1]) == "first-order"

    def test_high_gamma_points_push_toward_saturation(self):
        # High α with a steep tier ratio drives ℓ* toward 1 (cf. Figure 4);
        # the (c-x)^{-s} local term keeps the optimum strictly interior,
        # which both solvers must agree on.
        grid = ScenarioGrid.from_product(
            BASE.replace(alpha=1.0), gamma=[20.0, 50.0]
        )
        batched = solve_batch(grid, check_conditions=False)
        assert_matches_scalar(grid, batched)
        assert bool((np.array(batched.level) > 0.98).all())
        assert not bool(batched.fully_coordinated.any())

    def test_warm_start_predictor_is_closed_form(self):
        # The warm-start probes bracket Theorem 2's eq. 8 level, so the
        # predictor must be the scalar closed form at every grid point.
        grid = ScenarioGrid.from_product(
            BASE.replace(alpha=1.0),
            gamma=[0.5, 2.0, 5.0, 20.0],
            exponent=[0.6, 0.8, 1.4],
        )
        predicted = _closed_form_columns(grid)
        for i in range(len(grid)):
            point = grid.scenario_at(i)
            assert predicted[i] == pytest.approx(
                closed_form_alpha1(point.gamma, point.n_routers, point.exponent),
                rel=1e-12,
            )

    def test_strategy_at_round_trips_scalar_fields(self):
        grid = ScenarioGrid(alpha=[0.4])
        batched = solve_batch(grid, check_conditions=False)
        scalar = batched.strategy_at(0)
        assert scalar.level == float(batched.level[0])
        assert scalar.method == "first-order"
        assert scalar.alpha == 0.4


class TestGainsEquivalence:
    def test_gains_match_scalar_per_point(self):
        scenarios = random_scenarios(seed=41, count=30)
        grid = ScenarioGrid.from_scenarios(scenarios)
        batched = solve_batch(grid, check_conditions=False)
        gains = evaluate_gains_batch(grid, batched)
        for i, scenario in enumerate(scenarios):
            model = scenario.model()
            scalar = evaluate_gains(
                model, optimal_strategy(model, check_conditions=False)
            )
            assert gains.origin_load_reduction[i] == pytest.approx(
                scalar.origin_load_reduction, abs=VALUE_TOL
            )
            assert gains.routing_improvement[i] == pytest.approx(
                scalar.routing_improvement, abs=VALUE_TOL
            )

    def test_accepts_raw_storage_column(self):
        grid = ScenarioGrid(alpha=[0.5, 0.5], capacity=[100.0, 100.0])
        gains = evaluate_gains_batch(grid, np.array([0.0, 50.0]))
        assert gains.origin_load_reduction[0] == 0.0
        assert gains.origin_load_reduction[1] > 0.0

    def test_rejects_storage_outside_capacity(self):
        grid = ScenarioGrid(alpha=[0.5], capacity=[100.0])
        with pytest.raises(ParameterError):
            evaluate_gains_batch(grid, np.array([150.0]))


class TestExistenceHandling:
    def test_mask_matches_scalar_check_per_point(self):
        grid = ScenarioGrid(
            alpha=0.5,
            n_routers=[20.0, 1.0, 20.0, 20.0],
            catalog_size=[10**6, 10**6, 50.0, 10**6],
            capacity=[10**3, 10**3, 10.0, 10**6],
        )
        mask = existence_mask(grid)
        for i in range(len(grid)):
            point = grid.scenario_at(i)
            conditions = check_existence(
                capacity=point.capacity,
                catalog_size=point.catalog_size,
                n_routers=point.n_routers,
                exponent=point.exponent,
                latency=point.latency(),
            )
            assert bool(mask[i]) == (not conditions.violations)
        assert mask.tolist() == [True, False, False, False]

    def test_solve_batch_raises_with_point_index(self):
        grid = ScenarioGrid(alpha=[0.5, 0.5], catalog_size=[10**6, 50.0],
                            capacity=[10**3, 10.0])
        with pytest.raises(ExistenceConditionError, match="grid point 1"):
            solve_batch(grid)

    def test_check_conditions_false_records_mask(self):
        grid = ScenarioGrid(alpha=[0.5, 0.5], catalog_size=[10**6, 50.0],
                            capacity=[10**3, 10.0])
        batched = solve_batch(grid, check_conditions=False)
        assert batched.existence_ok.tolist() == [True, False]


class TestObservability:
    def test_solve_batch_reports_span_and_metrics(self):
        grid = ScenarioGrid.from_product(BASE, alpha=[0.2, 0.5, 0.8])
        with session() as active:
            solve_batch(grid, check_conditions=False)
        snap = active.snapshot()
        assert snap["counters"].get("solver.batch.grids") == 1.0
        assert snap["counters"].get("solver.batch.points") == 3.0
        assert "solver.batch.iterations" in snap["gauges"]
        assert "solver.batch" in snap["spans"]


def strategy_digest(strategy: BatchStrategy) -> str:
    """sha256 over the level, storage and objective columns."""
    digest = hashlib.sha256()
    for column in (strategy.level, strategy.storage, strategy.objective_value):
        digest.update(np.ascontiguousarray(column).tobytes())
    return digest.hexdigest()


class TestGridPlanPin:
    """Bitwise pins at grid-plan shape (50 α × 40 s × 50 γ = 100k points).

    The exponent axis reaches down to s = 0.05, so the grid holds every
    branch of the first-order solve: α = 0 (2,000 points), d(0) ≥ 0,
    clip-at-c (2,942) and Theorem 2 warm starts (9,058).  The digests
    were recorded before the bisection moved to compacted, buffered
    sweeps; each point keeps the same float64 operations, so the bits
    may not move.
    """

    @pytest.fixture(scope="class")
    def grid(self) -> ScenarioGrid:
        exponent = np.linspace(0.05, 1.9, 40)
        exponent = np.where(np.abs(exponent - 1.0) < 0.02, 1.03, exponent)
        base = BASE.replace(n_routers=164, catalog_size=517_947, capacity=1464.0)
        return ScenarioGrid.from_product(
            base,
            alpha=np.linspace(0.0, 1.0, 50),
            exponent=exponent,
            gamma=np.linspace(1.0, 12.0, 50),
        )

    @pytest.fixture(scope="class")
    def cold(self, grid) -> BatchStrategy:
        return solve_batch(grid, check_conditions=False)

    def test_warm_started_solve(self, cold):
        assert cold.iterations == 40
        assert strategy_digest(cold) == (
            "5b3144005a291d6ae7a49b1f63cc8f932fee6046ecb702258fb82f3ee275963e"
        )

    def test_plain_bisection(self, grid):
        plain = solve_batch(grid, check_conditions=False, warm_start=False)
        assert plain.iterations == 40
        assert strategy_digest(plain) == (
            "9eb113229165be558d25969a9f8f6a4fed38249d3414c883465d9f408ac2501c"
        )

    def test_resolve_after_a_gamma_step(self, grid, cold):
        mask = np.zeros(len(grid), dtype=bool)
        mask[::20] = True
        gamma = np.array(grid.gamma)
        gamma[mask] *= 1.03
        warm = resolve_incremental(
            grid.replace(gamma=gamma), cold, mask, check_conditions=False
        )
        assert warm.iterations == 14
        assert strategy_digest(warm) == (
            "a4c4616438e86ad1f31e04343721fdd0c3b59aab498ad77e1e8a6d0370dcfab0"
        )

    def test_resolve_from_a_flat_seed_reaches_the_bisection_ladder(self, grid):
        warm = resolve_incremental(
            grid, np.full(len(grid), 0.5), check_conditions=False
        )
        assert warm.iterations == 57
        assert strategy_digest(warm) == (
            "c497b6081883870f198c444ba8addbcb65e280b315ef512c9f6d2280e7c31a6d"
        )
