"""Tests for repro.adaptive.tracker — warm-started strategy tracking.

The tracker is the adaptive layer's bridge to the incremental
re-solver: these tests pin (a) warm/cold equivalence of the controller
trace, (b) the counting model (cold exactly once, everything else warm
or skipped), and (c) the dead-band skip semantics at the boundary.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.adaptive import (
    AdaptiveSimulation,
    DriftingPopularity,
    ModelBasedController,
    WarmStrategyTracker,
    linear_drift,
    step_drift,
)
from repro.core import Scenario
from repro.core.optimizer import optimal_strategy
from repro.errors import ParameterError
from repro.obs import session
from repro.topology import ring_topology


def make_scenario(**overrides):
    params = dict(alpha=0.7, n_routers=8, capacity=40.0, catalog_size=4_000)
    params.update(overrides)
    return Scenario(**params)


def make_simulation(controller, *, drift=None, seed=1):
    scenario = make_scenario()
    topology = ring_topology(scenario.n_routers)
    drift = drift or DriftingPopularity(linear_drift(0.6, 1.4, 10), 4_000)
    return AdaptiveSimulation(
        topology, scenario, drift, controller,
        requests_per_epoch=1_500, seed=seed,
    )


class TestSolveAgreement:
    """Tracker solves must match the scalar cold oracle."""

    @pytest.mark.parametrize("exponent", [0.3, 0.6, 0.9, 1.0, 1.3, 1.7])
    def test_first_solve_matches_scalar_oracle(self, exponent):
        scenario = make_scenario()
        tracker = WarmStrategyTracker(scenario)
        got = tracker.solve(exponent)
        want = optimal_strategy(
            scenario.replace(exponent=exponent).model(), check_conditions=False
        )
        assert got.level == pytest.approx(want.level, abs=1e-9)
        assert got.objective_value == pytest.approx(want.objective_value, abs=1e-9)

    def test_warm_trajectory_matches_scalar_oracle(self):
        scenario = make_scenario()
        tracker = WarmStrategyTracker(scenario)
        for exponent in np.linspace(0.5, 1.5, 21):
            got = tracker.solve(float(exponent))
            want = optimal_strategy(
                scenario.replace(exponent=float(exponent)).model(),
                check_conditions=False,
            )
            assert got.level == pytest.approx(want.level, abs=1e-9)
        assert tracker.cold_solves == 1
        assert tracker.warm_solves == 20

    def test_regime_change_across_capacity_boundary(self):
        # s = 0.5 saturates at full coordination; jumping to s = 1.4
        # re-seeds the warm solve from the at-capacity boundary, the
        # x = c singularity's worst case.
        scenario = make_scenario()
        tracker = WarmStrategyTracker(scenario)
        tracker.solve(0.5)
        got = tracker.solve(1.4)
        want = optimal_strategy(
            scenario.replace(exponent=1.4).model(), check_conditions=False
        )
        assert got.level == pytest.approx(want.level, abs=1e-9)


class TestCountingModel:
    def test_cold_exactly_once_then_warm(self):
        tracker = WarmStrategyTracker(make_scenario())
        for exponent in (0.7, 0.9, 1.1):
            tracker.solve(exponent)
        assert tracker.cold_solves == 1
        assert tracker.warm_solves == 2
        assert tracker.skipped == 0

    def test_repeated_exponent_is_deduplicated_at_zero_dead_band(self):
        tracker = WarmStrategyTracker(make_scenario())
        first = tracker.solve(0.8)
        second = tracker.solve(0.8)
        assert second is first
        assert tracker.cold_solves == 1
        assert tracker.warm_solves == 0
        assert tracker.skipped == 1

    def test_obs_counters_record_solve_kinds(self):
        tracker = WarmStrategyTracker(make_scenario(), dead_band=0.05)
        with session() as obs:
            tracker.solve(0.8)
            tracker.solve(0.81)  # inside band -> skipped
            tracker.solve(1.0)   # outside band -> warm
            metrics = obs.snapshot()
        counters = metrics["counters"]
        assert counters["adaptive.tracker.cold_solves"] == 1
        assert counters["adaptive.tracker.skipped"] == 1
        assert counters["adaptive.tracker.warm_solves"] == 1


class TestWarmGrid:
    def test_warm_solves_reuse_the_first_grid(self, monkeypatch):
        from repro.core.batch_solver import ScenarioGrid

        tracker = WarmStrategyTracker(make_scenario())
        tracker.solve(0.8)

        def rebuilt(*args, **kwargs):
            raise AssertionError("a warm solve rebuilt the whole grid")

        monkeypatch.setattr(ScenarioGrid, "from_product", rebuilt)
        monkeypatch.setattr(ScenarioGrid, "__init__", rebuilt)
        for exponent in (0.9, 1.0, 1.2):
            level = tracker.solve(exponent).level
            want = optimal_strategy(
                make_scenario(exponent=exponent).model(), check_conditions=False
            ).level
            assert level == pytest.approx(want, abs=1e-9)
        assert tracker.warm_solves == 3

    def test_warm_solve_still_validates_the_exponent(self):
        tracker = WarmStrategyTracker(make_scenario())
        tracker.solve(0.8)
        with pytest.raises(ParameterError):
            tracker.solve(2.5)
        assert tracker.solved_exponent == 0.8


class TestDeadBand:
    def test_negative_dead_band_rejected(self):
        with pytest.raises(ParameterError):
            WarmStrategyTracker(make_scenario(), dead_band=-0.1)

    def test_move_exactly_at_boundary_skips(self):
        # |Δs| == dead_band must skip: re-solves happen only strictly
        # past the band.
        tracker = WarmStrategyTracker(make_scenario(), dead_band=0.1)
        first = tracker.solve(0.8)
        again = tracker.solve(0.8 + 0.1)
        assert again is first
        assert tracker.skipped == 1
        assert tracker.solved_exponent == 0.8

    def test_move_strictly_past_boundary_resolves(self):
        tracker = WarmStrategyTracker(make_scenario(), dead_band=0.1)
        tracker.solve(0.8)
        moved = tracker.solve(0.8 + 0.1 + 1e-9)
        assert tracker.warm_solves == 1
        assert tracker.solved_exponent == pytest.approx(0.9, abs=1e-8)
        want = optimal_strategy(
            make_scenario().replace(exponent=0.9 + 1e-9).model(),
            check_conditions=False,
        )
        assert moved.level == pytest.approx(want.level, abs=1e-9)

    def test_band_is_anchored_to_last_solved_not_last_seen(self):
        # A drift of many sub-band steps must still re-solve once the
        # cumulative move passes the band: the anchor is the last
        # *solved* exponent.
        tracker = WarmStrategyTracker(make_scenario(), dead_band=0.05)
        tracker.solve(0.8)
        for exponent in (0.82, 0.84, 0.85):
            tracker.solve(exponent)
        assert tracker.warm_solves == 0
        tracker.solve(0.86)  # 0.06 past the 0.8 anchor
        assert tracker.warm_solves == 1
        assert tracker.solved_exponent == 0.86


class TestControllerEquivalence:
    """The warm controller must reproduce the legacy cold-solve trace."""

    def run_pair(self, drift, *, dead_band=0.0, epochs=10):
        scenario = make_scenario()
        warm = ModelBasedController(scenario, dead_band=dead_band, warm=True)
        cold = ModelBasedController(scenario, warm=False)
        trace_w = make_simulation(warm, drift=drift, seed=3).run(epochs)
        trace_c = make_simulation(cold, drift=drift, seed=3).run(epochs)
        return warm, cold, trace_w, trace_c

    def test_warm_trace_equals_cold_trace(self):
        drift = DriftingPopularity(linear_drift(0.6, 1.4, 10), 4_000)
        warm, cold, trace_w, trace_c = self.run_pair(drift)
        np.testing.assert_allclose(
            trace_w.levels(), trace_c.levels(), atol=1e-9
        )
        np.testing.assert_allclose(
            trace_w.oracle_levels(), trace_c.oracle_levels(), atol=1e-9
        )
        assert trace_w.mean_regret() == pytest.approx(
            trace_c.mean_regret(), abs=1e-6
        )
        assert trace_w.total_churn() == trace_c.total_churn()

    def test_warm_controller_uses_strictly_fewer_cold_solves(self):
        drift = DriftingPopularity(step_drift([0.6, 1.4], 5), 4_000)
        warm, cold, trace_w, trace_c = self.run_pair(drift)
        # Legacy path cold-solves optimal_strategy every epoch (10);
        # the warm path pays exactly one cold solve.
        assert warm.tracker.cold_solves == 1
        assert warm.tracker.cold_solves + warm.tracker.warm_solves <= 10
        assert warm.tracker.warm_solves >= 1

    def test_dead_band_skips_solves_without_breaking_tracking(self):
        drift = DriftingPopularity(linear_drift(0.9, 0.95, 10), 4_000)
        warm, cold, trace_w, trace_c = self.run_pair(drift, dead_band=0.04)
        assert warm.tracker.skipped >= 1
        solves = warm.tracker.cold_solves + warm.tracker.warm_solves
        assert solves < 10
        # Within the band the provisioned level may lag the cold trace
        # by at most the optimum's sensitivity over the band width.
        assert np.max(np.abs(trace_w.levels() - trace_c.levels())) < 0.05


class TestRunnerOracleTracker:
    def test_oracle_served_warm_across_epochs(self):
        controller = ModelBasedController(make_scenario())
        simulation = make_simulation(controller)
        trace = simulation.run(6)
        tracker = simulation._oracle_tracker
        assert tracker.cold_solves == 1
        assert tracker.cold_solves + tracker.warm_solves + tracker.skipped == 6
        for record in trace.records:
            want = optimal_strategy(
                make_scenario().replace(exponent=record.true_exponent).model(),
                check_conditions=False,
            )
            assert record.oracle_level == pytest.approx(want.level, abs=1e-9)
