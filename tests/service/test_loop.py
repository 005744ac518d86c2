"""Tests for repro.service.loop — the online control loop.

Covers the satellite edge cases: empty measurement windows, single-rank
streams, drift exactly at the dead-band boundary, and estimates outside
the solver envelope (clamped and counted).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import Scenario
from repro.core.optimizer import optimal_strategy
from repro.errors import ParameterError
from repro.obs import session
from repro.service import DeadBandPolicy, MeasurementBatch, OptimizerService, parse_line
from repro.service.policy import SOLVER_EXPONENT_CEILING


def make_scenario(**overrides):
    params = dict(alpha=0.7, n_routers=8, capacity=40.0, catalog_size=4_000)
    params.update(overrides)
    return Scenario(**params)


def zipf_batch(exponent, *, size=600, catalog=4_000, seed=0):
    rng = np.random.default_rng(seed)
    weights = np.arange(1, catalog + 1, dtype=np.float64) ** -exponent
    weights /= weights.sum()
    ranks = rng.choice(np.arange(1, catalog + 1), size=size, p=weights)
    return MeasurementBatch(ranks=ranks)


class TestTickLifecycle:
    def test_first_traffic_tick_is_cold_then_warm(self):
        service = OptimizerService(make_scenario())
        first = service.ingest(zipf_batch(0.8, seed=1))
        second = service.ingest(zipf_batch(1.2, seed=2))
        assert first.action == "cold"
        assert second.action == "warm"
        assert service.tracker.cold_solves == 1
        assert service.tracker.warm_solves == 1

    def test_tick_level_matches_scalar_oracle(self):
        scenario = make_scenario()
        service = OptimizerService(scenario)
        tick = service.ingest(zipf_batch(0.9, seed=3))
        want = optimal_strategy(
            scenario.replace(exponent=tick.estimate).model(),
            check_conditions=False,
        )
        assert tick.level == pytest.approx(want.level, abs=1e-9)

    def test_run_yields_a_tick_per_batch(self):
        service = OptimizerService(make_scenario())
        batches = [zipf_batch(0.8, seed=s) for s in range(4)]
        ticks = list(service.run(batches))
        assert [t.index for t in ticks] == [0, 1, 2, 3]
        assert service.ticks == 4

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ParameterError):
            OptimizerService(make_scenario(), bounds=(1.0, 0.5))


class TestEmptyWindow:
    def test_empty_stream_start_is_idle(self):
        service = OptimizerService(make_scenario())
        tick = service.ingest(MeasurementBatch())
        assert tick.action == "idle"
        assert tick.estimate is None
        assert tick.level is None
        assert tick.observed == 0
        assert service.tracker.cold_solves == 0

    def test_empty_window_after_traffic_keeps_last_estimate(self):
        service = OptimizerService(make_scenario())
        first = service.ingest(zipf_batch(0.8))
        empty = service.ingest(MeasurementBatch())
        # The window is unchanged, so the estimate repeats and the
        # dead-band (0 = exact dedup) absorbs it: no new solve.
        assert empty.action == "skipped"
        assert empty.estimate == pytest.approx(first.estimate)
        assert empty.level == first.level
        assert empty.staleness == 1
        assert service.tracker.warm_solves == 0

    def test_idle_ticks_accumulate_staleness_only_after_a_solve(self):
        service = OptimizerService(make_scenario())
        assert service.ingest(MeasurementBatch()).staleness == 0
        assert service.ingest(MeasurementBatch()).staleness == 0
        service.ingest(zipf_batch(0.8))
        assert service.ingest(MeasurementBatch()).staleness == 1
        assert service.ingest(MeasurementBatch()).staleness == 2


class TestSingleRankStream:
    def test_single_rank_stream_pins_to_upper_bound(self):
        # Every request for rank 1: the MLE runs to its upper search
        # bound (maximally skewed traffic), which sits exactly on the
        # solver envelope — representable, not clamped.
        service = OptimizerService(make_scenario())
        tick = service.ingest(
            MeasurementBatch(ranks=np.ones(500, dtype=np.int64))
        )
        assert tick.estimate == pytest.approx(SOLVER_EXPONENT_CEILING)
        assert not tick.clamped
        assert tick.action == "cold"
        assert 0.0 <= tick.level <= 1.0


class TestDeadBandBoundary:
    def test_drift_exactly_at_boundary_skips(self):
        scenario = make_scenario()
        service = OptimizerService(
            scenario, policy=DeadBandPolicy(dead_band=0.05)
        )
        service.tracker.solve(0.8)  # seed the anchor directly
        # |0.85 - 0.8| == dead_band must skip; strictly past re-solves.
        service.tracker.solve(0.85)
        assert service.tracker.skipped == 1
        assert service.tracker.solved_exponent == 0.8
        service.tracker.solve(0.85 + 1e-9)
        assert service.tracker.warm_solves == 1

    def test_dead_band_skip_reported_on_tick(self):
        service = OptimizerService(
            make_scenario(), policy=DeadBandPolicy(dead_band=0.5)
        )
        service.ingest(zipf_batch(0.8, seed=1))
        tick = service.ingest(zipf_batch(0.9, seed=2))
        assert tick.action == "skipped"
        assert tick.staleness == 1
        assert tick.tracking_error == pytest.approx(
            abs(tick.estimate - service.tracker.solved_exponent)
        )


class TestClamping:
    def test_estimate_outside_solver_envelope_is_clamped_and_counted(self):
        # Widened MLE bounds let a single-rank stream run past the
        # solver's eq. 6 envelope; the policy clamps it back and the
        # clamp lands on the obs counter.
        service = OptimizerService(make_scenario(), bounds=(0.05, 3.0))
        with session() as obs:
            tick = service.ingest(
                MeasurementBatch(ranks=np.ones(500, dtype=np.int64))
            )
            metrics = obs.snapshot()
        assert tick.clamped
        assert tick.estimate == pytest.approx(SOLVER_EXPONENT_CEILING)
        assert metrics["counters"]["service.estimate_clamped"] == 1
        assert tick.action == "cold"

    def test_policy_validation(self):
        with pytest.raises(ParameterError):
            DeadBandPolicy(dead_band=-0.01)
        with pytest.raises(ParameterError):
            DeadBandPolicy(floor=0.5, ceiling=0.4)
        with pytest.raises(ParameterError):
            DeadBandPolicy(ceiling=2.5)


class TestObservability:
    def test_gauges_and_counters_per_tick(self):
        service = OptimizerService(make_scenario())
        with session() as obs:
            service.ingest(zipf_batch(0.8, seed=1))
            service.ingest(zipf_batch(0.8, seed=1))
            metrics = obs.snapshot()
        counters = metrics["counters"]
        gauges = metrics["gauges"]
        assert counters["service.ticks"] == 2
        assert counters["adaptive.tracker.cold_solves"] == 1
        assert "service.solve_latency_s" in gauges
        assert "service.estimate_staleness" in gauges
        assert "service.tracking_error" in gauges
        assert "service.tick" in metrics["spans"]
        assert "service.solve" in metrics["spans"]


def drift_lines(seed, *, count=120, catalog=5_000, mean=50, idle=0.05, period=40):
    """Wire-format lines like the serve-drift benchmark workload's.

    Poisson(``mean``) ranks per line from a bounded continuous power law
    with exponent ``s(t) = 1 + 0.4 sin(2πt / period)``, floored to
    integer ranks; a share ``idle`` of the lines is blank.
    """
    rng = np.random.default_rng(seed)
    sizes = rng.poisson(mean, count)
    sizes[rng.random(count) < idle] = 0
    exponent = np.repeat(1.0 + 0.4 * np.sin(2.0 * np.pi * np.arange(count) / period), sizes)
    u = rng.random(int(sizes.sum()))
    a = 1.0 - exponent
    top = catalog + 1.0
    flat = np.abs(a) < 1e-9
    a_safe = np.where(flat, 1.0, a)
    x = np.where(flat, top**u, (1.0 + u * (top**a_safe - 1.0)) ** (1.0 / a_safe))
    ranks = np.clip(np.floor(x), 1, catalog).astype(np.int64)
    return [" ".join(map(str, line.tolist())) for line in np.split(ranks, np.cumsum(sizes)[:-1])]


class TestDriftReplay:
    """Interpolated score vs the exact score over a drifting wire stream."""

    @staticmethod
    def _replay(scenario, lines):
        service = OptimizerService(
            scenario, memory=0.6, policy=DeadBandPolicy(dead_band=0.01)
        )
        return list(service.run(parse_line(line) for line in lines))

    @pytest.mark.parametrize("seed", [0, 1])
    def test_ticks_match_exact_score_replay(self, seed, monkeypatch):
        from repro.adaptive import estimator as est_mod

        scenario = Scenario(alpha=0.6, n_routers=20, capacity=50.0, catalog_size=5_000)
        lines = ["", *drift_lines(seed)]  # opens with an idle tick
        fast = self._replay(scenario, lines)
        monkeypatch.setattr(est_mod, "_score_interpolant", lambda *key: None)
        exact = self._replay(scenario, lines)
        assert [(t.action, t.clamped) for t in fast] == [
            (t.action, t.clamped) for t in exact
        ]
        assert {t.action for t in fast} == {"idle", "cold", "warm", "skipped"}
        for tick, reference in zip(fast, exact):
            if tick.estimate is not None:
                assert abs(tick.estimate - reference.estimate) <= 1e-10
            if tick.action in ("cold", "warm"):
                want = optimal_strategy(
                    scenario.replace(exponent=tick.estimate).model(),
                    check_conditions=False,
                )
                assert abs(tick.level - want.level) <= 1e-9
