"""Unit tests for the Che/TTL characteristic-time fixed points."""

import math
import warnings

import numpy as np
import pytest

from repro.approx import (
    CharacteristicTime,
    approx_memo_stats,
    characteristic_time,
    clear_approx_caches,
    hit_probabilities,
    solve_fixed_point,
    solve_fixed_point_batch,
)
from repro.core.zipf import clear_zipf_caches, zipf_tables
from repro.errors import ParameterError


def zipf_rates(s: float = 0.8, n: int = 2000) -> np.ndarray:
    pmf, _ = zipf_tables(s, n)
    return pmf


class TestConvergence:
    @pytest.mark.parametrize("policy", ["lru", "random", "fifo"])
    @pytest.mark.parametrize("capacity", [1.0, 10.0, 100.0, 1999.0])
    def test_occupancy_is_conserved_at_the_root(self, policy, capacity):
        rates = zipf_rates()
        solved = solve_fixed_point(rates, capacity, policy=policy)
        occupancy = float(
            hit_probabilities(rates, solved.value, policy=policy).sum()
        )
        assert occupancy == pytest.approx(capacity, abs=1e-6)
        assert solved.residual <= 1e-9

    def test_returns_characteristic_time_telemetry(self):
        solved = solve_fixed_point(zipf_rates(), 50.0)
        assert isinstance(solved, CharacteristicTime)
        assert solved.policy == "lru"
        assert solved.capacity == 50.0
        assert solved.iterations >= 1
        assert math.isfinite(solved.value) and solved.value > 0.0

    def test_scale_invariance_in_the_rates(self):
        rates = zipf_rates()
        t1 = solve_fixed_point(rates, 64.0).value
        t2 = solve_fixed_point(rates * 1e6, 64.0).value
        assert t2 == pytest.approx(t1 / 1e6, rel=1e-6)


class TestMonotonicity:
    @pytest.mark.parametrize("policy", ["lru", "random"])
    def test_characteristic_time_grows_with_capacity(self, policy):
        rates = zipf_rates()
        times = [
            solve_fixed_point(rates, c, policy=policy).value
            for c in (5.0, 20.0, 80.0, 320.0, 1280.0)
        ]
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_hit_probabilities_grow_with_capacity(self):
        rates = zipf_rates()
        h_small = hit_probabilities(rates, solve_fixed_point(rates, 10.0).value)
        h_large = hit_probabilities(rates, solve_fixed_point(rates, 100.0).value)
        assert np.all(h_large >= h_small)

    def test_lru_beats_random_on_the_head(self):
        # Che: LRU concentrates occupancy on popular contents harder than
        # Random, so the top-rank hit probability is strictly larger at
        # equal occupancy.
        rates = zipf_rates()
        h_lru = hit_probabilities(
            rates, solve_fixed_point(rates, 50.0, policy="lru").value, policy="lru"
        )
        h_rnd = hit_probabilities(
            rates,
            solve_fixed_point(rates, 50.0, policy="random").value,
            policy="random",
        )
        assert h_lru[0] > h_rnd[0]

    def test_fifo_aliases_random(self):
        rates = zipf_rates()
        t_fifo = solve_fixed_point(rates, 50.0, policy="fifo").value
        t_rnd = solve_fixed_point(rates, 50.0, policy="random").value
        assert t_fifo == pytest.approx(t_rnd, rel=1e-12)


class TestEdgeCases:
    def test_zero_capacity_gives_zero_time(self):
        solved = solve_fixed_point(zipf_rates(), 0.0)
        assert solved.value == 0.0
        assert solved.iterations == 0

    def test_full_support_gives_infinite_time(self):
        rates = zipf_rates(n=100)
        solved = solve_fixed_point(rates, 100.0)
        assert math.isinf(solved.value)
        h = hit_probabilities(rates, solved.value)
        assert np.all(h == 1.0)

    def test_zero_rate_contents_never_hit(self):
        rates = np.array([0.5, 0.0, 0.5])
        solved = solve_fixed_point(rates, 2.0)
        assert math.isinf(solved.value)  # support is 2, capacity 2
        assert list(hit_probabilities(rates, solved.value)) == [1.0, 0.0, 1.0]

    def test_perfect_lfu_is_rejected_by_the_timer_paths(self):
        with pytest.raises(ParameterError, match="perfect-lfu"):
            solve_fixed_point(zipf_rates(), 10.0, policy="perfect-lfu")
        with pytest.raises(ParameterError, match="perfect-lfu"):
            hit_probabilities(zipf_rates(), 1.0, policy="perfect-lfu")

    def test_in_cache_lfu_is_rejected(self):
        with pytest.raises(ParameterError, match="lfu"):
            solve_fixed_point(zipf_rates(), 10.0, policy="lfu")

    def test_negative_rates_are_rejected(self):
        with pytest.raises(ParameterError, match="non-negative"):
            solve_fixed_point(np.array([0.5, -0.1]), 1.0)


class TestBatchEquivalence:
    @pytest.mark.parametrize("policy", ["lru", "random"])
    def test_batch_rows_match_scalar_solves(self, policy):
        rates_rows = np.stack(
            [zipf_rates(0.6, 500), zipf_rates(0.8, 500), zipf_rates(1.2, 500)]
        )
        capacities = np.array([10.0, 40.0, 160.0])
        t_batch, iterations, residuals = solve_fixed_point_batch(
            rates_rows, capacities, policy=policy
        )
        assert iterations >= 1
        assert np.all(residuals <= 1e-9)
        for row in range(3):
            scalar = solve_fixed_point(
                rates_rows[row], capacities[row], policy=policy
            )
            assert t_batch[row] == pytest.approx(scalar.value, rel=1e-7)

    def test_batch_degenerate_rows(self):
        rates_rows = np.stack([zipf_rates(0.8, 50)] * 3)
        t, _, _ = solve_fixed_point_batch(
            rates_rows, np.array([0.0, 10.0, 50.0])
        )
        assert t[0] == 0.0
        assert 0.0 < t[1] < math.inf
        assert math.isinf(t[2])

    @pytest.mark.parametrize("policy", ["lru", "random"])
    def test_rows_are_bit_identical_to_scalar_solves(self, policy):
        # Weighted quadrature-like rows, with an empty and a full row in
        # the stack: the solved rows must equal the scalar solves bit
        # for bit, and the iteration total must equal their sum.
        rates = np.stack([zipf_rates(s, 300) for s in (0.6, 0.9, 1.3, 1.8)] * 2)
        weights = np.broadcast_to(np.arange(1.0, 301.0) % 7.0 + 1.0, rates.shape)
        support = weights[0].sum()
        capacities = np.array([0.0, 5.0, 40.0, 160.0, 700.0, support, 1.0, 90.0])
        t, iterations, residuals = solve_fixed_point_batch(
            rates, capacities, policy=policy, weights=weights
        )
        total = 0
        for row in range(rates.shape[0]):
            scalar = solve_fixed_point(
                rates[row], capacities[row], policy=policy, weights=weights[row]
            )
            assert t[row] == scalar.value
            assert residuals[row] == scalar.residual
            total += scalar.iterations
        assert iterations == total

    @pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
    def test_batch_rejects_bad_weights(self, bad):
        with pytest.raises(ParameterError, match="weights must be finite"):
            solve_fixed_point_batch(
                np.ones((1, 3)), np.array([1.0]), weights=np.full((1, 3), bad)
            )

    def test_batch_sweeps_no_finished_row(self):
        # Row 0 holds its whole support (T = inf, with a zero rate); it
        # must not enter the sweep, where inf·0 would warn.
        rates = np.array([[1.0, 0.0, 0.5], [1.0, 1.0, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            t, iterations, _ = solve_fixed_point_batch(rates, np.array([5.0, 1.0]))
        assert math.isinf(t[0])
        assert t[1] == solve_fixed_point(rates[1], 1.0).value
        assert iterations == solve_fixed_point(rates[1], 1.0).iterations

    def test_batch_weighted_matches_expanded(self):
        # Weights are multiplicities: [rate r, weight 3] == three unit
        # entries of rate r.
        rates = np.array([[0.6, 0.3, 0.1]])
        weights = np.array([[1.0, 3.0, 5.0]])
        expanded = np.array([[0.6, 0.3, 0.3, 0.3, 0.1, 0.1, 0.1, 0.1, 0.1]])
        t_w, _, _ = solve_fixed_point_batch(
            rates, np.array([4.0]), weights=weights
        )
        t_e, _, _ = solve_fixed_point_batch(expanded, np.array([4.0]))
        assert t_w[0] == pytest.approx(t_e[0], rel=1e-9)


class TestSingularityPath:
    def test_characteristic_time_is_continuous_through_s_equal_one(self):
        # The discrete zipf tables carry s = 1 exactly; the solved T_C
        # must sit between its close neighbours, no special-casing.
        times = {
            s: characteristic_time(s, 2000, 50.0) for s in (0.999, 1.0, 1.001)
        }
        lo, hi = sorted((times[0.999], times[1.001]))
        assert lo <= times[1.0] <= hi
        assert times[1.0] == pytest.approx(times[0.999], rel=1e-2)
        assert times[1.0] == pytest.approx(times[1.001], rel=1e-2)

    def test_exponent_domain_is_validated(self):
        with pytest.raises(ParameterError):
            characteristic_time(2.5, 1000, 10.0)


class TestMemoization:
    def test_memo_hits_and_clear(self):
        clear_zipf_caches()
        baseline = approx_memo_stats()
        assert baseline["entries"] == 0
        t1 = characteristic_time(0.8, 1500, 30.0)
        t2 = characteristic_time(0.8, 1500, 30.0)
        assert t1 == t2
        stats = approx_memo_stats()
        assert stats["misses"] == 1 and stats["hits"] == 1
        clear_approx_caches()
        assert approx_memo_stats()["entries"] == 0

    def test_zipf_cache_clear_cascades_to_the_memo(self):
        characteristic_time(0.7, 1000, 20.0)
        assert approx_memo_stats()["entries"] >= 1
        clear_zipf_caches()
        assert approx_memo_stats()["entries"] == 0
