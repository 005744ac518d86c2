"""Unit tests for repro.adaptive.estimator — online Zipf MLE."""

from __future__ import annotations

import numpy as np
import pytest

from repro.adaptive.estimator import ExponentEstimator, estimate_exponent
from repro.catalog import ZipfModel
from repro.errors import ParameterError


class TestBatchMLE:
    @pytest.mark.parametrize("true_s", [0.5, 0.8, 1.2, 1.6])
    def test_recovers_true_exponent(self, true_s):
        model = ZipfModel(true_s, 5_000)
        ranks = model.sample(30_000, np.random.default_rng(7))
        estimate = estimate_exponent(ranks, 5_000)
        assert estimate == pytest.approx(true_s, abs=0.05)

    def test_more_samples_tighter(self):
        model = ZipfModel(0.9, 2_000)
        rng = np.random.default_rng(1)
        small = abs(estimate_exponent(model.sample(500, rng), 2_000) - 0.9)
        rng = np.random.default_rng(1)
        large = abs(estimate_exponent(model.sample(50_000, rng), 2_000) - 0.9)
        assert large <= small + 0.02

    def test_rejects_empty(self):
        with pytest.raises(ParameterError):
            estimate_exponent(np.array([]), 100)

    def test_rejects_out_of_catalog_ranks(self):
        with pytest.raises(ParameterError):
            estimate_exponent(np.array([1, 500]), 100)

    def test_rejects_bad_bounds(self):
        with pytest.raises(ParameterError):
            estimate_exponent(np.array([1, 2]), 100, bounds=(1.0, 0.5))


class TestWindowedEstimator:
    def test_single_batch_matches_batch_mle(self):
        model = ZipfModel(0.8, 2_000)
        ranks = model.sample(10_000, np.random.default_rng(3))
        estimator = ExponentEstimator(2_000, memory=0.5)
        estimator.observe(ranks)
        assert estimator.estimate() == pytest.approx(
            estimate_exponent(ranks, 2_000), abs=1e-9
        )

    def test_tracks_drift(self):
        """After a regime change, low memory forgets the old exponent."""
        old = ZipfModel(0.5, 2_000)
        new = ZipfModel(1.5, 2_000)
        rng = np.random.default_rng(5)
        estimator = ExponentEstimator(2_000, memory=0.2)
        estimator.observe(old.sample(5_000, rng))
        for _ in range(6):
            estimator.observe(new.sample(5_000, rng))
        assert estimator.estimate() == pytest.approx(1.5, abs=0.1)

    def test_high_memory_averages_regimes(self):
        old = ZipfModel(0.5, 2_000)
        new = ZipfModel(1.5, 2_000)
        rng = np.random.default_rng(5)
        sticky = ExponentEstimator(2_000, memory=0.95)
        sticky.observe(old.sample(20_000, rng))
        sticky.observe(new.sample(5_000, rng))
        estimate = sticky.estimate()
        assert 0.5 < estimate < 1.4  # still pulled toward the old regime

    def test_empty_observation_is_noop(self):
        estimator = ExponentEstimator(100)
        estimator.observe(np.array([], dtype=int))
        assert not estimator.has_observations

    def test_estimate_without_observations_raises(self):
        with pytest.raises(ParameterError):
            ExponentEstimator(100).estimate()

    def test_reset(self):
        estimator = ExponentEstimator(100)
        estimator.observe(np.array([1, 2, 3]))
        estimator.reset()
        assert not estimator.has_observations

    def test_validates_construction(self):
        with pytest.raises(ParameterError):
            ExponentEstimator(1)
        with pytest.raises(ParameterError):
            ExponentEstimator(100, memory=1.0)

    def test_validates_observed_ranks(self):
        estimator = ExponentEstimator(100)
        with pytest.raises(ParameterError):
            estimator.observe(np.array([0]))


class TestWarmNewtonMLE:
    """The warm Newton solve is pinned to the scalar MLE (satellite 1)."""

    @staticmethod
    def _brentq_reference(mean_log_rank: float, catalog: int) -> float:
        """Root of the score f'(s) = m − E_s[log j] by high-precision brentq."""
        from scipy import optimize

        log_ranks = np.log(np.arange(1, catalog + 1, dtype=np.float64))

        def score(s: float) -> float:
            weights = np.exp(-s * log_ranks)
            return mean_log_rank - float(weights @ log_ranks) / float(
                weights.sum()
            )

        return float(optimize.brentq(score, 0.05, 1.95, xtol=1e-13))

    @pytest.mark.parametrize("true_s", [0.3, 0.7, 1.1, 1.6, 1.9])
    def test_newton_pins_to_scalar_mle_within_1e9(self, true_s):
        from repro.adaptive.estimator import _solve_mle

        catalog = 50_000
        log_ranks = np.log(np.arange(1, catalog + 1, dtype=np.float64))
        weights = np.exp(-true_s * log_ranks)
        mean_log_rank = float(weights @ log_ranks) / float(weights.sum())
        got = _solve_mle(mean_log_rank, catalog, (0.05, 1.95))
        assert got == pytest.approx(
            self._brentq_reference(mean_log_rank, catalog), abs=1e-9
        )

    def test_newton_matches_legacy_bounded_minimization(self):
        """Agreement with the pre-incremental solver within its xatol."""
        from scipy import optimize
        import math

        from repro.adaptive.estimator import _solve_mle
        from repro.core.zipf import harmonic_number

        catalog = 20_000
        model = ZipfModel(1.1, catalog)
        ranks = model.sample(30_000, np.random.default_rng(11))
        mean_log_rank = float(np.mean(np.log(ranks.astype(np.float64))))
        legacy = optimize.minimize_scalar(
            lambda s: s * mean_log_rank
            + math.log(harmonic_number(catalog, s)),
            bounds=(0.05, 1.95),
            method="bounded",
            options={"xatol": 1e-8},
        )
        got = _solve_mle(mean_log_rank, catalog, (0.05, 1.95))
        assert got == pytest.approx(float(legacy.x), abs=5e-8)

    def test_non_convergence_falls_back_to_bounded_minimization(
        self, monkeypatch
    ):
        from repro.adaptive import estimator as est_mod

        monkeypatch.setattr(est_mod, "_NEWTON_MAX_ITERATIONS", 0)
        catalog = 5_000
        model = ZipfModel(0.9, catalog)
        ranks = model.sample(10_000, np.random.default_rng(13))
        fallback = estimate_exponent(ranks, catalog)
        monkeypatch.undo()
        newton = estimate_exponent(ranks, catalog)
        assert fallback == pytest.approx(newton, abs=5e-8)

    def test_huge_catalog_uses_bounded_minimization(self, monkeypatch):
        from repro.adaptive import estimator as est_mod

        monkeypatch.setattr(est_mod, "_MAX_EXACT_CATALOG", 100)
        catalog = 5_000
        model = ZipfModel(0.9, catalog)
        ranks = model.sample(10_000, np.random.default_rng(13))
        fallback = estimate_exponent(ranks, catalog)
        monkeypatch.undo()
        newton = estimate_exponent(ranks, catalog)
        assert fallback == pytest.approx(newton, abs=5e-8)

    def test_single_rank_stream_returns_upper_bound(self):
        """All-rank-1 traffic (mean log-rank 0) is maximally skewed."""
        estimator = ExponentEstimator(1_000)
        estimator.observe(np.ones(100, dtype=int))
        assert estimator.estimate() == pytest.approx(1.95)

    def test_near_uniform_stream_returns_lower_bound(self):
        """Traffic flatter than the lower bound clamps to it."""
        catalog = 1_000
        ranks = np.arange(1, catalog + 1)  # perfectly uniform sweep
        assert estimate_exponent(ranks, catalog) == pytest.approx(0.05)

    def test_warm_start_is_cached_and_reset_clears_it(self):
        estimator = ExponentEstimator(2_000, memory=0.5)
        estimator.observe(ZipfModel(0.8, 2_000).sample(5_000, np.random.default_rng(3)))
        first = estimator.estimate()
        assert estimator._last_estimate == pytest.approx(first)
        again = estimator.estimate()
        assert again == pytest.approx(first, abs=1e-12)
        estimator.reset()
        assert estimator._last_estimate is None


class TestInterpolatedScore:
    """The online estimator's O(1) score against the exact O(N) sums."""

    @staticmethod
    def _windows(catalog, rng, count=40):
        """Seeded rank windows, drawn past both bounds so some MLEs pin."""
        log_ranks = np.log(np.arange(1, catalog + 1, dtype=np.float64))
        windows = [np.ones(50, dtype=np.int64), np.arange(1, catalog + 1)]
        for _ in range(count):
            weights = np.exp(-rng.uniform(0.0, 3.0) * log_ranks)
            size = int(rng.integers(1, 400))
            windows.append(rng.choice(catalog, size, p=weights / weights.sum()) + 1)
        order = rng.permutation(len(windows))
        return [windows[i] for i in order]

    @pytest.mark.parametrize("bounds", [(0.05, 1.95), (0.05, 2.5)])
    @pytest.mark.parametrize("catalog", [2, 3, 1000, 50_000])
    def test_estimate_within_1e10_of_exact_score(self, catalog, bounds):
        from repro.adaptive.estimator import _score_interpolant, _solve_mle

        assert _score_interpolant(catalog, *bounds) is not None
        rng = np.random.default_rng(catalog)
        estimator = ExponentEstimator(catalog, memory=0.0)
        pinned = set()
        for ranks in self._windows(catalog, rng):
            estimator.observe(ranks)
            got = estimator.estimate(bounds=bounds)
            mean_log_rank = estimator._weighted_log_sum / estimator._weight
            want = _solve_mle(mean_log_rank, catalog, bounds)
            assert abs(got - want) <= 1e-10
            if want in bounds:
                pinned.add(want)
        assert pinned == set(bounds)

    def test_built_once_per_key_then_no_catalog_work(self, monkeypatch):
        from repro.adaptive import estimator as est_mod

        monkeypatch.setattr(est_mod, "_INTERPOLANT_CACHE", {})
        exact = est_mod._exact_moments
        calls = []

        def counting(catalog_size, s):
            calls.append(s)
            return exact(catalog_size, s)

        monkeypatch.setattr(est_mod, "_exact_moments", counting)
        catalog = 50_000
        model = ZipfModel(0.9, catalog)
        rng = np.random.default_rng(21)
        first = ExponentEstimator(catalog, memory=0.0)
        first.observe(model.sample(500, rng))
        first.estimate()
        built = est_mod._INTERPOLANT_DEGREE + 1 + est_mod._INTERPOLANT_CHECKS
        assert len(calls) == built
        interpolant = est_mod._score_interpolant(catalog, 0.05, 1.95)
        assert interpolant is not None

        def forbidden(*args):
            raise AssertionError("O(N) work after the interpolant was built")

        monkeypatch.setattr(est_mod, "_exact_moments", forbidden)
        monkeypatch.setattr(est_mod, "_minimize_fallback", forbidden)
        second = ExponentEstimator(catalog, memory=0.0)
        for exponent in (0.6, 0.9, 1.3, 1.9):
            batch = ZipfModel(exponent, catalog).sample(500, rng)
            first.observe(batch)
            second.observe(batch)
            assert first.estimate() == pytest.approx(second.estimate(), abs=1e-10)
        assert est_mod._score_interpolant(catalog, 0.05, 1.95) is interpolant
        assert len(calls) == built

    def test_uncertified_key_keeps_exact_score(self, monkeypatch):
        from repro.adaptive import estimator as est_mod

        monkeypatch.setattr(est_mod, "_INTERPOLANT_CACHE", {})
        monkeypatch.setattr(est_mod, "_INTERPOLANT_TOLERANCE", -1.0)
        catalog = 2_000
        estimator = ExponentEstimator(catalog)
        estimator.observe(ZipfModel(0.8, catalog).sample(2_000, np.random.default_rng(4)))
        got = estimator.estimate()
        assert est_mod._INTERPOLANT_CACHE == {(catalog, 0.05, 1.95): None}
        mean_log_rank = estimator._weighted_log_sum / estimator._weight
        assert got == est_mod._solve_mle(mean_log_rank, catalog, (0.05, 1.95))
