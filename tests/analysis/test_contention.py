"""Tests for the packet-level contention sweep (repro.analysis.contention)."""

from __future__ import annotations

import pytest

from repro.analysis.contention import (
    DEFAULT_CONTENTION_CONFIGS,
    ContentionConfig,
    contention_sweep,
)
from repro.ccn import CacheQueue
from repro.errors import ParameterError

# A deliberately small sweep so the suite stays fast: three levels, two
# regimes, a few thousand requests.  The full-size defaults back the
# README headline and run via `repro ccn --sweep`.
SMALL_LEVELS = (0.0, 0.5, 1.0)
SMALL_CONFIGS = (
    ContentionConfig("independent", 1.0),
    ContentionConfig("contended", 0.02),
    ContentionConfig(
        "tiny queue",
        0.02,
        CacheQueue(size=1, read_penalty_ms=1.0, write_penalty_ms=0.5),
    ),
)


@pytest.fixture(scope="module")
def figure():
    return contention_sweep(
        levels=SMALL_LEVELS, configs=SMALL_CONFIGS, requests=4000
    )


class TestContentionConfig:
    def test_rejects_negative_interarrival(self):
        with pytest.raises(ParameterError):
            ContentionConfig("bad", -1.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_non_finite_interarrival(self, bad):
        with pytest.raises(ParameterError, match="finite"):
            ContentionConfig("bad", bad)

    def test_default_configs_escalate(self):
        # Ordered from the model's world to the hostile one.
        assert DEFAULT_CONTENTION_CONFIGS[0].queue is None
        assert DEFAULT_CONTENTION_CONFIGS[0].interarrival_ms > (
            DEFAULT_CONTENTION_CONFIGS[1].interarrival_ms
        )
        sizes = [c.queue.size for c in DEFAULT_CONTENTION_CONFIGS if c.queue]
        assert sizes == sorted(sizes, reverse=True)


class TestContentionSweep:
    def test_figure_shape(self, figure):
        assert figure.figure_id == "contention"
        assert len(figure.series) == len(SMALL_CONFIGS)
        for series in figure.series:
            assert series.x == SMALL_LEVELS
            assert len(series.y) == len(SMALL_LEVELS)
            assert all(v > 0 for v in series.y)

    def test_parameters_carry_optima_and_mechanisms(self, figure):
        params = figure.parameters
        assert 0.0 <= params["analytic_level"] <= 1.0
        for config in SMALL_CONFIGS:
            assert params["measured_optima"][config.label] in SMALL_LEVELS
        # Contention turns on PIT aggregation ...
        assert (
            params["pit_aggregations"]["contended"]
            > params["pit_aggregations"]["independent"]
        )
        # ... and a size-1 queue under contention rejects.
        assert params["rejected_ops"]["tiny queue"] > 0
        assert params["rejected_ops"]["independent"] == 0

    def test_validates_levels(self):
        with pytest.raises(ParameterError):
            contention_sweep(levels=(0.5, 1.5), requests=10)
        with pytest.raises(ParameterError):
            contention_sweep(levels=(), requests=10)

    def test_validates_requests(self):
        with pytest.raises(ParameterError):
            contention_sweep(levels=SMALL_LEVELS, requests=0)
