"""Unit tests for repro.analysis.sweep — the sweep engine."""

from __future__ import annotations

import pytest

from repro.analysis.sweep import (
    FigureData,
    QUANTITIES,
    SOLVERS,
    Series,
    solve_quantity,
    sweep,
)
from repro.core.scenario import Scenario
from repro.errors import ParameterError


class TestSeries:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ParameterError):
            Series(label="x", x=(1.0, 2.0), y=(1.0,))

    def test_y_at(self):
        s = Series(label="x", x=(1.0, 2.0), y=(10.0, 20.0))
        assert s.y_at(2.0) == 20.0

    def test_y_at_missing_raises(self):
        s = Series(label="x", x=(1.0,), y=(10.0,))
        with pytest.raises(ParameterError):
            s.y_at(3.0)

    def test_monotonicity_predicates(self):
        up = Series(label="u", x=(1, 2, 3), y=(1.0, 2.0, 2.0))
        down = Series(label="d", x=(1, 2, 3), y=(3.0, 2.0, 1.0))
        assert up.is_monotone_increasing()
        assert not up.is_monotone_decreasing()
        assert down.is_monotone_decreasing()
        assert not down.is_monotone_increasing()


class TestFigureData:
    def test_series_by_label(self):
        s = Series(label="a", x=(1.0,), y=(2.0,))
        fig = FigureData(
            figure_id="t", title="t", xlabel="x", ylabel="y", series=(s,)
        )
        assert fig.series_by_label("a") is s
        with pytest.raises(ParameterError):
            fig.series_by_label("missing")


class TestSolveQuantity:
    def test_all_registered_quantities(self):
        scenario = Scenario(alpha=0.8)
        for name in QUANTITIES:
            value = solve_quantity(scenario, name)
            assert 0.0 <= value <= 1.0

    def test_unknown_quantity_rejected(self):
        with pytest.raises(ParameterError):
            solve_quantity(Scenario(), "latency_gain")

    def test_level_matches_optimizer(self):
        scenario = Scenario(alpha=0.8)
        assert solve_quantity(scenario, "level") == pytest.approx(
            scenario.solve(check_conditions=False).level
        )


class TestSweep:
    def test_single_series(self):
        series = sweep(
            Scenario(),
            x_field="alpha",
            x_values=(0.2, 0.5, 0.8),
            quantity="level",
        )
        assert len(series) == 1
        assert series[0].x == (0.2, 0.5, 0.8)
        assert len(series[0].y) == 3

    def test_curves_fan_out(self):
        series = sweep(
            Scenario(),
            x_field="alpha",
            x_values=(0.3, 0.7),
            quantity="level",
            curve_field="gamma",
            curve_values=(2.0, 10.0),
        )
        assert [s.label for s in series] == ["gamma=2.0", "gamma=10.0"]

    def test_custom_labels(self):
        series = sweep(
            Scenario(),
            x_field="alpha",
            x_values=(0.5,),
            quantity="level",
            curve_field="gamma",
            curve_values=(5.0,),
            curve_label=lambda g: f"g{g:g}",
        )
        assert series[0].label == "g5"

    def test_sweep_values_match_pointwise_solve(self):
        series = sweep(
            Scenario(),
            x_field="alpha",
            x_values=(0.4, 0.9),
            quantity="level",
            curve_field="gamma",
            curve_values=(6.0,),
        )
        expected = Scenario(alpha=0.9, gamma=6.0).solve(check_conditions=False).level
        assert series[0].y_at(0.9) == pytest.approx(expected)

    def test_unknown_quantity_rejected(self):
        with pytest.raises(ParameterError, match="unknown quantity"):
            sweep(
                Scenario(),
                x_field="alpha",
                x_values=(0.5,),
                quantity="nonsense",
            )


class TestSolverSelection:
    BASE = Scenario(capacity=100.0, catalog_size=10_000)

    def test_batched_is_the_default(self):
        assert SOLVERS == ("batched", "scalar", "approx")
        kwargs = dict(
            x_field="alpha", x_values=(0.2, 0.5, 0.8), quantity="level"
        )
        assert sweep(self.BASE, **kwargs) == sweep(
            self.BASE, solver="batched", **kwargs
        )

    def test_explicit_solvers_match_auto(self):
        # The default pick (what solver="auto" used to choose) is the
        # batched solver; the scalar oracle must agree with it per point.
        for quantity in QUANTITIES:
            kwargs = dict(
                x_field="alpha",
                x_values=(0.0, 0.2, 0.5, 0.8, 0.95, 1.0),
                quantity=quantity,
                curve_field="gamma",
                curve_values=(2.0, 10.0),
            )
            default = sweep(self.BASE, **kwargs)
            scalar = sweep(self.BASE, solver="scalar", **kwargs)
            for d, s in zip(default, scalar):
                assert (d.label, d.x) == (s.label, s.x)
                assert s.y == pytest.approx(d.y, abs=1e-9), quantity

    @pytest.mark.parametrize("quantity", sorted(QUANTITIES))
    def test_approx_solver_answers_every_quantity(self, quantity):
        series = sweep(
            self.BASE,
            x_field="alpha",
            x_values=(0.2, 0.8),
            quantity=quantity,
            solver="approx",
        )
        assert len(series[0].y) == 2
        assert all(0.0 <= y <= 1.0 for y in series[0].y)

    def test_approx_level_rises_with_alpha(self):
        # Heavier performance weighting must not decrease the chosen
        # coordination level under the approximation either.
        series = sweep(
            self.BASE,
            x_field="alpha",
            x_values=(0.05, 0.5, 0.95),
            quantity="level",
            solver="approx",
        )
        assert series[0].is_monotone_increasing(tolerance=1e-9)

    def test_unknown_solver_rejected(self):
        with pytest.raises(ParameterError, match="unknown solver"):
            sweep(
                self.BASE,
                x_field="alpha",
                x_values=(0.5,),
                quantity="level",
                solver="simulated",
            )

    def test_approx_rejects_non_scenario_types(self):
        class HeteroScenario(Scenario):
            pass

        with pytest.raises(ParameterError, match="plain Scenario"):
            sweep(
                HeteroScenario(),
                x_field="alpha",
                x_values=(0.5,),
                quantity="level",
                solver="approx",
            )
