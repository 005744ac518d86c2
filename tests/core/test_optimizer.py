"""Unit tests for repro.core.optimizer — Lemma 2, Theorems 1-2, solvers."""

from __future__ import annotations

import pytest

from repro.core.optimizer import (
    Lemma2Coefficients,
    closed_form_alpha1,
    lemma2_coefficients,
    minimize_objective,
    optimal_strategy,
    solve_first_order,
    solve_lemma2,
)
from repro.core.scenario import Scenario
from repro.errors import ExistenceConditionError, ParameterError


BASE = Scenario()  # Table IV base point


class TestLemma2Coefficients:
    def test_a_formula(self):
        """a = gamma * n^{1-s} (Lemma 2)."""
        scenario = BASE.replace(alpha=0.5, gamma=5.0, exponent=0.8, n_routers=20)
        coeffs = lemma2_coefficients(scenario.model())
        assert coeffs.a == pytest.approx(5.0 * 20 ** (1 - 0.8), rel=1e-12)

    def test_b_positive_for_alpha_below_one(self):
        coeffs = lemma2_coefficients(BASE.replace(alpha=0.5).model())
        assert coeffs.b > 0

    def test_b_zero_at_alpha_one(self):
        coeffs = lemma2_coefficients(BASE.replace(alpha=1.0).model())
        assert coeffs.b == 0.0

    def test_b_positive_for_s_above_one(self):
        """The Zipf factor (N^{1-s}-1)/(1-s) stays positive for s in (1,2)."""
        coeffs = lemma2_coefficients(BASE.replace(exponent=1.5, alpha=0.5).model())
        assert coeffs.b > 0

    def test_b_grows_as_alpha_shrinks(self):
        b_high = lemma2_coefficients(BASE.replace(alpha=0.9).model()).b
        b_low = lemma2_coefficients(BASE.replace(alpha=0.2).model()).b
        assert b_low > b_high

    def test_rejects_alpha_zero(self):
        with pytest.raises(ParameterError):
            lemma2_coefficients(BASE.replace(alpha=0.0).model())

    def test_residual_sign_change(self):
        """The residual of eq. 7 changes sign across the root (Theorem 1)."""
        coeffs = lemma2_coefficients(BASE.replace(alpha=0.7).model())
        root = solve_lemma2(coeffs)
        assert coeffs.residual(max(root / 2, 1e-6)) > 0
        assert coeffs.residual(min((1 + root) / 2, 1 - 1e-6)) < 0

    def test_residual_rejects_boundary(self):
        coeffs = Lemma2Coefficients(a=1.0, b=0.0, exponent=0.8)
        with pytest.raises(ParameterError):
            coeffs.residual(0.0)
        with pytest.raises(ParameterError):
            coeffs.residual(1.0)


class TestSolveLemma2:
    def test_root_in_open_interval(self):
        for alpha in (0.3, 0.6, 0.9, 1.0):
            coeffs = lemma2_coefficients(BASE.replace(alpha=alpha).model())
            root = solve_lemma2(coeffs)
            assert 0.0 < root < 1.0

    def test_residual_nearly_zero_at_root(self):
        coeffs = lemma2_coefficients(BASE.replace(alpha=0.7).model())
        root = solve_lemma2(coeffs)
        # The residual is steep; check the bracketing rather than magnitude.
        assert coeffs.residual(root - 1e-9) * coeffs.residual(root + 1e-9) <= 0

    def test_closed_form_agreement_at_alpha_one(self):
        """With b = 0, the Lemma 2 root equals Theorem 2's closed form."""
        scenario = BASE.replace(alpha=1.0)
        coeffs = lemma2_coefficients(scenario.model())
        root = solve_lemma2(coeffs)
        closed = closed_form_alpha1(
            scenario.gamma, scenario.n_routers, scenario.exponent
        )
        assert root == pytest.approx(closed, rel=1e-9)

    def test_huge_b_clamps_to_zero_boundary(self):
        root = solve_lemma2(Lemma2Coefficients(a=1.0, b=1e18, exponent=0.8))
        assert root == pytest.approx(0.0, abs=1e-9)

    def test_huge_a_clamps_to_one_boundary(self):
        root = solve_lemma2(Lemma2Coefficients(a=1e18, b=0.0, exponent=0.8))
        assert root == pytest.approx(1.0, abs=1e-9)

    def test_rejects_bad_coefficients(self):
        with pytest.raises(ParameterError):
            solve_lemma2(Lemma2Coefficients(a=0.0, b=1.0, exponent=0.8))
        with pytest.raises(ParameterError):
            solve_lemma2(Lemma2Coefficients(a=1.0, b=-1.0, exponent=0.8))


class TestClosedFormAlpha1:
    def test_paper_figure5_value_at_s2_boundary(self):
        """Figure 5 reports l* ~ 0.35 at s -> 2 with gamma=5, n=20."""
        assert closed_form_alpha1(5.0, 20, 1.9999999) == pytest.approx(1 / 3, abs=0.01)

    def test_increasing_in_gamma(self):
        """Figure 4: a higher gamma leads to a higher coordination level."""
        values = [closed_form_alpha1(g, 20, 0.8) for g in (1, 2, 5, 10, 50)]
        assert values == sorted(values)

    def test_limit_n_to_infinity_s_below_one(self):
        """Theorem 2 discussion: s in (0,1) drives l* -> 1 as n grows."""
        small = closed_form_alpha1(5.0, 10, 0.6)
        large = closed_form_alpha1(5.0, 100_000, 0.6)
        assert large > small
        assert large > 0.99

    def test_limit_n_to_infinity_s_above_one(self):
        """Theorem 2 discussion: s in (1,2) drives l* -> 0 as n grows."""
        small = closed_form_alpha1(5.0, 10, 1.4)
        large = closed_form_alpha1(5.0, 100_000, 1.4)
        assert large < small
        assert large < 0.15
        assert closed_form_alpha1(5.0, 10**9, 1.4) < 0.02

    def test_always_in_unit_interval(self):
        for gamma in (0.1, 1.0, 100.0):
            for n in (2, 20, 500):
                for s in (0.1, 0.9, 1.1, 1.9):
                    level = closed_form_alpha1(gamma, n, s)
                    # The formula can saturate to 1.0 in floating point
                    # for extreme parameters; it never exceeds 1.
                    assert 0.0 < level <= 1.0

    def test_rejects_invalid_inputs(self):
        with pytest.raises(ParameterError):
            closed_form_alpha1(0.0, 20, 0.8)
        with pytest.raises(ParameterError):
            closed_form_alpha1(5.0, 0, 0.8)
        with pytest.raises(ParameterError):
            closed_form_alpha1(5.0, 20, 1.0)


class TestSolverAgreement:
    @pytest.mark.parametrize("alpha", [0.2, 0.5, 0.8, 0.95])
    def test_first_order_vs_scalar_min(self, alpha):
        model = BASE.replace(alpha=alpha).model()
        x_fo = solve_first_order(model)
        x_sm = minimize_objective(model)
        assert x_fo == pytest.approx(x_sm, abs=1e-4 * model.capacity + 1e-9)

    @pytest.mark.parametrize("alpha", [0.4, 0.7, 1.0])
    def test_lemma2_close_to_exact(self, alpha):
        """Lemma 2 uses n-1 ~ n and 1+(n-1)l ~ nl approximations.

        For n = 20 those cost up to ~0.08 in level in the sensitive
        alpha range (measured); the two solvers must stay within 0.1.
        """
        scenario = BASE.replace(alpha=alpha)
        exact = optimal_strategy(scenario.model(), method="first-order").level
        approx = optimal_strategy(scenario.model(), method="lemma2").level
        assert approx == pytest.approx(exact, abs=0.1)

    def test_lemma2_approximation_vanishes_for_large_n(self):
        """The n-1 ~ n approximation error shrinks as n grows."""
        wide = BASE.replace(alpha=0.5, n_routers=500, catalog_size=10**7)
        exact = optimal_strategy(wide.model(), method="first-order").level
        approx = optimal_strategy(wide.model(), method="lemma2").level
        assert approx == pytest.approx(exact, abs=0.02)

    def test_exact_first_order_is_a_stationary_point(self):
        model = BASE.replace(alpha=0.6).model()
        x = solve_first_order(model)
        if 0 < x < model.capacity:
            # Derivative changes sign across the solution.
            assert float(model.derivative(x * (1 - 1e-6))) <= 0
            assert float(model.derivative(min(x * (1 + 1e-6), model.capacity * (1 - 1e-12)))) >= 0


class TestOptimalStrategy:
    def test_alpha_zero_is_non_coordinated(self):
        strategy = optimal_strategy(BASE.replace(alpha=0.0).model())
        assert strategy.level == 0.0
        assert strategy.method == "boundary"
        assert strategy.is_non_coordinated
        assert not strategy.is_fully_coordinated

    def test_alpha_one_auto_uses_exact_solver(self):
        strategy = optimal_strategy(BASE.replace(alpha=1.0).model())
        assert strategy.method == "first-order"
        assert 0.0 < strategy.level < 1.0

    def test_explicit_closed_form_method(self):
        strategy = optimal_strategy(
            BASE.replace(alpha=1.0).model(), method="closed-form"
        )
        assert strategy.method == "closed-form"
        exact = optimal_strategy(BASE.replace(alpha=1.0).model()).level
        assert strategy.level == pytest.approx(exact, abs=0.05)

    def test_closed_form_method_rejects_alpha_below_one(self):
        with pytest.raises(ParameterError):
            optimal_strategy(BASE.replace(alpha=0.5).model(), method="closed-form")

    def test_monotone_in_alpha(self):
        """Figure 4's headline observation: l* grows monotonically with alpha."""
        levels = [
            optimal_strategy(BASE.replace(alpha=a).model()).level
            for a in (0.1, 0.3, 0.5, 0.7, 0.9, 1.0)
        ]
        assert levels == sorted(levels)

    def test_monotone_in_gamma(self):
        """Figure 4: higher gamma -> higher coordination level."""
        levels = [
            optimal_strategy(BASE.replace(alpha=0.5, gamma=g).model()).level
            for g in (2.0, 4.0, 6.0, 8.0, 10.0)
        ]
        assert levels == sorted(levels)

    def test_decreasing_in_unit_cost(self):
        """Figure 7: for small alpha, l* drops as w grows."""
        levels = [
            optimal_strategy(BASE.replace(alpha=0.3, unit_cost=w).model()).level
            for w in (10.0, 30.0, 60.0, 100.0)
        ]
        assert levels == sorted(levels, reverse=True)

    def test_storage_and_level_consistent(self):
        strategy = optimal_strategy(BASE.replace(alpha=0.8).model())
        assert strategy.storage == pytest.approx(
            strategy.level * BASE.capacity, rel=1e-9
        )

    def test_objective_value_is_objective_at_solution(self):
        model = BASE.replace(alpha=0.8).model()
        strategy = optimal_strategy(model)
        assert strategy.objective_value == pytest.approx(
            float(model.objective(strategy.storage)), rel=1e-12
        )

    def test_optimum_beats_fixed_levels(self):
        model = BASE.replace(alpha=0.65).model()
        best = optimal_strategy(model).objective_value
        for level in (0.0, 0.1, 0.5, 0.9, 1.0):
            assert best <= float(model.objective(level * model.capacity)) + 1e-9

    def test_scale_free_property(self):
        """Theorem 2: l* depends on latency only through gamma.

        Scaling d0, d1, d2 by a common factor leaves the alpha=1
        optimum unchanged.
        """
        base = BASE.replace(alpha=1.0, access_latency=1.0, peer_delta=2.2842)
        scaled = BASE.replace(alpha=1.0, access_latency=10.0, peer_delta=22.842)
        level_base = optimal_strategy(base.model()).level
        level_scaled = optimal_strategy(scaled.model()).level
        assert level_scaled == pytest.approx(level_base, rel=1e-9)

    def test_condition_check_raises(self):
        scenario = BASE.replace(n_routers=1)
        with pytest.raises(ExistenceConditionError):
            optimal_strategy(scenario.model(), check_conditions=True)

    def test_condition_check_can_be_disabled(self):
        scenario = BASE.replace(n_routers=1)
        strategy = optimal_strategy(scenario.model(), check_conditions=False)
        assert 0.0 <= strategy.level <= 1.0

    def test_unknown_method_rejected(self):
        with pytest.raises(ParameterError):
            optimal_strategy(BASE.model(), method="genetic")

    @pytest.mark.parametrize("method", ["lemma2", "first-order", "scalar-min"])
    def test_all_methods_return_valid_levels(self, method):
        strategy = optimal_strategy(BASE.replace(alpha=0.7).model(), method=method)
        assert 0.0 <= strategy.level <= 1.0
        assert strategy.method == method or strategy.method == "boundary"


class TestMinimizeObjectiveSnap:
    """The boundary snap evaluates each candidate's objective once."""

    class _CountingModel:
        def __init__(self, model):
            self._model = model
            self.calls: list[float] = []

        @property
        def capacity(self):
            return self._model.capacity

        def objective(self, x):
            self.calls.append(float(x))
            return self._model.objective(x)

    def test_snap_makes_exactly_three_objective_calls(self, monkeypatch):
        from types import SimpleNamespace

        from scipy import optimize

        counting = self._CountingModel(BASE.replace(alpha=0.5).model())

        def fake_minimize_scalar(fun, *, bounds, method, options):
            # Stand-in for bounded Brent that never touches the
            # objective, isolating the snap loop's own evaluations.
            return SimpleNamespace(success=True, x=0.5 * bounds[1], message="")

        monkeypatch.setattr(optimize, "minimize_scalar", fake_minimize_scalar)
        minimize_objective(counting)
        assert counting.calls == [0.5 * counting.capacity, 0.0, counting.capacity]

    def test_snap_prefers_boundary_when_it_ties_or_wins(self, monkeypatch):
        from types import SimpleNamespace

        from scipy import optimize

        # Cost-dominant regime: x = 0 beats any interior candidate.
        model = BASE.replace(alpha=0.01, unit_cost=500.0).model()

        def fake_minimize_scalar(fun, *, bounds, method, options):
            return SimpleNamespace(success=True, x=0.5 * bounds[1], message="")

        monkeypatch.setattr(optimize, "minimize_scalar", fake_minimize_scalar)
        assert minimize_objective(model) == 0.0

    def test_matches_first_order_solver(self):
        model = BASE.replace(alpha=0.6).model()
        x_min = minimize_objective(model)
        x_fo = solve_first_order(model)
        assert x_min == pytest.approx(x_fo, abs=1e-6 * model.capacity)
