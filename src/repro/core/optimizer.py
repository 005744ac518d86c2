"""Optimal provisioning strategy solvers (paper §IV, eqs. 5, 7, 8).

Three independent solution paths are implemented and cross-validated:

1. **Lemma 2 fixed point** — the paper's characterization: ``ℓ*`` solves

   .. math:: a·ℓ^{-s} = (1-ℓ)^{-s} + b,

   with ``a ≈ γ·n^{1-s}`` and
   ``b ≈ ((1-α)/α) · ((N^{1-s}-1)/(1-s)) · ((n-1)·w/(d1-d0)) · c^s``.
   Theorem 1 proves the root is unique on ``(0, 1)``: the left side is
   continuous and strictly decreasing from ``+∞`` to ``a``, while the
   right side is continuous and strictly increasing from ``1 + b`` to
   ``+∞``, so we find it by bisection on their difference.

2. **Exact first-order condition** — eq. 10 in Appendix A, solved for
   ``x`` directly without the ``n-1 ≈ n`` approximations, with boundary
   handling (``x* = 0`` when the derivative is non-negative at 0).

3. **Direct convex minimization** — bounded scalar minimization of the
   objective ``T_w`` itself (Lemma 1 guarantees convexity).

Theorem 2's closed form for ``α = 1``,
``ℓ* ≈ 1 / (γ^{1/s}·n^{1-1/s} + 1)``, is also provided.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConvergenceError, ParameterError
from .conditions import check_existence
from .objective import PerformanceCostModel
from .zipf import validate_exponent

__all__ = [
    "Lemma2Coefficients",
    "OptimalStrategy",
    "lemma2_coefficients",
    "solve_lemma2",
    "closed_form_alpha1",
    "solve_first_order",
    "minimize_objective",
    "optimal_strategy",
]

#: Bisection tolerance on the coordination level ℓ.
LEVEL_TOLERANCE = 1e-12

#: Maximum bisection iterations; 1e-12 on (0,1) needs ~40.
MAX_BISECTION_ITERATIONS = 200


@dataclass(frozen=True)
class Lemma2Coefficients:
    """The ``(a, b)`` pair of the paper's optimality equation (eq. 7)."""

    a: float
    b: float
    exponent: float

    def residual(self, level: float) -> float:
        """``a·ℓ^{-s} - (1-ℓ)^{-s} - b``; zero exactly at the optimum."""
        if not 0.0 < level < 1.0:
            raise ParameterError(f"level must lie in (0, 1), got {level}")
        s = self.exponent
        return self.a * level**-s - (1.0 - level) ** -s - self.b


@dataclass(frozen=True)
class OptimalStrategy:
    """The solved optimal provisioning strategy for one model instance.

    Attributes
    ----------
    level:
        ``ℓ* = x*/c`` — the optimal fraction of each router's storage
        dedicated to coordinated caching.
    storage:
        ``x*`` — the optimal coordinated storage per router, in content
        units.
    objective_value:
        ``T_w(x*)`` — the minimized weighted objective.
    method:
        Which solver produced the result (``"lemma2"``,
        ``"first-order"``, ``"scalar-min"``, ``"closed-form"``, or
        ``"boundary"``).
    alpha:
        The trade-off weight the strategy was solved for.
    """

    level: float
    storage: float
    objective_value: float
    method: str
    alpha: float

    @property
    def is_fully_coordinated(self) -> bool:
        """Whether the optimum saturates at ``ℓ = 1``."""
        return self.level >= 1.0 - 1e-9

    @property
    def is_non_coordinated(self) -> bool:
        """Whether the optimum collapses to ``ℓ = 0``."""
        return self.level <= 1e-9


def lemma2_coefficients(model: PerformanceCostModel) -> Lemma2Coefficients:
    """Compute the paper's ``a`` and ``b`` (Lemma 2) from a model.

    ``a = γ·n^{1-s}``;
    ``b = ((1-α)/α)·((N^{1-s}-1)/(1-s))·((n-1)·w/(d1-d0))·c^s``.

    Raises :class:`ParameterError` for ``α = 0`` (``b`` diverges; the
    optimum is trivially ``ℓ* = 0`` and is handled by the high-level
    :func:`optimal_strategy`).
    """
    perf = model.performance
    s = validate_exponent(perf.popularity.exponent)
    n = perf.n_routers
    alpha = model.alpha
    if alpha <= 0.0:
        raise ParameterError(
            "Lemma 2 coefficients are undefined at alpha = 0; the optimum "
            "there is trivially non-coordinated (level 0)"
        )
    if not hasattr(model.cost, "unit_cost"):
        raise ParameterError(
            "Lemma 2's coefficients assume the linear cost model (eq. 3); "
            "use the first-order or scalar-min solver for piece-wise costs"
        )
    gamma = perf.latency.gamma
    a = gamma * n ** (1.0 - s)
    n_cat = float(perf.popularity.catalog_size)
    zipf_factor = (n_cat ** (1.0 - s) - 1.0) / (1.0 - s)
    cost_factor = (n - 1) * model.cost.unit_cost / perf.latency.peer_delta
    b = ((1.0 - alpha) / alpha) * zipf_factor * cost_factor * perf.capacity**s
    return Lemma2Coefficients(a=a, b=b, exponent=s)


def solve_lemma2(coefficients: Lemma2Coefficients) -> float:
    """Solve the fixed-point equation (7) by bisection.

    Theorem 1 guarantees a unique root of
    ``g(ℓ) = a·ℓ^{-s} - (1-ℓ)^{-s} - b`` on ``(0, 1)``: ``g`` is
    strictly decreasing with ``g(0+) = +∞`` and ``g(1-) = -∞``.
    """
    a, b, s = coefficients.a, coefficients.b, coefficients.exponent
    if a <= 0:
        raise ParameterError(f"coefficient a must be positive, got {a}")
    if b < 0:
        raise ParameterError(f"coefficient b must be non-negative, got {b}")

    def g(level: float) -> float:
        return a * level**-s - (1.0 - level) ** -s - b

    lo, hi = LEVEL_TOLERANCE, 1.0 - LEVEL_TOLERANCE
    g_lo, g_hi = g(lo), g(hi)
    # The root may sit beyond the numerical bracket for extreme a or b;
    # clamp to the boundary the monotone g points at.
    if g_lo <= 0.0:
        return lo
    if g_hi >= 0.0:
        return hi
    for _ in range(MAX_BISECTION_ITERATIONS):
        mid = 0.5 * (lo + hi)
        if g(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= LEVEL_TOLERANCE:
            return 0.5 * (lo + hi)
    raise ConvergenceError(
        f"Lemma 2 bisection failed to converge within "
        f"{MAX_BISECTION_ITERATIONS} iterations (a={a}, b={b}, s={s})"
    )


def closed_form_alpha1(gamma: float, n_routers: int, exponent: float) -> float:
    """Theorem 2's closed-form optimal level for ``α = 1``.

    .. math:: ℓ^* ≈ \\frac{1}{γ^{-1/s}·n^{1-1/s} + 1}

    Note on the paper's eq. (8): the printed formula has ``γ^{+1/s}``,
    but that contradicts Lemma 2 (whose ``a = γ·n^{1-s}`` yields
    ``ℓ* = 1/(1 + a^{-1/s})``, i.e. ``γ^{-1/s}``) and the paper's own
    Figure 4 (``ℓ*`` increasing in ``γ``) and Figure 5 (``ℓ* = 0.35``
    at ``s = 2`` with ``γ = 5``, ``n = 20`` — the corrected form gives
    1/3 ≈ 0.35, the printed one gives 0.09).  We implement the corrected
    exponent; see EXPERIMENTS.md for the full derivation check.

    As the paper observes, for ``s ∈ (0,1)`` this tends to 1 with
    growing ``n`` (coordinate everything) while for ``s ∈ (1,2)`` it
    tends to 0 (coordinate nothing) — ``s = 1`` is the singular point
    separating opposite regimes.
    """
    if gamma <= 0:
        raise ParameterError(f"gamma must be positive, got {gamma}")
    if n_routers < 1:
        raise ParameterError(f"router count must be positive, got {n_routers}")
    s = validate_exponent(exponent)
    return 1.0 / (gamma ** (-1.0 / s) * n_routers ** (1.0 - 1.0 / s) + 1.0)


def solve_first_order(model: PerformanceCostModel) -> float:
    """Solve the exact first-order condition (Appendix A eq. 10).

    Unlike Lemma 2, no ``n-1 ≈ n`` approximation is applied: we bisect
    ``dT_w/dx`` directly over ``(0, c)``.  The derivative of the convex
    objective is increasing; if it is already non-negative at ``x = 0``
    the optimum is the non-coordinated boundary ``x* = 0`` (the
    derivative always diverges to ``+∞`` as ``x → c``, so the upper
    boundary is never strictly optimal for ``α > 0``).

    Returns the optimal *storage* ``x*`` (not the level).
    """
    capacity = model.capacity
    if model.alpha <= 0.0:
        return 0.0
    lo, hi = 0.0, capacity * (1.0 - 1e-12)
    d_lo = float(model.derivative(lo))
    if d_lo >= 0.0:
        return 0.0
    d_hi = float(model.derivative(hi))
    if d_hi <= 0.0:
        return capacity
    for _ in range(MAX_BISECTION_ITERATIONS):
        mid = 0.5 * (lo + hi)
        if float(model.derivative(mid)) < 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= LEVEL_TOLERANCE * capacity:
            return 0.5 * (lo + hi)
    raise ConvergenceError(
        "first-order bisection failed to converge within "
        f"{MAX_BISECTION_ITERATIONS} iterations"
    )


def minimize_objective(model: PerformanceCostModel) -> float:
    """Directly minimize ``T_w`` over ``[0, c]`` with scipy.

    Lemma 1 guarantees convexity, so bounded scalar minimization
    converges to the global optimum.  Returns the optimal storage
    ``x*``.
    """
    # Imported here: scipy.optimize is most of `import repro`'s cost,
    # and only this method (scalar-min) needs it.
    from scipy import optimize

    capacity = model.capacity
    result = optimize.minimize_scalar(
        lambda x: float(model.objective(float(x))),
        bounds=(0.0, capacity),
        method="bounded",
        options={"xatol": 1e-10 * capacity},
    )
    if not result.success:  # pragma: no cover - bounded Brent rarely fails
        raise ConvergenceError(f"scalar minimization failed: {result.message}")
    x_star = float(result.x)
    # Bounded Brent never evaluates the exact endpoints; snap to a
    # boundary when it is at least as good.  Each candidate's objective
    # is evaluated exactly once — T_w(x) costs two eq. 6 CDF
    # evaluations, so the snap adds three objective calls, not four.
    f_star = float(model.objective(x_star))
    f_zero = float(model.objective(0.0))
    f_capacity = float(model.objective(capacity))
    if f_zero <= f_star:
        x_star, f_star = 0.0, f_zero
    if f_capacity <= f_star:
        x_star = capacity
    return x_star


def optimal_strategy(
    model: PerformanceCostModel,
    *,
    method: str = "auto",
    check_conditions: bool = True,
) -> OptimalStrategy:
    """Solve eq. 5 for the optimal provisioning strategy.

    Parameters
    ----------
    model:
        The full performance/cost model instance.
    method:
        ``"auto"`` (default) picks the trivial boundary for ``α = 0``
        and the exact first-order condition otherwise (including
        ``α = 1``, where the paper's closed form would inherit its
        ``n-1 ≈ n`` approximation error — noticeable for small ``n``).
        ``"lemma2"``, ``"first-order"``, ``"scalar-min"`` and
        ``"closed-form"`` (``α = 1`` only) force a specific solver; all
        agree to within the paper's own approximation error and the
        tests quantify the spread.
    check_conditions:
        When True (default), Lemma 1's existence conditions are checked
        first and :class:`~repro.errors.ExistenceConditionError` is
        raised on violation.

    Returns
    -------
    OptimalStrategy
        The optimal level/storage, the achieved objective value, and
        the solver used.
    """
    perf = model.performance
    if check_conditions:
        check_existence(
            capacity=perf.capacity,
            catalog_size=perf.popularity.catalog_size,
            n_routers=perf.n_routers,
            exponent=perf.popularity.exponent,
            latency=perf.latency,
        ).raise_if_violated()

    capacity = perf.capacity
    alpha = model.alpha

    def finish(x_star: float, solver: str) -> OptimalStrategy:
        x_star = min(max(x_star, 0.0), capacity)
        # The continuous CDF (eq. 6) clips its argument at 1, so the
        # evaluated objective is flat-to-decreasing on the last unit of
        # coordinated storage even though the unclipped derivative blows
        # up there; guard by comparing the stationary candidate against
        # both boundaries and keeping the best evaluated point.
        best_x = min(
            (x_star, 0.0, capacity), key=lambda x: float(model.objective(x))
        )
        return OptimalStrategy(
            level=best_x / capacity,
            storage=best_x,
            objective_value=float(model.objective(best_x)),
            method=solver,
            alpha=alpha,
        )

    if method not in ("auto", "lemma2", "first-order", "scalar-min", "closed-form"):
        raise ParameterError(f"unknown solver method {method!r}")

    if alpha == 0.0:
        # Pure cost minimization: W is increasing in x, so x* = 0.
        return finish(0.0, "boundary")

    if method == "closed-form":
        if alpha != 1.0:
            raise ParameterError(
                "the closed form (Theorem 2) applies only at alpha = 1"
            )
        level = closed_form_alpha1(
            perf.latency.gamma, perf.n_routers, perf.popularity.exponent
        )
        return finish(level * capacity, "closed-form")
    if method == "auto":
        return finish(solve_first_order(model), "first-order")
    if method == "lemma2":
        level = solve_lemma2(lemma2_coefficients(model))
        return finish(level * capacity, "lemma2")
    if method == "first-order":
        return finish(solve_first_order(model), "first-order")
    return finish(minimize_objective(model), "scalar-min")
