"""Online Zipf-exponent estimation from observed request ranks.

The model-based adaptive controller needs the current popularity
exponent ``s``.  Routers observe request ranks directly (CCN names map
to catalog objects), so ``s`` can be estimated by maximum likelihood:

.. math::

    \\hat s = \\arg\\max_s \\Big[-s \\sum_m \\log r_m - M \\log H_{N,s}\\Big],

a smooth 1-D convex problem in the negative log-likelihood
``f(s) = s·m + log H_{N,s}`` (``m`` the mean observed log-rank).  Its
derivative ``f'(s) = m − E_s[log j]`` is increasing (``f'' =
Var_s(log j) > 0``), so the MLE is found by a safeguarded Newton
iteration on ``f'``.

The one-shot :func:`estimate_exponent` evaluates the score exactly, one
O(N) weight pass per Newton step.  :class:`ExponentEstimator` keeps ``m``
as an O(1) sufficient statistic of its exponentially weighted window and
runs the same Newton, warm-started from its previous estimate, on a
Chebyshev interpolant of ``E_s[log j]``.  That mean depends only on
``(N, s)``, so the interpolant is built once per catalog size and search
interval from the exact sums and certified against them; every later
re-estimate is then O(1) in the catalog size.  Bounded minimization
remains as the fallback for gigantic catalogs (no exact weight table) and
non-convergence.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Optional

import numpy as np
from numpy.polynomial import chebyshev

from ..core.zipf import harmonic_number
from ..errors import ConvergenceError, ParameterError

__all__ = ["estimate_exponent", "ExponentEstimator"]

#: Catalogs up to this size get exact Newton weight tables; beyond it
#: the memory/latency of the O(N) tables outweighs the saved solver
#: evaluations and the bounded-minimization fallback is used instead.
_MAX_EXACT_CATALOG = 5_000_000

#: Safeguarded-Newton iteration cap before falling back to bounded
#: minimization (module-level so tests can force the fallback).
_NEWTON_MAX_ITERATIONS = 24

#: Absolute tolerance on the estimate (bracket width / Newton step).
_NEWTON_TOLERANCE = 1e-12

#: log-rank tables per catalog size: ``(log j, log² j)`` for j = 1..N.
_LOG_RANK_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}
_LOG_RANK_CACHE_MAX = 4

#: Degree of the Chebyshev interpolant of ``E_s[log j]`` over the search
#: interval; building it takes ``degree + 1`` exact weight passes.
_INTERPOLANT_DEGREE = 64

#: Exact weight passes that certify a freshly built interpolant.
_INTERPOLANT_CHECKS = 16

#: Certification bound on the MLE shift the interpolated mean may cause
#: at a check point, ``|Δ E_s[log j]| / Var_s(log j)``: a tenfold margin
#: under the estimator's 1e-10 agreement with the exact score.
_INTERPOLANT_TOLERANCE = 1e-11

#: Interpolants per ``(N, lo, hi)``, shared by every estimator on that
#: catalog; ``None`` marks a key that failed certification and keeps
#: the exact score.
_INTERPOLANT_CACHE: dict[tuple[int, float, float], Optional[_ScoreInterpolant]] = {}
_INTERPOLANT_CACHE_MAX = 4


def _log_rank_tables(catalog_size: int) -> tuple[np.ndarray, np.ndarray]:
    cached = _LOG_RANK_CACHE.get(catalog_size)
    if cached is not None:
        return cached
    log_ranks = np.log(np.arange(1, catalog_size + 1, dtype=np.float64))
    tables = (log_ranks, log_ranks * log_ranks)
    while len(_LOG_RANK_CACHE) >= _LOG_RANK_CACHE_MAX:
        _LOG_RANK_CACHE.pop(next(iter(_LOG_RANK_CACHE)))
    _LOG_RANK_CACHE[catalog_size] = tables
    return tables


def _minimize_fallback(
    mean_log_rank: float, catalog_size: int, lo: float, hi: float
) -> float:
    def negative_log_likelihood(s: float) -> float:
        return s * mean_log_rank + math.log(harmonic_number(catalog_size, s))

    # Imported here: only catalogs too large for the tabulated score
    # reach this fallback, and scipy.optimize is slow to import.
    from scipy import optimize

    result = optimize.minimize_scalar(
        negative_log_likelihood, bounds=(lo, hi), method="bounded",
        options={"xatol": 1e-8},
    )
    if not result.success:  # pragma: no cover - bounded Brent rarely fails
        raise ConvergenceError(f"exponent MLE failed: {result.message}")
    return float(result.x)


def _exact_moments(catalog_size: int, s: float) -> tuple[float, float]:
    """``(E_s[log j], Var_s(log j))`` under Zipf(s, N): one O(N) weight pass."""
    log_ranks, log_ranks_sq = _log_rank_tables(catalog_size)
    # One array, exponentiated in place: a second O(N) temporary costs
    # more in fresh pages than the exponentials themselves.
    weights = log_ranks * -s
    np.exp(weights, out=weights)
    total = float(weights.sum())
    mean = float(weights @ log_ranks) / total
    return mean, float(weights @ log_ranks_sq) / total - mean * mean


class _ScoreInterpolant:
    """Chebyshev interpolant of ``E_s[log j]`` over ``[lo, hi]`` for one catalog.

    Interpolates the exact mean at the ``degree + 1`` Chebyshev points of
    the first kind.  ``moments(s)`` stands in for ``_exact_moments(N, s)``:
    the variance is the negated slope of the same series
    (``d/ds E_s[log j] = −Var_s(log j)``), so Newton runs on a consistent
    score/slope pair, and one scalar Clenshaw recurrence yields both in
    O(degree), independent of N.
    """

    def __init__(self, catalog_size: int, lo: float, hi: float):
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        coefficients = chebyshev.chebinterpolate(
            lambda nodes: [
                _exact_moments(catalog_size, mid + half * float(x))[0] for x in nodes
            ],
            _INTERPOLANT_DEGREE,
        )
        self._mid, self._inv_half = mid, 1.0 / half
        self._head = float(coefficients[0])
        self._tail = coefficients[:0:-1].tolist()  # c_n .. c_1
        # Every solve probes both bounds before its Newton steps.
        self._at_bounds = {lo: self._clenshaw(lo), hi: self._clenshaw(hi)}

    def moments(self, s: float) -> tuple[float, float]:
        at_bound = self._at_bounds.get(s)
        return self._clenshaw(s) if at_bound is None else at_bound

    def _clenshaw(self, s: float) -> tuple[float, float]:
        x = (s - self._mid) * self._inv_half
        x2 = 2.0 * x
        b1 = b2 = d1 = d2 = 0.0
        for c in self._tail:
            b1, b2 = c + x2 * b1 - b2, b1
            d1, d2 = 2.0 * b2 + x2 * d1 - d2, d1
        return self._head + x * b1 - b2, -(b1 + x * d1 - d2) * self._inv_half


def _score_interpolant(
    catalog_size: int, lo: float, hi: float
) -> Optional[_ScoreInterpolant]:
    """The memoized certified interpolant for ``(N, lo, hi)``, or ``None``.

    ``None`` means the exact score: the catalog is too large for exact
    weight tables, or the interpolant missed :data:`_INTERPOLANT_TOLERANCE`
    at one of its check points.  The check points interleave the
    interpolation nodes and include both bounds, where the error of an
    interpolant peaks.
    """
    key = (catalog_size, lo, hi)
    if key in _INTERPOLANT_CACHE:
        return _INTERPOLANT_CACHE[key]
    interpolant: Optional[_ScoreInterpolant] = None
    if catalog_size <= _MAX_EXACT_CATALOG:
        interpolant = _ScoreInterpolant(catalog_size, lo, hi)
        order = _INTERPOLANT_DEGREE + 1
        angles = np.pi * np.rint(np.linspace(0.0, order, _INTERPOLANT_CHECKS)) / order
        for s in 0.5 * (lo + hi) + 0.5 * (hi - lo) * np.cos(angles):
            mean, variance = _exact_moments(catalog_size, float(s))
            shift = abs(interpolant.moments(float(s))[0] - mean)
            if not shift <= _INTERPOLANT_TOLERANCE * variance:
                interpolant = None
                break
    while len(_INTERPOLANT_CACHE) >= _INTERPOLANT_CACHE_MAX:
        _INTERPOLANT_CACHE.pop(next(iter(_INTERPOLANT_CACHE)))
    _INTERPOLANT_CACHE[key] = interpolant
    return interpolant


def _solve_mle(
    mean_log_rank: float,
    catalog_size: int,
    bounds: tuple[float, float],
    initial: float | None = None,
    moments: Optional[Callable[[float], tuple[float, float]]] = None,
) -> float:
    """MLE of ``s`` given the sufficient statistic ``mean_log_rank``.

    Safeguarded Newton on the increasing score ``f'(s) = m − E_s[log j]``
    with the bracket ``bounds`` maintained as a bisection fallback per
    step; ``initial`` (e.g. the previous online estimate) seeds the
    iteration and ``moments`` supplies ``(E_s[log j], Var_s(log j))``
    (default: the exact O(N) sums).  Falls back to bounded scalar
    minimization for catalogs above ``_MAX_EXACT_CATALOG`` or if Newton
    fails to settle within ``_NEWTON_MAX_ITERATIONS``.
    """
    lo, hi = float(bounds[0]), float(bounds[1])
    if catalog_size > _MAX_EXACT_CATALOG:
        return _minimize_fallback(mean_log_rank, catalog_size, lo, hi)
    if moments is None:
        moments = functools.partial(_exact_moments, catalog_size)
    if mean_log_rank - moments(lo)[0] >= 0.0:
        return lo  # minimum at (or left of) the lower bound
    if mean_log_rank - moments(hi)[0] <= 0.0:
        return hi  # minimum at (or right of) the upper bound
    x = lo + 0.5 * (hi - lo) if initial is None else min(max(initial, lo), hi)
    for _ in range(_NEWTON_MAX_ITERATIONS):
        mean, curvature = moments(x)
        derivative = mean_log_rank - mean
        if derivative < 0.0:
            lo = x
        else:
            hi = x
        step = derivative / curvature if curvature > 0.0 else math.inf
        # Converged on step size *before* the bracket test: at the root
        # the proposal can collide with a bracket edge that collapsed
        # onto it, and the midpoint fallback would fling a converged
        # iterate back into slow per-bit bisection.
        if math.isfinite(step) and abs(step) <= _NEWTON_TOLERANCE:
            return x - step
        proposed = x - step
        if not lo < proposed < hi:
            proposed = 0.5 * (lo + hi)
        moved = abs(proposed - x)
        x = proposed
        if moved <= _NEWTON_TOLERANCE or hi - lo <= _NEWTON_TOLERANCE:
            return x
    return _minimize_fallback(mean_log_rank, catalog_size, lo, hi)


def estimate_exponent(
    ranks: np.ndarray,
    catalog_size: int,
    *,
    bounds: tuple[float, float] = (0.05, 1.95),
) -> float:
    """Maximum-likelihood Zipf exponent from a sample of ranks.

    Parameters
    ----------
    ranks:
        Observed request ranks (1-based integers within the catalog).
    catalog_size:
        The catalog size ``N`` (assumed known — CCN routers know their
        namespace).
    bounds:
        Search interval for ``s``.
    """
    ranks = np.asarray(ranks)
    if ranks.size == 0:
        raise ParameterError("need at least one observed rank")
    if np.any((ranks < 1) | (ranks > catalog_size)):
        raise ParameterError("observed ranks must lie within the catalog")
    lo, hi = bounds
    if not 0 < lo < hi:
        raise ParameterError(f"invalid bounds {bounds}")
    mean_log_rank = float(np.mean(np.log(ranks.astype(np.float64))))
    return _solve_mle(mean_log_rank, int(catalog_size), bounds)


class ExponentEstimator:
    """Windowed online MLE of the Zipf exponent.

    Observations are summarized by their count and mean log-rank, with
    exponential decay ``memory`` per epoch, so old traffic fades and the
    estimate follows popularity drift.  Each :meth:`estimate` is a warm
    safeguarded Newton solve seeded from the previous estimate (see
    :func:`_solve_mle`) on the certified Chebyshev interpolant of the
    score for this catalog and search interval.  The interpolant is built
    from the exact sums on first use and shared by every estimator with
    the same ``(N, bounds)``, so each later re-estimate costs a few
    O(1) score evaluations whatever the catalog size.

    Parameters
    ----------
    catalog_size:
        The catalog size ``N``.
    memory:
        Per-epoch retention in ``[0, 1)``; 0 forgets everything each
        epoch, values near 1 average over long horizons.
    """

    def __init__(self, catalog_size: int, *, memory: float = 0.5):
        if catalog_size < 2:
            raise ParameterError(f"catalog must have at least 2 items, got {catalog_size}")
        if not 0.0 <= memory < 1.0:
            raise ParameterError(f"memory must lie in [0, 1), got {memory}")
        self.catalog_size = int(catalog_size)
        self.memory = float(memory)
        self._weight = 0.0
        self._weighted_log_sum = 0.0
        self._last_estimate: float | None = None
        self._last_inputs: tuple[float, float, float] | None = None

    @property
    def has_observations(self) -> bool:
        """Whether any traffic has been observed yet."""
        return self._weight > 0.0

    def observe(self, ranks: np.ndarray) -> None:
        """Fold one epoch's observed ranks into the window."""
        ranks = np.asarray(ranks)
        if ranks.size == 0:
            return
        if np.any((ranks < 1) | (ranks > self.catalog_size)):
            raise ParameterError("observed ranks must lie within the catalog")
        self._weight = self.memory * self._weight + float(ranks.size)
        self._weighted_log_sum = self.memory * self._weighted_log_sum + float(
            np.sum(np.log(ranks.astype(np.float64)))
        )

    def estimate(self, *, bounds: tuple[float, float] = (0.05, 1.95)) -> float:
        """Current MLE of ``s`` over the decayed window."""
        if not self.has_observations:
            raise ParameterError("no observations to estimate from")
        lo, hi = bounds
        if not 0 < lo < hi:
            raise ParameterError(f"invalid bounds {bounds}")
        mean_log_rank = self._weighted_log_sum / self._weight
        inputs = (mean_log_rank, float(lo), float(hi))
        # Unchanged window (e.g. an empty measurement tick) -> the MLE
        # inputs are identical, so skip the solve and return the cached
        # estimate bit-exactly.
        if self._last_estimate is not None and inputs == self._last_inputs:
            return self._last_estimate
        interpolant = _score_interpolant(self.catalog_size, float(lo), float(hi))
        estimate = _solve_mle(
            mean_log_rank,
            self.catalog_size,
            bounds,
            self._last_estimate,
            None if interpolant is None else interpolant.moments,
        )
        self._last_estimate = estimate
        self._last_inputs = inputs
        return estimate

    def reset(self) -> None:
        """Forget all observations."""
        self._weight = 0.0
        self._weighted_log_sum = 0.0
        self._last_estimate = None
        self._last_inputs = None
