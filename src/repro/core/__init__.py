"""Core analytical model of Li et al. (ICDCS 2013).

This subpackage implements the paper's primary contribution: the
performance/cost model of coordinated in-network caching (eqs. 1–6),
the optimal provisioning strategy (eqs. 7–8, Lemmas 1–2, Theorems 1–2)
and the resulting performance gains (§IV-E).
"""

from .batch_solver import (
    BatchGains,
    BatchStrategy,
    ScenarioGrid,
    coordination_cost_batch,
    evaluate_gains_batch,
    existence_mask,
    mean_latency_batch,
    solve_batch,
)
from .conditions import ExistenceConditions, check_existence
from .cost import CoordinationCostModel, PiecewiseLinearCostModel
from .gains import (
    PerformanceGains,
    evaluate_gains,
    origin_load_reduction,
    routing_improvement,
)
from .latency import LatencyModel, tier_latencies_from_gamma
from .objective import PerformanceCostModel, combine_objective
from .optimizer import (
    Lemma2Coefficients,
    OptimalStrategy,
    closed_form_alpha1,
    lemma2_coefficients,
    minimize_objective,
    optimal_strategy,
    solve_first_order,
    solve_lemma2,
)
from .performance import RoutingPerformanceModel, tier_fractions
from .scenario import Scenario
from .strategy import ProvisioningStrategy
from .validation import (
    require_capacity,
    require_exponent,
    require_finite,
    require_latency_ordering,
    require_positive,
    require_probability,
)
from .zipf import (
    ZipfPopularity,
    clear_zipf_caches,
    continuous_cdf,
    continuous_cdf_columns,
    continuous_cdf_limit,
    continuous_normalizer_columns,
    continuous_pdf,
    harmonic_number,
    harmonic_numbers,
    inverse_continuous_cdf,
    register_zipf_cache_clearer,
    top_k_mass,
    validate_exponent,
    zipf_cdf,
    zipf_pmf,
    zipf_table_stats,
    zipf_tables,
)

__all__ = [
    "BatchGains",
    "BatchStrategy",
    "CoordinationCostModel",
    "ExistenceConditions",
    "LatencyModel",
    "Lemma2Coefficients",
    "OptimalStrategy",
    "PerformanceCostModel",
    "PerformanceGains",
    "PiecewiseLinearCostModel",
    "ProvisioningStrategy",
    "RoutingPerformanceModel",
    "Scenario",
    "ScenarioGrid",
    "ZipfPopularity",
    "check_existence",
    "clear_zipf_caches",
    "closed_form_alpha1",
    "combine_objective",
    "continuous_cdf",
    "continuous_cdf_columns",
    "continuous_cdf_limit",
    "continuous_normalizer_columns",
    "continuous_pdf",
    "coordination_cost_batch",
    "evaluate_gains",
    "evaluate_gains_batch",
    "existence_mask",
    "harmonic_number",
    "harmonic_numbers",
    "inverse_continuous_cdf",
    "lemma2_coefficients",
    "mean_latency_batch",
    "minimize_objective",
    "optimal_strategy",
    "origin_load_reduction",
    "require_capacity",
    "require_exponent",
    "require_finite",
    "require_latency_ordering",
    "require_positive",
    "require_probability",
    "routing_improvement",
    "solve_batch",
    "solve_first_order",
    "solve_lemma2",
    "tier_fractions",
    "tier_latencies_from_gamma",
    "top_k_mass",
    "validate_exponent",
    "zipf_cdf",
    "zipf_pmf",
    "register_zipf_cache_clearer",
    "zipf_table_stats",
    "zipf_tables",
]
