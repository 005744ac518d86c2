"""The grid-scale quadrature and lock-step solves behind ``approx_batch``.

Bin masses are checked against ``math.fsum`` of each bin's own terms —
the exact oracle.  A harmonic prefix table is not one: its differences
lose up to ~6e-8 relative on the tail bins at s = 1.9, N = 1e6.  The
lock-step cell solves are checked bit for bit against the scalar
per-level solves they replace.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

import repro.core
import repro.core.zipf
from repro.approx import approx_batch, hit_probabilities, solve_fixed_point
from repro.approx.batch import (
    DEFAULT_QUADRATURE,
    _bin_masses,
    _cell_fractions,
    _pinned_fraction,
    _rank_quadrature,
)
from repro.core.batch_solver import ScenarioGrid
from repro.core.scenario import Scenario

LEVELS = np.linspace(0.0, 1.0, 6)


@pytest.mark.parametrize("catalog_size", [10, 512, 513, 10_000, 1_000_000])
@pytest.mark.parametrize("exponent", [0.5, 0.8, 1.0, 1.03, 1.5, 1.9])
def test_bin_masses_match_fsum_of_their_terms(exponent, catalog_size):
    edges, _, _ = _rank_quadrature(exponent, catalog_size, DEFAULT_QUADRATURE)
    masses = _bin_masses(exponent, edges)
    terms = np.arange(1, catalog_size + 1, dtype=np.float64) ** -exponent
    exact = np.array(
        [math.fsum(terms[a - 1 : b - 1]) for a, b in zip(edges[:-1], edges[1:])]
    )
    assert np.max(np.abs(masses - exact) / exact) <= 1e-12


def test_quadrature_rates_carry_unit_mass():
    _, weights, rates = _rank_quadrature(1.2, 1_000_000, DEFAULT_QUADRATURE)
    assert float((weights * rates).sum()) == pytest.approx(1.0, abs=1e-15)


def test_large_catalog_builds_no_harmonic_table(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("approx_batch built an O(N) harmonic table")

    monkeypatch.setattr(repro.core.zipf, "harmonic_numbers", refuse)
    monkeypatch.setattr(repro.core, "harmonic_numbers", refuse)
    grid = ScenarioGrid.from_product(
        Scenario(catalog_size=1_000_000, capacity=1_000.0),
        alpha=[0.5, 1.0],
        exponent=[0.8, 1.0, 1.9],
    )
    for policy in ("lru", "random", "perfect-lfu"):
        assert np.all(np.isfinite(approx_batch(grid, policy=policy).level))


def scalar_cell(edges, weights, rates, capacity, n_routers, level, policy):
    """One (cell, level) row the per-level way: scalar solves throughout."""
    local_capacity = capacity * (1.0 - level)
    pooled_capacity = n_routers * capacity * level
    iterations = 0
    if policy == "perfect-lfu":
        h_local = _pinned_fraction(edges, 0.0, local_capacity)
    else:
        solved = solve_fixed_point(
            rates, local_capacity, policy=policy, weights=weights
        )
        iterations += solved.iterations
        h_local = hit_probabilities(rates, solved.value, policy=policy)
    miss = 1.0 - h_local
    if pooled_capacity <= 0.0:
        h_pool = np.zeros_like(h_local)
    elif policy == "perfect-lfu":
        h_pool = _pinned_fraction(
            edges, local_capacity, local_capacity + pooled_capacity
        )
        with np.errstate(divide="ignore", invalid="ignore"):
            h_pool = np.where(miss > 0.0, np.minimum(h_pool / miss, 1.0), 0.0)
    else:
        solved = solve_fixed_point(
            rates * miss, pooled_capacity, policy=policy, weights=weights
        )
        iterations += solved.iterations
        h_pool = hit_probabilities(rates * miss, solved.value, policy=policy)
    served = weights * rates
    f_local = float((served * (h_local + miss * h_pool / n_routers)).sum())
    f_peer = float((served * miss * h_pool * (n_routers - 1.0) / n_routers).sum())
    return f_local, f_peer, iterations


@pytest.mark.parametrize("policy", ["lru", "random", "perfect-lfu"])
@pytest.mark.parametrize(
    "exponent, catalog_size, capacity, n_routers",
    [
        (0.8, 100_000, 500.0, 20.0),
        (1.0, 300, 30.0, 10.0),  # unit bins only
        (1.5, 5_000, 400.0, 50.0),  # the pool outgrows the catalog
        (0.6, 1_000, 1_000.0, 5.0),  # the local store holds everything
    ],
)
def test_cell_rows_are_bit_identical_to_scalar_solves(
    policy, exponent, catalog_size, capacity, n_routers
):
    quad = _rank_quadrature(exponent, catalog_size, DEFAULT_QUADRATURE)
    f_local, f_peer, iterations = _cell_fractions(
        *quad, capacity, n_routers, LEVELS, policy
    )
    rows = [
        scalar_cell(*quad, capacity, n_routers, level, policy)
        for level in [*LEVELS, 0.0]
    ]
    assert f_local.tolist() == [row[0] for row in rows]
    assert f_peer.tolist() == [row[1] for row in rows]
    assert iterations == sum(row[2] for row in rows)


def test_iterations_sum_the_scalar_newton_steps():
    grid = ScenarioGrid.from_product(
        Scenario(catalog_size=20_000, capacity=200.0, n_routers=30),
        alpha=[0.4, 0.9],
        exponent=[0.7, 1.0, 1.6],
        gamma=[2.0, 8.0],
    )
    result = approx_batch(grid, policy="lru", levels=LEVELS)
    expected = 0
    for exponent in (0.7, 1.0, 1.6):
        quad = _rank_quadrature(exponent, 20_000, DEFAULT_QUADRATURE)
        for level in [*LEVELS, 0.0]:
            expected += scalar_cell(*quad, 200.0, 30.0, level, "lru")[2]
    assert result.iterations == expected
    assert result.unique_solves == 3 * (LEVELS.size + 1)
