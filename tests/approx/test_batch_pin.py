"""Pinned outputs of ``approx_batch`` on grid-plan-shaped grids.

``approx_batch`` has no scalar oracle at grid scale, so its outputs are
pinned here.  The pin was recorded from the harmonic-prefix-table
quadrature, before the bin masses became per-bin Euler–Maclaurin sums;
the two mass computations differ by at most ~1e-10 relative.  So every
``level`` and ``storage`` must match the pin exactly (sha256 over the
whole grid), and every float field within 1e-9 absolute at the sampled
points (the whole of each small edge-case grid).

Regenerate, only when an output is meant to move, with
``PYTHONPATH=src python tests/approx/test_batch_pin.py``.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from repro.approx import approx_batch
from repro.core.batch_solver import ScenarioGrid
from repro.core.scenario import Scenario

PIN_PATH = Path(__file__).with_name("approx_batch_pin.json")

POLICIES = ("lru", "random", "fifo", "perfect-lfu")
FLOAT_FIELDS = (
    "objective_value",
    "latency",
    "origin_load",
    "local_fraction",
    "peer_fraction",
    "origin_gain",
    "routing_gain",
)
FLOAT_TOL = 1e-9

#: Base scenarios ``(n_routers, catalog_size, capacity)`` of the
#: grid-plan benchmark at seeds 0 and 1, spanning N = 1e4 .. 1e6; two
#: have ``n·c > N``, so the pooled store outgrows the catalog.
PLAN_BASES = {
    "seed0-round0": (164, 517_947, 1464.0),
    "seed0-round1": (132, 1_000_000, 42_318.0),
    "seed0-round2": (28, 10_000, 366.0),
    "seed1-round0": (144, 10_000, 326.0),
    "seed1-round1": (105, 71_969, 493.0),
    "seed1-round4": (76, 1_000_000, 49_431.0),
}

#: Edge-case bases: every edge grid also crosses s = 1 exactly.
EDGE_BASES = {
    "c-equals-n": (5, 1_000, 1_000.0),
    "pool-exceeds-catalog": (50, 5_000, 400.0),
    "one-router": (1, 10_000, 200.0),
    "unit-bins-300": (10, 300, 30.0),
    "unit-bins-512": (10, 512, 40.0),
    "geometric-bins-513": (10, 513, 40.0),
    "large-catalog": (20, 100_000, 500.0),
}

#: Single-level grids, each on the ``large-catalog`` base.
LEVEL_CASES = {"level-zero": (0.0,), "level-one": (1.0,)}


def plan_axes() -> dict:
    """The grid-plan approx axes: 25 α × 20 s × 20 γ, kept off s = 1."""
    exponent = np.linspace(0.5, 1.9, 20)
    exponent = np.where(np.abs(exponent - 1.0) < 0.02, 1.03, exponent)
    return dict(
        alpha=np.linspace(0.0, 1.0, 25),
        exponent=exponent,
        gamma=np.linspace(1.0, 12.0, 20),
    )


def edge_axes() -> dict:
    return dict(alpha=[0.6, 1.0], exponent=[0.5, 1.0, 1.9], gamma=[10.0])


#: One point per exponent, on the 20 α rows from 5/24 to 1 (higher
#: levels), with γ cycling through its axis.
PLAN_SAMPLE = np.array(
    [(i + 5) * 400 + (7 * i % 20) * 20 + (13 * i + 4) % 20 for i in range(20)]
)


def grid_of(base: tuple, axes: dict) -> ScenarioGrid:
    n_routers, catalog_size, capacity = base
    scenario = Scenario(
        n_routers=n_routers, catalog_size=catalog_size, capacity=capacity
    )
    return ScenarioGrid.from_product(scenario, **axes)


def exact_digest(result) -> str:
    """sha256 over the whole ``level`` and ``storage`` columns."""
    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(result.level).tobytes())
    digest.update(np.ascontiguousarray(result.storage).tobytes())
    return digest.hexdigest()


def cases():
    """``(name, grid, levels, sample)`` of every pinned case."""
    for name, base in PLAN_BASES.items():
        yield name, grid_of(base, plan_axes()), None, PLAN_SAMPLE
    for name, base in EDGE_BASES.items():
        yield name, grid_of(base, edge_axes()), None, None
    for name, levels in LEVEL_CASES.items():
        yield name, grid_of(EDGE_BASES["large-catalog"], edge_axes()), levels, None


CASES = {name: (grid, levels, sample) for name, grid, levels, sample in cases()}


def record(result, sample) -> dict:
    picked = slice(None) if sample is None else sample
    return {
        "digest": exact_digest(result),
        "unique_solves": result.unique_solves,
        **{
            field: getattr(result, field)[picked].tolist()
            for field in FLOAT_FIELDS
        },
    }


@pytest.fixture(scope="module")
def pin() -> dict:
    return json.loads(PIN_PATH.read_text())


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("case", sorted(CASES))
def test_matches_pin(pin, case, policy):
    grid, levels, sample = CASES[case]
    result = approx_batch(grid, policy=policy, levels=levels)
    want = pin[f"{case}/{policy}"]
    got = record(result, sample)
    assert got["unique_solves"] == want["unique_solves"]
    for field in FLOAT_FIELDS:
        values = np.asarray(getattr(result, field))
        assert np.all(np.isfinite(values)), field
        diff = np.max(np.abs(np.asarray(got[field]) - np.asarray(want[field])))
        assert diff <= FLOAT_TOL, (field, diff)
    assert got["digest"] == want["digest"]


def test_plan_grids_collapse_to_440_solves():
    grid, _, _ = CASES["seed0-round0"]
    assert approx_batch(grid).unique_solves == 20 * 22


def main() -> None:
    pinned = {
        name: {
            policy: record(approx_batch(grid, policy=policy, levels=levels), sample)
            for policy in POLICIES
        }
        for name, (grid, levels, sample) in CASES.items()
    }
    for by_policy in pinned.values():
        for entry in by_policy.values():
            for field in FLOAT_FIELDS:
                assert all(math.isfinite(v) for v in entry[field]), field
    lines = [
        f"{json.dumps(f'{name}/{policy}')}: {json.dumps(entry, sort_keys=True)}"
        for name, by_policy in sorted(pinned.items())
        for policy, entry in sorted(by_policy.items())
    ]
    PIN_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    main()
