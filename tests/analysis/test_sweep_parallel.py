"""Sweep dispatch on the figure defaults: default against serial scalar.

The ``parallel=`` knob this module was named for is gone — the batched
solver replaced the process pool — but its check that the default
dispatch (formerly ``parallel="auto"``) agrees with the serial scalar
path on the paper's figure defaults stays.
"""

from __future__ import annotations

import pytest

from repro.analysis.defaults import BASE_SCENARIO
from repro.analysis.sweep import sweep

ALPHAS = tuple(round(0.1 + 0.8 * i / 5, 4) for i in range(6))


def run_sweep(**solver):
    return sweep(
        BASE_SCENARIO,
        x_field="alpha",
        x_values=ALPHAS,
        quantity="level",
        curve_field="gamma",
        curve_values=(2.0, 10.0),
        **solver,
    )


def assert_series_close(left, right, tolerance=1e-9):
    """Structurally equal series, values within the solver tolerance.

    The batched path warm-starts its bisection, so it agrees with the
    scalar path per point well below 1e-9 without being bitwise equal.
    """
    assert len(left) == len(right)
    for a, b in zip(left, right):
        assert a.label == b.label
        assert a.x == b.x
        assert len(a.y) == len(b.y)
        for ya, yb in zip(a.y, b.y):
            assert ya == pytest.approx(yb, abs=tolerance)


class TestAutoParallel:
    def test_auto_sweep_matches_serial(self):
        # The default dispatches analytical grids to the batched solver;
        # it must agree with the scalar serial path per point.
        assert_series_close(run_sweep(), run_sweep(solver="scalar"))
