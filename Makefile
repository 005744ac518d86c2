# Convenience targets for the reproduction repository.

PYTHON ?= python
# Make the src layout importable without an editable install.
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: install test lint lint-full bench bench-quick bench-check experiments examples scorecard clean

# Label for the throughput snapshot written by `make bench`
# (BENCH_<label>.json at the repo root).
BENCH_LABEL ?= local

install:
	pip install -e . || $(PYTHON) setup.py develop

# Static analysis gate: the repo-specific whole-program checker (rules
# R1-R10, see DESIGN.md "Static analysis & invariants") plus ruff and
# mypy when installed (pip install -e '.[dev]'); both are skipped with
# a notice on bare containers so `make lint` stays runnable everywhere
# the test suite is.  Warm runs are served from .lint-cache/;
# `make lint-full` bypasses the cache for a from-scratch audit.
lint:
	$(PYTHON) -m repro.lint src/ tests/
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src/repro; \
	else \
		echo "ruff not installed; skipping (pip install -e '.[dev]')"; \
	fi
	@if command -v mypy >/dev/null 2>&1; then \
		mypy src/repro/core src/repro/lint; \
	else \
		echo "mypy not installed; skipping (pip install -e '.[dev]')"; \
	fi

# Cache-bypassing audit run: re-parses and re-lints every file, so it
# sees exactly what a fresh checkout sees.
lint-full:
	$(PYTHON) -m repro.lint --no-cache src/ tests/

test: lint bench-quick
	$(PYTHON) -m pytest tests/

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only
	$(PYTHON) benchmarks/run_bench.py --label $(BENCH_LABEL)

# CI smoke: exercises the batched kernel, both simulators, the sweep
# engine and the Zipf caches end to end with small counts; writes
# nothing and stores no pytest-benchmark data.
bench-quick:
	$(PYTHON) benchmarks/run_bench.py --quick --no-write

# Regression gate: re-measure the guarded throughput cases against the
# newest committed BENCH_*.json and fail on a >20% drop.  Skips (exit 0)
# when the machine fingerprint differs from the baseline's, since the
# numbers are only comparable on the machine that recorded them.
bench-check:
	$(PYTHON) benchmarks/check_regression.py

experiments:
	$(PYTHON) -m repro run all

scorecard:
	$(PYTHON) -m repro run scorecard

examples:
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/carrier_provisioning.py
	$(PYTHON) examples/model_validation.py
	$(PYTHON) examples/online_caching.py
	$(PYTHON) examples/ccn_data_plane.py
	$(PYTHON) examples/adaptive_provisioning.py
	$(PYTHON) examples/heterogeneous_provisioning.py
	$(PYTHON) examples/custom_topology.py

clean:
	rm -rf build dist src/*.egg-info .pytest_cache .benchmarks
	find . -name __pycache__ -type d -exec rm -rf {} +
