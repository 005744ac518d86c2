"""Session semantics: ambient install, providers, worker-snapshot merge."""

from __future__ import annotations

import pytest

from repro.analysis.defaults import BASE_SCENARIO
from repro.analysis.sweep import sweep
from repro.core import clear_zipf_caches
from repro.errors import ObservabilityError
from repro.obs import (
    NULL_SESSION,
    ObsSession,
    get_session,
    register_provider,
    registered_providers,
    session,
)


class TestAmbientSession:
    def test_default_is_the_null_session(self):
        assert get_session() is NULL_SESSION
        assert not NULL_SESSION.enabled

    def test_null_session_operations_are_shared_noops(self):
        null = get_session()
        assert null.counter("a") is null.counter("b")
        null.counter("a").add(5)
        assert null.counter("a").value == 0.0
        with null.span("x") as span:
            assert span.duration_s == 0.0
        assert null.snapshot()["counters"] == {}

    def test_session_installs_and_restores(self):
        with session() as active:
            assert get_session() is active
            assert active.enabled
            with session() as inner:  # sessions nest; inner shadows outer
                assert get_session() is inner
            assert get_session() is active
        assert get_session() is NULL_SESSION

    def test_session_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with session():
                raise RuntimeError("boom")
        assert get_session() is NULL_SESSION

    def test_finalize_is_idempotent_and_closes_sink(self):
        closed = []

        class Probe:
            def emit(self, event):
                pass

            def close(self):
                closed.append(True)

        active = ObsSession(Probe())
        active.finalize()
        active.finalize()
        assert closed == [True]


class TestProviders:
    def test_zipf_provider_registered_on_import(self):
        assert "zipf" in registered_providers()

    def test_provider_validation(self):
        with pytest.raises(ObservabilityError):
            register_provider("", lambda: {})
        with pytest.raises(ObservabilityError):
            register_provider("x", None)  # type: ignore[arg-type]

    def test_session_records_provider_delta_only(self):
        state = {"calls": 0}
        register_provider("test.delta", lambda: {"test.delta.n": state["calls"]})
        try:
            state["calls"] = 10  # activity before the session: not counted
            with session() as active:
                state["calls"] = 17
            assert active.registry.counter("test.delta.n").value == 7.0
        finally:
            import sys

            sys.modules["repro.obs.session"]._PROVIDERS.pop("test.delta", None)

    def test_zipf_cache_counters_flow_into_session(self):
        from repro.core import ZipfPopularity

        clear_zipf_caches()
        with session() as active:
            ZipfPopularity(0.8, 500).cdf(500)
            ZipfPopularity(0.8, 500).cdf(500)  # memo hit
        counters = active.snapshot()["counters"]
        assert counters.get("zipf.cache.misses", 0) >= 1
        assert counters.get("zipf.cache.hits", 0) >= 1


class TestSnapshotMerge:
    def test_merge_snapshot_folds_spans_and_metrics(self):
        worker = ObsSession()
        with worker.span("sweep.point"):
            pass
        worker.counter("solved").add(1)
        parent = ObsSession()
        parent.merge_snapshot(worker.snapshot())
        parent.merge_snapshot(worker.snapshot())
        snap = parent.snapshot()
        assert snap["counters"]["solved"] == 2.0
        assert snap["spans"]["sweep.point"]["count"] == 2

    def test_snapshot_has_manifest_with_phases(self):
        active = ObsSession(annotations={"run": "test"})
        with active.span("phase"):
            pass
        manifest = active.snapshot()["manifest"]
        assert manifest["annotations"] == {"run": "test"}
        assert "phase" in manifest["phases"]
        assert manifest["provenance"]["python"]


class TestSweepSpans:
    def test_scalar_sweep_records_a_span_per_point(self):
        with session() as active:
            sweep(
                BASE_SCENARIO,
                x_field="alpha",
                x_values=(0.2, 0.4, 0.6, 0.8),
                quantity="level",
                solver="scalar",
            )
        snap = active.snapshot()
        assert snap["spans"]["sweep.point"]["count"] == 4
        assert snap["counters"]["sweep.grid_points"] == 4.0
        assert snap["spans"]["sweep.grid"]["count"] == 1
