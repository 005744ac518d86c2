"""CLI integration: --obs recording, obs summarize, --solver scalar smoke."""

from __future__ import annotations

import io
import json

from repro.cli import main
from repro.obs import read_events


def run_cli(*argv: str) -> tuple[int, str]:
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestRunWithObs:
    def test_run_records_events_file(self, tmp_path):
        events_path = tmp_path / "events.jsonl"
        code, text = run_cli("run", "table1", "--obs", str(events_path))
        assert code == 0
        assert "Table I" in text  # output unchanged by recording
        events = read_events(events_path)
        kinds = {e["type"] for e in events}
        assert {"span", "counter", "manifest"} <= kinds
        spans = [e["name"] for e in events if e["type"] == "span"]
        assert "experiment.table1" in spans
        manifest = [e for e in events if e["type"] == "manifest"][-1]
        assert manifest["annotations"] == {
            "command": "run",
            "experiment": "table1",
        }
        assert "experiment.table1" in manifest["phases"]

    def test_run_scalar_records_point_spans(self, tmp_path):
        events_path = tmp_path / "events.jsonl"
        code, text = run_cli(
            "run", "figure4", "--solver", "scalar", "--obs", str(events_path)
        )
        assert code == 0
        assert "Figure 4" in text
        events = read_events(events_path)
        counters = {
            e["name"]: e["value"] for e in events if e["type"] == "counter"
        }
        assert counters["sweep.grid_points"] > 0
        spans = [
            e for e in events if e["type"] == "span" and e["name"] == "sweep.point"
        ]
        assert len(spans) == counters["sweep.grid_points"]

    def test_run_scalar_without_obs(self):
        code, text = run_cli("run", "figure4", "--solver", "scalar")
        assert code == 0
        assert "Figure 4" in text

    def test_scalar_output_identical_to_default(self):
        _, default = run_cli("run", "figure4")
        _, scalar = run_cli("run", "figure4", "--solver", "scalar")
        assert scalar == default

    def test_unwritable_obs_path_is_exit_2(self, tmp_path):
        code, _ = run_cli(
            "run", "table1", "--obs", str(tmp_path / "no-dir" / "e.jsonl")
        )
        assert code == 2


class TestSolveWithObs:
    def test_solve_records_fingerprint(self, tmp_path):
        events_path = tmp_path / "events.jsonl"
        code, text = run_cli("solve", "--alpha", "0.7", "--obs", str(events_path))
        assert code == 0
        assert "optimal level" in text
        manifest = [e for e in read_events(events_path) if e["type"] == "manifest"][-1]
        assert manifest["annotations"]["command"] == "solve"
        assert len(manifest["annotations"]["scenario_fingerprint"]) == 16
        assert "solve.scenario" in manifest["phases"]


class TestObsSummarize:
    def test_summarize_rendered_output(self, tmp_path):
        events_path = tmp_path / "events.jsonl"
        run_cli("run", "table1", "--obs", str(events_path))
        code, text = run_cli("obs", "summarize", str(events_path))
        assert code == 0
        assert "phases (top-level spans, wall time):" in text
        assert "experiment.table1" in text
        assert "manifest:" in text

    def test_summarize_missing_file_is_exit_2(self, tmp_path):
        code, _ = run_cli("obs", "summarize", str(tmp_path / "nope.jsonl"))
        assert code == 2

    def test_summarize_gzip_events(self, tmp_path):
        events_path = tmp_path / "events.jsonl.gz"
        run_cli("solve", "--obs", str(events_path))
        assert events_path.read_bytes()[:2] == b"\x1f\x8b"
        code, text = run_cli("obs", "summarize", str(events_path))
        assert code == 0
        assert "solve.scenario" in text


class TestBenchHarnessObs:
    def test_quick_bench_payload_embeds_obs_and_provenance(self, tmp_path):
        import subprocess
        import sys
        from pathlib import Path

        repo_root = Path(__file__).resolve().parents[2]
        out_path = tmp_path / "BENCH_test.json"
        proc = subprocess.run(
            [
                sys.executable,
                str(repo_root / "benchmarks" / "run_bench.py"),
                "--quick",
                "--label",
                "test",
                "--out",
                str(out_path),
            ],
            capture_output=True,
            text=True,
            timeout=600,
        )
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(out_path.read_text())
        assert payload["provenance"]["python"]
        assert payload["obs"]["counters"]["sim.steady.requests"] > 0
        assert "sweep.point" in payload["obs"]["spans"]
        assert payload["obs"]["manifest"]["annotations"]["bench_label"] == "test"
