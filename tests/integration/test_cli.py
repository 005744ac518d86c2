"""Integration tests for the repro CLI."""

from __future__ import annotations

import io

import pytest

from repro.cli import build_parser, main


def run_cli(*argv: str) -> tuple[int, str]:
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestList:
    def test_lists_all_experiments(self):
        code, text = run_cli("list")
        assert code == 0
        for name in ("table1", "figure4", "figure13", "model-vs-sim"):
            assert name in text


class TestRun:
    def test_run_table1(self):
        code, text = run_cli("run", "table1")
        assert code == 0
        assert "Table I" in text
        assert "0.3333" in text
        assert "0.5000" in text

    def test_run_table2(self):
        code, text = run_cli("run", "table2")
        assert code == 0
        assert "CERNET" in text

    def test_run_table4(self):
        code, text = run_cli("run", "table4")
        assert code == 0
        assert "2.2842" in text

    def test_run_theorem2(self):
        code, text = run_cli("run", "theorem2")
        assert code == 0
        assert "Figure thm2" in text

    def test_unknown_experiment(self):
        code, _ = run_cli("run", "figure99")
        assert code == 2


class TestSolve:
    def test_solve_default(self):
        code, text = run_cli("solve")
        assert code == 0
        assert "optimal level" in text
        assert "G_O" in text

    def test_solve_alpha_one(self):
        code, text = run_cli("solve", "--alpha", "1.0")
        assert code == 0
        assert "first-order" in text

    def test_solve_custom_parameters(self):
        code, text = run_cli(
            "solve", "--alpha", "0.6", "--gamma", "8", "-s", "1.2", "-n", "50"
        )
        assert code == 0
        assert "l* = " in text


class TestRunFormats:
    def test_csv_format(self):
        code, text = run_cli("run", "table2", "--format", "csv")
        assert code == 0
        assert text.startswith("Topology,|V|,|E|")

    def test_json_format(self):
        import json

        code, text = run_cli("run", "table4", "--format", "json")
        assert code == 0
        doc = json.loads(text)
        assert doc["kind"] == "table"

    def test_output_file(self, tmp_path):
        path = tmp_path / "t2.csv"
        code, text = run_cli("run", "table2", "--format", "csv", "-o", str(path))
        assert code == 0
        assert text == ""  # written to the file, not stdout
        assert path.read_text().startswith("Topology")

    def test_run_all_rejects_nondefault_format(self):
        code, _ = run_cli("run", "all", "--format", "csv")
        assert code == 2


class TestAsciiFormat:
    def test_figure_renders_as_chart(self):
        code, text = run_cli("run", "theorem2", "--format", "ascii")
        assert code == 0
        assert "|" in text and "+--" in text
        assert "x: n; y: l* (closed form)" in text

    def test_table_falls_back_to_text(self):
        code, text = run_cli("run", "table2", "--format", "ascii")
        assert code == 0
        assert "Table II" in text


class TestReportCommand:
    def test_report_selected(self, tmp_path):
        path = tmp_path / "r.md"
        code, text = run_cli(
            "report", "--experiments", "table2", "-o", str(path)
        )
        assert code == 0
        assert text == ""
        assert "Table II" in path.read_text()

    def test_report_unknown_experiment(self):
        code, _ = run_cli("report", "--experiments", "bogus")
        assert code == 2


class TestTopologyCommand:
    def test_shows_table_iii_values(self):
        code, text = run_cli("topology", "abilene")
        assert code == 0
        assert "22.3000 ms" in text
        assert "2.4182 hops" in text

    def test_unknown_topology(self):
        code, _ = run_cli("topology", "arpanet")
        assert code == 2


class TestSensitivityCommand:
    def test_reports_range_and_profile(self):
        code, text = run_cli("sensitivity", "--gamma", "5")
        assert code == 0
        assert "sensitive alpha range" in text
        assert "d l*/d alpha" in text


class TestProtocolCommand:
    def test_reports_messages(self):
        code, text = run_cli("protocol", "abilene", "--level", "0.5")
        assert code == 0
        assert "state messages" in text
        assert "directive messages" in text

    def test_rejects_bad_level(self):
        code, _ = run_cli("protocol", "abilene", "--level", "1.5")
        assert code == 2

    def test_unknown_topology(self):
        code, _ = run_cli("protocol", "nonexistent")
        assert code == 2


class TestApproxCommand:
    def test_custodian_solve(self):
        code, text = run_cli(
            "approx", "abilene", "-c", "100", "--level", "0.5", "-N", "5000"
        )
        assert code == 0
        assert "custodian approximation" in text
        assert "origin load" in text
        assert "fixed point" in text

    def test_en_route_solve(self):
        code, text = run_cli(
            "approx", "geant", "--mode", "en-route", "-c", "50", "-N", "2000"
        )
        assert code == 0
        assert "en-route approximation" in text

    def test_unknown_topology(self):
        code, _ = run_cli("approx", "arpanet")
        assert code == 2

    def test_rejects_bad_level(self):
        code, _ = run_cli("approx", "abilene", "--level", "1.5")
        assert code == 2

    def test_run_solver_flag_reaches_the_sweep(self):
        code, text = run_cli(
            "run", "figure4", "--solver", "approx", "--format", "csv"
        )
        assert code == 0
        assert text.startswith("alpha,")


class TestCcnCommand:
    def test_single_run(self):
        code, text = run_cli(
            "ccn", "abilene", "--requests", "2000", "--level", "0.5"
        )
        assert code == 0
        assert "batched packet-level run" in text
        assert "outcomes" in text
        assert "aggregated" in text
        assert "req/s" in text

    def test_queue_stats_line(self):
        code, text = run_cli(
            "ccn",
            "abilene",
            "--requests",
            "2000",
            "--interarrival",
            "0.05",
            "--queue-size",
            "2",
            "--read-penalty",
            "1.0",
        )
        assert code == 0
        assert "queue" in text

    def test_sweep(self):
        code, text = run_cli(
            "ccn", "abilene", "--sweep", "--requests", "1500"
        )
        assert code == 0
        assert "analytic l* (eq. 5/7)" in text
        assert "measured l^* [independent arrivals]" in text
        assert "measured l^* [contended + queue 2]" in text

    def test_rejects_bad_level(self):
        code, _ = run_cli("ccn", "abilene", "--level", "1.5")
        assert code == 2

    @pytest.mark.parametrize(
        "flags",
        [
            ("--queue-size", "2", "--read-penalty", "nan"),
            ("--queue-size", "2", "--write-penalty", "inf"),
            ("--interarrival", "nan"),
            ("--interarrival", "inf"),
        ],
        ids=["read-nan", "write-inf", "interarrival-nan", "interarrival-inf"],
    )
    def test_rejects_non_finite_times(self, flags):
        code, _ = run_cli("ccn", "abilene", "--requests", "100", *flags)
        assert code == 2

    def test_unknown_topology(self):
        code, _ = run_cli("ccn", "atlantis")
        assert code == 2


class TestServeCommand:
    def write_stream(self, tmp_path, lines):
        path = tmp_path / "stream.txt"
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    def test_serves_a_measurement_file(self, tmp_path):
        source = self.write_stream(
            tmp_path,
            ["", "1 1 2 3 1 5 2 1 8 1", "1 2 1 1 4 1 13 2 1 1"],
        )
        code, text = run_cli(
            "serve", source, "-N", "100", "-c", "10", "-n", "5"
        )
        assert code == 0
        assert "idle" in text
        assert "cold" in text
        assert "3 ticks: 1 cold" in text
        assert "provisioned level l*" in text

    def test_dead_band_skips_are_reported(self, tmp_path):
        line = "1 1 2 3 1 5 2 1 8 1"
        source = self.write_stream(tmp_path, [line, line, line])
        code, text = run_cli(
            "serve", source, "-N", "100", "-c", "10", "-n", "5",
            "--dead-band", "0.5",
        )
        assert code == 0
        assert "skipped" in text
        assert "2 skipped" in text

    def test_limit_stops_early(self, tmp_path):
        source = self.write_stream(tmp_path, ["1 2 3"] * 5)
        code, text = run_cli(
            "serve", source, "-N", "100", "-c", "10", "-n", "5",
            "--limit", "2",
        )
        assert code == 0
        assert "2 ticks" in text

    def test_missing_source_fails_cleanly(self, tmp_path):
        code, _ = run_cli("serve", str(tmp_path / "nope.txt"))
        assert code == 2

    def test_bad_measurement_line_fails_cleanly(self, tmp_path):
        source = self.write_stream(tmp_path, ["1 2 three"])
        code, _ = run_cli("serve", source, "-N", "100", "-c", "10", "-n", "5")
        assert code == 2

    def test_non_utf8_input_fails_cleanly(self, tmp_path, capsys):
        path = tmp_path / "stream.bin"
        path.write_bytes(b"1 2 3\n\xff\xfe\n4 5\n")
        code, text = run_cli("serve", str(path), "-N", "100", "-c", "10", "-n", "5")
        assert code == 2
        assert "tick    0" in text  # the good line before it was served
        assert "line 2" in capsys.readouterr().err

    def test_oversized_rank_fails_cleanly(self, tmp_path, capsys):
        source = self.write_stream(tmp_path, ["1 2", "99999999999999999999"])
        code, _ = run_cli("serve", source, "-N", "100", "-c", "10", "-n", "5")
        assert code == 2
        assert "line 2" in capsys.readouterr().err

    def test_obs_events_file(self, tmp_path):
        source = self.write_stream(tmp_path, ["1 1 2 3 1", "2 1 1 4 1"])
        events = tmp_path / "events.jsonl"
        code, _ = run_cli(
            "serve", source, "-N", "100", "-c", "10", "-n", "5",
            "--obs", str(events),
        )
        assert code == 0
        text = events.read_text()
        assert "service.tick" in text
        assert "service.solve_latency_s" in text


class TestScaleCommand:
    ARGS = ("scale", "--routers", "72", "--regions", "4", "--requests", "4000",
            "--catalog", "1000")

    @staticmethod
    def metrics(text):
        return [line for line in text.splitlines() if line.startswith(
            ("origin load", "local/peer", "mean hops", "mean latency"))]

    def test_shard_counts_change_only_the_pool(self):
        _, auto = run_cli(*self.ARGS)
        code, two = run_cli(*self.ARGS, "--shards", "2")
        assert code == 0
        assert "2 worker shards" in two
        code, serial = run_cli(*self.ARGS, "--shards", "0")
        assert code == 0
        assert "no worker shards" in serial
        assert self.metrics(auto) == self.metrics(two) == self.metrics(serial)
        assert len(self.metrics(serial)) == 4

    def test_negative_shards_fail_cleanly(self, capsys):
        code, text = run_cli(*self.ARGS, "--shards", "-1")
        assert code == 2
        assert text == ""
        err = capsys.readouterr().err
        assert "shard count must be a positive integer" in err
        assert "Traceback" not in err

    def test_negative_shards_fail_before_building_the_topology(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("generate_hierarchy ran before --shards was checked")

        monkeypatch.setattr("repro.topology.generate_hierarchy", refuse)
        code, text = run_cli(*self.ARGS, "--shards", "-1")
        assert code == 2
        assert text == ""


class TestLibraryErrorsExitCleanly:
    """Every ``ReproError`` ends the CLI with one stderr line and exit 2."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("solve", "--capacity", "0"), "capacity must be positive"),
            (("solve", "-s", "2.5"), "Zipf exponent must lie in (0, 2)"),
            (("sensitivity", "--alpha", "2"), "alpha must lie in [0, 1]"),
        ],
        ids=["zero-capacity", "exponent-out-of-range", "alpha-out-of-range"],
    )
    def test_bad_parameters(self, capsys, argv, message):
        code, text = run_cli(*argv)
        assert code == 2
        assert text == ""
        err = capsys.readouterr().err
        assert message in err
        assert err.count("\n") == 1
        assert "Traceback" not in err

    def test_unwritable_output_path(self, tmp_path, capsys):
        target = tmp_path / "missing" / "x.csv"
        code, text = run_cli("run", "figure4", "--format", "csv", "-o", str(target))
        assert code == 2
        assert text == ""
        err = capsys.readouterr().err
        assert f"cannot write {target}" in err
        assert err.count("\n") == 1
        assert "Traceback" not in err
        assert not target.parent.exists()


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_requires_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run"])
