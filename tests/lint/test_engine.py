"""Engine, CLI, and live-tree tests for repro-lint."""

import io
import json
import subprocess
import sys
from pathlib import Path

import repro
from repro.lint import discover_files, lint_paths
from repro.lint.cli import main
from repro.lint.rules import RULES, rule_ids

REPO_SRC = Path(repro.__file__).parent.parent  # .../src
REPO_TESTS = Path(__file__).parent.parent  # .../tests
FIXTURES = Path(__file__).parent / "fixtures" / "repro"


class TestLiveTree:
    def test_src_and_tests_are_clean(self):
        """The acceptance gate: all ten rules pass on the live tree.

        Both trees are linted together so R10's reference index sees
        test usages of exported names (the same invocation the Makefile
        gate uses).
        """
        result = lint_paths([REPO_SRC, REPO_TESTS])
        assert result.diagnostics == [], [
            d.format_text() for d in result.diagnostics
        ]
        assert result.exit_code == 0
        assert result.files_checked > 50

    def test_cli_exits_zero_on_src(self, monkeypatch):
        # No paths: the default (src and tests, from the repo root).
        monkeypatch.chdir(REPO_TESTS.parent)
        out = io.StringIO()
        assert main(["--no-cache"], out=out) == 0
        assert "0 finding(s)" in out.getvalue()

    def test_cli_exits_nonzero_on_bad_fixture(self):
        out = io.StringIO()
        assert main(["--no-cache", str(FIXTURES / "core" / "r1_bad.py")], out=out) == 1


class TestDiscovery:
    def test_fixture_dirs_are_excluded_from_directory_walks(self):
        files = discover_files([Path(__file__).parent])
        assert all("fixtures" not in f.parts for f in files)

    def test_explicit_fixture_files_are_linted(self):
        target = FIXTURES / "core" / "r1_bad.py"
        assert discover_files([target]) == [target]

    def test_explicit_fixture_directory_is_walked(self):
        files = discover_files([FIXTURES / "core"])
        assert FIXTURES / "core" / "r1_bad.py" in files

    def test_missing_target_raises(self):
        import pytest

        with pytest.raises(FileNotFoundError):
            discover_files([Path("no/such/path.py")])


class TestCli:
    def test_json_output_shape(self):
        out = io.StringIO()
        code = main(
            ["--no-cache", "--format", "json", str(FIXTURES / "core" / "r3_bad.py")],
            out=out,
        )
        assert code == 1
        payload = json.loads(out.getvalue())
        assert payload["rules"] == rule_ids()
        assert payload["files_checked"] == 1
        rules_hit = {f["rule"] for f in payload["findings"]}
        assert rules_hit == {"R3"}
        first = payload["findings"][0]
        assert set(first) == {
            "path", "line", "col", "rule", "name", "severity", "message",
        }

    def test_select_restricts_rules(self):
        out = io.StringIO()
        code = main(
            ["--no-cache", "--select", "R5", str(FIXTURES / "core" / "r1_bad.py")],
            out=out,
        )
        assert code == 0  # R1 findings exist but only R5 was selected

    def test_unknown_rule_is_usage_error(self):
        assert main(["--select", "R99", str(FIXTURES)]) == 2

    def test_missing_path_is_usage_error(self):
        assert main(["no/such/dir"]) == 2

    def test_list_rules(self):
        out = io.StringIO()
        assert main(["--list-rules"], out=out) == 0
        text = out.getvalue()
        for rule in RULES:
            assert rule.id in text and rule.name in text

    def test_statistics_footer(self):
        out = io.StringIO()
        main(
            ["--no-cache", "--statistics", str(FIXTURES / "core" / "r1_bad.py")],
            out=out,
        )
        assert "R1: 3" in out.getvalue()

    def test_module_entrypoint(self):
        """``python -m repro.lint`` is the documented invocation."""
        proc = subprocess.run(
            [sys.executable, "-m", "repro.lint", "--list-rules"],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(REPO_SRC), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0
        assert "R1" in proc.stdout


class TestRuleCatalogue:
    def test_all_ten_rules_registered(self):
        assert rule_ids() == [
            "R1", "R2", "R3", "R4", "R5", "R6", "R7", "R8", "R9", "R10",
        ]

    def test_rules_have_metadata(self):
        from repro.lint.rules import PROJECT_RULES

        for rule in list(RULES) + list(PROJECT_RULES):
            assert rule.id and rule.name and rule.description
