"""``--fix`` round trips: the mechanical R8/R9 fixes rewrite and re-lint."""

import ast
import io
import shutil
from pathlib import Path

from repro.lint import lint_file
from repro.lint.cli import main
from repro.lint.fixes import apply_fixes

FIXTURES = Path(__file__).parent / "fixtures" / "repro"


def _copy_into_package(tmp_path: Path, fixture: str) -> Path:
    """Copy a fixture into a ``repro/simulation`` package so unit
    detection (and therefore R8/R9) applies to the copy."""
    target_dir = tmp_path / "repro" / "simulation"
    target_dir.mkdir(parents=True)
    (tmp_path / "repro" / "__init__.py").write_text("")
    (target_dir / "__init__.py").write_text("")
    target = target_dir / Path(fixture).name
    shutil.copy(FIXTURES / fixture, target)
    return target


class TestFixRoundTrip:
    def test_arange_dtype_fix(self, tmp_path):
        target = _copy_into_package(tmp_path, "simulation/r8_bad.py")
        diagnostics, _ = lint_file(target)
        fixed_paths, dropped = apply_fixes(diagnostics)
        assert [Path(p) for p in fixed_paths] == [target]
        assert dropped == []
        rewritten = target.read_text()
        assert "np.arange(n, dtype=np.int64)" in rewritten
        ast.parse(rewritten)  # still valid python
        after, _ = lint_file(target)
        assert not any("np.arange" in d.message for d in after)

    def test_span_try_finally_fix(self, tmp_path):
        target = _copy_into_package(tmp_path, "simulation/r9_bad.py")
        diagnostics, _ = lint_file(target)
        fixed_paths, dropped = apply_fixes(diagnostics)
        assert [Path(p) for p in fixed_paths] == [target]
        assert dropped == []
        rewritten = target.read_text()
        assert "try:" in rewritten
        assert "handle.__exit__(None, None, None)" in rewritten
        ast.parse(rewritten)
        after, _ = lint_file(target)
        # The leaked-assignment finding is gone; the non-mechanical
        # findings (dropped handle, counter/gauge misuse) remain.
        assert not any(
            d.fix is not None and d.fix.kind == "span_try_finally"
            for d in after
        )
        assert len(after) < len(diagnostics)

    def test_cli_fix_reports_and_relints(self, tmp_path):
        target = _copy_into_package(tmp_path, "simulation/r8_bad.py")
        out = io.StringIO()
        code = main(["--no-cache", "--fix", str(target)], out=out)
        assert f"repro-lint: fixed {target}" in out.getvalue()
        # Unfixable findings remain, so the exit code still signals them.
        assert code == 1
        assert "dtype=np.int64" in target.read_text()
