"""Command-line interface: ``python -m repro.lint [paths...]``.

Also reachable as ``repro lint ...`` through the package CLI.  Exit
codes follow the usual linter convention: 0 clean, 1 findings, 2 usage
or internal error.  Noteworthy flags:

- ``--fix`` applies the mechanical fixes (R8 dtype kwargs, R9
  try/finally span closure) and re-lints;
- ``--changed`` lints only git-changed files plus their transitive
  importers (pre-commit fast path);
- ``--no-cache`` / ``--cache-dir`` control the incremental cache
  (enabled by default, under ``.lint-cache/``).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import IO, Optional, Sequence

from .cache import DEFAULT_CACHE_DIR
from .engine import LintResult, lint_paths
from .fixes import apply_fixes
from .rules import PROJECT_RULES, RULES, rule_ids

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.lint",
        description=(
            "Whole-program invariant & layering checks for the repro "
            "package (per-file rules R1-R9 plus project rule R10; see "
            "DESIGN.md 'Static analysis & invariants')"
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src", "tests"],
        help=(
            "files or directories to lint (default: src tests, so R10 "
            "sees the tests' references to public names)"
        ),
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--select",
        metavar="RULES",
        help="comma-separated rule ids to run (e.g. R1,R3); default all",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    parser.add_argument(
        "--statistics",
        action="store_true",
        help="append a per-rule finding count to text output",
    )
    parser.add_argument(
        "--fix",
        action="store_true",
        help="apply mechanical fixes (R8 dtype, R9 span closure), then re-lint",
    )
    parser.add_argument(
        "--changed",
        action="store_true",
        help="lint only git-changed files and their transitive importers",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the incremental cache (full re-lint, nothing written)",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=DEFAULT_CACHE_DIR,
        help=f"incremental cache directory (default: {DEFAULT_CACHE_DIR})",
    )
    return parser


def _print_rules(out: IO[str]) -> None:
    for rule in list(RULES) + list(PROJECT_RULES):
        print(f"{rule.id}  {rule.name:24s} {rule.description}", file=out)


def _render_text(result: LintResult, *, statistics: bool, out: IO[str]) -> None:
    for diagnostic in result.diagnostics:
        print(diagnostic.format_text(), file=out)
    if statistics and result.diagnostics:
        counts: dict[str, int] = {}
        for diagnostic in result.diagnostics:
            counts[diagnostic.rule_id] = counts.get(diagnostic.rule_id, 0) + 1
        print("--", file=out)
        for rule_id in sorted(counts):
            print(f"{rule_id}: {counts[rule_id]}", file=out)
    summary = (
        f"repro-lint: {len(result.diagnostics)} finding(s) in "
        f"{result.files_checked} file(s)"
    )
    if result.suppressed_count:
        summary += f", {result.suppressed_count} suppressed"
    if result.files_from_cache:
        summary += f", {result.files_from_cache} from cache"
    print(summary, file=out)


def _render_json(result: LintResult, out: IO[str]) -> None:
    payload = {
        "findings": [d.to_json() for d in result.diagnostics],
        "files_checked": result.files_checked,
        "files_relinted": result.files_relinted,
        "files_from_cache": result.files_from_cache,
        "suppressed": result.suppressed_count,
        "rules": rule_ids(),
    }
    json.dump(payload, out, indent=2)
    print(file=out)


def main(argv: Optional[Sequence[str]] = None, out: Optional[IO[str]] = None) -> int:
    out = out if out is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list_rules:
        _print_rules(out)
        return EXIT_CLEAN
    selected: Optional[list[str]] = None
    if args.select:
        selected = [part.strip().upper() for part in args.select.split(",") if part.strip()]
        known = {rid.upper() for rid in rule_ids()}
        unknown = [rid for rid in selected if rid not in known]
        if unknown:
            print(
                f"repro-lint: unknown rule id(s): {', '.join(unknown)} "
                f"(known: {', '.join(rule_ids())})",
                file=sys.stderr,
            )
            return EXIT_USAGE
    cache_dir = None if args.no_cache else Path(args.cache_dir)
    lint_kwargs = dict(
        selected_ids=selected,
        cache_dir=cache_dir,
        changed_only=args.changed,
    )
    try:
        result = lint_paths([Path(p) for p in args.paths], **lint_kwargs)
        if args.fix:
            fixed_paths, dropped = apply_fixes(result.diagnostics)
            if fixed_paths:
                for path in fixed_paths:
                    print(f"repro-lint: fixed {path}", file=out)
                result = lint_paths(
                    [Path(p) for p in args.paths], **lint_kwargs
                )
            for diagnostic in dropped:
                print(
                    f"repro-lint: could not auto-fix "
                    f"{diagnostic.path}:{diagnostic.line} "
                    f"[{diagnostic.rule_id}]",
                    file=sys.stderr,
                )
    except FileNotFoundError as exc:
        print(f"repro-lint: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RuntimeError as exc:
        print(f"repro-lint: {exc}", file=sys.stderr)
        return EXIT_USAGE

    if args.format == "json":
        _render_json(result, out)
    else:
        _render_text(result, statistics=args.statistics, out=out)
    return EXIT_FINDINGS if result.exit_code else EXIT_CLEAN
