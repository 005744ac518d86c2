"""repro-lint: whole-program invariant and layering checks for this repo.

The correctness of the reproduction rests on contracts the Python type
system cannot express — the Zipf singularity at ``s = 1`` (paper eq. 6/7),
the tiered-latency ordering ``d0 < d1 <= d2`` behind ``γ``, the
coordination bound ``0 <= x <= c``, Lemma 1's existence conditions, and
the bit-for-bit equivalence contracts between the scalar and batched
kernels (DESIGN.md §§9/11/12).  This package encodes those paper-level
contracts as a two-phase static-analysis framework:

**Phase 1** builds a :class:`~repro.lint.project.ProjectIndex` — per-
module symbol tables, the import graph, and re-export resolution — that
every rule can consult.  **Phase 2** runs nine per-file rules plus one
whole-program rule:

- **R1 exception-discipline** — deliberate failures inside ``repro``
  use the :mod:`repro.errors` hierarchy, never bare ``ValueError`` /
  ``RuntimeError`` / ``Exception``.
- **R2 import-layering** — the architecture DAG (``core`` below
  ``simulation``/``analysis``/``ccn``, nothing imports ``cli``),
  declared once in :data:`repro.lint.rules.r2_layering.ALLOWED_IMPORTS`.
- **R3 domain-guard** — public functions taking ``s``/``exponent``,
  ``d0/d1/d2`` or capacity parameters must validate them before use.
- **R4 numpy-aliasing** — no in-place mutation of array parameters in
  the ``simulation``/``ccn`` hot paths.
- **R5 equation-traceability** — public ``core`` functions must cite
  the paper equation/section they implement.
- **R6 observability-discipline** — obs integration layering rules.
- **R7 rng-determinism** — no module-global RNG state in simulation/
  core/catalog/adaptive; every ``default_rng`` traces to an explicit
  seed or ``SeedSequence``.
- **R8 kernel-dtype-discipline** — combined-key ``np.bincount``
  encodings carry explicit ``int64`` dtypes and an overflow-bound
  comment.
- **R9 span-pairing** — obs spans closed on all paths; counters stay
  monotone (no gauge-as-counter).
- **R10 dead-public-API** (whole-program) — exported names must be
  referenced somewhere outside their defining module.

The engine is incremental: results are cached under ``.lint-cache/``
keyed by content hash and invalidated transitively through the import
graph, so a clean tree re-parses nothing.  ``--fix`` applies
mechanical fixes; ``--changed`` lints only git-changed files plus their
importers.

Run it as ``python -m repro.lint src/ tests/``, ``repro lint ...`` or
``make lint`` (``make lint-full`` bypasses the cache).  Suppress a
finding with ``# repro-lint: disable=R1`` on the offending line, or
``# repro-lint: disable-file=R4`` anywhere in the file.

This package deliberately imports nothing from the rest of ``repro``
(and nothing outside the standard library) so that it can lint a broken
tree and so the layering rule can require that no runtime module other
than the CLI depends on it.
"""

from __future__ import annotations

from .cache import DEFAULT_CACHE_DIR, IncrementalCache
from .diagnostics import Diagnostic, Fix, Severity
from .engine import (
    LintResult,
    discover_files,
    git_changed_files,
    lint_file,
    lint_paths,
)
from .fixes import apply_fixes
from .project import ModuleSummary, ProjectIndex
from .rules import PROJECT_RULES, RULES, ProjectRule, Rule, rule_ids

__all__ = [
    "Diagnostic",
    "Fix",
    "Severity",
    "LintResult",
    "ModuleSummary",
    "ProjectIndex",
    "ProjectRule",
    "Rule",
    "RULES",
    "PROJECT_RULES",
    "rule_ids",
    "discover_files",
    "git_changed_files",
    "lint_file",
    "lint_paths",
    "apply_fixes",
    "IncrementalCache",
    "DEFAULT_CACHE_DIR",
]
