"""Reproducible run manifests.

A manifest is the "what produced these numbers" snapshot embedded in
every recorded event stream and BENCH payload: platform, interpreter
and numpy versions, CPU count, plus caller-supplied annotations (the
CLI command line, a scenario fingerprint) and the per-phase wall-time
table the span tracker measured.  Two BENCH files or event streams are
comparable exactly when their provenance blocks agree.
"""

from __future__ import annotations

import hashlib
import os
import platform
import sys
from typing import Mapping, Optional

__all__ = ["available_cpus", "machine_provenance", "run_manifest", "fingerprint"]


def available_cpus() -> int:
    """CPUs this process may actually run on (never less than 1).

    ``os.cpu_count()`` reports the machine, not the process: under
    cgroup/affinity limits (containers, ``taskset``) it overstates what
    a worker pool can use.  Prefer ``os.process_cpu_count()`` (Python
    3.13+), fall back to the scheduling affinity mask, then to
    ``os.cpu_count()``.  The sharded simulation's worker pool sizes
    off this number, and run manifests report it, so it lives here in
    the foundation layer.
    """
    process_cpu_count = getattr(os, "process_cpu_count", None)
    count = process_cpu_count() if process_cpu_count is not None else None
    if not count:
        sched_getaffinity = getattr(os, "sched_getaffinity", None)
        if sched_getaffinity is not None:
            try:
                count = len(sched_getaffinity(0))
            except OSError:
                count = None
    if not count:
        count = os.cpu_count()
    return max(int(count or 1), 1)


def machine_provenance() -> dict:
    """Host/toolchain identity: platform, CPUs, python/numpy versions."""
    import numpy

    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "process_cpu_count": available_cpus(),
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        "numpy": numpy.__version__,
    }


def run_manifest(
    *,
    annotations: Optional[Mapping[str, object]] = None,
    phases: Optional[Mapping[str, float]] = None,
) -> dict:
    """The manifest dict a session emits at finalize.

    ``annotations`` are caller-supplied key/values (command, scenario
    fingerprint); ``phases`` is the per-top-level-span wall-time table.
    """
    manifest = {"provenance": machine_provenance()}
    if annotations:
        manifest["annotations"] = {str(k): v for k, v in sorted(annotations.items())}
    if phases is not None:
        manifest["phases"] = {k: round(v, 6) for k, v in sorted(phases.items())}
    return manifest


def fingerprint(obj: object) -> str:
    """Short stable content hash of an object's ``repr`` (scenario hash).

    ``repr`` of the library's frozen dataclasses (``Scenario``,
    strategies) is a complete value rendering, so equal configurations
    fingerprint equally across processes and sessions.
    """
    return hashlib.sha256(repr(obj).encode("utf-8")).hexdigest()[:16]
