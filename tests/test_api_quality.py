"""Meta-tests on the public API surface.

These guard the library's documentation contract: every public module,
class, function and method carries a docstring, every subpackage
defines ``__all__``, and everything listed in an ``__all__`` actually
exists.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil

import pytest

import repro

SUBPACKAGES = [
    "repro",
    "repro.core",
    "repro.topology",
    "repro.catalog",
    "repro.simulation",
    "repro.ccn",
    "repro.adaptive",
    "repro.service",
    "repro.hetero",
    "repro.analysis",
    "repro.baselines",
]


def iter_all_modules():
    seen = []
    for package_name in SUBPACKAGES:
        package = importlib.import_module(package_name)
        seen.append(package)
        if hasattr(package, "__path__"):
            for info in pkgutil.iter_modules(package.__path__):
                if info.name == "__main__":
                    continue  # importing it would invoke the CLI
                seen.append(
                    importlib.import_module(f"{package_name}.{info.name}")
                )
    return seen


ALL_MODULES = iter_all_modules()


class TestAllDeclarations:
    @pytest.mark.parametrize(
        "package_name", SUBPACKAGES, ids=SUBPACKAGES
    )
    def test_subpackage_has_all(self, package_name):
        package = importlib.import_module(package_name)
        assert hasattr(package, "__all__"), f"{package_name} lacks __all__"
        assert package.__all__, f"{package_name}.__all__ is empty"

    @pytest.mark.parametrize(
        "module", ALL_MODULES, ids=lambda m: m.__name__
    )
    def test_all_entries_exist(self, module):
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.__all__ lists missing {name}"

    @pytest.mark.parametrize(
        "module", ALL_MODULES, ids=lambda m: m.__name__
    )
    def test_all_entries_sorted_unique(self, module):
        entries = list(getattr(module, "__all__", ()))
        assert len(entries) == len(set(entries)), (
            f"{module.__name__}.__all__ has duplicates"
        )


class TestDocstrings:
    @pytest.mark.parametrize(
        "module", ALL_MODULES, ids=lambda m: m.__name__
    )
    def test_module_docstring(self, module):
        assert module.__doc__ and module.__doc__.strip(), (
            f"{module.__name__} has no module docstring"
        )

    @pytest.mark.parametrize(
        "module", ALL_MODULES, ids=lambda m: m.__name__
    )
    def test_public_members_documented(self, module):
        undocumented = []
        for name in getattr(module, "__all__", ()):
            member = getattr(module, name)
            if inspect.isclass(member) or inspect.isfunction(member):
                if not (member.__doc__ and member.__doc__.strip()):
                    undocumented.append(name)
                if inspect.isclass(member):
                    for attr_name, attr in vars(member).items():
                        if attr_name.startswith("_"):
                            continue
                        if not inspect.isfunction(attr):
                            continue
                        if attr.__doc__ and attr.__doc__.strip():
                            continue
                        # Overrides inherit their contract's docstring.
                        inherited = any(
                            (
                                getattr(base, attr_name, None) is not None
                                and getattr(
                                    getattr(base, attr_name), "__doc__", None
                                )
                            )
                            for base in member.__mro__[1:]
                        )
                        if not inherited:
                            undocumented.append(f"{name}.{attr_name}")
        assert not undocumented, (
            f"{module.__name__}: undocumented public members: {undocumented}"
        )


class TestVersionMetadata:
    def test_version_string(self):
        parts = repro.__version__.split(".")
        assert len(parts) == 3
        assert all(p.isdigit() for p in parts)

    def test_top_level_exports_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None


class TestImportCost:
    def test_core_packages_do_not_load_scipy(self):
        # scipy.optimize is imported inside the few functions that call
        # it; importing the package must not pay for it.
        import os
        import subprocess
        import sys
        from pathlib import Path

        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")])
        )
        code = (
            "import sys\n"
            "import repro, repro.core, repro.service, repro.simulation\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
