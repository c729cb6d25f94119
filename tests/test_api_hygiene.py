"""API hygiene: public surface documented, exports resolvable, no cycles."""

import importlib
import inspect
import pkgutil

import pytest

import repro

PACKAGES = [
    "repro",
    "repro.storage",
    "repro.buffer",
    "repro.positions",
    "repro.multicolumn",
    "repro.operators",
    "repro.planner",
    "repro.model",
    "repro.tpch",
    "repro.sql",
    "repro.serving",
    "repro.advisor",
    "repro.compressed",
]


def walk_modules():
    seen = []
    for pkg_name in PACKAGES:
        pkg = importlib.import_module(pkg_name)
        seen.append(pkg)
        if hasattr(pkg, "__path__"):
            for info in pkgutil.iter_modules(pkg.__path__):
                seen.append(
                    importlib.import_module(f"{pkg_name}.{info.name}")
                )
    return {m.__name__: m for m in seen}.values()


class TestDocstrings:
    def test_every_module_has_a_docstring(self):
        undocumented = [
            m.__name__ for m in walk_modules() if not inspect.getdoc(m)
        ]
        assert undocumented == []

    def test_every_public_class_and_function_documented(self):
        undocumented = []
        for module in walk_modules():
            for name, obj in vars(module).items():
                if name.startswith("_"):
                    continue
                if not (inspect.isclass(obj) or inspect.isfunction(obj)):
                    continue
                if getattr(obj, "__module__", None) != module.__name__:
                    continue  # re-export; documented at its home
                if not inspect.getdoc(obj):
                    undocumented.append(f"{module.__name__}.{name}")
        assert undocumented == []


class TestExports:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_no_private_leaks_in_all(self):
        assert not [n for n in repro.__all__ if n.startswith("_")]

    @pytest.mark.parametrize("pkg_name", PACKAGES)
    def test_subpackage_all_resolves(self, pkg_name):
        pkg = importlib.import_module(pkg_name)
        for name in getattr(pkg, "__all__", []):
            assert hasattr(pkg, name), f"{pkg_name}.{name}"


class TestVersion:
    def test_version_string(self):
        assert repro.__version__.count(".") == 2
