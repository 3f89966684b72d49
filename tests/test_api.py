"""Public-surface guard: every exported and every traced name resolves.

The benchmark tracer (perfbench/tracer.py) patches library functions by
name, so deleting or renaming one of them breaks `Tracer.install` with an
AttributeError long after the change that caused it.
"""
import ast
import importlib
import importlib.util
import pkgutil
import sys
from pathlib import Path

import pytest

import qnmopt

ROOT = Path(__file__).resolve().parents[1]
MODULES = [m.name for m in pkgutil.iter_modules(qnmopt.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    mod = importlib.import_module(f"qnmopt.{name}")
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert missing == []


def test_package_imports_resolve():
    tree = ast.parse(Path(qnmopt.__file__).read_text(encoding="utf-8"))
    names = [a.asname or a.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) for a in node.names]
    assert names
    assert [n for n in names if not hasattr(qnmopt, n)] == []


def _load_tracer(monkeypatch):
    """perfbench/tracer.py as a module, without writing bytecode there."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(
        "_qnmopt_tracer_guard", ROOT / "perfbench" / "tracer.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_traced_names_exist(monkeypatch):
    traced = _load_tracer(monkeypatch).TRACED
    missing = [f"{layer}.{attr}" for layer, attrs in traced.items()
               for attr in attrs
               if not hasattr(importlib.import_module(f"qnmopt.{layer}"), attr)]
    assert missing == []
