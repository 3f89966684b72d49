"""Public-surface guard: every exported and every traced name resolves, the
number of package names, of options and of module-level numeric constants
stays capped, no module imports a name it never reads, importing the
package needs numpy alone, and a medium or a point of the wrong type is an
InputError at every entry that reads one.

The benchmark tracer (perfbench/tracer.py) patches library functions by
name, so deleting or renaming one of them breaks `Tracer.install` with an
AttributeError long after the change that caused it.
"""
import ast
import importlib
import importlib.util
import os
import pkgutil
import subprocess
import sys
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np
import pytest

import qnmopt
from qnmopt import (certificate, field, medium, sensitivity, spectrum,
                    timedomain)
from qnmopt.errors import InputError
from qnmopt.medium import AdmissibleBounds, GridStructure, constant
from qnmopt.optimize import OptimizeConfig

ROOT = Path(__file__).resolve().parents[1]
MODULES = [m.name for m in pkgutil.iter_modules(qnmopt.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    mod = importlib.import_module(f"qnmopt.{name}")
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert missing == []


# names qnmopt/__init__.py imports; a new public name is a deliberate edit here
MAX_PACKAGE_NAMES = 50


def _package_names() -> list:
    tree = ast.parse(Path(qnmopt.__file__).read_text(encoding="utf-8"))
    return [a.asname or a.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) for a in node.names]


def test_package_imports_resolve():
    names = _package_names()
    assert names
    assert [n for n in names if not hasattr(qnmopt, n)] == []


def test_package_name_ratchet():
    assert len(_package_names()) <= MAX_PACKAGE_NAMES


def _load_tracer(monkeypatch):
    """perfbench/tracer.py as a module, without writing bytecode there."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(
        "_qnmopt_tracer_guard", ROOT / "perfbench" / "tracer.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_traced_names_exist(monkeypatch):
    # spectrum.charF too: Newton's closing |F| calls it there, and the
    # tracer's F evaluation count sees it through that binding
    traced = _load_tracer(monkeypatch).TRACED
    names = [(layer, attr) for layer, attrs in traced.items() for attr in attrs]
    names.append(("spectrum", "charF"))
    missing = [f"{layer}.{attr}" for layer, attr in names
               if not hasattr(importlib.import_module(f"qnmopt.{layer}"), attr)]
    assert missing == []


# defaulted parameters over src/qnmopt; a new option is a deliberate edit here
MAX_PUBLIC_DEFAULTS = 11
MAX_PRIVATE_DEFAULTS = 2


def _defaulted_parameters():
    """(public, private) counts of parameters with a default value; a
    function or method is private when its name starts with '_'."""
    counts = [0, 0]
    for path in Path(qnmopt.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                n = len(node.args.defaults) \
                    + sum(d is not None for d in node.args.kw_defaults)
                counts[node.name.startswith("_")] += n
    return tuple(counts)


# defaulted fields of OptimizeConfig, options that no signature counts
MAX_CONFIG_DEFAULTS = 3


def _config_defaults() -> int:
    return sum(f.default is not MISSING for f in fields(OptimizeConfig))


def test_option_count_ratchet():
    public, private = _defaulted_parameters()
    assert public <= MAX_PUBLIC_DEFAULTS
    assert private <= MAX_PRIVATE_DEFAULTS
    assert _config_defaults() <= MAX_CONFIG_DEFAULTS


# module-level numeric constants over src/qnmopt: numbers and tuples of
# numbers, by value; a new tuning constant is a deliberate edit here
MAX_NUMERIC_CONSTANTS = 37


def _is_numeric(value) -> bool:
    if isinstance(value, tuple):
        return bool(value) and all(map(_is_numeric, value))
    return isinstance(value, (int, float, complex)) \
        and not isinstance(value, bool)


def _numeric_constants() -> list:
    """module.name of every module-level name bound to a numeric value."""
    found = []
    for name in MODULES:
        mod = importlib.import_module(f"qnmopt.{name}")
        tree = ast.parse(Path(mod.__file__).read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) \
                    else [node.target]
                found += [f"{name}.{t.id}" for target in targets
                          for t in ast.walk(target) if isinstance(t, ast.Name)
                          and _is_numeric(getattr(mod, t.id, None))]
    return found


def test_numeric_constant_ratchet():
    found = _numeric_constants()
    assert "field._CHUNK" in found and "timedomain._FIT_WINDOW" in found
    assert len(found) <= MAX_NUMERIC_CONSTANTS


def _unused_imports(path: Path) -> list:
    """Names a module imports but never reads (an __all__ entry is a read)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                imported[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                imported[a.asname or a.name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            read.update(ast.literal_eval(node.value))
    return sorted(f"{path.name}:{line} {name}"
                  for name, line in imported.items() if name not in read)


def test_no_unused_imports():
    paths = sorted(p for p in Path(qnmopt.__file__).parent.glob("*.py")
                   if p.name != "__init__.py")
    assert paths
    assert [u for p in paths for u in _unused_imports(p)] == []


def test_import_loads_no_scipy():
    # numpy is the only runtime dependency; scipy serves the tests
    code = ("import sys, qnmopt; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(Path(qnmopt.__file__).parents[1])})
    assert out.stdout.strip() == "[]"


_B = constant(4.0)
_WINDOW = spectrum.SpectralWindow(0.1, 5.0, 0.1, 1.0)
_BOX = AdmissibleBounds(1.0, 4.0)
_GRID = GridStructure(np.full(16, 4.0), _BOX)
_NODES = np.zeros(17)

# a point that is not a number, then a medium that is not a medium; each
# escaped as UFuncTypeError, TypeError, ValueError or AttributeError
CONTRACT = {
    "propagate(z)": lambda: field.propagate(_B, "x"),
    "phi2_cell_integrals(z)": lambda: field.phi2_cell_integrals(_B, "x",
                                                                [0, 1]),
    "overlap_integrals(z)": lambda: field.overlap_integrals(_B, None),
    "dzF(z)": lambda: field.dzF(None, _B),
    "phi_series(z)": lambda: field.phi_series(_B, "x"),
    "charF(z)": lambda: field.charF("x", _B),
    "charF_dzF(z)": lambda: field.charF_dzF("x", _B),
    "charF_many(zs)": lambda: field.charF_many(["x"], _B),
    "charF(B)": lambda: field.charF(1.0, None),
    "charF_many(B)": lambda: field.charF_many([1.0], None),
    "mode_values(B)": lambda: field.mode_values(None, 1.0, [0.5]),
    "propagate(B)": lambda: field.propagate(None, 1.0),
    "locate(B)": lambda: spectrum.locate(None, _WINDOW),
    "winding_count(B)": lambda: spectrum.winding_count(None, _WINDOW),
    "multiplicity(B)": lambda: spectrum.multiplicity(None, 1 + 0.5j, 0.1),
    "newton_refine(B)": lambda: spectrum.newton_refine(None, 1 + 0.5j),
    "eigenvalue_gradient(B)": lambda: sensitivity.eigenvalue_gradient(
        None, 1 + 0.5j, 16),
    "dzF_higher(B)": lambda: sensitivity.dzF_higher(None, 1 + 0.5j, 2),
    "splitting_probe(B)": lambda: sensitivity.splitting_probe(
        None, 1 + 0.5j, 2, _GRID, [1e-3]),
    "simulate(B)": lambda: timedomain.simulate(None, _NODES, _NODES, 1.0, 16),
    "excite_and_fit(B)": lambda: timedomain.excite_and_fit(None, 1 + 0.5j,
                                                           1.0, 16),
    "splitting_probe(direction)": lambda: sensitivity.splitting_probe(
        _B, 1 + 0.5j, 2, None, [1e-3]),
    "certificate_theta(kappa)": lambda: certificate.certificate_theta(
        "x", 0.0, 1.0, 0.0),
    "to_piecewise(g)": lambda: medium.to_piecewise(None),
    "project_to_box(g)": lambda: medium.project_to_box(None, _BOX),
    "round_to_extreme(g)": lambda: medium.round_to_extreme(None, _BOX),
    "extremality_measure(g)": lambda: medium.extremality_measure(None, _BOX,
                                                                 0.1),
}


@pytest.mark.parametrize("call", CONTRACT.values(), ids=CONTRACT.keys())
def test_wrong_type_is_input_error(call):
    with pytest.raises(InputError):
        call()
