"""Public-surface guard: every exported and every traced name resolves, the
number of package names, of options and of module-level numeric constants
stays capped, no module imports a name it never reads, importing the
package needs numpy alone, and a medium or a point of the wrong type is an
InputError at every entry that reads one: CONTRACT lists the escapes seen,
and a sweep puts None, then "x", in every argument of every public call.

The benchmark tracer (perfbench/tracer.py) patches library functions by
name, so deleting or renaming one of them breaks `Tracer.install` with an
AttributeError long after the change that caused it.
"""
import ast
import importlib
import importlib.util
import inspect
import math
import os
import pkgutil
import subprocess
import sys
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np
import pytest

import qnmopt
from qnmopt import (certificate, field, medium, optimize, sensitivity,
                    spectrum, timedomain)
from qnmopt.errors import InputError
from qnmopt.medium import AdmissibleBounds, GridStructure, constant
from qnmopt.optimize import OptimizeConfig

from conftest import DOUBLE_KAPPA_SEED, DOUBLE_SEED, LN3_4

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
_K = complex(0.5 * math.pi, LN3_4)   # an eigenvalue of _B
_TRACE = certificate.phase_trace(_B, _K)
_CELLS = np.ones(16, complex)
_CONFIG = OptimizeConfig(math.pi, _BOX, 16, 0)

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
    # None read as NaN, a string taken as a point, a bad rng, path or field
    "charF_many(None)": lambda: field.charF_many(None, _B),
    "charF_many([None, z])": lambda: field.charF_many([None, 1.0], _B),
    "values_at(x)": lambda: _B.layers.values_at("x"),
    "values_at(None)": lambda: _B.layers.values_at(None),
    "SpectralWindow.contains(z)": lambda: _WINDOW.contains("x"),
    "SpectralWindow.contains(pad)": lambda: _WINDOW.contains(1 + 0.5j,
                                                             pad="x"),
    "SpectralWindow.dilated(factor)": lambda: _WINDOW.dilated("x"),
    "AdmissibleBounds.contains(x)": lambda: _BOX.contains("x"),
    "AdmissibleBounds.contains(None)": lambda: _BOX.contains(None),
    "certificate_theta(omega None)": lambda: certificate.certificate_theta(
        1 + 0.5j, None, 1.0, 0.0),
    "certificate_theta(omega x)": lambda: certificate.certificate_theta(
        1 + 0.5j, "x", 1.0, 0.0),
    "certificate_theta(b1 None)": lambda: certificate.certificate_theta(
        1 + 0.5j, 0.0, None, 0.0),
    "certificate_theta(b1 x)": lambda: certificate.certificate_theta(
        1 + 0.5j, 0.0, "x", 0.0),
    "certificate_theta(a1 None)": lambda: certificate.certificate_theta(
        1 + 0.5j, 0.0, 1.0, None),
    "certificate_theta(a1 x)": lambda: certificate.certificate_theta(
        1 + 0.5j, 0.0, 1.0, "x"),
    "random_bang_bang(rng)": lambda: medium.random_bang_bang(_BOX, None),
    "PiecewiseStructure.load(None)": lambda: medium.PiecewiseStructure.load(
        None),
    "PiecewiseStructure.save(None)": lambda: _B.save(None),
    "PhaseTrace.value(x)": lambda: _TRACE.value("x"),
    "PhaseTrace.value(None)": lambda: _TRACE.value(None),
    "GradientDensity(kappa None)": lambda: sensitivity.GradientDensity(
        None, _CELLS, 1.0),
    "GradientDensity(kappa x)": lambda: sensitivity.GradientDensity(
        "x", _CELLS, 1.0),
    "GradientDensity(denom_abs None)": lambda: sensitivity.GradientDensity(
        1 + 0.5j, _CELLS, None),
    "GradientDensity(denom_abs x)": lambda: sensitivity.GradientDensity(
        1 + 0.5j, _CELLS, "x"),
}


@pytest.mark.parametrize("call", CONTRACT.values(), ids=CONTRACT.keys())
def test_wrong_type_is_input_error(call):
    with pytest.raises(InputError):
        call()


def _sweep_calls(tmp: Path) -> list:
    """(callable, arguments of one valid call) for every public function of
    the package's modules, the constructors of its input types and every
    public method that takes an argument."""
    saved = tmp / "B.json"
    _B.save(saved)
    two = medium.PiecewiseStructure((0.0, 0.5, 1.0), (1.0, 4.0), _BOX)
    grad = sensitivity.GradientDensity(1 + 0.5j, _CELLS, 1.0)
    return [
        (medium.AdmissibleBounds, (1.0, 4.0)),
        (medium.GridStructure, (np.full(16, 4.0), _BOX)),
        (medium.PiecewiseStructure, ((0.0, 0.5, 1.0), (1.0, 4.0), _BOX)),
        (spectrum.SpectralWindow, (0.1, 5.0, 0.1, 1.0)),
        (OptimizeConfig, (math.pi, _BOX, 16, 0)),
        (sensitivity.GradientDensity, (1 + 0.5j, _CELLS, 1.0)),
        (_BOX.contains, ([2.0],)),
        (_B.layers.values_at, ([0.5],)),
        (_B.save, (tmp / "out.json",)),
        (medium.PiecewiseStructure.load, (saved,)),
        (medium.PiecewiseStructure.from_json_dict, (_B.to_json_dict(),)),
        (_WINDOW.contains, (1 + 0.5j,)),
        (_WINDOW.dilated, (1.1,)),
        (grad.directional, (np.ones(16),)),
        (_TRACE.value, (0.5,)),
        (medium.constant, (4.0,)),
        (medium.extremality_measure, (_GRID, _BOX, 0.1)),
        (medium.project_to_box, (_GRID, _BOX)),
        (medium.random_bang_bang, (_BOX, np.random.default_rng(0))),
        (medium.round_to_extreme, (_GRID, _BOX)),
        (medium.switch_points, (two,)),
        (medium.to_grid, (two, 16)),
        (medium.to_piecewise, (_GRID,)),
        (field.propagate, (_B, _K)),
        (field.charF, (_K, _B)),
        (field.charF_many, ([_K], _B)),
        (field.charF_dzF, (_K, _B)),
        (field.dzF, (_K, _B)),
        (field.phi_series, (_B, 1 + 0.5j)),
        (field.overlap_integrals, (_B, _K)),
        (field.phi2_cell_integrals, (_B, _K, [0.0, 0.5, 1.0])),
        (field.mode_values, (_B, _K, [0.0, 0.5])),
        (spectrum.winding_count, (_B, _WINDOW)),
        (spectrum.locate, (_B, _WINDOW)),
        (spectrum.multiplicity, (_B, _K, 0.1)),
        (spectrum.constant_spectrum, (4.0, _WINDOW)),
        (spectrum.newton_refine, (_B, _K)),
        (spectrum.axis_offset, (4.0,)),
        (sensitivity.eigenvalue_gradient, (_B, _K, 16)),
        (sensitivity.splitting_probe, (_B, _K, 2, _GRID, [1e-3])),
        (sensitivity.find_double_eigenvalue, (DOUBLE_SEED, DOUBLE_KAPPA_SEED)),
        (sensitivity.dzF_higher, (_B, _K, 2)),
        (optimize.step_direction, (grad, _GRID, _BOX)),
        (optimize.minimize_im_at_frequency, (_CONFIG,)),
        (optimize.sweep_I, ([math.pi], _CONFIG)),
        (optimize.constant_upper_bound, (math.pi, _BOX)),
        (optimize.best_constant_seed, (math.pi, _BOX)),
        (certificate.phase_trace, (_B, _K)),
        (certificate.switch_alignment, (_B, _K)),
        (certificate.nonlinear_residual, (_B, _K)),
        (certificate.self_consistent_solve, (_K, _BOX, 16)),
        (certificate.certificate_theta, (1 + 0.5j, 0.0, 1.0, 0.0)),
        (timedomain.simulate, (_B, _NODES, _NODES, 0.1, 16)),
        (timedomain.excite_and_fit, (_B, _K, 1.0, 16)),
    ]


# (callable, parameter) pairs where "x" is a valid value: a file to write
_STRING_OK = {("PiecewiseStructure.save", "path")}


def _public_callables() -> set:
    """Qualified names of what _sweep_calls must cover: every function in a
    module's __all__ or the package, the input-type constructors, and every
    public method of an exported class (or of Layers) with an argument."""
    names = {"AdmissibleBounds", "GridStructure", "PiecewiseStructure",
             "SpectralWindow", "OptimizeConfig", "GradientDensity"}
    mods = [importlib.import_module(f"qnmopt.{m}") for m in MODULES]
    spaces = [(qnmopt, _package_names())] + [
        (mod, getattr(mod, "__all__", ())) for mod in mods]
    for space, public in spaces:
        for obj in (getattr(space, n) for n in public):
            if inspect.isfunction(obj):
                names.add(obj.__qualname__)
            elif inspect.isclass(obj) and obj.__module__.startswith("qnmopt"):
                names.update(_methods_with_arguments(obj))
    return names | _methods_with_arguments(medium.Layers)


def _methods_with_arguments(cls) -> set:
    out = set()
    for name, attr in vars(cls).items():
        f = getattr(attr, "__func__", attr)
        if not name.startswith("_") and inspect.isfunction(f) \
                and len(inspect.signature(f).parameters) > 1:
            out.add(f"{cls.__name__}.{name}")
    return out


def test_sweep_covers_the_public_surface(tmp_path):
    swept = {f.__qualname__ for f, _ in _sweep_calls(tmp_path)}
    assert sorted(_public_callables() - swept) == []


def test_sweep_starts_from_valid_calls(tmp_path, monkeypatch):
    # a base call may fail numerically, never on its input
    monkeypatch.chdir(tmp_path)
    for f, args in _sweep_calls(tmp_path):
        try:
            f(*args)
        except InputError as exc:
            pytest.fail(f"{f.__qualname__}{args!r}: {exc}")
        except qnmopt.errors.QnmOptError:
            pass


def test_none_or_string_argument_is_input_error(tmp_path, monkeypatch):
    """None, then "x", in each argument position of each call in turn (None
    not where it is the default); anything but InputError is reported."""
    monkeypatch.chdir(tmp_path)   # "x" names no file here
    escapes = []
    for f, args in _sweep_calls(tmp_path):
        sig = inspect.signature(f)
        for name, param in sig.parameters.items():
            for bad in (None, "x"):
                if bad is None and param.default is None \
                        or bad == "x" and (f.__qualname__, name) in _STRING_OK:
                    continue
                call = sig.bind(*args)
                call.apply_defaults()
                call.arguments[name] = bad
                try:
                    out = f(*call.args, **call.kwargs)
                except InputError:
                    continue
                except Exception as exc:   # reported below
                    out = exc
                escapes.append(f"{f.__qualname__}({name}={bad!r}): {out!r}"[
                    :200])
    assert escapes == []
