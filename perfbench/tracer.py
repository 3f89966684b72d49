"""Outside-in tracer for the qnmopt benchmark.

The library is traced from outside: each listed public function is replaced,
in every `qnmopt*` module namespace that binds it, by a wrapper that records
a span (name, start, end, parent span, operation id).  Modules import with
`from .field import charF`, so patching only the defining module would miss
the calls made from the others.  The two medium classes cannot be replaced
by functions (the library tests `isinstance` against them), so their
`__init__` is wrapped instead.  `uninstall` puts every original back.

Spans are kept in flat in-memory lists and written out when the run ends.
Derived counts (layer sweeps, points, Newton iterations, ...) are computed
from the call arguments and results with numpy, never through library
calls, so they repeat exactly from run to run.
"""
from __future__ import annotations

import sys
import time
from collections import defaultdict

import numpy as np

# layer (module) -> public callables traced in it
TRACED = {
    "medium": ("to_piecewise", "project_to_box", "PiecewiseStructure",
               "GridStructure"),
    "field": ("propagate", "charF", "charF_many", "dzF", "overlap_integrals",
              "phi2_cell_integrals", "mode_values"),
    "spectrum": ("locate", "winding_count", "newton_refine"),
    "sensitivity": ("eigenvalue_gradient", "dzF_higher"),
    "optimize": ("minimize_im_at_frequency", "step_direction"),
    "certificate": ("switch_alignment", "phase_trace",
                    "self_consistent_solve"),
    "timedomain": ("simulate", "excite_and_fit"),
}

# field functions that each make exactly one sweep through the layers
SWEEPS = ("field.propagate", "field.charF_many", "field.overlap_integrals",
          "field.phi2_cell_integrals", "field.mode_values")


def _breakpoints(B) -> np.ndarray:
    """Merged breakpoints of a grid or piecewise medium, from its arrays."""
    if hasattr(B, "breakpoints"):
        return np.asarray(B.breakpoints, dtype=float)
    v = np.asarray(B.values, dtype=float)
    keep = np.concatenate(([True], v[1:] != v[:-1], [True]))
    return np.linspace(0.0, 1.0, len(v) + 1)[keep]


def n_layers(B) -> int:
    """Layers one sweep visits: intervals of the merged piecewise form."""
    return len(_breakpoints(B)) - 1


def _count_sweep(counts, points: int, layers: int) -> None:
    counts["field.passes"] += 1
    counts["field.layer_steps"] += points * layers


# Derived counts: span name -> fn(counts, args, kwargs, result).  Arguments
# follow the library's signatures; results are only read, never recomputed.
def _c_propagate(c, a, kw, out):
    _count_sweep(c, 1, n_layers(a[0]))


def _c_charF_many(c, a, kw, out):
    pts = int(np.size(a[0]))
    c["field.charF_many.points"] += pts
    _count_sweep(c, pts, n_layers(a[1]))


def _c_overlap(c, a, kw, out):
    _count_sweep(c, 1, n_layers(a[0]))


def _c_phi2(c, a, kw, out):
    edges = np.asarray(a[2] if len(a) > 2 else kw["edges"], dtype=float)
    _count_sweep(c, 1, len(np.union1d(edges, _breakpoints(a[0]))) - 1)


def _c_mode_values(c, a, kw, out):
    _count_sweep(c, 1, n_layers(a[0]))


def _c_newton(c, a, kw, out):
    if out is None:
        c["spectrum.newton_refine.fail"] += 1
    else:
        c["spectrum.newton_refine.iters"] += int(out[1])


def _c_locate(c, a, kw, out):
    c["spectrum.roots"] += sum(ev.multiplicity for ev in out)


def _c_minimize(c, a, kw, out):
    c["optimize.iterations"] += len(out.trajectory)


def _c_self_consistent(c, a, kw, out):
    c["certificate.fixed_point_iters"] += len(out.history)


def _c_simulate(c, a, kw, out):
    m_cells = a[4] if len(a) > 4 else kw["m_cells"]
    c["timedomain.cell_updates"] += len(out.times) * (int(m_cells) + 1)


COUNTERS = {
    "field.propagate": _c_propagate,
    "field.charF_many": _c_charF_many,
    "field.overlap_integrals": _c_overlap,
    "field.phi2_cell_integrals": _c_phi2,
    "field.mode_values": _c_mode_values,
    "spectrum.newton_refine": _c_newton,
    "spectrum.locate": _c_locate,
    "optimize.minimize_im_at_frequency": _c_minimize,
    "certificate.self_consistent_solve": _c_self_consistent,
    "timedomain.simulate": _c_simulate,
}


class Tracer:
    """Records nested spans around traced callables while installed."""

    def __init__(self, targets=None, counters=None, package="qnmopt",
                 clock=time.perf_counter):
        # targets: [(span name, module name, attribute)]; defaults to TRACED.
        # package, targets, counters and clock let the tests trace a fake.
        if targets is None:
            targets = [(f"{layer}.{attr}", f"{package}.{layer}", attr)
                       for layer, attrs in TRACED.items() for attr in attrs]
        self.targets = targets
        self.counters = COUNTERS if counters is None else counters
        self.package = package
        self.clock = clock
        self.names = [t[0] for t in targets]
        self.op_id = -1
        self.counts = defaultdict(int)
        self._name = []
        self._parent = []
        self._op = []
        self._start = []
        self._end = []
        self._raised = []
        self._stack = []
        self._restore = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        pkg = self.package
        mods = [m for n, m in list(sys.modules.items())
                if m is not None and (n == pkg or n.startswith(pkg + "."))]
        for nid, (name, modname, attr) in enumerate(self.targets):
            orig = getattr(sys.modules[modname], attr)
            if isinstance(orig, type):
                init = orig.__init__
                self._restore.append((orig, "__init__", init))
                orig.__init__ = self._wrap(nid, name, init)
                continue
            wrapper = self._wrap(nid, name, orig)
            for mod in mods:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._restore.append((mod, key, orig))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            obj, key, orig = self._restore.pop()
            setattr(obj, key, orig)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _wrap(self, nid: int, name: str, fn):
        counter = self.counters.get(name)
        perf = self.clock
        stack = self._stack
        names, parents, ops = self._name, self._parent, self._op
        starts, ends, raised = self._start, self._end, self._raised
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(tracer.op_id)
            raised.append(False)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf())
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                raised[idx] = True
                raise
            finally:
                ends[idx] = perf()
                stack.pop()
            if counter is not None:
                counter(tracer.counts, args, kwargs, out)
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    # -- results -------------------------------------------------------------

    def arrays(self) -> dict:
        """The recorded spans as numpy arrays (one entry per span)."""
        return {"name": np.asarray(self._name, dtype=np.int32),
                "parent": np.asarray(self._parent, dtype=np.int64),
                "op": np.asarray(self._op, dtype=np.int64),
                "start": np.asarray(self._start, dtype=float),
                "end": np.asarray(self._end, dtype=float),
                "raised": np.asarray(self._raised, dtype=bool)}

    def self_times(self) -> np.ndarray:
        """Per span: its duration minus the durations of its child spans.

        Calls are single-threaded and properly nested, so the children of a
        span cover disjoint parts of its interval.
        """
        s = self.arrays()
        dur = s["end"] - s["start"]
        child = np.zeros_like(dur)
        has_parent = s["parent"] >= 0
        np.add.at(child, s["parent"][has_parent], dur[has_parent])
        return dur - child

    def summary(self) -> dict:
        """calls / self_s / raised per traced name, plus derived counts."""
        s = self.arrays()
        selft = self.self_times()
        n = len(self.names)
        calls = np.bincount(s["name"], minlength=n)
        self_s = np.bincount(s["name"], weights=selft, minlength=n)
        raised = np.bincount(s["name"], weights=s["raised"], minlength=n)
        out = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = int(calls[i])
            out[f"{name}.self_s"] = float(self_s[i])
            out[f"{name}.raised"] = int(raised[i])
        out.update(self.derived())
        top = s["parent"] < 0
        out["trace.spans"] = int(len(selft))
        out["trace.covered_s"] = float(np.sum(s["end"][top] - s["start"][top]))
        out["trace.self_sum_s"] = float(np.sum(selft))
        return out

    def _flag_descendants(self, root_name: str) -> np.ndarray:
        """Per span: True when it or one of its ancestors is `root_name`."""
        rid = self.names.index(root_name) if root_name in self.names else -1
        flag = [nid == rid for nid in self._name]
        # parents are recorded before their children, so one forward pass works
        for i, p in enumerate(self._parent):
            if p >= 0 and flag[p]:
                flag[i] = True
        return np.asarray(flag, dtype=bool)

    def derived(self) -> dict:
        c = self.counts
        s = self.arrays()
        idx = {name: i for i, name in enumerate(self.names)}
        calls = np.bincount(s["name"], minlength=len(self.names))

        def n(name):
            return int(calls[idx[name]]) if name in idx else 0

        out = {k: int(c[k]) for k in (
            "field.charF_many.points", "field.passes", "field.layer_steps",
            "spectrum.newton_refine.iters", "spectrum.newton_refine.fail",
            "spectrum.roots", "optimize.iterations",
            "certificate.fixed_point_iters", "timedomain.cell_updates")}
        newton = n("spectrum.newton_refine")
        out["spectrum.newton_refine.ok_ratio"] = (
            (newton - c["spectrum.newton_refine.fail"]) / newton
            if newton else 0.0)
        roots = c["spectrum.roots"]
        f_evals = n("field.charF") + c["field.charF_many.points"] + n("field.dzF")
        out["spectrum.F_evals_per_root"] = f_evals / roots if roots else 0.0

        grads = n("sensitivity.eigenvalue_gradient")
        if grads:
            under = self._flag_descendants("sensitivity.eigenvalue_gradient")
            sweep_ids = [idx[k] for k in SWEEPS if k in idx]
            is_sweep = np.isin(s["name"], sweep_ids)
            out["sensitivity.passes_per_gradient"] = (
                int(np.sum(under & is_sweep)) / grads)
        else:
            out["sensitivity.passes_per_gradient"] = 0.0
        out["optimize.pin_gradients"] = grads - n("optimize.step_direction")
        if "spectrum.locate" in idx and "optimize.minimize_im_at_frequency" in idx:
            is_locate = s["name"] == idx["spectrum.locate"]
            parent = s["parent"][is_locate]
            parent_names = s["name"][parent[parent >= 0]]
            out["optimize.track_fallbacks"] = int(np.sum(
                parent_names == idx["optimize.minimize_im_at_frequency"]))
        else:
            out["optimize.track_fallbacks"] = 0
        return out

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.asarray(self.names), **self.arrays())
