"""Tests of the benchmark itself: tracer, input generation, checks, names.

    python3 -m pytest perfbench/tests
"""
import itertools
import json
import re
import signal
import subprocess
import sys
import time
import types

import pytest

import qnmopt as q
import run
import workloads
from metrics import END_TO_END, PER_LAYER, benchmark_json
from speed import SpeedProbe
from tracer import TRACED, Tracer

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


# -- tracer on a synthetic call tree -------------------------------------------

@pytest.fixture()
def fake_package():
    """fakepkg.a defines leaf/outer/Thing; fakepkg.b imports leaf by name."""
    a = types.ModuleType("fakepkg.a")
    exec("def leaf(x):\n    if x < 0:\n        raise ValueError(x)\n    return x\n"
         "def outer(x):\n    return leaf(x) + leaf(x + 1)\n"
         "class Thing:\n    def __init__(self, v):\n        self.v = leaf(v)\n",
         a.__dict__)
    b = types.ModuleType("fakepkg.b")
    b.leaf = a.leaf
    b.call_leaf = lambda x: b.leaf(x)
    pkg = types.ModuleType("fakepkg")
    pkg.outer = a.outer
    mods = {"fakepkg": pkg, "fakepkg.a": a, "fakepkg.b": b}
    sys.modules.update(mods)
    yield pkg, a, b
    for name in mods:
        del sys.modules[name]


def _tracer(clock=None):
    targets = [("a.outer", "fakepkg.a", "outer"), ("a.leaf", "fakepkg.a", "leaf"),
               ("a.Thing", "fakepkg.a", "Thing")]
    ticks = itertools.count(1)
    return Tracer(targets, counters={}, package="fakepkg",
                  clock=clock or (lambda: float(next(ticks))))


def test_self_time_and_parent_links(fake_package):
    pkg, a, b = fake_package
    tr = _tracer()
    with tr:
        tr.op_id = 7
        assert pkg.outer(1) == 3          # outer [1, 6], leaf [2, 3], leaf [4, 5]
        b.call_leaf(2)                     # leaf [7, 8], no parent
    s = tr.arrays()
    assert [tr.names[i] for i in s["name"]] == ["a.outer", "a.leaf", "a.leaf",
                                                "a.leaf"]
    assert list(s["parent"]) == [-1, 0, 0, -1]
    assert list(s["op"]) == [7, 7, 7, 7]
    assert list(tr.self_times()) == [5.0 - 2.0, 1.0, 1.0, 1.0]
    summ = tr.summary()
    assert summ["a.outer.calls"] == 1 and summ["a.leaf.calls"] == 3
    assert summ["a.outer.self_s"] == 3.0 and summ["a.leaf.self_s"] == 3.0
    assert summ["trace.covered_s"] == summ["trace.self_sum_s"] == 6.0


def test_raised_and_class_constructor(fake_package):
    pkg, a, b = fake_package
    tr = _tracer()
    with tr:
        with pytest.raises(ValueError):
            b.call_leaf(-1)
        assert a.Thing(4).v == 4
    summ = tr.summary()
    assert summ["a.leaf.raised"] == 1 and summ["a.leaf.calls"] == 2
    assert summ["a.Thing.calls"] == 1 and summ["a.Thing.raised"] == 0
    s = tr.arrays()
    assert list(s["parent"]) == [-1, -1, 1]   # leaf inside Thing.__init__


def test_uninstall_restores_originals(fake_package):
    pkg, a, b = fake_package
    before = (pkg.outer, a.outer, a.leaf, b.leaf, a.Thing.__init__)
    tr = _tracer()
    tr.install()
    assert b.leaf is not before[3] and a.Thing.__init__ is not before[4]
    tr.uninstall()
    assert (pkg.outer, a.outer, a.leaf, b.leaf, a.Thing.__init__) == before


def test_real_library_wrapped_everywhere_and_restored():
    import qnmopt.field
    import qnmopt.spectrum
    orig = qnmopt.field.charF
    with Tracer():
        assert qnmopt.spectrum.charF is qnmopt.field.charF is q.charF
        assert qnmopt.spectrum.charF is not orig
        q.locate(q.constant(4.0), q.SpectralWindow(2.0, 4.0, 0.05, 1.0))
    assert qnmopt.spectrum.charF is orig and q.charF is orig


def test_speed_probe_samples_and_restores_the_timer():
    old = signal.getsignal(signal.SIGALRM)
    with SpeedProbe(period=0.01) as probe:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.3:
            pass
    assert signal.getsignal(signal.SIGALRM) is old
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(probe.samples) >= 3
    assert probe.stolen >= sum(probe.samples)
    assert probe.factor() > 0


# -- inputs, checks, names ---------------------------------------------------------

def _fingerprint(ops):
    return [op.label for op in ops]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs(name, monkeypatch):
    captured = []
    real_grid, real_bb = q.GridStructure, q.random_bang_bang
    monkeypatch.setattr(q, "random_bang_bang",
                        lambda *a, **k: captured.append(real_bb(*a, **k))
                        or captured[-1])
    monkeypatch.setattr(q, "GridStructure",
                        lambda *a, **k: captured.append(real_grid(*a, **k))
                        or captured[-1])
    wl = workloads.WORKLOADS[name]
    first = _fingerprint(wl.build(q, 3)), list(captured)
    captured.clear()
    second = _fingerprint(wl.build(q, 3)), list(captured)
    assert first == second
    if name in ("spectrum_grid256", "spectrum_bangbang", "verify"):
        captured.clear()
        wl.build(q, 4)
        assert captured and captured != second[1]


def test_wrong_eigenvalue_counts_a_failure():
    ops = workloads.build_bangbang(q, 0)
    op = next(o for o in ops if o.label == "const4.0")
    evs, mirror = op.run()
    failures = []
    assert run.check_pass(q, [op], [(0.0, (evs, mirror))], failures) > 0
    assert failures == []
    bad = [evs[0].__class__(evs[0].kappa + 1e-6, 1, 0.0, 1)] + evs[1:]
    run.check_pass(q, [op], [(0.0, (bad, mirror))], failures)
    assert len(failures) == 1 and failures[0]["kind"] == "check"
    run.check_pass(q, [op], [(0.0, q.errors.ZeroOnContour("x"))], failures)
    assert failures[-1]["kind"] == "QnmOptError"


def test_metric_names_and_benchmark_file():
    from pathlib import Path
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert spec == benchmark_json()
    names = [m["name"] for m in END_TO_END + PER_LAYER] + \
        [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    assert set(w["name"] for w in spec["workloads"]) == set(workloads.WORKLOADS)
    tr_names = {f"{layer}.{fn}" for layer, fns in TRACED.items() for fn in fns}
    summary = Tracer().summary()
    summary.update({k: 0 for k in ("trace.wall_s", "trace.overhead_s",
                                   "trace.unwrapped_s")})
    assert {m["name"] for m in PER_LAYER} <= set(summary)
    assert all(f"{n}.calls" in summary for n in tr_names)


def test_command_prints_result_line(tmp_path):
    out = subprocess.run(
        [sys.executable, str(run.ROOT / "perfbench" / "run.py"), "--workload",
         "spectrum_bangbang", "--seed", "1", "--seconds", "0.1", "--trace", "0"],
        capture_output=True, text=True, timeout=120, check=True)
    last = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    assert set(last["metrics"]) == {m["name"] for m in END_TO_END}
