"""qnmopt benchmark: one workload, one seed, one JSON line of metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the library is imported from its
`src/` directory.  The timed phase repeats the workload's fixed operation
list while another pass fits in `--seconds` (always at least one pass), and
every result is checked against its acceptance tolerance afterwards.  With
`--trace 0` the last line carries the end-to-end metrics; with `--trace 1`
it carries the per-layer metrics of one traced pass, taken between two
untraced passes of the same operations.  The line before it is the run record
(versions, machine, per-workload extras, failures).  See README.md.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import pickle
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# one process; numpy's BLAS pool is capped before numpy is first imported
BLAS_THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_CHILDREN = 2     # set-up samples besides this process's own
MIN_SAMPLES = 5        # probe samples for an op to be rescaled on its own


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="print this process's set-up seconds and exit")
    return p.parse_args(argv)


def import_library():
    """Import numpy and qnmopt from this checkout's src/; (module, seconds)."""
    src = ROOT / "src"
    if not (src / "qnmopt" / "__init__.py").is_file():
        raise SystemExit(f"error: no qnmopt sources under {src}")
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import numpy  # noqa: F401
    import qnmopt
    elapsed = time.perf_counter() - t0
    if Path(qnmopt.__file__).resolve().parent != (src / "qnmopt").resolve():
        raise SystemExit(f"error: imported {qnmopt.__file__}, not {src}")
    return qnmopt, elapsed


def run_pass(ops, tracer=None, probe=None):
    """Run every op once.

    Returns (wall seconds, [(seconds, result|exc)], reference seconds of
    the pass, reference seconds per op).  Time the speed probe spent
    interrupting an interval is taken out of it.  An op long enough to hold
    MIN_SAMPLES probe samples is rescaled by its own samples, the rest of
    the pass by the samples of the whole pass.
    """
    out = []
    perf = time.perf_counter

    def stolen():
        return probe.stolen if probe is not None else 0.0

    def n_samples():
        return len(probe.samples) if probe is not None else 0

    t_pass, s_pass, i_pass = perf(), stolen(), n_samples()
    own = {}               # op index -> its own rescaling factor
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = i
        t0, s0, i0 = perf(), stolen(), n_samples()
        try:
            res = op.run()
        except Exception as exc:  # every failure is counted, none is fatal
            res = exc
        dt = perf() - t0 - (stolen() - s0)
        out.append((dt, res))
        if n_samples() - i0 >= MIN_SAMPLES:
            own[i] = probe.factor(i0, n_samples())
    wall = perf() - t_pass - (stolen() - s_pass)
    rest = probe.factor(i_pass, n_samples()) if probe is not None else 1.0
    op_refs = [t * own.get(i, rest) for i, (t, _) in enumerate(out)]
    ref = sum(op_refs) + (wall - sum(t for t, _ in out)) * rest
    return wall, out, ref, op_refs


def check_pass(q, ops, results, failures: list) -> int:
    """Check a pass's results outside the timed region; returns roots found."""
    from workloads import CheckFailed  # imports numpy: only after the timed import
    roots = 0
    for op, (_, res) in zip(ops, results):
        if isinstance(res, Exception):
            kind = ("QnmOptError" if isinstance(res, q.errors.QnmOptError)
                    else "exception")
            failures.append({"op": op.label, "kind": kind,
                             "error": f"{type(res).__name__}: {res}"})
            continue
        try:
            op.check(res)
            roots += op.roots(res)
        except CheckFailed as exc:
            failures.append({"op": op.label, "kind": "check", "error": str(exc)})
        except Exception as exc:  # the check itself hit an error
            failures.append({"op": op.label, "kind": "check",
                             "error": f"{type(exc).__name__}: {exc}"})
    return roots


def tail(values):
    """Highest percentile with at least ten samples beyond it, or None."""
    import numpy as np
    n = len(values)
    if n < 20:
        return None
    beyond = 10
    pct = 100.0 * (n - beyond) / n
    return {"percentile": pct, "value": float(np.percentile(values, pct)),
            "n": n}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup(q, t_import: float, wl, seed: int):
    """Input generation plus one warm-up call.

    Returns (ops, seconds including the import, the same in reference
    seconds).
    """
    import speed
    t0 = time.perf_counter()
    ops = wl.build(q, seed)
    wl.warmup(q, ops)
    raw = t_import + time.perf_counter() - t0
    return ops, raw, raw * speed.bracket_factor()


def child_setups(args) -> list:
    """Set-up seconds measured in fresh interpreters (import is paid once
    per process, so repeating set-up needs new processes)."""
    out = []
    for _ in range(SETUP_CHILDREN):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             args.workload, "--seed", str(args.seed), "--seconds", "0",
             "--setup-only"],
            capture_output=True, text=True, timeout=120, check=True)
        out.append([float(v) for v in proc.stdout.split()[-2:]])
    return out


class Verdicts:
    """Checks the results of each pass outside the timed region.

    A pass whose results pickle to the same digest as an already checked
    pass shares its verdict, so repeated passes cost a digest, not a check.
    Results are not kept, so memory does not grow with the pass count.
    """

    def __init__(self, q, ops):
        self.q, self.ops = q, ops
        self.seen = {}
        self.failures: list = []
        self.attempted = 0
        self.roots = 0

    def add(self, results, count_roots: bool = True) -> None:
        try:
            key = hashlib.sha256(
                pickle.dumps([res for _, res in results])).digest()
        except (pickle.PicklingError, TypeError, AttributeError):
            key = None
        if key is not None and key in self.seen:
            found, new = self.seen[key]
        else:
            new = []
            found = check_pass(self.q, self.ops, results, new)
            if key is not None:
                self.seen[key] = (found, new)
        self.failures.extend(new)
        self.attempted += len(results)
        if count_roots:
            self.roots += found


def main(argv=None) -> int:
    args = parse_args(argv)
    q, t_import = import_library()   # first, so the import is timed in full
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    ops, setup_raw, setup_ref = setup(q, t_import, wl, args.seed)
    if args.setup_only:
        print(setup_raw, setup_ref)
        return 0
    setups = [[setup_raw, setup_ref]]
    if not args.trace:
        setups += child_setups(args)

    import numpy as np

    from record import run_record
    from speed import SpeedProbe
    from tracer import Tracer

    verdicts = Verdicts(q, ops)
    tracer = None
    passes = []            # untraced passes: (wall, op seconds, ref, op refs)
    first_results = []     # results of the first pass, for per-run extras

    def timed(probe=None):
        wall, results, ref, op_refs = run_pass(ops, probe=probe)
        if not passes:
            first_results.extend(res for _, res in results)
        passes.append((wall, [t for t, _ in results], ref, op_refs))
        verdicts.add(results)

    if args.trace:
        # untraced passes on both sides, so a drifting host cancels to first
        # order in the overhead
        timed()
        tracer = Tracer()
        with tracer:
            traced_wall, traced_results, _, _ = run_pass(ops, tracer)
        verdicts.add(traced_results, count_roots=False)
        timed()
    else:
        # the budget counts timed seconds only, not the checks between passes
        with SpeedProbe() as probe:
            while True:
                timed(probe)
                spent = sum(p[0] for p in passes)
                if spent + passes[-1][0] > args.seconds:
                    break
    failures, attempted, roots = (verdicts.failures, verdicts.attempted,
                                  verdicts.roots)

    pass_walls = [p[0] for p in passes]
    op_times = [t for p in passes for t in p[1]]
    wall_s = statistics.median(pass_walls)
    extras = {
        "passes": len(passes), "ops_per_pass": len(ops),
        "op_samples": len(op_times), "op_tail_s": tail(op_times),
        "fail_frac": len(failures) / attempted,
        "roots": roots,
        "roots_per_s": roots / sum(pass_walls) if roots else None,
        "setup_import_s": t_import, "setup_samples_s": setups,
        "pass_walls_s": pass_walls,
        "speed_factors": [ref / wall for wall, _, ref, _ in passes],
        "speed_samples": 0 if tracer else len(probe.samples),
        "raw_wall_s": wall_s, "raw_op_p50_s": float(np.median(op_times)),
        "raw_setup_s": statistics.median(s[0] for s in setups),
    }
    if args.workload == "optimize":
        ok = [res for res in first_results
              if not isinstance(res, Exception) and res.polished_kappa is not None]
        extras["polished_im"] = (float(np.mean([r.polished_kappa.imag for r in ok]))
                                 if ok else None)
        extras["iterations"] = [len(r.trajectory) for r in ok]

    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(s[1] for s in setups), "s"),
            "wall_s": (statistics.median(p[2] for p in passes), "s"),
            "op_p50_s": (float(np.median([t for p in passes for t in p[3]])),
                         "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
    else:
        from metrics import PER_LAYER
        summary = tracer.summary()
        summary["trace.wall_s"] = traced_wall
        summary["trace.overhead_s"] = traced_wall - wall_s
        summary["trace.unwrapped_s"] = traced_wall - summary["trace.covered_s"]
        metrics = {m["name"]: (summary[m["name"]], m["unit"]) for m in PER_LAYER}
        OUT_DIR.mkdir(exist_ok=True)
        tracer.save(OUT_DIR / f"spans_{args.workload}_seed{args.seed}.npz")

    record = run_record(ROOT, args)
    record.update(workload=args.workload, trace=args.trace, extras=extras,
                  failures=failures[:50], failures_total=len(failures))
    print(json.dumps({"record": record}, default=str))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
