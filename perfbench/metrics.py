"""Metric definitions; `python3 perfbench/metrics.py` prints BENCHMARK.json."""
from __future__ import annotations

import json

from tracer import TRACED

WORKLOAD_WHY = [
    {"name": "optimize",
     "why": "the paper's headline run: minimize Im k at alpha in {pi/2, pi, "
            "2pi} on 256 cells; single-z sweeps, per-cell integrals, grid "
            "conversion and optimizer steps"},
    {"name": "spectrum_grid256",
     "why": "locate on seeded random 256-cell grid media: long layer stacks "
            "make the per-layer loop of contour sweeps and Newton dominate"},
    {"name": "spectrum_bangbang",
     "why": "locate on 2-8 layer bang-bang and constant media, golden window "
            "and mirror: per-call overhead and window recursion dominate"},
    {"name": "verify",
     "why": "locate, FDTD decay fit, switch certificate and fixed point on "
            "stored optima and random media: the only use of certificate and "
            "timedomain"},
]

# bound: share of the parent's median by which the metric may worsen
END_TO_END = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "op_p50_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
]

_DERIVED = [
    ("field.charF_many.points", "count", "lower"),
    ("field.passes", "count", "lower"),
    ("field.layer_steps", "count", "lower"),
    ("spectrum.newton_refine.iters", "count", "lower"),
    ("spectrum.newton_refine.fail", "count", "lower"),
    ("spectrum.newton_refine.ok_ratio", "ratio", "higher"),
    ("spectrum.roots", "count", "higher"),
    ("spectrum.F_evals_per_root", "evals/root", "lower"),
    ("sensitivity.passes_per_gradient", "passes/call", "lower"),
    ("optimize.iterations", "count", "lower"),
    ("optimize.pin_gradients", "count", "lower"),
    ("optimize.track_fallbacks", "count", "lower"),
    ("certificate.fixed_point_iters", "count", "lower"),
    ("timedomain.cell_updates", "count", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.self_sum_s", "s", "lower"),
    ("trace.unwrapped_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
]

PER_LAYER = [
    {"name": f"{layer}.{fn}.{what}", "unit": unit, "better": "lower"}
    for layer, fns in TRACED.items() for fn in fns
    for what, unit in (("calls", "count"), ("self_s", "s"), ("raised", "count"))
] + [{"name": n, "unit": u, "better": b} for n, u, b in _DERIVED]


def benchmark_json() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": 15,
        "workloads": WORKLOAD_WHY,
        "end_to_end": END_TO_END,
        "per_layer": PER_LAYER,
    }


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))
