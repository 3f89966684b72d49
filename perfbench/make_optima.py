"""Regenerate data/optima.json, the stored inputs of the `verify` workload.

Runs the optimizer at the three acceptance frequencies (bounds (1, 4),
256 cells, at most 400 iterations, best constant seed) and stores each
polished bang-bang optimum with its eigenvalue.  The file is an input of
the benchmark, so it is regenerated only on purpose, never by a run:

    python3 perfbench/make_optima.py
"""
import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import qnmopt as q  # noqa: E402

OUT = Path(__file__).resolve().parent / "data" / "optima.json"


def main() -> None:
    box = q.AdmissibleBounds(1.0, 4.0)
    records = []
    for name, alpha in (("pi/2", math.pi / 2), ("pi", math.pi),
                        ("2pi", 2 * math.pi)):
        cfg = q.OptimizeConfig(alpha=alpha, bounds=box, n_cells=256,
                               max_iters=400)
        res = q.minimize_im_at_frequency(cfg)
        k = res.polished_kappa
        records.append({"alpha": name,
                        "kappa": [k.real, k.imag],
                        "structure": res.polished.to_json_dict()})
        print(f"alpha={name}: kappa={k}, {res.polished.n_intervals} layers")
    OUT.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
