"""The optimizer against a stored record of its results at the acceptance
frequencies.

tests/data/optimize_seed0.json holds, per alpha in {pi/2, pi, 2 pi} on the
box (1, 4) with 256 cells, what minimize_im_at_frequency returned: the
status, the iteration count, Im kappa after every iteration (the path,
which the final values alone hide: the polish forgets how it was
reached), the grid, rounded and polished kappa and the polished switch
positions.  A change to the optimizer's fixed costs (media, lookups,
gradients, steps) must keep every count and move no value by more than
1e-14 relative.  Regenerate with `python tests/test_optimize_record.py`
(with `src/` on the path) only where a change of results is intended.
"""
import json
import math
import pathlib

import pytest

from qnmopt.medium import AdmissibleBounds
from qnmopt.optimize import OptimizeConfig, minimize_im_at_frequency

RECORD = pathlib.Path(__file__).resolve().parent / "data" / \
    "optimize_seed0.json"
ALPHAS = {"pi/2": math.pi / 2, "pi": math.pi, "2pi": 2 * math.pi}


def _record(alpha: float) -> dict:
    res = minimize_im_at_frequency(OptimizeConfig(
        alpha=alpha, bounds=AdmissibleBounds(1.0, 4.0), n_cells=256,
        max_iters=400))
    return {"status": res.status,
            "iterations": res.trajectory[-1].iter,
            "objectives": [r.objective for r in res.trajectory],
            "kappa": [res.kappa.real, res.kappa.imag],
            "rounded_kappa": [res.rounded_kappa.real, res.rounded_kappa.imag],
            "polished_kappa": [res.polished_kappa.real,
                               res.polished_kappa.imag],
            "switches": res.polished.breakpoints[1:-1].tolist()}


STORED = json.loads(RECORD.read_text(encoding="utf-8")) \
    if RECORD.exists() else {}


def _close(got: list, want: list) -> bool:
    return all(abs(g - w) <= 1e-14 * abs(w) for g, w in zip(got, want))


@pytest.mark.parametrize("label", list(ALPHAS))
def test_matches_record(label):
    want = STORED[label]
    got = _record(ALPHAS[label])
    assert got["status"] == want["status"]
    assert got["iterations"] == want["iterations"]
    assert len(got["switches"]) == len(want["switches"])
    assert _close(got["objectives"], want["objectives"])
    for key in ("kappa", "rounded_kappa", "polished_kappa"):
        assert _close([complex(*got[key])], [complex(*want[key])]), key
    assert _close(got["switches"], want["switches"])


if __name__ == "__main__":
    RECORD.parent.mkdir(exist_ok=True)
    lines = [f" {json.dumps(label)}: {json.dumps(_record(alpha))}"
             for label, alpha in ALPHAS.items()]
    RECORD.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
