"""locate against a stored record of its seed-0 results.

tests/data/locate_seed0.json holds, per medium and window, the count and
the eigenvalues (kappa, multiplicity) that locate returned on 20 seeded
random bang-bang media (golden and mirror windows) and 2 seeded 256-cell
grid media.  A change to the contour walk, the moments or Newton must
keep every count and multiplicity and move no eigenvalue by more than
1e-14 relative.  Regenerate with `python tests/test_locate_record.py`
only where a change of results is intended.
"""
import json
import pathlib

import numpy as np
import pytest

from qnmopt.medium import AdmissibleBounds, GridStructure, random_bang_bang
from qnmopt.spectrum import SpectralWindow, locate

RECORD = pathlib.Path(__file__).resolve().parent / "data" / "locate_seed0.json"
GOLDEN = (0.1, 12.0, 0.05, 3.0)
MIRROR = (-12.0, -0.1, 0.05, 3.0)


def _cases() -> list:
    """(label, medium, window) of every recorded locate call."""
    box = AdmissibleBounds(1.0, 4.0)
    rng = np.random.default_rng(0)
    cases = []
    for i in range(20):
        B = random_bang_bang(box, rng, max_switches=7)
        cases += [(f"bb{i}", B, GOLDEN), (f"bb{i}-mirror", B, MIRROR)]
    for i in range(2):
        B = GridStructure(tuple(rng.uniform(1.0, 4.0, 256)), box)
        cases.append((f"grid{i}", B, GOLDEN))
    return cases


def _record(B, window) -> dict:
    evs = locate(B, SpectralWindow(*window))
    return {"window": list(window),
            "count": sum(ev.multiplicity for ev in evs),
            "eigenvalues": [[ev.kappa.real, ev.kappa.imag, ev.multiplicity]
                            for ev in evs]}


CASES = _cases()
STORED = json.loads(RECORD.read_text(encoding="utf-8")) \
    if RECORD.exists() else {}


@pytest.mark.parametrize("label,B,window", CASES, ids=[c[0] for c in CASES])
def test_matches_record(label, B, window):
    want = STORED[label]
    got = _record(B, window)
    assert got["window"] == want["window"]
    assert got["count"] == want["count"]
    assert [m for *_, m in got["eigenvalues"]] == \
        [m for *_, m in want["eigenvalues"]]
    for (re, im, _), (re0, im0, _) in zip(got["eigenvalues"],
                                          want["eigenvalues"]):
        assert abs(complex(re, im) - complex(re0, im0)) \
            <= 1e-14 * abs(complex(re0, im0))


if __name__ == "__main__":
    RECORD.parent.mkdir(exist_ok=True)
    lines = [f" {json.dumps(label)}: {json.dumps(_record(B, window))}"
             for label, B, window in CASES]
    RECORD.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
