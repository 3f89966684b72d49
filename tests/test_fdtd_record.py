"""The FDTD cross-check against a stored record of its results.

tests/data/fdtd_seed0.json holds, per medium, the mode kappa that excites
the run, `excite_and_fit`'s beta and rel_residual at T = 15 on 512 cells,
and the energies at a few fixed steps of a `simulate` run from the same
mode data until T.  The media are constant(4) at pi + i ln3/4, the lowest
golden mode of a three-layer medium and a seven-layer optimum at 2 pi (on
box (1, 4)).  A change to the leapfrog or its energy must move beta and
rel_residual by at most 1e-10 relative and no energy by more than
1e-14 E0.  Regenerate with `python tests/test_fdtd_record.py` only where
a change of results is intended.
"""
import json
import math
import pathlib

import pytest

from qnmopt.medium import AdmissibleBounds, PiecewiseStructure, constant
from qnmopt.spectrum import SpectralWindow, locate
from qnmopt.timedomain import _mode_data, excite_and_fit, simulate

RECORD = pathlib.Path(__file__).resolve().parent / "data" / "fdtd_seed0.json"
T, M = 15.0, 512
STEPS = (0, 1, 15, 16, 17, 1000, -1)    # energies kept, by step index


def _cases() -> list:
    """(label, medium, window that holds its mode or None, kappa or None)."""
    box = AdmissibleBounds(1.0, 4.0)
    two_pi = PiecewiseStructure(
        (0.0, 0.031721, 0.170312, 0.303439, 0.521283, 0.652784, 0.877029,
         1.0), (4.0, 1.0, 4.0, 1.0, 4.0, 1.0, 4.0), box)
    return [
        ("constant4", constant(4.0, box), None,
         complex(math.pi, math.log(3.0) / 4.0)),
        ("three-layer", PiecewiseStructure((0.0, 0.3, 0.7, 1.0),
                                           (1.0, 4.0, 2.0), box),
         (0.1, 12.0, 0.05, 3.0), None),
        ("two-pi-optimum", two_pi,
         (2.0 * math.pi - 1.0, 2.0 * math.pi + 1.0, 0.005, 0.5), None)]


def _kappa(B, window, kappa) -> complex:
    if kappa is not None:
        return kappa
    return min((ev.kappa for ev in locate(B, SpectralWindow(*window))),
               key=lambda z: z.imag)


def _record(B, kappa: complex) -> dict:
    fit = excite_and_fit(B, kappa, T, M)
    sim = simulate(B, *_mode_data(B, kappa, M), T, M)
    return {"kappa": [kappa.real, kappa.imag], "beta": fit.beta,
            "rel_residual": fit.rel_residual,
            "steps": len(sim.energies),
            "energies": [float(sim.energies[n]) for n in STEPS]}


CASES = _cases()
STORED = json.loads(RECORD.read_text(encoding="utf-8")) \
    if RECORD.exists() else {}


@pytest.mark.parametrize("label,B", [c[:2] for c in CASES],
                         ids=[c[0] for c in CASES])
def test_matches_record(label, B):
    want = STORED[label]
    got = _record(B, complex(*want["kappa"]))
    assert got["steps"] == want["steps"]
    for key in ("beta", "rel_residual"):
        assert abs(got[key] - want[key]) <= 1e-10 * abs(want[key])
    e0 = want["energies"][0]
    for e, e_want in zip(got["energies"], want["energies"]):
        assert abs(e - e_want) <= 1e-14 * e0


if __name__ == "__main__":
    RECORD.parent.mkdir(exist_ok=True)
    lines = [f" {json.dumps(label)}: "
             f"{json.dumps(_record(B, _kappa(B, window, kappa)))}"
             for label, B, window, kappa in CASES]
    RECORD.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
