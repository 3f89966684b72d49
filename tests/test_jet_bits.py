"""The layer kernels against a stored record of their bits.

tests/data/jet_bits.json holds, per medium, the IEEE bits (hex) of
field._jet at orders 0-6 at a fixed set of points, and of charF_many at
the same points.  The points are z = 0, a subnormal z and points in both
half-planes; the media have b = 0 layers, are constant, are 2-8-layer
bang-bang, or are grids of 256 and 700 cells (700 layers take 2 points a
product, so the 7 points span 4 chunks).  A change to how the layer maps
are built must keep every bit; only a zero may change its sign.  The
many-point _jet is held to the same record as the scalar one.  Regenerate
with `python tests/test_jet_bits.py` only where a change of results is
intended.
"""
import json
import pathlib

import numpy as np
import pytest

from qnmopt.field import _jet, charF_many
from qnmopt.medium import (AdmissibleBounds, GridStructure, PiecewiseStructure,
                           constant)

RECORD = pathlib.Path(__file__).resolve().parent / "data" / "jet_bits.json"
ORDERS = range(7)
POINTS = np.array([0j, 2.2250738585e-313 + 0j, 2.5 + 0.75j, -7.3 + 1.9j,
                   11.2 + 0.02j, 3.1 - 0.4j, -1.7 - 2.2j])
_SIGN = 1 << 63


def _media() -> dict:
    """The recorded media by label."""
    box04, box14 = AdmissibleBounds(0.0, 4.0), AdmissibleBounds(1.0, 4.0)
    media = {
        "zero-first": PiecewiseStructure((0.0, 0.3, 1.0), (0.0, 4.0), box04),
        "zero-inner": PiecewiseStructure((0.0, 0.25, 0.6, 1.0),
                                         (2.5, 0.0, 1.5), box04),
        "vacuum": constant(0.0),
        "constant4": constant(4.0),
    }
    rng = np.random.default_rng(27)
    for n in range(2, 9):
        xs = np.sort(rng.uniform(0.05, 0.95, n - 1))
        media[f"bb{n}"] = PiecewiseStructure(
            (0.0, *xs, 1.0), [(1.0, 4.0)[i % 2] for i in range(n)], box14)
    media["grid256"] = GridStructure(tuple(rng.uniform(1.0, 4.0, 256)), box14)
    cells = rng.uniform(0.0, 4.0, 700)
    cells[::7] = 0.0
    media["grid700"] = GridStructure(tuple(cells), box04)
    return media


def _hex(values) -> list:
    """Each complex value as the hex of its real and imaginary bits."""
    bits = np.array(values, complex).view(np.uint64).reshape(-1, 2).tolist()
    return [f"{re:016x}{im:016x}" for re, im in bits]


def _record(B) -> dict:
    return {"jet": [[_hex(_jet(z, B, order)) for z in POINTS.tolist()]
                    for order in ORDERS],
            "charF_many": _hex(charF_many(POINTS, B))}


def _same(got: list, want: list) -> bool:
    """Bit-equal hex lists, where a zero may have either sign."""
    def norm(h):
        return [0 if b & ~_SIGN == 0 else b
                for b in (int(h[:16], 16), int(h[16:], 16))]
    return [norm(h) for h in got] == [norm(h) for h in want]


MEDIA = _media()
STORED = json.loads(RECORD.read_text(encoding="utf-8")) \
    if RECORD.exists() else {}


@pytest.mark.parametrize("label", list(MEDIA))
class TestJetBits:
    def test_scalar_jet(self, label):
        got = _record(MEDIA[label])["jet"]
        for order in ORDERS:
            for z, g, w in zip(POINTS, got[order], STORED[label]["jet"][order]):
                assert _same(g, w), (order, z)

    def test_many_point_jet(self, label):
        for order in ORDERS:
            many = _jet(POINTS, MEDIA[label], order)
            want = STORED[label]["jet"][order]
            for z, g, w in zip(POINTS, many, want):
                assert _same(_hex(g), w), (order, z)

    def test_charF_many(self, label):
        assert _same(_hex(charF_many(POINTS, MEDIA[label])),
                     STORED[label]["charF_many"])


if __name__ == "__main__":
    RECORD.parent.mkdir(exist_ok=True)
    lines = [f" {json.dumps(label)}: {json.dumps(_record(B))}"
             for label, B in MEDIA.items()]
    RECORD.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
