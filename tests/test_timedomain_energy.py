"""The running energy of `simulate` down the tail of a fast-decaying mode.

`simulate` advances E by the Mur-node boundary flux and re-anchors it on
the quadratic form every _BLOCK steps.  A sum that was never re-anchored
would carry its rounding, a few ulps of E0 per step, into a tail nine
decades below E0; every step must instead stay within 1e-10 relative of
the blocked oracle's direct form.  B(1) differs from 1 in every medium, so
the flux's kinetic term at the Mur node is exercised.
"""
import math

import numpy as np
import pytest

from qnmopt.medium import AdmissibleBounds, PiecewiseStructure, constant
from qnmopt.spectrum import SpectralWindow, axis_offset, locate
from qnmopt.timedomain import _mode_data, simulate

from test_timedomain import blocked_reference_simulate

BOX = AdmissibleBounds(1.0, 4.0)
M = 256


def _lowest_mode(B) -> complex:
    evs = locate(B, SpectralWindow(0.1, 12.0, 0.05, 3.0))
    return min((ev.kappa for ev in evs), key=lambda z: z.imag)


@pytest.mark.parametrize("B, kappa, T", [
    (constant(1.5, BOX),
     complex(2.0 * math.pi / math.sqrt(1.5), axis_offset(1.5)), 12.0),
    (PiecewiseStructure((0.0, 0.5, 1.0), (2.0, 1.3), BOX), None, 12.0),
    (PiecewiseStructure((0.0, 0.3, 1.0), (1.2, 1.6), BOX), None, 13.0)],
    ids=["constant1.5", "2.0-1.3", "1.2-1.6"])
def test_tail_matches_direct_form(B, kappa, T):
    if kappa is None:
        kappa = _lowest_mode(B)
    assert kappa.imag >= 0.8
    assert B.value_at(1.0) != 1.0
    u0, v0 = _mode_data(B, kappa, M)
    new = simulate(B, u0, v0, T, M)
    ref = blocked_reference_simulate(B, u0, v0, T, M)
    assert np.array_equal(new.probe, ref.probe)
    assert ref.energies[-1] < 1e-9 * ref.energies[0]
    assert np.all(np.abs(new.energies - ref.energies)
                  <= 1e-10 * ref.energies)
