import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qnmopt.errors import InputError, TailNotConverged, ZeroFrequency
from qnmopt.field import (axis_charF, axis_dcharF, charF, charF_dzF,
                          charF_many, dzF,
                          dzF_at_root, integral_residual, layer_matrix,
                          mode_values, overlap_integrals, phi2_cell_integrals,
                          phi_series, propagate)
from qnmopt.medium import (AdmissibleBounds, GridStructure, PiecewiseStructure,
                           constant, random_bang_bang, to_grid)
from qnmopt.spectrum import SpectralWindow, locate

LN3_4 = math.log(3.0) / 4.0


def two_layer(a, v1, v2, bounds):
    return PiecewiseStructure((0.0, a, 1.0), (v1, v2), bounds)


class TestLayerMatrix:
    def test_free_propagation(self):
        M = layer_matrix(0.0, 0.5, 3.0 + 1.0j)
        assert np.allclose(M, [[1, 0.5], [0, 1]])

    def test_quarter_wave(self):
        # b=4, len=0.5, z=pi/2 -> w = pi: [[0, 1/pi], [-pi, 0]]
        M = layer_matrix(4.0, 0.5, math.pi / 2)
        expect = np.array([[math.cos(math.pi / 2), math.sin(math.pi / 2) / math.pi],
                           [-math.pi * math.sin(math.pi / 2), math.cos(math.pi / 2)]])
        assert np.allclose(M, expect, atol=1e-14)

    @pytest.mark.parametrize("b,z", [(0.0, 2 + 1j), (1.0, 2 - 1j),
                                     (4.0, 3 + 0.5j), (9.0, -3 + 0.5j)])
    def test_unit_determinant(self, b, z):
        M = layer_matrix(b, 0.37, z)
        assert abs(np.linalg.det(M) - 1.0) < 1e-14

    def test_unit_determinant_deep_window(self):
        # far from the real axis the entries grow like cosh(Im w L); the
        # Wronskian holds to rounding at that scale
        M = layer_matrix(4.0, 0.37, 0.3 + 7j)
        scale = np.max(np.abs(M)) ** 2
        assert abs(np.linalg.det(M) - 1.0) < 1e-14 * scale


class TestPropagate:
    def test_homogeneous_closed_form(self):
        B = constant(1.0)
        for z in (0.7, 2 - 0.3j, 1j, 5 + 2j):
            bd = propagate(B, z)
            assert abs(bd.phi1 - cmath.cos(z)) < 1e-13 * max(1, abs(cmath.cos(z)))
            assert abs(bd.dphi1 + z * cmath.sin(z)) < 1e-13 * (1 + abs(z * cmath.sin(z)))

    def test_empty_medium(self):
        bd = propagate(constant(0.0), 3.3 + 1j)
        assert bd.phi1 == 1.0 and bd.dphi1 == 0.0
        assert bd.psi1 == 1.0 and bd.dpsi1 == 1.0  # psi(x) = x

    def test_trace_includes_breakpoints(self):
        b = AdmissibleBounds(1, 4)
        B = two_layer(0.3, 4.0, 1.0, b)
        bd, (phi_tr, psi_tr) = propagate(B, 2.0 + 0.5j, trace=True)
        assert list(phi_tr.xs()) == [0.0, 0.3, 1.0]
        # Wronskian of the paired traces at every sample
        for sp, sq in zip(phi_tr.samples, psi_tr.samples):
            w = sp.y * sq.dy - sp.dy * sq.y
            assert abs(w - 1.0) < 1e-12

    def test_wronskian_random(self, box14, random_structures):
        rng = np.random.default_rng(5)
        for B in random_structures[:5]:
            z = complex(rng.uniform(-8, 8), rng.uniform(0.05, 3))
            bd = propagate(B, z)
            assert abs(bd.wronskian() - 1.0) < 1e-12

    def test_reality_on_axis(self, random_structures):
        for B in random_structures[:5]:
            bd = propagate(B, 0.9j)
            assert abs(bd.phi1.imag) < 1e-12 * abs(bd.phi1)
            assert abs(bd.psi1.imag) < 1e-12 * max(1, abs(bd.psi1))

    def test_no_interior_zeros(self, random_structures):
        # phi(x, z; B) never vanishes for positive B and z^2 off the reals
        xs = np.linspace(0, 1, 400)
        for B in random_structures[:5]:
            phi, _ = mode_values(B, 2.3 + 0.8j, xs)
            assert np.min(np.abs(phi)) > 1e-6


    @pytest.mark.parametrize("xs", [[0.5, 0.2], [1.5], [-0.1, 0.5]])
    def test_mode_values_rejects_positions(self, xs):
        with pytest.raises(InputError):
            mode_values(constant(4.0), 2.0 + 0.5j, xs)

    def test_mode_values_empty(self):
        phi, dphi = mode_values(constant(4.0), 2.0 + 0.5j, [])
        for v in (phi, dphi):
            assert v.shape == (0,) and v.dtype == complex

class TestCharF:
    def test_unit_medium_exponential(self):
        B = constant(1.0)
        for z in (1.0, 2 + 1j, -3 + 0.2j):
            assert abs(charF(z, B) - cmath.exp(1j * z)) < 1e-13
        assert charF(0.0, B) == 1.0

    def test_empty_medium_constant_one(self):
        B = constant(0.0)
        for z in (0.5, 2j, 3 + 4j):
            assert abs(charF(z, B) - 1.0) < 1e-14

    def test_known_zero_of_b4(self):
        B = constant(4.0)
        z = math.pi + 1j * LN3_4
        assert abs(charF(z, B)) < 1e-10

    def test_reflection_symmetry(self, random_structures):
        rng = np.random.default_rng(11)
        for B in random_structures[:5]:
            z = complex(rng.uniform(-9, 9), rng.uniform(-2, 4))
            lhs = charF(-z.conjugate(), B)
            rhs = charF(z, B).conjugate()
            assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(rhs))

    def test_vectorized_matches_scalar(self, random_structures):
        B = random_structures[0]
        zs = np.array([0.3 + 0.2j, 2 - 1j, -4 + 0.7j, 6 + 3j])
        fv = charF_many(zs, B)
        for z, f in zip(zs, fv):
            assert abs(f - charF(complex(z), B)) < 1e-13 * max(1, abs(f))


class TestPhiSeries:
    def test_empty_medium_collapses(self):
        res = phi_series(constant(0.0), 2.7 + 0.4j)
        assert res.bd.phi1 == 1.0
        assert res.n_terms <= 2

    def test_unit_medium_cosine(self):
        res = phi_series(constant(1.0), 1.0)
        assert abs(res.bd.phi1 - math.cos(1.0)) < 1e-14

    def test_oracle_equivalence_desk_case(self, box14):
        rng = np.random.default_rng(3)
        z = 3 + 0.5j
        for _ in range(5):
            B = random_bang_bang(box14, rng)
            bd = propagate(B, z)
            sr = phi_series(B, z)
            for a, b in ((bd.phi1, sr.bd.phi1), (bd.dphi1, sr.bd.dphi1),
                         (bd.psi1, sr.bd.psi1), (bd.dpsi1, sr.bd.dpsi1)):
                assert abs(a - b) < 1e-8 * max(1.0, abs(a))

    def test_tail_bound_reported(self, box14):
        res = phi_series(to_grid(constant(4.0, box14), 8), 6.0 + 1.0j)
        assert res.tail_bound < 1e-15
        assert res.roundoff_bound < 1e-8

    def test_tail_not_converged(self):
        with pytest.raises(TailNotConverged):
            phi_series(constant(4.0), 20.0, terms=5)


class TestDzF:
    def test_unit_medium(self):
        B = constant(1.0)
        for z in (1.3, 2 - 0.7j, 0.4 + 2j):
            assert abs(dzF(z, B) - 1j * cmath.exp(1j * z)) < 1e-12

    def test_zero_frequency_rejected(self):
        with pytest.raises(ZeroFrequency):
            dzF(0.0, constant(2.0))

    def test_finite_difference_oracle(self, random_structures):
        rng = np.random.default_rng(17)
        h = 1e-5
        for B in random_structures[:6]:
            z = complex(rng.uniform(0.5, 7), rng.uniform(0.1, 2))
            fd = (charF(z + h, B) - charF(z - h, B)) / (2 * h)
            fd_im = (charF(z + 1j * h, B) - charF(z - 1j * h, B)) / (2j * h)
            ex = dzF(z, B)
            assert abs(ex - fd) < 1e-6 * max(1.0, abs(fd))
            assert abs(ex - fd_im) < 1e-6 * max(1.0, abs(fd_im))

    def test_root_formula_agreement(self, box14, random_structures):
        # variational dzF vs the root-specialized closed form
        w = SpectralWindow(0.5, 6.0, 0.05, 2.0)
        B = random_structures[0]
        for ev in locate(B, w):
            a = dzF(ev.kappa, B)
            b = dzF_at_root(ev.kappa, B)
            assert abs(a - b) < 1e-8 * max(1.0, abs(a))


class TestIntegralResidual:
    def test_identity_residual_small(self, random_structures):
        rng = np.random.default_rng(23)
        for B in random_structures[:5]:
            kappa = complex(rng.uniform(0.5, 6), rng.uniform(0.1, 2))
            r1, _ = integral_residual(B, kappa)
            assert r1 < 1e-9

    def test_boundary_residual_vanishes_on_spectrum(self, random_structures):
        w = SpectralWindow(0.5, 6.0, 0.05, 2.0)
        B = random_structures[1]
        evs = locate(B, w)
        assert evs
        for ev in evs:
            _, r2 = integral_residual(B, ev.kappa)
            assert r2 < 1e-8

    def test_off_spectrum_reported_nonzero(self, random_structures):
        B = random_structures[1]
        _, r2 = integral_residual(B, 1.234 + 0.777j)
        assert r2 > 1e-3  # diagnostic: clearly away from zero


def _structure_from_bits(cuts, first_high):
    bounds = AdmissibleBounds(1.0, 4.0)
    xs = sorted(set(round(c, 6) for c in cuts if 0.01 < c < 0.99))
    vals = [4.0 if (i % 2 == 0) == first_high else 1.0
            for i in range(len(xs) + 1)]
    return PiecewiseStructure((0.0, *xs, 1.0), tuple(vals), bounds)


class TestFieldProperties:
    """Invariants over freely drawn structures and frequencies."""

    @given(st.lists(st.floats(0.02, 0.98), min_size=0, max_size=5),
           st.booleans(),
           st.complex_numbers(max_magnitude=9.0, allow_nan=False,
                              allow_infinity=False))
    @settings(max_examples=80, deadline=None)
    def test_wronskian_and_reflection(self, cuts, first_high, z):
        B = _structure_from_bits(cuts, first_high)
        bd = propagate(B, z)
        scale = max(abs(bd.phi1), abs(bd.psi1), 1.0) ** 2
        assert abs(bd.wronskian() - 1.0) < 1e-12 * scale
        f = charF(z, B)
        assert abs(charF(-z.conjugate(), B) - f.conjugate()) \
            < 1e-12 * max(1.0, abs(f))

    @given(st.lists(st.floats(0.02, 0.98), min_size=0, max_size=4),
           st.booleans(),
           st.floats(0.2, 6.0), st.floats(0.05, 1.5))
    @settings(max_examples=40, deadline=None)
    def test_series_oracle_property(self, cuts, first_high, re, im):
        B = _structure_from_bits(cuts, first_high)
        z = complex(re, im)
        bd = propagate(B, z)
        sr = phi_series(B, z)
        assert abs(bd.phi1 - sr.bd.phi1) < 1e-8 * max(1.0, abs(bd.phi1))
        assert abs(bd.dphi1 - sr.bd.dphi1) < 1e-8 * max(1.0, abs(bd.dphi1))


# grid media with equal neighbours (merged into one layer) and b = 0 cells
_grid_values = st.lists(st.sampled_from((0.0, 1.0, 2.5, 4.0)),
                        min_size=1, max_size=12)
_grid_z = st.complex_numbers(max_magnitude=6.0, allow_nan=False,
                             allow_infinity=False)
# at this z numpy's sin(w)/w is inf+nanj, Python's complex division is 1
_SUBNORMAL_Z = 2.2250738585e-313 + 0j


def _grid(values):
    return GridStructure(tuple(values), AdmissibleBounds(0.0, 4.0))


class TestGridSweepProperties:
    """The layer sweep on grid media against the reference evaluations."""

    @given(_grid_values, _grid_z)
    @example([0.0, 4.0, 4.0, 1.0], _SUBNORMAL_Z)
    @settings(max_examples=60, deadline=None)
    def test_propagate_matches_series(self, values, z):
        B = _grid(values)
        bd = propagate(B, z)
        sr = phi_series(B, z)
        for a, b in ((bd.phi1, sr.bd.phi1), (bd.dphi1, sr.bd.dphi1),
                     (bd.psi1, sr.bd.psi1), (bd.dpsi1, sr.bd.dpsi1)):
            assert abs(a - b) < 1e-8 * max(1.0, abs(a))

    @given(_grid_values, st.lists(_grid_z, min_size=1, max_size=6))
    @example([0.0, 4.0, 4.0, 1.0], [_SUBNORMAL_Z, 0j, 2.0 + 0.5j])
    @settings(max_examples=60, deadline=None)
    def test_charF_many_matches_charF(self, values, zs):
        B = _grid(values)
        many = charF_many(np.array(zs), B)
        for z, f in zip(zs, many):
            one = charF(z, B)
            scale = max(1.0, abs(one), abs(propagate(B, z).phi1))
            assert abs(f - one) < 1e-12 * scale

    @given(_grid_values, _grid_z)
    @example([0.0, 4.0, 4.0, 1.0], _SUBNORMAL_Z)
    @settings(max_examples=60, deadline=None)
    def test_cell_integrals_sum_to_overlap(self, values, z):
        B = _grid(values)
        weighted = phi2_cell_integrals(B, z, B.edges) * np.asarray(values)
        _, i_phi2b, _ = overlap_integrals(B, z)
        scale = max(1.0, float(np.sum(np.abs(weighted))))
        assert abs(np.sum(weighted) - i_phi2b) < 1e-12 * scale


def reference_dzF(z, B):
    """dzF as it was before the fused sweep: overlap_integrals plus the
    variation-of-parameters formula."""
    if z == 0:
        raise ZeroFrequency("dF/dz is not defined at z = 0")
    bd, i_phi2, i_phipsi = overlap_integrals(B, z)
    i1 = -2.0 * z * i_phi2
    i2 = -2.0 * z * i_phipsi
    dzphi1 = bd.psi1 * i1 - bd.phi1 * i2
    dzdxphi1 = bd.dpsi1 * i1 - bd.dphi1 * i2
    return dzphi1 - 1j * dzdxphi1 / z + 1j * bd.dphi1 / z ** 2


def _bits(*zs):
    return [(complex(z).real.hex(), complex(z).imag.hex()) for z in zs]


def _check_fused(B, z):
    if z * z == 0:
        # dF/dz divides by z^2; F itself is defined (and 1 at z = 0)
        assert np.isfinite(charF(z, B))
        with pytest.raises(ZeroFrequency):
            charF_dzF(z, B)
        with pytest.raises(ZeroFrequency):
            dzF(z, B)
        return
    f, df = charF_dzF(z, B)
    assert _bits(f, df) == _bits(charF(z, B), dzF(z, B))
    assert _bits(df) == _bits(reference_dzF(z, B))


class TestFusedSweep:
    """charF_dzF reads F and dF/dz off one sweep, bit-equal to the pair."""

    @given(st.lists(st.floats(0.02, 0.98), min_size=0, max_size=7),
           st.booleans(), _grid_z)
    @example([0.3, 0.6], True, 0.7j)
    @example([0.3, 0.6], False, 1e-150 + 0j)
    @example([0.5], True, _SUBNORMAL_Z)
    @settings(max_examples=80, deadline=None)
    def test_piecewise(self, cuts, first_high, z):
        _check_fused(_structure_from_bits(cuts, first_high), z)

    @given(_grid_values, _grid_z)
    @example([0.0, 4.0, 4.0, 1.0], _SUBNORMAL_Z)
    @example([0.0, 4.0, 4.0, 1.0], 2.5j)
    @example([1.0, 2.5, 4.0], -1.3j)
    @settings(max_examples=80, deadline=None)
    def test_grid(self, values, z):
        _check_fused(_grid(values), z)

    @pytest.mark.parametrize("z", [0, 0.0, 0j, -0.0 + 0j])
    def test_zero_frequency(self, z):
        with pytest.raises(ZeroFrequency):
            charF_dzF(z, constant(2.0))


class TestAxisSpecialization:
    def test_matches_complex_evaluation(self, random_structures):
        for B in random_structures[:5]:
            for beta in (0.3, 1.1, 2.7):
                f = charF(1j * beta, B)
                assert abs(axis_charF(beta, B) - f.real) < 1e-12 * max(1, abs(f))
                assert abs(f.imag) < 1e-12 * max(1, abs(f))

    def test_axis_derivative(self, random_structures):
        B = random_structures[2]
        h = 1e-6
        fd = (axis_charF(1.0 + h, B) - axis_charF(1.0 - h, B)) / (2 * h)
        assert abs(axis_dcharF(1.0, B) - fd) < 1e-6 * max(1.0, abs(fd))


class TestCellIntegrals:
    def test_sums_to_full_integral(self, box14):
        # per-cell integrals of phi^2 against B add up to the weighted overlap
        B = two_layer(0.37, 4.0, 1.0, box14)
        z = 2.2 + 0.6j
        edges = np.linspace(0, 1, 17)
        cells = phi2_cell_integrals(B, z, edges)
        mids = 0.5 * (edges[:-1] + edges[1:])
        weights = np.array([B.value_at(x) for x in mids])
        # cells that straddle the interface need the exact split
        _, i_phi2b, _ = overlap_integrals(B, z)
        edges2 = np.union1d(edges, [0.37])
        cells2 = phi2_cell_integrals(B, z, edges2)
        mids2 = 0.5 * (edges2[:-1] + edges2[1:])
        w2 = np.array([B.value_at(x) for x in mids2])
        assert abs(np.dot(cells2, w2) - i_phi2b) < 1e-12 * max(1, abs(i_phi2b))

    def test_free_layer_cells(self):
        bounds = AdmissibleBounds(0.0, 4.0)
        B = PiecewiseStructure((0.0, 0.5, 1.0), (0.0, 4.0), bounds)
        z = 1.5 + 0.3j
        edges = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
        cells = phi2_cell_integrals(B, z, edges)
        # phi = 1 on the empty half: integrals are the cell widths
        assert abs(cells[0] - 0.25) < 1e-12
        assert abs(cells[1] - 0.25) < 1e-12
