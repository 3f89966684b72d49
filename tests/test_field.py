import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath.calculus.quadrature import GaussLegendre

from qnmopt import field
from qnmopt.errors import (InputError, NumericalError, QnmOptError,
                           TailNotConverged, ZeroFrequency)
from qnmopt.field import (_jet, charF, charF_dzF, charF_many, dzF, mode_values,
                          overlap_integrals, phi2_cell_integrals, phi_series,
                          propagate)
from qnmopt.medium import (AdmissibleBounds, GridStructure, PiecewiseStructure,
                           constant, random_bang_bang, to_grid)
from qnmopt.spectrum import SpectralWindow, locate

LN3_4 = math.log(3.0) / 4.0


def two_layer(a, v1, v2, bounds):
    return PiecewiseStructure((0.0, a, 1.0), (v1, v2), bounds)


# -- references the layer-sweep kernel is checked against ----------------------

def layer_matrix(b: float, length: float, z: complex) -> np.ndarray:
    """Propagator of (y, y') across a constant layer.

    For w = z*sqrt(b) != 0 the matrix is [[cos wL, sin wL / w],
    [-w sin wL, cos wL]]; for b = 0 or z = 0 it degenerates to free
    propagation [[1, L], [0, 1]].  det = 1 always (Wronskian).
    """
    if length <= 0:
        raise ValueError("layer length must be positive")
    if b == 0.0 or z == 0:
        return np.array([[1.0, length], [0.0, 1.0]], dtype=complex)
    w = z * math.sqrt(b)
    wl = w * length
    c, s = cmath.cos(wl), cmath.sin(wl)
    return np.array([[c, s / w], [-w * s, c]], dtype=complex)


def dzF_at_root(kappa: complex, B) -> complex:
    """dF/dz at a zero of F via the root-specialized closed form.

    Independent of dzF's variational route; the two must agree at roots.
    """
    if kappa == 0:
        raise ZeroFrequency("dF/dz is not defined at z = 0")
    bd, i_phi2, _ = overlap_integrals(B, kappa)
    bracket = -kappa * bd.psi1 + 1j * bd.dpsi1
    return 2.0 * bracket * i_phi2 + bd.phi1 / kappa


_RESIDUAL_POINTS = 8   # sample points per layer of the r1 defect


def _layer_first_moments(w, length, p, dp):
    """(int phi dt, int t phi dt) over a layer from its entry state."""
    a, b = p, dp / w
    wl = w * length
    c, s = cmath.cos(wl), cmath.sin(wl)
    i0 = a * s / w + b * (1.0 - c) / w
    i_t = a * (c + wl * s - 1.0) / w ** 2 + b * (s - wl * c) / w ** 2
    return i0, i_t


def integral_residual(B, kappa: complex) -> tuple:
    """Residuals of the integral form of the eigenvalue problem.

    r1 is the sup-norm defect of y(x) = 1 - kappa^2 int_0^x (x-s) B y ds with
    y = phi (an identity, so r1 is a pure consistency number), and r2 is
    |y(1) + i kappa int_0^1 B y ds|, which vanishes exactly on the spectrum.
    """
    if kappa == 0:
        raise ZeroFrequency("integral form requires kappa != 0")
    xs, lengths, values = (a.tolist() for a in B.layers)
    r1 = 0.0
    c1 = 0.0 + 0.0j  # int_0^x B phi
    c2 = 0.0 + 0.0j  # int_0^x s B phi
    p, dp = 1.0 + 0.0j, 0.0 + 0.0j
    for x0, length, b in zip(xs, lengths, values):
        ts = np.linspace(0.0, length, _RESIDUAL_POINTS + 1)[1:]
        if b == 0.0:
            for t in ts:
                x = x0 + t
                y = p + t * dp
                r1 = max(r1, abs(y - 1.0 + kappa ** 2 * (x * c1 - c2)))
            p, dp = p + length * dp, dp
            continue
        w = kappa * math.sqrt(b)
        for t in ts:
            x = x0 + t
            i0, i_t = _layer_first_moments(w, t, p, dp)
            part1 = c1 + b * i0
            part2 = c2 + b * (x0 * i0 + i_t)
            y = cmath.cos(w * t) * p + cmath.sin(w * t) / w * dp
            r1 = max(r1, abs(y - 1.0 + kappa ** 2 * (x * part1 - part2)))
        i0, i_t = _layer_first_moments(w, length, p, dp)
        c1 += b * i0
        c2 += b * (x0 * i0 + i_t)
        wl = w * length
        c, s = cmath.cos(wl), cmath.sin(wl)
        p, dp = c * p + (s / w) * dp, -w * s * p + c * dp
    r2 = abs(p + 1j * kappa * c1)
    return float(r1), float(r2)


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
        # sup B |z|^2 = 4e4 needs ~280 terms, past the 200-term cap
        with pytest.raises(TailNotConverged, match="after 200 terms"):
            phi_series(constant(4.0), 100.0)

    def test_divergent_terms_raise_before_overflow(self):
        # sup B |z|^2 = 7.1e4 needs ~360 terms; summing the first 200
        # overflowed a float before the term count was checked
        B = GridStructure(np.linspace(0, 148, 23), AdmissibleBounds(0, 148))
        with pytest.raises(TailNotConverged):
            phi_series(B, 19.55 + 9.88j)


class TestDzF:
    def test_unit_medium(self):
        B = constant(1.0)
        for z in (1.3, 2 - 0.7j, 0.4 + 2j):
            assert abs(dzF(z, B) - 1j * cmath.exp(1j * z)) < 1e-12

    def test_zero_frequency_integral(self):
        # F'(0) = i int B
        assert dzF(0.0, constant(2.0)) == 2j
        assert dzF(0.0, GridStructure((0.0, 1.0, 2.5, 4.0),
                                      AdmissibleBounds(0.0, 4.0))) == 1.875j

    @pytest.mark.parametrize("z", [40 + 3j, 40 + 8j])
    def test_strong_medium_closed_form(self, z):
        # b = 100: F = cos(10 z) + 10 i sin(10 z); the variation-of-parameters
        # F' this replaced was off by 1.9e7 and 5.6e50 relative here
        s = 10.0
        want1 = -s * cmath.sin(s * z) + 1j * s * s * cmath.cos(s * z)
        want2 = -s * s * cmath.cos(s * z) - 1j * s ** 3 * cmath.sin(s * z)
        _, d1, d2, _ = _jet(z, constant(100.0), 2)
        assert abs(dzF(z, constant(100.0)) - want1) <= 1e-12 * abs(want1)
        assert abs(d1 - want1) <= 1e-12 * abs(want1)
        assert abs(d2 - want2) <= 1e-12 * abs(want2)

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


def _check_against_sequential(B, z, fs, scale):
    """charF and charF_many multiply the same layer maps pairwise; check
    their F against phi(1) - i phi'(1)/z from the sequential sweep."""
    if z == 0:
        return
    bd = propagate(B, z)
    want = bd.phi1 - 1j * bd.dphi1 / z
    for f in fs:
        assert abs(f - want) < 1e-12 * scale


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
            _check_against_sequential(B, z, (f, one), scale)

    @given(_grid_values, _grid_z)
    @example([0.0, 4.0, 4.0, 1.0], _SUBNORMAL_Z)
    @settings(max_examples=60, deadline=None)
    def test_cell_integrals_sum_to_overlap(self, values, z):
        B = _grid(values)
        weighted = phi2_cell_integrals(B, z, B.edges) * np.asarray(values)
        _, i_phi2b, _ = overlap_integrals(B, z)
        scale = max(1.0, float(np.sum(np.abs(weighted))))
        assert abs(np.sum(weighted) - i_phi2b) < 1e-12 * scale


# long grid media: several rounds of charF_many's pairwise products, with
# odd layer counts carried forward
_long_grid_values = st.lists(st.sampled_from((0.0, 1.0, 2.5, 4.0)),
                             min_size=9, max_size=300)


class TestManyKernel:
    """charF_many (real trig, pairwise layer products, chunks of points)
    against the scalar sweep, and free of any batch effect."""

    @given(_long_grid_values, st.lists(_grid_z, min_size=1, max_size=4),
           st.integers(0, 2))
    @example([1.0, 4.0] * 5, [2.0 + 0.5j], 1)           # 10 layers
    @example([1.0, 4.0] * 4 + [1.0], [-3.0 + 2.0j], 2)  # 9 layers
    @example([0.0, 2.5, 4.0] * 100, [5.9 + 5.9j], 1)    # 300 layers
    @settings(max_examples=40, deadline=None)
    def test_matches_charF(self, values, zs, chunks):
        B = _grid(values)
        pool = zs + [0j, _SUBNORMAL_Z]
        step = max(1, field._CHUNK // len(B.layers.lengths))
        batch = np.resize(np.array(pool), len(pool) + chunks * step)
        many = charF_many(batch, B)
        for i, z in enumerate(pool):
            one = charF(z, B)
            scale = max(1.0, abs(one), abs(propagate(B, z).phi1))
            assert np.all(np.abs(many[i::len(pool)] - one) < 1e-12 * scale)
            _check_against_sequential(B, z, (many[i], one), scale)

    @pytest.mark.parametrize("cells", [1, 9, 256, 257])
    def test_batch_invariant(self, cells):
        # the contour walk caches F per point, so F may depend on z alone
        rng = np.random.default_rng(cells)
        B = _grid(rng.uniform(0.0, 4.0, cells))
        zs = np.concatenate((rng.uniform(-12, 12, 600)
                             + 1j * rng.uniform(-3, 3, 600),
                             [0j, _SUBNORMAL_Z, 1e-300j, 1e-150 + 0j]))
        many = charF_many(zs, B)
        alone = [charF_many(zs[i:i + 1], B)[0] for i in range(len(zs))]
        assert _bits(*many) == _bits(*alone)


def _bits(*zs):
    return [(complex(z).real.hex(), complex(z).imag.hex()) for z in zs]


def mp_dzF(z, B, order: int = 1):
    """d^order F/dz^order of the same layer recurrence at 50 digits
    (mpmath.diff)."""
    _, lengths, values = B.layers
    layers = [(mpmath.mpf(L), mpmath.mpf(b))
              for L, b in zip(lengths.tolist(), values.tolist())]

    def F(zz):
        y, e = mpmath.mpf(1), mpmath.mpf(0)
        for L, b in layers:
            w = zz * mpmath.sqrt(b)
            sw = mpmath.sin(w * L) / w if w != 0 else L
            c = mpmath.cos(w * L)
            y, e = c * y + zz * zz * sw * e, c * e - b * sw * y
        return y - 1j * zz * e

    with mpmath.workdps(50):
        return complex(mpmath.diff(F, mpmath.mpc(z.real, z.imag), order))


def _check_fused(B, z):
    f, df = charF_dzF(z, B)
    assert _bits(f, df) == _bits(charF(z, B), dzF(z, B))
    want = mp_dzF(complex(z), B)
    # the recurrence's rounding floor: eps G, where G = exp(|Im z| int sqrt B)
    # is the growth of the layer map, times 1 + |z| for the derivative
    grow = math.exp(abs(z.imag) * float(np.dot(B.layers.lengths,
                                               np.sqrt(B.layers.values))))
    assert abs(df - want) <= 8.0 * np.finfo(float).eps * grow \
        * (1.0 + abs(z)) * max(1.0, abs(want))


class TestFusedSweep:
    """charF_dzF reads F and dF/dz off one sweep, bit-equal to the pair,
    and dF/dz matches a 50-digit derivative of the same recurrence."""

    @given(st.lists(st.floats(0.02, 0.98), min_size=0, max_size=7),
           st.booleans(), _grid_z)
    @example([0.3, 0.6], True, 0.7j)
    @example([0.3, 0.6], False, 1e-150 + 0j)
    @example([0.5], True, _SUBNORMAL_Z)
    @example([0.38156760665845413], True,
             0.38156760665845413 + 5.852063152147856j)
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
        # the jet never divides by z: F(0) = 1 and F'(0) = i int B exactly
        B = two_layer(0.25, 2.0, 0.5, AdmissibleBounds(0.0, 4.0))
        assert charF_dzF(z, B) == (1.0, 0.875j)


def _check_taylor(B, z):
    # the rounding floor eps G (G = exp(|Im z| S), S = int sqrt B, the growth
    # of the layer map) times (1 + S)^r: the r-th Taylor coefficient of a
    # layer map scales as (sqrt(b) L)^r / r!
    s = float(np.dot(B.layers.lengths, np.sqrt(B.layers.values)))
    grow = math.exp(abs(z.imag) * s)
    for r in range(1, 7):
        got = _jet(z, B, r)[r]
        want = mp_dzF(complex(z), B, r)
        assert abs(got - want) <= 8.0 * np.finfo(float).eps * grow \
            * (1.0 + s) ** r * max(1.0, abs(want)), r


class TestTaylorDerivatives:
    """F', ..., F^(6) from the pairwise Taylor product against 50-digit
    derivatives of the same recurrence."""

    @given(st.lists(st.floats(0.02, 0.98), min_size=0, max_size=7),
           st.booleans(), _grid_z)
    @example([0.3, 0.6], True, 0j)
    @example([0.5], True, _SUBNORMAL_Z)
    @settings(max_examples=25, deadline=None)
    def test_piecewise(self, cuts, first_high, z):
        _check_taylor(_structure_from_bits(cuts, first_high), z)

    @given(_grid_values, _grid_z)
    @example([0.0, 4.0, 4.0, 1.0], 2.5j)
    @example([1.0, 2.5, 4.0, 0.0, 2.5], 5.5 - 2.0j)
    @settings(max_examples=25, deadline=None)
    def test_grid(self, values, z):
        _check_taylor(_grid(values), z)


class TestManyPointJet:
    """_jet over an array of points stacks them behind the layers, so every
    point's tuple is bit-equal to the scalar product's, across chunks."""

    @pytest.mark.parametrize("B", [
        constant(4.0),
        PiecewiseStructure((0.0, 0.3, 1.0), (0.0, 4.0),
                           AdmissibleBounds(0.0, 4.0)),
        GridStructure((0.0,) * 3 + (2.5,) * 5, AdmissibleBounds(0.0, 4.0)),
        GridStructure(tuple(np.random.default_rng(4).uniform(1.0, 4.0, 700)),
                      AdmissibleBounds(1.0, 4.0))])
    @pytest.mark.parametrize("order", [0, 1, 2, 5])
    def test_bit_equal_to_scalar(self, B, order):
        rng = np.random.default_rng(order)
        # 700 layers take 2 points a product: the 7 points span 4 chunks
        zs = rng.uniform(-20.0, 20.0, 7) + 1j * rng.uniform(-1.0, 5.0, 7)
        zs[:3] = (0j, _SUBNORMAL_Z, 1e-150 + 0j)
        many = _jet(zs, B, order)
        assert len(many) == len(zs)
        for z, got in zip(zs.tolist(), many):
            want = _jet(z, B, order)
            assert np.array(got).view(np.uint64).tolist() \
                == np.array(want).view(np.uint64).tolist()

    def test_one_point_array(self):
        B = constant(4.0)
        assert _jet(np.array([1.0 + 0.5j]), B, 1) == [_jet(1.0 + 0.5j, B, 1)]
        assert _jet(np.zeros(0, complex), B, 1) == []


class TestAxisSpecialization:
    def test_matches_complex_evaluation(self, random_structures):
        # F(i beta) is real for real B: the alpha = 0 optimizer reads F.real
        for B in random_structures[:5]:
            for beta in (0.3, 1.1, 2.7):
                f = charF(1j * beta, B)
                assert abs(f.imag) < 1e-12 * max(1, abs(f))


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

    @pytest.mark.parametrize("edges", [
        [], [0.0], [1.0], [0.5, 0.2], [0.0, 0.5, 0.2, 1.0], [0.0, 0.5, 0.5, 1.0],
        [1.0, 0.0], [0.1, 1.0], [0.0, 0.9], [-0.5, 1.0], [0.0, 1.5],
        [0.0, math.nan, 1.0], [0.0, math.inf], [[0.0, 1.0]], ["x", 1.0],
        [0.0, 1j, 1.0], None, [0, 10 ** 400, 1]])
    def test_bad_edges_are_input_errors(self, box14, edges):
        # [] raised ValueError and [0.5, 0.2] returned a number
        B = two_layer(0.37, 4.0, 1.0, box14)
        with pytest.raises(InputError):
            phi2_cell_integrals(B, 2.2 + 0.6j, edges)

    def test_two_edges_give_the_whole_integral(self, box14):
        B = two_layer(0.37, 4.0, 1.0, box14)
        cells = phi2_cell_integrals(B, 2.2 + 0.6j, [0, 1])
        four = phi2_cell_integrals(B, 2.2 + 0.6j, [0.0, 0.2, 0.37, 0.9, 1.0])
        assert cells.shape == (1,)
        assert abs(cells[0] - four.sum()) < 1e-12 * abs(cells[0])


def mp_phi2_cells(B, z, edges):
    """Per-cell integrals of phi^2 at 40 digits: the state at each layer's
    entry is exact, phi in a piece (a cell split at the breakpoints) is the
    layer's map from it, and each piece is integrated by 24-node
    Gauss-Legendre (a 96-node rule agrees to the last bit of a double)."""
    with mpmath.workdps(40):
        rule = GaussLegendre(mpmath.mp).calc_nodes(4, mpmath.mp.prec)
        z = mpmath.mpc(z.real, z.imag)
        bps, _, values = B.layers
        basis = {}

        def advance(b, p, dp, t):
            w = z * mpmath.sqrt(b)
            c, s = mpmath.cos(w * t), mpmath.sin(w * t) / w if w else t
            return c * p + s * dp, c * dp - w * w * s * p

        def integrals(b, length):
            """int_0^L of cos^2, cos sin / w and sin^2 / w^2 of w t."""
            if (b, length) not in basis:
                w, h = z * mpmath.sqrt(b), length / 2
                acc = [0, 0, 0]
                for x, weight in rule:
                    t = h * (x + 1)
                    c, s = mpmath.cos(w * t), mpmath.sin(w * t) / w if w else t
                    acc = [acc[0] + weight * c * c, acc[1] + weight * c * s,
                           acc[2] + weight * s * s]
                basis[b, length] = [h * a for a in acc]
            return basis[b, length]

        entry, state = [], (mpmath.mpc(1), mpmath.mpc(0))
        for x0, x1, b in zip(bps[:-1], bps[1:], values):
            entry.append(state)
            state = advance(mpmath.mpf(b), *state,
                            mpmath.mpf(x1) - mpmath.mpf(x0))
        cuts = sorted(set(edges.tolist()) | set(bps.tolist()))
        cells = [mpmath.mpc(0)] * (len(edges) - 1)
        for a, end in zip(cuts[:-1], cuts[1:]):
            j = int(bps[1:-1].searchsorted(a, side="right"))
            b = mpmath.mpf(values[j])
            p, dp = advance(b, *entry[j], mpmath.mpf(a) - mpmath.mpf(bps[j]))
            icc, ics, iss = integrals(b, mpmath.mpf(end) - mpmath.mpf(a))
            k = int(edges[1:-1].searchsorted(a, side="right"))
            cells[k] += p * p * icc + 2 * p * dp * ics + dp * dp * iss
        return np.array([complex(v) for v in cells])


def _blocky_grid(rng, n_layers, b1, b2):
    """A 256-cell two-valued grid of n_layers blocks, like the optimizer's."""
    cuts = np.sort(rng.choice(np.arange(1, 256), n_layers - 1, replace=False))
    vals = np.empty(256)
    for i, (a, b) in enumerate(zip((0, *cuts), (*cuts, 256))):
        vals[a:b] = (b1, b2)[i % 2]
    return GridStructure(vals, AdmissibleBounds(b1, b2))


class TestCellIntegralsAt40Digits:
    """Each cell is within 1e-14 of the largest cell of a 40-digit
    reference: phi inside a layer comes from the layer's entry state, so no
    rounding accumulates over the pieces before it in the layer."""

    @staticmethod
    def _check(B, z, edges):
        cells = phi2_cell_integrals(B, z, edges)
        ref = mp_phi2_cells(B, z, edges)
        assert np.abs(cells - ref).max() <= 1e-14 * np.abs(cells).max()

    @pytest.mark.parametrize("n_layers, b1, b2, z", [
        (3, 1.0, 4.0, math.pi / 2 + 0.26j), (5, 1.0, 4.0, math.pi + 0.22j),
        (9, 1.0, 4.0, 2 * math.pi + 0.16j), (17, 1.0, 9.0, math.pi + 0.09j),
        (25, 1.0, 9.0, 2 * math.pi + 0.08j), (33, 0.5, 4.0, 2 * math.pi + 0.15j),
        (45, 0.0, 4.0, 2 * math.pi + 0.01j), (57, 1.0, 9.0, 3 * math.pi + 0.3j)])
    def test_blocky_grids(self, n_layers, b1, b2, z):
        B = _blocky_grid(np.random.default_rng(n_layers), n_layers, b1, b2)
        assert len(B.layers.values) == n_layers
        self._check(B, z, B.edges)

    @pytest.mark.parametrize("seed", range(4))
    def test_bang_bang_on_uniform_edges(self, seed):
        rng = np.random.default_rng(seed)
        B = random_bang_bang(AdmissibleBounds(1.0, 9.0), rng, 8)
        edges = np.linspace(0.0, 1.0, 17)
        assert not np.isin(B.layers.breakpoints, edges[1:-1]).any()
        self._check(B, complex(rng.uniform(1, 8), rng.uniform(0.05, 0.5)),
                    edges)


# -- the error contract ---------------------------------------------------------

_WIDE = AdmissibleBounds(0.0, 1e4)
_PARTS = [0.0, 1e-300, 0.5, -3.0, 40.0, 800.0, 1e6, -1e300, 1.7e308,
          math.inf, -math.inf, math.nan]


@st.composite
def contract_media(draw):
    values = draw(st.lists(st.sampled_from([0.0, 1e-300, 0.25, 4.0, 100.0, 1e4])
                           | st.floats(0.0, 1e4), min_size=1, max_size=8))
    if draw(st.booleans()):
        return GridStructure(tuple(values), _WIDE)
    cuts = draw(st.lists(st.floats(1e-9, 1.0 - 1e-9), min_size=len(values) - 1,
                         max_size=len(values) - 1, unique=True))
    return PiecewiseStructure((0.0, *sorted(cuts), 1.0), tuple(values), _WIDE)


class TestErrorContract:
    """Every public function of field ends in a result or a QnmOptError on
    grid and piecewise media with 0 <= B <= 1e4 and z anywhere, huge and
    non-finite included; no other exception and no RuntimeWarning escapes.
    The F evaluators return inf or nan where F overflows, as charF_many
    does; the sweeps raise NumericalError on values that are not finite."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(B=contract_media(),
           re=st.sampled_from(_PARTS) | st.floats(-20.0, 20.0),
           im=st.sampled_from(_PARTS) | st.floats(0.0, 10.0))
    def test_only_qnmopt_errors_escape(self, B, re, im):
        z = complex(re, im)
        calls = [lambda: charF(z, B), lambda: dzF(z, B),
                 lambda: charF_dzF(z, B), lambda: charF_many([z, 1.0], B),
                 lambda: propagate(B, z), lambda: overlap_integrals(B, z),
                 lambda: phi2_cell_integrals(B, z, [0.0, 0.3, 1.0]),
                 lambda: mode_values(B, z, [0.0, 0.5, 1.0]),
                 lambda: phi_series(B, z)]
        for call in calls:
            try:
                call()
            except QnmOptError:
                pass

    @pytest.mark.parametrize("z, xs", [(2.0 + 0.3j, [0.0, math.nan, 1.0]),
                                       (2.0 + 0.3j, 0.5),
                                       (2.0 + 0.3j, [[0.0, 0.5]]),
                                       ("z", [0.5]), (None, [0.5])])
    def test_mode_values_input_faults_are_input_errors(self, z, xs):
        # a NaN position raised NumericalError, a scalar IndexError and a
        # z that is not a number TypeError
        with pytest.raises(InputError):
            mode_values(constant(4.0), z, xs)

    @pytest.mark.parametrize("z", [800j, 1e300j, complex(math.inf),
                                   complex(math.nan, 1.0)])
    def test_overflow_is_quiet_in_F_and_raises_in_sweeps(self, z):
        B = random_bang_bang(AdmissibleBounds(1.0, 4.0),
                             np.random.default_rng(3), max_switches=7)
        assert not cmath.isfinite(charF(z, B))
        assert not all(map(cmath.isfinite, charF_dzF(z, B)))
        assert not cmath.isfinite(dzF(z, B))
        for call in (lambda: propagate(B, z), lambda: overlap_integrals(B, z),
                     lambda: phi2_cell_integrals(B, z, [0.0, 0.5, 1.0])):
            with pytest.raises(NumericalError, match="not finite"):
                call()

    @pytest.mark.parametrize("b, z", [(4.0, 1e300j),
                                      (4.0, complex(1.7e308, 1.7e308)),
                                      (4.0, complex(math.inf)),
                                      (0.0, complex(math.nan)),
                                      (100.0, 10.25)])
    def test_series_past_the_float_range_does_not_converge(self, b, z):
        # at |z| = 10.25 on b = 100 the term bound needs 155 terms, and
        # z^310 is past the float range although the terms are not
        with pytest.raises(TailNotConverged):
            phi_series(constant(b), z)
