import math

import numpy as np
import pytest

from qnmopt import spectrum
from qnmopt.errors import (InputError, NotIsolated, NumericalError,
                           ZeroOnContour)
from qnmopt.field import charF, charF_many, dzF
from qnmopt.medium import (AdmissibleBounds, GridStructure, PiecewiseStructure,
                           constant, random_bang_bang)
from qnmopt.spectrum import (SpectralWindow, axis_offset,
                             constant_spectrum, locate, multiplicity,
                             newton_refine, winding_count)

LN3_4 = math.log(3.0) / 4.0


class TestWindow:
    def test_validation(self):
        SpectralWindow(0.1, 5.0, 0.1, 1.0)
        with pytest.raises(InputError):
            SpectralWindow(5.0, 0.1, 0.1, 1.0)
        with pytest.raises(InputError):
            SpectralWindow(0.1, 5.0, -0.1, 1.0)  # zeros live in C+
        with pytest.raises(InputError):
            SpectralWindow(0.1, 5.0, 0.0, 1.0)


class TestWinding:
    def test_no_spectrum_for_unit_media(self):
        w = SpectralWindow(0.1, 5.0, 0.1, 1.0)
        assert winding_count(constant(1.0), w) == 0
        assert winding_count(constant(0.0), w) == 0

    def test_three_zeros_of_b4(self):
        w = SpectralWindow(0.1, 5.0, 0.1, 1.0)
        assert winding_count(constant(4.0), w) == 3

    def test_mirror_window(self):
        w = SpectralWindow(-5.0, -0.1, 0.1, 1.0)
        assert winding_count(constant(4.0), w) == 3


class TestConstantSpectrum:
    def test_unit_empty(self):
        w = SpectralWindow(0.1, 5.0, 0.1, 1.0)
        assert constant_spectrum(1.0, w) == []
        assert constant_spectrum(0.0, w) == []

    def test_b4_window(self):
        w = SpectralWindow(0.1, 5.0, 0.1, 1.0)
        got = constant_spectrum(4.0, w)
        want = [complex(n * math.pi / 2, LN3_4) for n in (1, 2, 3)]
        assert len(got) == 3
        assert max(abs(a - b) for a, b in zip(got, want)) < 1e-14

    def test_quarter_window_empty(self):
        # b = 1/4: Im = ln 3 ~ 1.099, Re = 2 pi (n + 1/2); none in [6,7]
        w = SpectralWindow(6.0, 7.0, 0.5, 2.0)
        assert constant_spectrum(0.25, w) == []
        w2 = SpectralWindow(5.0, 8.0, 0.5, 2.0)
        assert constant_spectrum(0.25, w2) == []

    def test_negative_branch(self):
        w = SpectralWindow(-5.0, -0.1, 0.1, 1.0)
        got = constant_spectrum(4.0, w)
        assert len(got) == 3
        assert all(z.real < 0 for z in got)


class TestLocate:
    def test_b4_roots_to_formula(self):
        w = SpectralWindow(0.1, 5.0, 0.1, 1.0)
        evs = locate(constant(4.0), w)
        want = constant_spectrum(4.0, w)
        assert len(evs) == 3
        assert max(abs(ev.kappa - z) for ev, z in zip(evs, want)) < 1e-10
        for ev in evs:
            assert ev.multiplicity == 1
            assert ev.residual < 1e-12
            assert ev.kappa.imag > 0

    @pytest.mark.parametrize("b", [0.25, 4.0, 9.0])
    def test_matches_constant_formula(self, b):
        w = SpectralWindow(0.1, 12.0, 0.05, 3.0)
        evs = locate(constant(b), w)
        want = constant_spectrum(b, w)
        assert len(evs) == len(want)
        if want:
            assert max(abs(ev.kappa - z) for ev, z in zip(evs, want)) < 1e-10

    def test_two_layer_against_dense_scan(self, box14):
        # brute-force oracle: local minima of |F| on a 400x200 grid
        B = PiecewiseStructure((0.0, 0.5, 1.0), (4.0, 1.0), box14)
        w = SpectralWindow(0.5, 6.0, 0.05, 2.0)
        evs = locate(B, w)
        xs = np.linspace(w.re_min, w.re_max, 400)
        ys = np.linspace(w.im_min, w.im_max, 200)
        F = np.abs(charF_many(xs[None, :] + 1j * ys[:, None], B))
        minima = []
        for i in range(1, F.shape[0] - 1):
            for j in range(1, F.shape[1] - 1):
                if F[i, j] < 0.08 and F[i, j] == F[i - 1:i + 2, j - 1:j + 2].min():
                    minima.append(complex(xs[j], ys[i]))
        assert len(minima) == len(evs)
        for z in minima:
            assert min(abs(z - ev.kappa) for ev in evs) < 0.05

    def test_window_sum_rule(self, random_structures):
        w = SpectralWindow(0.3, 7.0, 0.05, 2.5)
        for B in random_structures[:4]:
            evs = locate(B, w)
            assert sum(ev.multiplicity for ev in evs) == winding_count(B, w)

    def test_mirror_partners(self, random_structures):
        w = SpectralWindow(0.3, 7.0, 0.05, 2.5)
        wm = SpectralWindow(-7.0, -0.3, 0.05, 2.5)
        for B in random_structures[:4]:
            evs = locate(B, w)
            mirror = locate(B, wm)
            assert len(evs) == len(mirror)
            for ev in evs:
                target = -ev.kappa.conjugate()
                assert min(abs(m.kappa - target) for m in mirror) < 1e-10


class TestContourRobustness:
    def test_zero_on_contour_raises(self):
        from qnmopt.errors import ZeroOnContour
        # left edge passes exactly through the n=1 root of B = 4
        w = SpectralWindow(math.pi / 2, 5.0, 0.1, 1.0)
        with pytest.raises(ZeroOnContour):
            winding_count(constant(4.0), w)

    def test_locate_dilates_past_boundary_zero(self):
        w = SpectralWindow(math.pi / 2, 5.0, 0.1, 1.0)
        evs = locate(constant(4.0), w)
        # the boundary root is recovered by the dilation retry
        assert len(evs) == 3
        assert abs(evs[0].kappa - (math.pi / 2 + 1j * LN3_4)) < 1e-10

    def test_cluster_resolved_as_multiple_root(self, double_fixture):
        B, kappa = double_fixture
        w = SpectralWindow(kappa.real - 0.2, kappa.real + 0.2,
                           kappa.imag - 0.2, kappa.imag + 0.2)
        evs = locate(B, w)
        assert len(evs) == 1
        assert evs[0].multiplicity == 2
        assert abs(evs[0].kappa - kappa) < 1e-6

    def test_concurrent_disjoint_windows(self, random_structures):
        from concurrent.futures import ThreadPoolExecutor
        B = random_structures[0]
        wins = [SpectralWindow(0.3, 3.5, 0.05, 2.5),
                SpectralWindow(3.5, 7.0, 0.05, 2.5)]
        with ThreadPoolExecutor(max_workers=2) as pool:
            parts = list(pool.map(lambda w: locate(B, w), wins))
        merged = sorted((ev.kappa for part in parts for ev in part),
                        key=lambda z: (z.real, z.imag))
        whole = [ev.kappa for ev in locate(B, SpectralWindow(0.3, 7.0, 0.05, 2.5))]
        assert len(merged) == len(whole)
        assert max(abs(a - b) for a, b in zip(merged, whole)) < 1e-10


class TestMultiplicity:
    def test_simple_root(self):
        kappa = math.pi / 2 + 1j * LN3_4
        assert multiplicity(constant(4.0), kappa, 0.2) == 1

    def test_empty_circle(self):
        assert multiplicity(constant(4.0), 3.0 + 1.5j, 0.05) == 0

    def test_not_isolated(self):
        # radius so large the annulus catches the neighbouring roots
        kappa = math.pi + 1j * LN3_4
        with pytest.raises(NotIsolated):
            multiplicity(constant(4.0), kappa, 1.2)

    def test_double_root_fixture(self, double_fixture):
        B, kappa = double_fixture
        assert multiplicity(B, kappa, 0.05) == 2


class TestAxisOffset:
    def test_values(self):
        assert abs(axis_offset(4.0) - LN3_4) < 1e-15
        assert abs(axis_offset(9.0) - math.log(2.0) / 6.0) < 1e-15
        assert abs(axis_offset(0.25) - math.log(3.0)) < 1e-15
        with pytest.raises(InputError):
            axis_offset(1.0)


# -- references: the contour walk and Newton step before the fused sweep ------

def reference_rect_points(w, per_edge=16):
    cs = w.corners()
    pts = []
    for a, b in zip(cs, cs[1:] + cs[:1]):
        ts = np.linspace(0.0, 1.0, per_edge, endpoint=False)
        pts.append(a + ts * (b - a))
    return np.concatenate(pts)


def reference_phase_winding(points, B, max_rounds=40):
    pts = np.asarray(points, dtype=complex)
    for _ in range(max_rounds):
        fv = charF_many(pts, B)
        fmax = np.max(np.abs(fv))
        if fmax == 0.0 or np.min(np.abs(fv)) < 1e-12 * fmax:
            raise ZeroOnContour("|F| collapsed on the contour")
        ratio = fv[np.r_[1:len(fv), 0]] / fv
        dtheta = np.angle(ratio)
        bad = np.abs(dtheta) >= 0.5 * math.pi
        if not bad.any():
            total = float(np.sum(dtheta))
            n = round(total / (2.0 * math.pi))
            if abs(total - 2.0 * math.pi * n) > 0.5:
                raise NumericalError("contour phase sum far from a multiple of 2 pi")
            return int(n)
        nxt = pts[np.r_[1:len(pts), 0]]
        mids = 0.5 * (pts + nxt)
        out = np.empty(len(pts) + int(bad.sum()), dtype=complex)
        k = 0
        for p, m, flag in zip(pts, mids, bad):
            out[k] = p
            k += 1
            if flag:
                out[k] = m
                k += 1
        pts = out
        if len(pts) > 400_000:
            break
    raise NumericalError("contour refinement did not converge")


def reference_newton_refine(B, z0, tol=1e-12, max_iter=60, leash=math.inf):
    z = complex(z0)
    for it in range(1, max_iter + 1):
        f = charF(z, B)
        if z == 0:
            return None
        df = dzF(z, B)
        if df == 0:
            return None
        step = f / df
        z -= step
        if abs(z - z0) > leash:
            return None
        if abs(step) < 1e-14 * (1.0 + abs(z)):
            fz = abs(charF(z, B))
            if fz < tol:
                return z, it
            return None
    fz = abs(charF(z, B))
    if fz < tol:
        return z, max_iter
    return None


def _bits(a):
    """Exact float bits of an array of complex numbers."""
    return np.asarray(a, dtype=complex).view(np.uint64).tolist()


@pytest.fixture
def contour_log(monkeypatch):
    """Every point array the contour walk hands to charF_many."""
    log = []
    original = spectrum.charF_many

    def recorded(zs, B):
        log.append(np.array(zs))
        return original(zs, B)

    monkeypatch.setattr(spectrum, "charF_many", recorded)
    monkeypatch.setitem(globals(), "charF_many", recorded)  # the references
    return log


def _contour_media():
    box = AdmissibleBounds(1.0, 4.0)
    bb = random_bang_bang(box, np.random.default_rng(3), max_switches=7)
    grid = GridStructure(tuple(np.random.default_rng(7).uniform(1, 4, 256)),
                         box)
    # windows wide or tall enough that 16 points per edge need 3-5 rounds
    return [(constant(4.0), SpectralWindow(-30.0, 30.0, 0.05, 6.0)),
            (bb, SpectralWindow(0.1, 40.0, 0.05, 3.0)),
            (bb, SpectralWindow(0.1, 12.0, 0.05, 8.0)),
            (grid, SpectralWindow(0.1, 40.0, 0.05, 3.0))]


class TestContourAgainstReference:
    """The array contour walk visits the same points as the per-point loop."""

    def test_rect_points_equal(self):
        rng = np.random.default_rng(11)
        wins = [SpectralWindow(*w) for w in
                ((0.1, 12.0, 0.05, 3.0), (-12.0, -0.1, 0.05, 3.0),
                 (math.pi / 2, 5.0, 0.1, 1.0))]
        for _ in range(20):
            re = np.sort(rng.uniform(-50, 50, 2))
            im = np.sort(rng.uniform(1e-3, 20, 2))
            wins.append(SpectralWindow(re[0], re[1], im[0], im[1]))
        for w in wins:
            assert _bits(spectrum._rect_points(w)) \
                == _bits(reference_rect_points(w))

    def test_refinement_rounds_equal(self, contour_log):
        for B, w in _contour_media():
            pts = reference_rect_points(w)
            ref = reference_phase_winding(pts, B)
            ref_log = list(contour_log)
            contour_log.clear()
            assert winding_count(B, w) == ref
            assert len(contour_log) == len(ref_log) >= 3
            for new, old in zip(contour_log, ref_log):
                assert _bits(new) == _bits(old)
            contour_log.clear()

    def test_double_root_circle(self, double_fixture, contour_log):
        B, kappa = double_fixture
        counts = []
        for radius in (1e-3, 0.05, 0.3):
            ts = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
            ref = reference_phase_winding(kappa + radius * np.exp(1j * ts), B)
            ref_log = list(contour_log)
            contour_log.clear()
            counts.append(spectrum._circle_winding(B, kappa, radius))
            assert counts[-1] == ref
            assert [_bits(p) for p in contour_log] \
                == [_bits(p) for p in ref_log]
            contour_log.clear()
        assert counts[:2] == [2, 2]


class TestNewtonAgainstReference:
    """One fused sweep per step leaves (kappa, iters) unchanged."""

    def test_random_media_and_starts(self):
        rng = np.random.default_rng(2024)
        box = AdmissibleBounds(1.0, 4.0)
        media = [random_bang_bang(box, rng, max_switches=7) for _ in range(8)]
        media += [GridStructure(tuple(rng.uniform(1, 4, n)), box)
                  for n in (16, 64, 256)]
        media.append(constant(4.0))
        found = failed = 0
        for B in media:
            starts = [complex(rng.uniform(-12, 12), rng.uniform(0.05, 3))
                      for _ in range(5)]
            for z0, leash, tol in [(z, math.inf, 1e-12) for z in starts] \
                    + [(starts[0], 1e-3, 1e-12), (starts[1], 0.5, 1e-9),
                       (0j, math.inf, 1e-12), (starts[2], math.inf, math.inf)]:
                new = newton_refine(B, z0, tol=tol, leash=leash)
                ref = reference_newton_refine(B, z0, tol=tol, leash=leash)
                assert repr(new) == repr(ref)
                found += new is not None
                failed += new is None
        assert found > 20 and failed > 10

    def test_zero_start_and_leash(self):
        B = constant(4.0)
        assert newton_refine(B, 0j) is None
        assert reference_newton_refine(B, 0j) is None
        # the nearest root is 0.05 away; a 1e-3 leash is exceeded
        z0 = math.pi / 2 + 0.05 + 1j * LN3_4
        assert newton_refine(B, z0, leash=1e-3) is None
        assert newton_refine(B, z0)[0] == reference_newton_refine(B, z0)[0]


class TestNonFiniteContour:
    """F overflows on very tall windows; that is a numerical failure."""

    TALL = SpectralWindow(0.1, 12.0, 0.05, 400.0)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_winding_count_raises(self):
        with pytest.raises(NumericalError, match="not finite"):
            winding_count(constant(4.0), self.TALL)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_locate_raises_without_dilating(self, contour_log):
        with pytest.raises(NumericalError, match="not finite"):
            locate(constant(4.0), self.TALL)
        assert len(contour_log) == 1

    @pytest.mark.parametrize("radius", [math.nan, math.inf, -math.inf,
                                        0.0, -0.1])
    def test_multiplicity_radius(self, radius):
        with pytest.raises(InputError):
            multiplicity(constant(4.0), math.pi / 2 + 1j * LN3_4, radius)
