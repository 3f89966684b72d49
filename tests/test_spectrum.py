import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qnmopt import spectrum
from qnmopt.errors import (InputError, MaxDepthExceeded, NotIsolated,
                           NumericalError, QnmOptError, ZeroOnContour)
from qnmopt.field import charF, charF_many, dzF
from qnmopt.medium import (AdmissibleBounds, GridStructure, PiecewiseStructure,
                           constant, random_bang_bang)
from qnmopt.spectrum import (QuasiEigenvalue, SpectralWindow, axis_offset,
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


_MAX_POINTS = spectrum._MAX_POINTS


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

    @pytest.mark.parametrize("b, w", [
        (1e16, SpectralWindow(-1e308, 1e308, 1e-20, 1.0)),
        (4.0, SpectralWindow(-1e6, 1e6, 0.1, 1.0))],
        ids=["index-overflow", "million-eigenvalues"])
    def test_too_many_eigenvalues(self, b, w):
        # the first escaped as OverflowError, the second built 1273239
        with pytest.raises(InputError, match=f"more than {_MAX_POINTS} eig"):
            constant_spectrum(b, w)

    def test_size_limit_is_inclusive(self):
        # b = 4: kappa_n = n pi/2 + i ln3/4
        step = math.pi / 2.0
        w = SpectralWindow(0.5 * step, (_MAX_POINTS + 0.5) * step, 0.1, 1.0)
        assert len(constant_spectrum(4.0, w)) == _MAX_POINTS
        w = SpectralWindow(0.5 * step, (_MAX_POINTS + 1.5) * step, 0.1, 1.0)
        with pytest.raises(InputError):
            constant_spectrum(4.0, w)


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

    def test_double_root_cluster(self, double_fixture):
        B, kappa = double_fixture
        w = SpectralWindow(kappa.real - 0.3, kappa.real + 0.3,
                           kappa.imag - 0.3, kappa.imag + 0.3)
        evs = locate(B, w)
        assert len(evs) == 1
        assert evs[0].multiplicity == 2 == winding_count(B, w)
        assert abs(evs[0].kappa - kappa) < 1e-6

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

    @pytest.mark.parametrize("h", [3e-6, 1e-6, 1e-7])
    def test_windows_under_1e5_across(self, double_fixture, h):
        # windows this small take moment starts like any other window
        def square(c):
            return SpectralWindow(c.real - h, c.real + h, c.imag - h, c.imag + h)

        B, kappa = double_fixture
        evs = locate(B, square(kappa))
        assert [ev.multiplicity for ev in evs] == [2]
        assert abs(evs[0].kappa - kappa) < 1e-6
        k1 = math.pi / 2 + 1j * LN3_4
        evs = locate(constant(4.0), square(k1))
        assert [ev.multiplicity for ev in evs] == [1]
        assert abs(evs[0].kappa - k1) < 1e-10

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
        # atanh(s)/s -> 1 as b -> 0, where the log form cancels to 0
        assert axis_offset(1e-12) == 1.0 + 1e-12 / 3.0
        assert axis_offset(5e-324) == 1.0
        with pytest.raises(InputError):
            axis_offset(1.0)
        # near b = 1, sqrt(b) rounds to 1 and atanh met its pole (a bare
        # ValueError at 1 + 2^-52, 18.71497 for 19.06155 at 1 - 2^-53)
        with mpmath.workdps(50):
            for b in (1 + 2 ** -52, 1 - 2 ** -52, 1 - 2 ** -53, 1 + 1e-10,
                      1 - 1e-10, 1 + 1e-4, 1 - 1e-4, 0.51, 1.49):
                s = mpmath.sqrt(mpmath.mpf(b))
                want = mpmath.log(abs((s + 1) / (s - 1))) / (2 * s)
                assert abs(axis_offset(b) - want) <= 4.4e-16 * want

    @pytest.mark.parametrize("b", [1e-8, 1e8])
    def test_far_from_one(self, b):
        # the log form lost ~eps / sqrt(b) at small b: 2.8e-13 at b = 1e-8
        with mpmath.workdps(50):
            s = mpmath.sqrt(mpmath.mpf(b))
            want = mpmath.log(abs((s + 1) / (s - 1))) / (2 * s)
            assert abs(axis_offset(b) - want) <= 1e-15 * abs(want)


# -- references: the contour walk and Newton step before the fused sweep ------

def reference_edge_count(a, b, B):
    """Segments of edge (a, b): 16, or the optical length's 2 |b - a| int
    sqrt(B) / pi where that is more."""
    optical = sum(L * math.sqrt(v) for L, v in zip(B.layers.lengths.tolist(),
                                                   B.layers.values.tolist()))
    return max(16, math.ceil(2.0 * abs(b - a) * optical / math.pi))


def reference_polygon_points(cs, B=None):
    """The walk's first samples of the closed polygon cs: 16 per edge, or
    with B as many as reference_edge_count gives."""
    pts = []
    for a, b in zip(cs, cs[1:] + cs[:1]):
        n = 16 if B is None else reference_edge_count(a, b, B)
        pts.append(a + np.arange(n) / n * (b - a))
    return np.concatenate(pts)


def reference_rect_points(w, B=None):
    return reference_polygon_points(w.corners(), B)


def reference_square(c, h):
    """Corners of the square of half-side h about c, as SpectralWindow
    orders them."""
    return [complex(c.real - h, c.imag - h), complex(c.real + h, c.imag - h),
            complex(c.real + h, c.imag + h), complex(c.real - h, c.imag + h)]


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
        df = dzF(z, B)
        if df == 0:
            return None
        prev, step = z, f / df
        z -= step
        if abs(z - z0) > leash:
            return None
        if abs(step) < 1e-15 * (1.0 + abs(z)) and abs(f) < tol:
            return prev, it, abs(f)
        if abs(step) < 1e-14 * (1.0 + abs(z)):
            fz = abs(charF(z, B))
            if fz < tol:
                return z, it, fz
            return None
    fz = abs(charF(z, B))
    if fz < tol:
        return z, max_iter, fz
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
    # windows wide or tall enough that their first samples need 3-6 rounds
    return [(constant(9.0), SpectralWindow(-30.0, 30.0, 0.05, 6.0)),
            (bb, SpectralWindow(0.1, 40.0, 0.05, 3.0)),
            (bb, SpectralWindow(0.1, 12.0, 0.05, 8.0)),
            (grid, SpectralWindow(0.1, 40.0, 0.05, 3.0))]


def _multiset(*arrays):
    """Sorted exact bits of the complex numbers in all arrays."""
    flat = np.concatenate([np.asarray(a, dtype=complex).ravel()
                           for a in arrays])
    return sorted(map(tuple, flat.view(np.uint64).reshape(-1, 2).tolist()))


class _Stop(Exception):
    pass


class TestContourAgainstReference:
    """The edge walk evaluates the final points of the per-point loop, each
    once, in as many charF_many calls as the loop has rounds."""

    def test_rect_points_equal(self, monkeypatch):
        rng = np.random.default_rng(11)
        wins = [SpectralWindow(*w) for w in
                ((0.1, 12.0, 0.05, 3.0), (-12.0, -0.1, 0.05, 3.0),
                 (math.pi / 2, 5.0, 0.1, 1.0))]
        for _ in range(20):
            re = np.sort(rng.uniform(-50, 50, 2))
            im = np.sort(rng.uniform(1e-3, 20, 2))
            wins.append(SpectralWindow(re[0], re[1], im[0], im[1]))
        seen = []

        def first_round(zs, B):
            seen.append(np.array(zs))
            raise _Stop

        monkeypatch.setattr(spectrum, "charF_many", first_round)
        B = constant(4.0)
        longest = 0
        for w in wins:
            with pytest.raises(_Stop):
                winding_count(B, w)
            cs = w.corners()
            sizes = [reference_edge_count(a, b, B) + 1
                     for a, b in zip(cs, cs[1:] + cs[:1])]
            edges = np.split(seen.pop(), np.cumsum(sizes))
            assert len(edges.pop()) == 0
            assert _bits(np.concatenate([e[:-1] for e in edges])) \
                == _bits(reference_rect_points(w, B))
            assert _bits([e[-1] for e in edges]) == _bits(np.roll(cs, -1))
            longest = max(longest, *sizes)
        assert longest > 100

    def test_refinement_rounds_equal(self, contour_log):
        for B, w in _contour_media():
            ref = reference_phase_winding(reference_rect_points(w, B), B)
            ref_log = list(contour_log)
            contour_log.clear()
            assert winding_count(B, w) == ref
            assert len(contour_log) == len(ref_log) >= 3
            # every final point once, and the 4 corners as both edge ends
            assert _multiset(*contour_log) \
                == _multiset(ref_log[-1], w.corners())
            contour_log.clear()

    def test_double_root_square(self, double_fixture, contour_log):
        B, kappa = double_fixture
        counts = []
        for h in (1e-3, 0.05, 0.3):
            cs = reference_square(kappa, h)
            ref = reference_phase_winding(reference_polygon_points(cs, B), B)
            ref_log = list(contour_log)
            contour_log.clear()
            edges = spectrum._square_edges(kappa, h)
            assert [a for a, _ in edges] == cs
            counts.append(spectrum._counted(spectrum._walk(B, edges)))
            assert counts[-1] == ref
            assert len(contour_log) == len(ref_log)
            # every final point once, and the 4 corners as both edge ends
            assert _multiset(*contour_log) == _multiset(ref_log[-1], cs)
            contour_log.clear()
        assert counts[:2] == [2, 2]
        assert [multiplicity(B, kappa, h) for h in (1e-3, 0.05)] == [2, 2]


class TestEdgeReuse:
    """The two halves of a split are walked one after the other, each alone,
    before either is dilated."""

    def test_halves_add_up_to_parent(self):
        box = AdmissibleBounds(1.0, 4.0)
        bb = random_bang_bang(box, np.random.default_rng(3), max_switches=7)
        grid = GridStructure(tuple(np.random.default_rng(7).uniform(1, 4, 256)),
                             box)
        for B, w in [(bb, SpectralWindow(0.1, 12.0, 0.05, 3.0)),
                     (grid, SpectralWindow(0.1, 12.0, 0.05, 3.0)),
                     (bb, SpectralWindow(0.1, 2.0, 0.05, 8.0))]:
            halves = spectrum._split(w, 0.5)
            assert sum(spectrum._counted(spectrum._walk(
                B, spectrum._rect_edges(h))) for h in halves) \
                == winding_count(B, w)

    def test_only_the_grazing_half_dilates(self, contour_log):
        # the middle sample of the left edge of the parent, and of its left
        # half only, lands on the root pi/2 + i ln3/4 of B = 4; the right
        # half needs a second round
        B = constant(4.0)
        w = SpectralWindow(math.pi / 2, 20.0, LN3_4 - 0.2, LN3_4 + 0.2)
        a, b = spectrum._split(w, 0.5)
        with pytest.raises(ZeroOnContour):
            reference_phase_winding(reference_rect_points(a, B), B)
        failed = contour_log[-1]
        contour_log.clear()
        (wa, (ca, *_)), (wb, (cb, *_)) = spectrum._window_counts(B, (a, b))
        calls = list(contour_log)
        assert wa == a.dilated(1.004) and wb == b
        assert (ca, cb) == (6, 6) == (winding_count(B, wa), winding_count(B, b))
        assert (ca, cb) == (len(constant_spectrum(4.0, wa)),
                            len(constant_spectrum(4.0, b)))
        # the left half is walked alone, then the right half to its end,
        # and only then the dilated left half
        sizes = [len(z) for z in calls]
        retry = sizes.index(4 * 17, 2)
        assert sizes[:2] == [4 * 17, 4 * 17] and retry > 2
        assert np.all(calls[0].real <= a.re_max)
        assert np.all(np.concatenate(calls[1:retry]).real >= b.re_min)
        # the grazing edge is refined as far as the loop got, no further
        batch = np.concatenate(calls[:retry])
        on_edge = [z[(z.real == w.re_min) & (z.imag > w.im_min)
                     & (z.imag < w.im_max)] for z in (batch, failed)]
        assert _multiset(on_edge[0]) == _multiset(on_edge[1])
        later = np.concatenate(calls[retry:])
        assert np.all((later.real >= wa.re_min) & (later.real <= wa.re_max))
        assert np.any(later.real == wa.re_max)

    @pytest.mark.parametrize("which", [0, 1])
    def test_nan_on_third_edge_raises(self, monkeypatch, contour_log, which):
        B = constant(4.0)
        w = SpectralWindow(0.1, 12.0, 0.05, 3.0)
        # the outer edge of this window's other half grazes the zero
        # -+pi/2 + i ln3/4 of B = 4
        grazing = SpectralWindow(-20.0, -math.pi / 2, LN3_4 - 0.2, LN3_4 + 0.2) \
            if which == 0 else \
            SpectralWindow(math.pi / 2, 20.0, LN3_4 - 0.2, LN3_4 + 0.2)
        bad = []
        for v in (w, grazing):
            p, q = spectrum._rect_edges(spectrum._split(v, 0.5)[which])[2]
            bad.append(p + 8 / 16 * (q - p))
        original = spectrum.charF_many

        def planted(zs, B):
            out = original(zs, B)
            out[np.isin(zs, bad)] = math.nan
            return out

        monkeypatch.setattr(spectrum, "charF_many", planted)
        a, b = spectrum._split(w, 0.5)
        h = (a, b)[which]
        with pytest.raises(NumericalError, match="not finite"):
            spectrum._window_counts(B, spectrum._split(w, 0.5))
        with pytest.raises(NumericalError, match="not finite"):
            winding_count(B, h)
        assert winding_count(B, (b, a)[which]) >= 0
        # a graze in the other half does not hide the NaN, and no half is
        # dilated before both are walked
        a, b = spectrum._split(grazing, 0.5)
        with pytest.raises(ZeroOnContour):
            winding_count(B, (b, a)[which])
        contour_log.clear()
        with pytest.raises(NumericalError, match="not finite"):
            spectrum._window_counts(B, (a, b))
        assert contour_log
        for z in contour_log:
            assert np.all((z.real >= grazing.re_min) & (z.real <= grazing.re_max))


class TestRefinementBudget:
    """Round budget and point cap stop the walk where they stopped the loop."""

    @pytest.mark.parametrize("fake, capped", [
        # a sign jump at Re z = 5 that no refinement resolves: 2 points a round
        (lambda zs: np.where(zs.real < 5.0, 1.0, -1.0) + 0j, False),
        # one of three phases, set by the bits of z: a rough segment has
        # two rough halves a third of the time, so the points hit the cap
        (lambda zs: np.exp(2j * np.pi / 3 * ((zs.real.view(np.uint64)
                                              ^ zs.imag.view(np.uint64)) % 3)),
         True),
    ], ids=["round-budget", "point-cap"])
    def test_gives_up_like_the_reference(self, monkeypatch, fake, capped):
        calls = []

        def logged(zs, B):
            calls.append(len(zs))
            return fake(np.asarray(zs))

        monkeypatch.setattr(spectrum, "charF_many", logged)
        monkeypatch.setitem(globals(), "charF_many", logged)
        w = SpectralWindow(0.1, 12.0, 0.05, 3.0)
        B = constant(4.0)   # sets the 16 samples per edge; F is the fake
        with pytest.raises(NumericalError, match="did not converge"):
            reference_phase_winding(reference_rect_points(w, B), B)
        rounds = len(calls)
        assert (rounds < spectrum._WINDING_ROUNDS) == capped
        calls.clear()
        with pytest.raises(NumericalError, match="did not converge"):
            winding_count(B, w)
        assert len(calls) == rounds


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

    def test_lockstep_runs_equal_single_runs(self, jet_log):
        # runs that stop, close and diverge at different steps share products
        rng = np.random.default_rng(31)
        box = AdmissibleBounds(1.0, 4.0)
        w = SpectralWindow(0.1, 12.0, 0.05, 3.0)
        for B in [random_bang_bang(box, rng, max_switches=7) for _ in range(4)] \
                + [GridStructure(tuple(rng.uniform(1, 4, 256)), box)]:
            roots = [ev.kappa for ev in locate(B, w)]
            starts = [z + complex(*rng.normal(0.0, 0.05, 2)) for z in roots]
            starts += [complex(rng.uniform(-12, 12), rng.uniform(0.05, 3))
                       for _ in range(6)] + [0j]
            leashes = rng.choice([1e-3, 0.3, math.inf], len(starts)).tolist()
            for tol in (1e-12, 1e-9, math.inf):
                jet_log.clear()
                got = spectrum._newton_lockstep(B, starts, tol, leashes)
                want = [reference_newton_refine(B, z, tol=tol, leash=r)
                        for z, r in zip(starts, leashes)]
                assert repr(got) == repr(want)
                # the first product takes every start
                assert jet_log[0] == len(starts) and len(jet_log) <= 61

    def test_zero_start_and_leash(self):
        # F'(0) = i int B = 4i: the first step lands on the axis at i/4
        B = constant(4.0)
        kappa = newton_refine(B, 0j)[0]
        assert kappa.real == 0.0 and abs(kappa.imag - LN3_4) < 1e-14
        assert repr(newton_refine(B, 0j)) == repr(reference_newton_refine(B, 0j))
        # the nearest root is 0.05 away; a 1e-3 leash is exceeded
        z0 = math.pi / 2 + 0.05 + 1j * LN3_4
        assert newton_refine(B, z0, leash=1e-3) is None
        assert newton_refine(B, z0)[0] == reference_newton_refine(B, z0)[0]


@pytest.fixture
def jet_log(monkeypatch):
    """The number of points of every product Newton takes: spectrum._jet,
    and spectrum.charF for a lone closing |F|."""
    log = []
    original, original_F = spectrum._jet, spectrum.charF

    def recorded(z, B, order):
        log.append(np.size(z))
        return original(z, B, order)

    def closing(z, B):
        log.append(1)
        return original_F(z, B)

    monkeypatch.setattr(spectrum, "_jet", recorded)
    monkeypatch.setattr(spectrum, "charF", closing)
    return log


@pytest.fixture
def closing_log(jet_log, monkeypatch):
    """The points at which Newton takes charF for a lone closing |F|; each
    is also one point of jet_log."""
    log = []
    logged = spectrum.charF

    def recorded(z, B):
        log.append(z)
        return logged(z, B)

    monkeypatch.setattr(spectrum, "charF", recorded)
    return log


class TestNewtonResidual:
    """A last step of a few ulps returns the point it started from, with the
    |F| its product already gave, and takes no closing product."""

    def test_residual_is_charF_without_a_sweep(self, jet_log, closing_log):
        rng = np.random.default_rng(7)
        box = AdmissibleBounds(1.0, 4.0)
        w = SpectralWindow(0.1, 12.0, 0.05, 3.0)
        media = [random_bang_bang(box, rng, max_switches=7) for _ in range(6)]
        starts = [(B, ev.kappa + 1e-3 * (1 + 1j))
                  for B in media for ev in locate(B, w)]
        jet_log.clear()
        closing_log.clear()
        iters = 0
        for B, z0 in starts:
            kappa, n, fz = newton_refine(B, z0)
            assert fz == abs(charF(kappa, B))
            iters += n
        assert len(starts) >= 20
        # one point a step; the rest closed a run with a charF of its own
        assert set(jet_log) == {1}
        assert 0 < len(closing_log) == len(jet_log) - iters <= len(starts) // 3


class TestGrowthFloor:
    """|F| grows like exp(|Im z| int sqrt B), so the collapse floor is taken
    with that growth divided out: on raw |F| these tall windows spanned more
    than 1e12 and raised ZeroOnContour with no zero near their contours."""

    @pytest.mark.parametrize("find", [winding_count, locate])
    @pytest.mark.parametrize("b, window", [
        (100.0, (0.1, 12.0, 0.05, 3.0)),
        (9.0, (0.1, 12.0, 0.05, 9.5)),
        (2500.0, (0.1, 2.0, 0.001, 0.5)),
    ])
    def test_tall_windows_count(self, find, b, window):
        w = SpectralWindow(*window)
        want = constant_spectrum(b, w)
        assert len(want) == (11 if b == 9.0 else 0)
        got = find(constant(b), w)
        if find is winding_count:
            assert got == len(want)
        else:
            assert [ev.multiplicity for ev in got] == [1] * len(want)
            assert max((abs(ev.kappa - z) for ev, z in zip(got, want)),
                       default=0.0) < 1e-10

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(log_b=st.floats(math.log(0.25), math.log(1e4)),
           re=st.floats(-20.0, 20.0), u=st.floats(-1.5, 1.5),
           log_h=st.floats(math.log(1e-3), math.log(2.0)))
    def test_square_counts_constant_zeros(self, log_b, re, u, log_h):
        # squares about the axis Im = axis_offset(b) of the zeros, many
        # reaching below the real axis
        b, h = math.exp(log_b), math.exp(log_h)
        assume(abs(b - 1.0) > 1e-3)
        off = axis_offset(b)
        c = complex(re, off + u * h)
        # sup-norm distances from c of the zeros in the square of half-side
        # 2 h; a zero within 1e-6 h of the square's edges may collapse |F|
        near = constant_spectrum(b, SpectralWindow(
            c.real - 2.0 * h, c.real + 2.0 * h, 0.5 * off, 2.0 * off))
        dist = [max(abs(z.real - c.real), abs(z.imag - c.imag)) for z in near]
        assume(all(abs(d - h) > 1e-6 * h for d in dist))
        edges = spectrum._square_edges(c, h)
        assert spectrum._counted(spectrum._walk(constant(b), edges)) \
            == sum(d < h for d in dist)


class TestNonFiniteContour:
    """F overflows on very tall windows; that is a numerical failure."""

    TALL = SpectralWindow(0.1, 12.0, 0.05, 400.0)

    def test_winding_count_raises(self):
        with pytest.raises(NumericalError, match="not finite"):
            winding_count(constant(4.0), self.TALL)

    def test_locate_raises_without_dilating(self, contour_log):
        with pytest.raises(NumericalError, match="not finite"):
            locate(constant(4.0), self.TALL)
        assert len(contour_log) == 1

    @pytest.mark.parametrize("find", [winding_count, locate])
    def test_overflow_raises_without_warning(self, find):
        # sin wL overflows on this window; charF_many returns inf or nan
        # and the walk's finiteness check raises, with no RuntimeWarning
        with pytest.raises(NumericalError, match="not finite"):
            find(constant(4.0), SpectralWindow(0.1, 5.0, 300.0, 420.0))

    @pytest.mark.parametrize("find", [winding_count, locate])
    @pytest.mark.parametrize("re_min, re_max", [(0.0, 1e10),
                                                (-1e308, 1e308)])
    def test_too_many_edge_samples_raise(self, find, re_min, re_max):
        # the optical length asks for more samples than a walk may hold
        with pytest.raises(NumericalError, match="400000 points"):
            find(constant(4.0), SpectralWindow(re_min, re_max, 0.05, 3.0))

    @pytest.mark.parametrize("radius", [math.nan, math.inf, -math.inf,
                                        0.0, -0.1])
    def test_multiplicity_radius(self, radius):
        with pytest.raises(InputError):
            multiplicity(constant(4.0), math.pi / 2 + 1j * LN3_4, radius)


class TestNegativeWinding:
    """F is entire and every contour is positively oriented, so a negative
    count means the phase walk aliased; it is refused, not returned.  Edges
    sampled by their optical length no longer alias these windows."""

    def test_constant_wide_window(self):
        # 16 points per edge alias the 25 zeros of this window to -1
        w = SpectralWindow(0.1, 40.0, 0.05, 3.0)
        want = constant_spectrum(4.0, w)
        assert len(want) == 25
        B = constant(4.0)
        assert reference_phase_winding(reference_rect_points(w), B) == -1
        assert winding_count(B, w) == 25
        got = locate(B, w)
        assert [ev.multiplicity for ev in got] == [1] * 25
        assert max(abs(ev.kappa - z) for ev, z in zip(got, want)) < 1e-10

    def test_random_bang_bang(self, box14):
        w = SpectralWindow(-30.0, 30.0, 0.05, 6.0)
        B = random_bang_bang(box14, np.random.default_rng(17))
        assert reference_phase_winding(reference_rect_points(w), B) == -1
        # the per-point loop on 256 points per edge counts 29
        assert winding_count(B, w) == 29
        assert sum(ev.multiplicity for ev in locate(B, w)) == 29

    def test_negative_count_refused(self, monkeypatch):
        # 1 / (z - c) winds once backwards around its pole c
        c = 6.0 + 1.5j
        monkeypatch.setattr(spectrum, "charF_many",
                            lambda zs, B: 1.0 / (np.asarray(zs) - c))
        with pytest.raises(NumericalError, match="negative winding"):
            winding_count(constant(4.0), SpectralWindow(0.1, 12.0, 0.05, 3.0))


# -- reference: locate by bisection alone ---------------------------------------

UNIT_CIRCLE = np.exp(1j * np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False))


def reference_locate_rec(B, w, count, tol, depth, found):
    """The recursion before moment starts: Newton from the centre of a
    window holding one zero, bisection of every other window.  A cluster is
    counted on a 64-point circle, by the per-point loop."""
    if count == 0:
        return
    if depth > spectrum._MAX_DEPTH:
        raise MaxDepthExceeded(f"cannot isolate {count} zeros near {w.center}")
    diam = math.hypot(*w.widths)
    if count == 1:
        res = newton_refine(B, w.center, tol=tol, leash=4.0 * diam + 1.0)
        if res is not None and w.contains(res[0], pad=1e-12):
            found.append(QuasiEigenvalue(res[0], 1, res[2], res[1]))
            return
    elif diam < 1e-5:
        res = newton_refine(B, w.center, tol=math.inf, leash=4.0 * diam + 1.0)
        if res is not None and w.contains(res[0], pad=diam):
            mult = reference_phase_winding(
                res[0] + (2.0 * diam + 1e-7) * UNIT_CIRCLE, B)
            if mult == count:
                found.append(QuasiEigenvalue(res[0], mult, res[2], res[1]))
                return
        raise MaxDepthExceeded(f"cluster of {count} zeros near {w.center}")
    for frac in (0.5, 0.5321, 0.4717, 0.5613):
        try:
            (wa, (ca, *_)), (wb, (cb, *_)) = spectrum._window_counts(
                B, spectrum._split(w, frac))
        except ZeroOnContour:
            continue
        if ca + cb == count:
            reference_locate_rec(B, wa, ca, tol, depth + 1, found)
            reference_locate_rec(B, wb, cb, tol, depth + 1, found)
            return
    raise NumericalError(f"child windings never matched parent near {w.center}")


def reference_locate(B, w, tol=1e-12):
    """locate with the bisection-only recursion: the zeros of the walked
    window, kept inside w, sorted, and sub-resolution clusters merged."""
    (walked, (total, *_)), = spectrum._window_counts(B, [w])
    found = []
    reference_locate_rec(B, walked, total, tol, 0, found)
    found = sorted((ev for ev in found if w.contains(ev.kappa, pad=1e-9)),
                   key=lambda ev: (ev.kappa.real, ev.kappa.imag))
    out = []
    for ev in found:
        if out and abs(ev.kappa - out[-1].kappa) < 1e-6 * (1.0 + abs(ev.kappa)):
            prev = out[-1]
            best = ev if ev.residual < prev.residual else prev
            out[-1] = QuasiEigenvalue(best.kappa,
                                      prev.multiplicity + ev.multiplicity,
                                      best.residual,
                                      max(prev.newton_iters, ev.newton_iters))
        else:
            out.append(ev)
    return out


@st.composite
def layered_media(draw):
    k = draw(st.integers(2, 8))
    cuts = draw(st.lists(st.floats(0.02, 0.98), min_size=k - 1,
                         max_size=k - 1, unique=True))
    values = draw(st.lists(st.floats(0.3, 9.0), min_size=k, max_size=k))
    return PiecewiseStructure((0.0, *sorted(cuts), 1.0), tuple(values),
                              AdmissibleBounds(0.3, 9.0))


@st.composite
def windows(draw):
    re_min, im_min = draw(st.floats(-12.0, 8.0)), draw(st.floats(0.02, 0.3))
    return SpectralWindow(re_min, re_min + draw(st.floats(2.0, 12.0)),
                          im_min, im_min + draw(st.floats(0.5, 3.0)))


class TestCubicWeights:
    """The fourth-order rule behind the moment sums, on uneven samples."""

    @staticmethod
    def refined_edges():
        # two edges, end to end, of 16 segments each; midpoint refinement
        # halves some segments, and one of those halves again
        pts, starts = spectrum._edge_points(
            np.array([[0.3 + 0.2j, 4.0 + 0.2j], [4.0 + 0.2j, 4.0 + 2.5j]]), 1.0)
        for i in ([0, 5, 6, 15, 17, 31], [7, 25]):
            i = np.array(i)
            pts = np.insert(pts, i + 1, 0.5 * (pts[i] + pts[i + 1]))
            starts = starts + np.searchsorted(i, starts)
        return pts, starts

    def test_cubics_exact(self):
        pts, starts = self.refined_edges()
        assert len(np.unique(np.round(np.abs(np.diff(pts)), 12))) >= 4
        w = spectrum._cubic_weights(pts, starts)
        ends = pts[np.append(starts[1:] - 1, len(pts) - 1)]
        rng = np.random.default_rng(3)
        for _ in range(5):
            c = rng.normal(size=4) + 1j * rng.normal(size=4)
            cubic = np.polynomial.Polynomial(c)
            prim = cubic.integ()
            got = np.add.reduceat(w * cubic(pts), starts)
            want = prim(ends) - prim(pts[starts])
            assert np.abs(got - want).max() < 1e-12 * np.abs(want).max()

    def test_fourth_order(self):
        # halving every segment cuts the error on exp(z) about 16 times
        errs = []
        for k in (0, 1, 2):
            pts, starts = self.refined_edges()
            for _ in range(k):
                i = np.setdiff1d(np.arange(len(pts) - 1), starts[1:] - 1)
                pts = np.insert(pts, i + 1, 0.5 * (pts[i] + pts[i + 1]))
                starts = starts + np.searchsorted(i, starts)
            w = spectrum._cubic_weights(pts, starts)
            got = np.add.reduceat(w * np.exp(pts), starts)
            ends = pts[np.append(starts[1:] - 1, len(pts) - 1)]
            errs.append(np.abs(got - (np.exp(ends) - np.exp(pts[starts]))).max())
        assert 12.0 < errs[0] / errs[1] < 20.0
        assert 12.0 < errs[1] / errs[2] < 20.0


def grid256_media():
    """Eight random 256-cell grid media in box (1, 4), whose golden windows
    hold five or six zeros each."""
    rng = np.random.default_rng(256)
    box = AdmissibleBounds(1.0, 4.0)
    return [GridStructure(tuple(rng.uniform(1.0, 4.0, 256)), box)
            for _ in range(8)]


def constant_windows(b):
    """(zeros, window, walk) for windows around the first n = 1..8 zeros of
    constant(b), or the n after the first, with margins of 0.2-0.45 of the
    zeros' spacing."""
    B = constant(b)
    zs = constant_spectrum(b, SpectralWindow(0.1, 80.0, 0.05, 3.0))
    step = math.pi / math.sqrt(b)
    for n in range(1, 9):
        for first, left in ((0, 0.3), (1, 0.2)):
            group = zs[first:first + n]
            im = group[0].imag
            w = SpectralWindow(group[0].real - left * step,
                               group[-1].real + 0.45 * step,
                               0.4 * im, im + 0.35 * step)
            walk = spectrum._walk(B, spectrum._rect_edges(w))
            assert walk[0] == n
            yield group, w, walk


class TestMomentStarts:
    """Newton starts from the contour moments of log F: the roots of a
    window holding up to eight zeros, without bisecting it."""

    @pytest.mark.parametrize("b", [0.25, 4.0, 9.0])
    def test_starts_near_constant_zeros(self, b):
        # the trapezoid sums put the worst start at 0.26 r (n = 8, b = 0.25)
        for group, w, walk in constant_windows(b):
            starts = spectrum._moment_starts(w, walk)
            r = 0.5 * math.hypot(*w.widths)
            assert len(starts) == len(group)
            for z in group:
                assert min(abs(z - s) for s in starts) < 0.1 * r

    @pytest.mark.parametrize("b", [0.25, 4.0, 9.0])
    def test_power_sums_match_closed_form(self, b):
        # the quadrature's own error: per-edge sums re-expanded about the
        # corners missed by at most 0.0918 (b = 9, n = 7)
        for group, w, walk in constant_windows(b):
            c, r = w.center, 0.5 * math.hypot(*w.widths)
            p = np.arange(1, len(group) + 1)
            want = [sum(((z - c) / r) ** k for z in group) for k in p]
            assert np.abs(spectrum._power_sums(w, walk) - want).max() < 0.184

    def test_triple_root_window(self, triple_fixture, jet_log):
        # bisection never matched the children's counts to the parent's 3
        B, kappa, why = triple_fixture
        assert why is None
        w = SpectralWindow(kappa.real - 0.3, kappa.real + 0.3,
                           kappa.imag - 0.3, kappa.imag + 0.3)
        with pytest.raises(NumericalError, match="never matched"):
            reference_locate(B, w)
        jet_log.clear()
        evs = locate(B, w)
        assert sum(ev.multiplicity for ev in evs) == 3 == winding_count(B, w)
        for ev in evs:
            assert abs(ev.kappa - kappa) < 1e-4
            assert abs(charF(ev.kappa, B)) < 1e-12
        # Newton converges linearly at a triple zero: two of the three runs
        # take all 60 steps, in lockstep, and one product closes them
        assert max(ev.newton_iters for ev in evs) == 60
        assert len(jet_log) <= 61 < 2 * 60 < sum(jet_log)

    def test_failed_starts_fall_back_to_split(self, monkeypatch):
        # both starts lead Newton to the first zero, so the window is split
        B = constant(4.0)
        w = SpectralWindow(1.0, 4.0, 0.05, 1.0)
        want = constant_spectrum(4.0, w)
        assert len(want) == 2
        original = spectrum._moment_starts

        def same_zero(v, walk):
            if walk[0] == 2:
                return [want[0] + 1e-3, want[0] - 1e-3j]
            return original(v, walk)

        monkeypatch.setattr(spectrum, "_moment_starts", same_zero)
        got = locate(B, w)
        assert [ev.multiplicity for ev in got] == [1, 1]
        assert max(abs(ev.kappa - z) for ev, z in zip(got, want)) < 1e-10

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(B=layered_media(), w=windows())
    def test_agrees_with_bisection(self, B, w):
        try:
            want = reference_locate(B, w)
        except QnmOptError:
            assume(False)
        got = locate(B, w)
        # matched by distance: zeros on the imaginary axis sort by the sign
        # of a Re kappa of 1e-19 or so
        assert len(got) == len(want)
        for ev in got:
            near = min(want, key=lambda v: abs(v.kappa - ev.kappa))
            assert abs(near.kappa - ev.kappa) < 1e-10
            assert near.multiplicity == ev.multiplicity

    def test_newton_sweeps_per_root(self, jet_log):
        # a guard on the work: from window centres these media take 6.4
        # swept points per root
        w = SpectralWindow(0.1, 12.0, 0.05, 3.0)
        roots = sum(ev.multiplicity for B in grid256_media()
                    for ev in locate(B, w))
        assert roots >= 40
        assert sum(jet_log) <= 4.5 * roots

    def test_grid_windows_are_not_split(self, monkeypatch):
        # with four moments every one of these windows was bisected once
        calls = []
        original = spectrum._bisect

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(spectrum, "_bisect", counted)
        w = SpectralWindow(0.1, 12.0, 0.05, 3.0)
        counts = [sum(ev.multiplicity for ev in locate(B, w))
                  for B in grid256_media()]
        assert min(counts) >= 5
        assert calls == []

    def test_products_per_bang_bang_locate(self, jet_log, closing_log):
        # a guard on the lockstep: one start at a time takes a product per
        # swept point, about 4.9 per root on these media
        rng = np.random.default_rng(5)
        box = AdmissibleBounds(1.0, 4.0)
        w = SpectralWindow(0.1, 12.0, 0.05, 3.0)
        roots = sum(ev.multiplicity for _ in range(20) for ev in
                    locate(random_bang_bang(box, rng, max_switches=7), w))
        assert roots >= 80
        assert len(jet_log) <= 2 * roots
        assert 3 * len(jet_log) <= sum(jet_log)
        # a closing |F| left on its own is one charF, as in newton_refine
        assert 0 < len(closing_log) < len(jet_log) // 4


# -- the error contract ---------------------------------------------------------

_WIDE = AdmissibleBounds(0.0, 1e4)
_REALS = [0.0, 1e-300, 0.7, 3.0, -12.0, 50.0, 1e6, -1e300, 1e308, math.inf,
          -math.inf, math.nan]
_IMAGS = [5e-324, 1e-9, 0.05, 0.4, 1.5, 6.0, 80.0, 1e3, 1e300, 1.7e308,
          math.inf, math.nan, -0.5]
_SIZES = [0.0, 5e-324, 1e-12, 1e-6, 0.01, 0.3, 2.0, 1e3, 1e300, math.inf,
          math.nan]


@st.composite
def contract_media(draw):
    values = draw(st.lists(st.sampled_from([0.0, 1e-300, 0.25, 1.0, 4.0, 9.0,
                                            100.0, 1e4])
                           | st.floats(0.0, 1e4), min_size=1, max_size=8))
    if draw(st.booleans()):
        return GridStructure(tuple(values), _WIDE)
    cuts = draw(st.lists(st.floats(1e-9, 1.0 - 1e-9), min_size=len(values) - 1,
                         max_size=len(values) - 1, unique=True))
    return PiecewiseStructure((0.0, *sorted(cuts), 1.0), tuple(values), _WIDE)


def _point(draw):
    return complex(draw(st.sampled_from(_REALS) | st.floats(-20.0, 20.0)),
                   draw(st.sampled_from(_IMAGS) | st.floats(0.0, 10.0)))


_NOT_NUMBERS = ["x", None, [1.0]]


class TestErrorContract:
    """Every public entry point of spectrum ends in a result or a QnmOptError
    on grid and piecewise media with 0 <= B <= 1e4, windows and points
    anywhere in the plane (far up it F overflows), sizes from 0 to infinite
    and arguments that are not numbers; no other exception and no
    RuntimeWarning escapes."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(B=contract_media(), data=st.data())
    def test_only_qnmopt_errors_escape(self, B, data):
        draw = data.draw
        corner = _point(draw)
        w_size = [draw(st.sampled_from(_SIZES)) for _ in range(2)]
        # one point in eight and one window in four hold a non-number
        z0 = _point(draw) if draw(st.integers(0, 7)) \
            else draw(st.sampled_from(_NOT_NUMBERS))
        radius = draw(st.sampled_from(_SIZES + [-1.0] + _NOT_NUMBERS))
        leash = draw(st.sampled_from([0.0, 1e-3, 1.0, math.inf, math.nan]
                                     + _NOT_NUMBERS))
        tol = draw(st.sampled_from([1e-12, 1e-3, 0.0, math.inf]
                                   + _NOT_NUMBERS))
        zs = [_point(draw) for _ in range(draw(st.integers(0, 4)))]
        b = draw(st.sampled_from([0.0, 1e-300, 0.25, 1.0, 4.0, 1e300,
                                  math.inf, -1.0, math.nan, True]
                                 + _NOT_NUMBERS))
        sides = [corner.real, corner.real + w_size[0], corner.imag,
                 corner.imag + w_size[1]]
        side = draw(st.integers(0, 15))
        if side < 4:
            sides[side] = draw(st.sampled_from(_NOT_NUMBERS + [1j, True]))

        calls = [lambda: multiplicity(B, z0, radius),
                 lambda: newton_refine(B, z0, tol=tol, leash=leash),
                 lambda: charF_many(np.array(zs, dtype=complex), B),
                 lambda: axis_offset(b)]
        try:
            w = SpectralWindow(*sides)
        except QnmOptError:         # the window itself was refused
            pass
        else:
            calls += [lambda: winding_count(B, w),
                      lambda: locate(B, w, tol=tol),
                      lambda: constant_spectrum(b, w)]
        for call in calls:
            try:
                call()
            except QnmOptError:
                pass

    @pytest.mark.parametrize("call", [
        lambda: axis_offset(-1.0),
        lambda: axis_offset(math.nan),
        lambda: constant_spectrum("4", SpectralWindow(0.1, 5.0, 0.1, 1.0)),
        lambda: multiplicity(constant(4.0), "x", 0.1),
        lambda: multiplicity(constant(4.0), 1.0 + 0.3j, None),
        lambda: newton_refine(constant(4.0), "x"),
        lambda: newton_refine(constant(4.0), 1.0 + 0.3j, tol="1e-12"),
        lambda: newton_refine(constant(4.0), 1.0 + 0.3j, leash=None),
        lambda: SpectralWindow(0.1, "5", 0.1, 1.0),
        lambda: locate(constant(4.0), (0, 1, 0.1, 1)),
        lambda: winding_count(constant(4.0), (0, 1, 0.1, 1)),
        lambda: constant_spectrum(0.0, (0, 1, 0.1, 1))],
        ids=["axis_offset-negative", "axis_offset-nan",
             "constant_spectrum-str", "multiplicity-kappa0",
             "multiplicity-radius", "newton-z0", "newton-tol",
             "newton-leash", "window-str", "locate-tuple",
             "winding_count-tuple", "constant_spectrum-tuple"])
    def test_found_escapes(self, call):
        # each raised ValueError, TypeError or AttributeError, or returned
        # nan (axis_offset) or [] (constant_spectrum of b = 0 on a tuple)
        with pytest.raises(InputError):
            call()

    @pytest.mark.parametrize("tol", [0.0, -1e-3, -math.inf, math.nan,
                                     "1e-12", None, True, 1e-12j])
    def test_locate_needs_a_positive_tol(self, tol):
        with pytest.raises(InputError, match="tol must be a positive number"):
            locate(constant(4.0), SpectralWindow(0.1, 5.0, 0.1, 1.0), tol=tol)

    def test_locate_takes_an_infinite_tol(self):
        w = SpectralWindow(0.1, 5.0, 0.1, 1.0)
        assert len(locate(constant(4.0), w, tol=math.inf)) \
            == len(constant_spectrum(4.0, w))

    @pytest.mark.parametrize("bounds", [(0.0, math.inf, 0.05, 3.0),
                                        (0.0, 1.0, 0.05, math.inf),
                                        (-math.inf, 1.0, 0.05, 3.0)])
    def test_infinite_window_refused(self, bounds):
        # its edge samples were inf - inf: a RuntimeWarning, then a bogus
        # "more than 400000 points"
        with pytest.raises(InputError, match="finite"):
            SpectralWindow(*bounds)

    @pytest.mark.parametrize("kappa0, radius", [(1j, 1000.0),
                                                (1.7e308j, 5e-324)])
    def test_overflowing_squares_raise(self, kappa0, radius):
        # F, its ratios or its growth overflowed with a RuntimeWarning
        B = PiecewiseStructure((0.0, 0.3125, 1.0), (0.0, 4.0), _WIDE)
        with pytest.raises(NumericalError, match="not finite"):
            multiplicity(B, kappa0, radius)

    @pytest.mark.parametrize("kappa0", [complex(math.nan, 1.0),
                                        complex(1.0, math.inf)])
    def test_multiplicity_needs_finite_centre(self, kappa0):
        with pytest.raises(InputError, match="finite"):
            multiplicity(constant(4.0), kappa0, 0.1)

    @pytest.mark.parametrize("z0", [10.0 + 800.0j, 3.0 + 1e300j,
                                    complex(math.nan, 1.0)])
    def test_newton_beyond_the_float_range_diverges(self, z0, jet_log):
        # the products overflowed with a RuntimeWarning and Newton stepped on
        # through nan for all 60 steps
        assert newton_refine(constant(4.0), z0) is None
        assert len(jet_log) == 1


class TestNewtonAbsoluteStop:
    """A high-contrast two-layer medium whose zero Newton reaches at the
    rounding floor of F: |F| grows like exp(Im z int sqrt B), about 1e4
    here, so the run stays at |F| = 1.8e-12 and never meets tol = 1e-12,
    and the window used to be bisected to the depth cap.  23 of the 362
    media (x in linspace(0.05, 0.95, 181), both value orders) failed the
    same way.  Newton stops once it has converged to rounding and reports
    the |F| it stopped at."""

    MEDIUM = PiecewiseStructure((0.0, 0.605, 1.0), (25.5, 0.5),
                                AdmissibleBounds(0.5, 25.5))
    WINDOW = SpectralWindow(19.81, 28.93, 1.79, 5.61)

    def test_found_at_a_looser_tol(self):
        (ev,) = locate(self.MEDIUM, self.WINDOW, tol=1e-10)
        assert abs(ev.kappa - (22.4956097472 + 2.6509144072j)) < 1e-9
        assert 1e-12 < abs(charF(ev.kappa, self.MEDIUM)) < 1e-11

    def test_found_at_the_rounding_floor(self):
        (ev,) = locate(self.MEDIUM, self.WINDOW, tol=1e-12)
        assert abs(ev.kappa - (22.4956097472 + 2.6509144072j)) < 1e-9
        assert ev.residual == abs(charF(ev.kappa, self.MEDIUM)) > 1e-12

    # the switch positions x = linspace(0.05, 0.95, 181)[i] that raised
    @pytest.mark.parametrize("i", [105, 106, 108, 111, 112, 113, 114, 115,
                                   117, 119, 121, 122, 123, 124, 126, 127,
                                   128, 146, 147, 148, 150, 151, 152])
    def test_sweep_media_that_failed(self, i):
        x = np.linspace(0.05, 0.95, 181)[i]
        B = PiecewiseStructure((0.0, x, 1.0), (25.5, 0.5),
                               AdmissibleBounds(0.5, 25.5))
        evs = locate(B, self.WINDOW, tol=1e-12)
        assert sum(ev.multiplicity for ev in evs) == \
            winding_count(B, self.WINDOW)
        loose = locate(B, self.WINDOW, tol=1e-10)
        assert len(evs) == len(loose)
        assert all(abs(a.kappa - b.kappa) < 1e-9 for a, b in zip(evs, loose))
