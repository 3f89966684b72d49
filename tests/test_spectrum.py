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
    # windows wide or tall enough that 16 points per edge need 3-5 rounds
    return [(constant(4.0), SpectralWindow(-30.0, 30.0, 0.05, 6.0)),
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
        for w in wins:
            with pytest.raises(_Stop):
                winding_count(constant(4.0), w)
            edges = seen.pop().reshape(4, 17)
            assert _bits(edges[:, :16].ravel()) \
                == _bits(reference_rect_points(w))
            assert _bits(edges[:, 16].copy()) == _bits(np.roll(w.corners(), -1))

    def test_refinement_rounds_equal(self, contour_log):
        for B, w in _contour_media():
            ref = reference_phase_winding(reference_rect_points(w), B)
            ref_log = list(contour_log)
            contour_log.clear()
            assert winding_count(B, w) == ref
            assert len(contour_log) == len(ref_log) >= 3
            # every final point once, and the 4 corners as both edge ends
            assert _multiset(*contour_log) \
                == _multiset(ref_log[-1], w.corners())
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
            assert len(contour_log) == len(ref_log)
            # every final point once, the closing point twice
            assert _multiset(*contour_log) \
                == _multiset(ref_log[-1], ref_log[0][:1])
            contour_log.clear()
        assert counts[:2] == [2, 2]


def _edge_interior(a, b):
    """The 15 sampled points of edge (a, b) strictly between its corners."""
    return a + np.arange(1, 16) / 16 * (b - a)


class TestEdgeReuse:
    """Within one locate call an edge with the same corners is walked once."""

    def test_halves_reuse_parent_and_shared_edges(self, contour_log):
        box = AdmissibleBounds(1.0, 4.0)
        bb = random_bang_bang(box, np.random.default_rng(3), max_switches=7)
        grid = GridStructure(tuple(np.random.default_rng(7).uniform(1, 4, 256)),
                             box)
        for B, w in [(bb, SpectralWindow(0.1, 12.0, 0.05, 3.0)),
                     (grid, SpectralWindow(0.1, 12.0, 0.05, 3.0)),
                     (bb, SpectralWindow(0.1, 2.0, 0.05, 8.0))]:
            done = {}
            count = spectrum._walk(B, [spectrum._rect_edges(w)], done)[0]
            contour_log.clear()
            # the parent again: all four edges from done
            assert spectrum._walk(B, [spectrum._rect_edges(w)], done) \
                == [count]
            assert contour_log == []
            halves = spectrum._halves(B, w, 0.5, done)
            new = np.concatenate(contour_log)
            rounds = len(contour_log)
            a, b = spectrum._split(w, 0.5)
            assert [h for _, h in halves] == [a, b]
            # each half walked alone, without the cache, gives the same count
            alone = []
            for h in (a, b):
                contour_log.clear()
                alone.append((winding_count(B, h), len(contour_log)))
            assert [n for n, _ in halves] == [n for n, _ in alone]
            assert sum(n for n, _ in alone) == count
            # both halves share each round's call
            assert rounds <= max(r for _, r in alone)
            parent = spectrum._rect_edges(w)
            ea, eb = spectrum._rect_edges(a), spectrum._rect_edges(b)
            shared = [e for e in ea if e[::-1] in eb]
            cut = [e for e in ea + eb if e not in parent + shared
                   and e[::-1] not in shared]
            assert len(shared) == 1 and len(cut) == 4
            got = _multiset(new)
            # the parent's two uncut edges: none of their inner points
            for p, q in parent:
                if (p, q) in ea + eb:
                    inner = _multiset(_edge_interior(p, q))
                    assert not set(inner) & set(got)
            # the shared edge: each sampled point once
            (p, q), = shared
            inner = _multiset(_edge_interior(p, q))
            assert all(got.count(z) == 1 for z in inner)
            # the four half-edges: their 15 inner samples taken anew
            for p, q in cut:
                assert set(_multiset(_edge_interior(p, q))) <= set(got)

    def test_sibling_reuses_edge_reversed(self, contour_log):
        B = random_bang_bang(AdmissibleBounds(1.0, 4.0),
                             np.random.default_rng(3), max_switches=7)
        a, b = spectrum._split(SpectralWindow(0.1, 12.0, 0.05, 3.0), 0.5)
        done = {}
        ca = spectrum._walk(B, [spectrum._rect_edges(a)], done)[0]
        contour_log.clear()
        cb = spectrum._walk(B, [spectrum._rect_edges(b)], done)[0]
        calls = list(contour_log)
        assert (ca, cb) == (winding_count(B, a), winding_count(B, b))
        # b's left edge is a's right edge walked backwards, from done
        (p, q), = [e for e in spectrum._rect_edges(b)
                   if e[::-1] in spectrum._rect_edges(a)]
        assert (q, p) in done and (p, q) not in done
        assert len(calls[0]) == 3 * 17
        got = set(_multiset(*calls))
        assert not set(_multiset(_edge_interior(p, q))) & got

    def test_only_the_grazing_half_dilates(self, contour_log):
        # the middle sample of the left edge of the parent, and of its left
        # half only, lands on the root pi/2 + i ln3/4 of B = 4; the right
        # half needs a second round
        B = constant(4.0)
        w = SpectralWindow(math.pi / 2, 20.0, LN3_4 - 0.2, LN3_4 + 0.2)
        a, b = spectrum._split(w, 0.5)
        with pytest.raises(ZeroOnContour):
            reference_phase_winding(reference_rect_points(a), B)
        failed = contour_log[-1]
        contour_log.clear()
        done = {}
        (ca, wa), (cb, wb) = spectrum._halves(B, w, 0.5, done)
        calls = list(contour_log)
        assert wa == a.dilated(1.004) and wb == b
        # of the grazing half's edges only the one b finished is kept
        ea = spectrum._rect_edges(a)
        assert [e for e in ea if e in done] \
            == [e for e in ea if e[::-1] in spectrum._rect_edges(b)]
        assert (ca, cb) == (6, 6) == (winding_count(B, wa), winding_count(B, b))
        assert (ca, cb) == (len(constant_spectrum(4.0, wa)),
                            len(constant_spectrum(4.0, b)))
        # the first call holds both halves, their shared edge once; the
        # retry walks the dilated left half alone
        assert len(calls[0]) == 7 * 17
        retry = [len(z) for z in calls].index(4 * 17, 1)
        # the grazing edge is refined as far as the loop got, no further
        batch = np.concatenate(calls[:retry])
        on_edge = [z[(z.real == w.re_min) & (z.imag > w.im_min)
                     & (z.imag < w.im_max)] for z in (batch, failed)]
        assert _multiset(on_edge[0]) == _multiset(on_edge[1])
        later = np.concatenate(calls[retry:])
        assert np.all((later.real >= wa.re_min) & (later.real <= wa.re_max))
        assert np.any(later.real == wa.re_max)

    @pytest.mark.parametrize("which", [0, 1])
    def test_nan_on_third_edge_raises(self, monkeypatch, which):
        B = constant(4.0)
        w = SpectralWindow(0.1, 12.0, 0.05, 3.0)
        a, b = spectrum._split(w, 0.5)
        h = (a, b)[which]
        p, q = spectrum._rect_edges(h)[2]
        bad = p + 8 / 16 * (q - p)
        original = spectrum.charF_many

        def planted(zs, B):
            out = original(zs, B)
            out[zs == bad] = math.nan
            return out

        monkeypatch.setattr(spectrum, "charF_many", planted)
        with pytest.raises(NumericalError, match="not finite"):
            spectrum._halves(B, w, 0.5, {})
        with pytest.raises(NumericalError, match="not finite"):
            winding_count(B, h)
        assert winding_count(B, (b, a)[which]) >= 0


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
        with pytest.raises(NumericalError, match="did not converge"):
            reference_phase_winding(reference_rect_points(w), None)
        rounds = len(calls)
        assert (rounds < spectrum._WINDING_ROUNDS) == capped
        calls.clear()
        with pytest.raises(NumericalError, match="did not converge"):
            winding_count(None, w)
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


class TestNegativeWinding:
    """F is entire and every contour is positively oriented, so a negative
    count means the phase walk aliased; it is refused, not returned."""

    def test_constant_wide_window(self):
        # 16 points per edge alias the 25 zeros of this window to -1
        w = SpectralWindow(0.1, 40.0, 0.05, 3.0)
        assert len(constant_spectrum(4.0, w)) == 25
        B = constant(4.0)
        assert reference_phase_winding(reference_rect_points(w), B) == -1
        with pytest.raises(NumericalError, match="negative winding"):
            winding_count(B, w)
        with pytest.raises(NumericalError):
            locate(B, w)

    def test_random_bang_bang(self, box14):
        w = SpectralWindow(-30.0, 30.0, 0.05, 6.0)
        B = random_bang_bang(box14, np.random.default_rng(17))
        assert reference_phase_winding(reference_rect_points(w), B) == -1
        with pytest.raises(NumericalError, match="negative winding"):
            winding_count(B, w)
