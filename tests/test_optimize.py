import inspect
import math
import time
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qnmopt.certificate import switch_alignment
from qnmopt.errors import (InfeasibleError, InputError, LostEigenvalue,
                           QnmOptError, StalledDirection, ZeroFrequency)
from qnmopt.field import charF_many
from qnmopt.medium import (AdmissibleBounds, GridStructure, PiecewiseStructure,
                           constant, random_bang_bang, to_grid)
from qnmopt.optimize import (_TOL_FREQ, _TOL_GRAD, OptimizeConfig,
                             _drop_thin_layers, _lp_direction, _track,
                             best_constant_seed, constant_upper_bound,
                             minimize_im_at_frequency, step_direction, sweep_I)
from qnmopt.sensitivity import GradientDensity, eigenvalue_gradient
from qnmopt.spectrum import SpectralWindow, axis_offset, locate, newton_refine

from conftest import LN3_4


class TestSeeding:
    def test_constant_upper_bound_at_pi(self, box14):
        # only b = 4 resonates exactly at pi inside [1, 4]
        assert abs(constant_upper_bound(math.pi, box14) - LN3_4) < 1e-14
        b, k = best_constant_seed(math.pi, box14)
        assert b == 4.0 and abs(k - (math.pi + 1j * LN3_4)) < 1e-14

    def test_infeasible_box(self):
        with pytest.raises(InfeasibleError):
            best_constant_seed(0.0, AdmissibleBounds(0.2, 0.9))

    def test_tiny_frequency_is_infeasible(self, box14):
        # pi n / alpha overflows when squared; no constant medium resonates
        with pytest.raises(InfeasibleError):
            best_constant_seed(1e-300, box14)

    @pytest.mark.parametrize("alpha,b1", [(1e12, 1.0), (1e300, 1.0),
                                          (1e200, 0.0)])
    def test_huge_frequency_is_fast(self, alpha, b1):
        # walking n one by one took 1 s at alpha = 1e6 and never ended at
        # 1e300; with b1 = 0 its first b, (pi / 2e200)^2, underflowed to 0
        bounds = AdmissibleBounds(b1, 4.0)

        def timed():
            t0 = time.perf_counter()
            b, kappa = best_constant_seed(alpha, bounds)
            return time.perf_counter() - t0, b, kappa
        elapsed, b, kappa = min(timed() for _ in range(3))
        assert elapsed < 0.01
        assert 4.0 - 1e-10 < b <= 4.0 and kappa.real == alpha
        assert kappa.imag == constant_upper_bound(alpha, bounds)

    def test_largest_frequencies_seed(self, box14):
        # pi (n + shift) overflowed before the ratio reached sqrt(b2), so no
        # candidate was found and the seed raised InfeasibleError
        for alpha in (1.7e308, -1.7e308, float(np.finfo(float).max)):
            b, kappa = best_constant_seed(alpha, box14)
            assert 1.0 <= b <= 4.0 and kappa.real == alpha
            assert kappa.imag == axis_offset(b)

    @pytest.mark.parametrize("alpha", [math.inf, -math.inf, math.nan,
                                       10 ** 400, "x", None])
    def test_nonfinite_frequency_rejected(self, box14, alpha):
        # 10 ** 400 raised OverflowError, "x" and None TypeError
        with pytest.raises(InputError):
            best_constant_seed(alpha, box14)
        with pytest.raises(InputError):
            constant_upper_bound(alpha, box14)

    def test_closed_form_equals_enumeration(self):
        rng = np.random.default_rng(11)
        draws = 0
        for _ in range(400):
            b1 = float(rng.choice([0.0, 0.25, 1.0, rng.uniform(0.0, 3.0)]))
            b2 = b1 + float(rng.choice([1.0, 3.0, rng.uniform(0.01, 20.0)]))
            s = math.sqrt(b2)
            alpha = float(rng.choice([
                rng.uniform(-60.0, 60.0), math.exp(rng.uniform(-5.0, 8.0)),
                # exactly on the upper bound, where the 1e-12 pads decide
                math.pi * rng.integers(1, 20) / s,
                math.pi * (rng.integers(0, 20) + 0.5) / s]))
            bounds = AdmissibleBounds(b1, b2)
            want = reference_constant_candidates(alpha, bounds)
            if want:
                assert repr(best_constant_seed(alpha, bounds)) \
                    == repr(min(want, key=lambda t: t[1].imag))
                assert repr(constant_upper_bound(alpha, bounds)) \
                    == repr(min(k.imag for _, k in want))
                draws += 1
            else:
                with pytest.raises(InfeasibleError):
                    best_constant_seed(alpha, bounds)
                assert constant_upper_bound(alpha, bounds) == math.inf
        assert draws > 300


def reference_constant_candidates(alpha, bounds):
    """Every constant medium with an eigenvalue at Re kappa = alpha, found by
    walking n = 0, 1, 2, ... (the closed form picks the best of these)."""
    if alpha == 0.0:
        bs = [bounds.b2] if bounds.b2 > 1.0 else []
        return [(b, complex(0.0, axis_offset(b))) for b in bs]
    out = []
    a = abs(alpha)
    r_max = math.sqrt(bounds.b2 + 1e-12)
    for shift in (0.0, 0.5):
        n = 1 if shift == 0.0 else 0
        while True:
            r = math.pi * (n + shift) / a
            n += 1
            if r > r_max:
                break
            b = r ** 2
            if b < bounds.b1 - 1e-12 or abs(b - 1.0) < 1e-9:
                continue
            if (shift == 0.0) != (b > 1.0):
                continue
            b = min(max(b, bounds.b1), bounds.b2)
            out.append((b, complex(alpha, axis_offset(b))))
    return out


class TestStepDirection:
    def test_orthogonal_interior(self, box14):
        # Re-neutral needs d1 = d2, and -Im g < 0 sends both cells to b1
        g = GradientDensity(1 + 1j, (1.0 + 1.0j, -1.0 + 1.0j), 1.0)
        B = GridStructure((2.0, 2.0), box14)
        d = step_direction(g, B, box14)
        assert np.allclose(d, [-1.0, -1.0])

    def test_blocked_at_upper_bound(self, box14):
        # -Im g > 0 everywhere but B = b2: no feasible descent
        g = GradientDensity(1 + 1j, (0.0 - 1.0j, 0.0 - 2.0j), 1.0)
        B = GridStructure((4.0, 4.0), box14)
        with pytest.raises(StalledDirection):
            step_direction(g, B, box14)

    def test_generic_contracts(self, box14, random_structures):
        from qnmopt.spectrum import newton_refine
        w = SpectralWindow(0.5, 6.0, 0.05, 2.0)
        B_pc = random_structures[0]
        ev = locate(B_pc, w)[0]
        n = 48
        B = to_grid(B_pc, n)  # cell averages shift the root slightly
        kappa = newton_refine(B, ev.kappa, tol=1e-12, leash=0.3)[0]
        g = eigenvalue_gradient(B, kappa)
        d = step_direction(g, B, box14)
        ga = g.g
        assert abs(float(np.dot(ga.real, d)) / n) < 1e-10
        assert float(np.dot(ga.imag, d)) / n < 0.0
        # B + d is the box vertex: bang-bang but for one marginal cell
        after = B.values + d
        assert np.all(after >= box14.b1 - 1e-12)
        assert np.all(after <= box14.b2 + 1e-12)
        off = (after > box14.b1 + 1e-12) & (after < box14.b2 - 1e-12)
        assert np.count_nonzero(off) <= 1


def reference_lp_direction(obj, con, vals, bounds):
    """The bisection that `_lp_direction` replaced, kept as a reference, over
    each cell's true room [b1 - vals, b2 - vals]."""
    u, l = bounds.b2 - vals, bounds.b1 - vals

    def d_of(nu: float) -> np.ndarray:
        return np.where(obj - nu * con > 0.0, u, l)

    def h(nu: float) -> float:
        return float(np.dot(con, d_of(nu)))

    lo, hi = -1e12, 1e12
    if h(lo) < 0.0 or h(hi) > 0.0:
        return d_of(0.0)  # constraint response ~ 0 for every sign pattern
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if h(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    d = d_of(hi)
    resid = float(np.dot(con, d))
    if resid != 0.0:
        # make the marginal cell fractional to cancel the constraint response
        score = np.abs(obj - hi * con)
        for m in np.argsort(score)[:8]:
            if con[m] == 0.0 or u[m] <= l[m]:
                continue
            dm = d[m] - resid / con[m]
            if l[m] - 1e-12 <= dm <= u[m] + 1e-12:
                d[m] = min(max(dm, l[m]), u[m])
                break
    return d


def assert_lp_optimal(obj, con, vals, bounds, d):
    """KKT conditions of max obj.d s.t. con.d = 0, l <= d <= u, over the true
    room l = b1 - vals, u = b2 - vals."""
    u, l = bounds.b2 - vals, bounds.b1 - vals
    assert np.all(l <= d) and np.all(d <= u)
    inside = (l < d) & (d < u)
    assert np.count_nonzero(inside) <= 1
    assert abs(np.dot(con, d)) <= 1e-12 * np.sum(np.abs(con))
    # a multiplier nu with d = u where obj - nu con > 0 and d = l where < 0
    lo, hi = -math.inf, math.inf
    for o, c, di, ui, li, mid in zip(obj, con, d, u, l, inside):
        if c == 0.0:
            assert di == (ui if o > 0 else li) or o == 0.0
            continue
        with np.errstate(over="ignore"):
            ratio = o / c
        if mid:
            lo, hi = max(lo, ratio), min(hi, ratio)
        elif (di == ui) == (c > 0):   # needs nu <= ratio
            hi = min(hi, ratio)
        else:                         # needs nu >= ratio
            lo = max(lo, ratio)
    assert lo <= hi


_lp_cells = st.lists(
    st.tuples(st.one_of(st.integers(-3, 3).map(float),
                        st.floats(-5.0, 5.0, allow_subnormal=False)),
              st.one_of(st.integers(-2, 2).map(float),
                        st.floats(-3.0, 3.0, allow_subnormal=False)),
              st.sampled_from((1.0, 1.7, 2.5, 4.0))),
    min_size=1, max_size=16)


class TestLpDirection:
    @given(_lp_cells)
    @example([(1.0, 1.0, 2.5)] * 4 + [(-0.5, 1.0, 2.5)])
    @example([(1.0, 0.0, 1.0), (-1.0, 0.0, 4.0), (2.0, 2.0, 1.0),
              (-1.0, -1.0, 4.0)])
    @settings(max_examples=300, deadline=None)
    def test_kkt_conditions(self, cells):
        box = AdmissibleBounds(1.0, 4.0)
        obj, con, vals = (np.array(c) for c in zip(*cells))
        assert_lp_optimal(obj, con, vals, box,
                          _lp_direction(obj, con, vals, box))

    @pytest.mark.parametrize("seed", range(8))
    def test_objective_matches_bisection(self, seed):
        box = AdmissibleBounds(1.0, 4.0)
        rng = np.random.default_rng(seed)
        n = 64
        obj, con = rng.normal(size=n), rng.normal(size=n)
        vals = rng.choice([1.0, 4.0, 2.0, 3.5], size=n, p=[0.3, 0.3, 0.2, 0.2])
        d = _lp_direction(obj, con, vals, box)
        ref = reference_lp_direction(obj, con, vals, box)
        assert abs(np.dot(obj, d) - np.dot(obj, ref)) \
            <= 1e-12 * np.sum(np.abs(obj))
        assert_lp_optimal(obj, con, vals, box, d)

    def test_tied_ratios(self):
        # the bisection lands past the tie, finds no single cell to patch
        # and returns d = l = -1.5: con.d = -7.5 and obj.d = -5.25, worse
        # than d = 0
        box = AdmissibleBounds(1.0, 4.0)
        obj = np.array([1.0, 1.0, 1.0, 1.0, -0.5])
        con, vals = np.ones(5), np.full(5, 2.5)
        ref = reference_lp_direction(obj, con, vals, box)
        assert np.dot(con, ref) == -7.5
        d = _lp_direction(obj, con, vals, box)
        assert np.dot(con, d) == 0.0
        assert np.dot(obj, d) == 1.5 * 1.5


class TestStepIsLpVertex:
    """The step direction is the vertex of the Re-neutral box LP that
    minimizes the linearised Im kappa."""

    @given(_lp_cells)
    @example([(1.0, 1.0, 2.5)] * 4 + [(-0.5, 1.0, 2.5)])
    @example([(1.0, 0.0, 1.0), (-1.0, 0.0, 4.0), (2.0, 2.0, 1.0),
              (-1.0, -1.0, 4.0)])
    # a tiny Re g, and one whose ratio overflows
    @example([(1.0, 2.2250738585072014e-308, 1.7)])
    @example([(2.0, 1.0, 1.0), (1.0, 5e-324, 1.7), (0.0, 0.0, 1.0)])
    @settings(max_examples=300, deadline=None)
    def test_matches_lp(self, cells):
        box = AdmissibleBounds(1.0, 4.0)
        im, re, vals = (np.array(c) for c in zip(*cells))
        g = GradientDensity(1 + 1j, re + 1j * im, 1.0)
        B = GridStructure(tuple(vals), box)
        d = _lp_direction(-g.g.imag, g.g.real, B.values, box)
        assert_lp_optimal(-im, re, vals, box, d)
        assert abs(np.dot(re, d)) <= 1e-12 * np.sum(np.abs(re))
        # step_direction returns that vertex unless it predicts no decrease
        if float(np.dot(im, d)) / len(d) < -_TOL_GRAD:
            assert np.array_equal(step_direction(g, B, box), d)
        else:
            with pytest.raises(StalledDirection):
                step_direction(g, B, box)


class TestGradientBudget:
    @pytest.mark.parametrize("alpha", [math.pi / 2, math.pi, 2 * math.pi])
    def test_acceptance_alphas(self, box14, monkeypatch, alpha):
        # the unit-room step and its 0.1-width pin spent 359, 770 and 644
        # gradients here, 88 % of them in pins that often ended unpinned
        import qnmopt.optimize as opt
        calls = []

        def counted(*args, **kwargs):
            calls.append(None)
            return eigenvalue_gradient(*args, **kwargs)
        monkeypatch.setattr(opt, "eigenvalue_gradient", counted)
        minimize_im_at_frequency(
            OptimizeConfig(alpha=alpha, bounds=box14, n_cells=256))
        assert 0 < len(calls) < 100


class TestAxisOptimization:
    def test_reaches_b2_from_midpoint(self, box14):
        cfg = OptimizeConfig(alpha=0.0, bounds=box14, n_cells=64,
                             max_iters=200)
        res = minimize_im_at_frequency(cfg, to_grid(constant(2.5, box14), 64))
        assert abs(res.kappa.imag - LN3_4) < 1e-6
        assert res.kappa.real == 0.0
        assert np.allclose(res.B.values, 4.0)
        objs = [r.objective for r in res.trajectory]
        assert all(b <= a + 1e-12 for a, b in zip(objs, objs[1:]))

    def test_positive_objective_all_iterates(self, box14):
        cfg = OptimizeConfig(alpha=0.0, bounds=box14, n_cells=32,
                             max_iters=100)
        res = minimize_im_at_frequency(cfg)
        assert all(r.objective > 0 for r in res.trajectory)

    def test_general_formula_other_box(self):
        bounds = AdmissibleBounds(1.0, 9.0)
        cfg = OptimizeConfig(alpha=0.0, bounds=bounds, n_cells=32,
                             max_iters=200)
        res = minimize_im_at_frequency(cfg, to_grid(constant(3.0, bounds), 32))
        want = math.log((3.0 + 1) / (3.0 - 1)) / (2 * 3.0)  # b2 = 9
        assert abs(res.kappa.imag - want) < 1e-6

    @pytest.mark.parametrize("alpha", [0.0, math.pi])
    @pytest.mark.parametrize("seed_kappa", [-0.5j, 0j])
    def test_nonpositive_seed_is_zero_frequency(self, box14, seed_kappa,
                                                alpha):
        cfg = OptimizeConfig(alpha=alpha, bounds=box14, n_cells=32,
                             seed_kappa=seed_kappa)
        with pytest.raises(ZeroFrequency):
            minimize_im_at_frequency(cfg)

    @pytest.mark.parametrize("seed", range(4))
    def test_finalization_with_switches_stays_on_axis(self, box14, seed):
        B0 = GridStructure(
            tuple(np.random.default_rng(seed).uniform(1.0, 4.0, 64)), box14)
        cfg = OptimizeConfig(alpha=0.0, bounds=box14, n_cells=64, max_iters=1)
        res = minimize_im_at_frequency(cfg, B0)
        assert res.rounded.n_intervals > 2
        assert res.rounded_kappa.real == 0.0
        assert res.polished_kappa.real == 0.0
        assert res.polished_kappa.imag <= res.rounded_kappa.imag + 1e-12


class TestFrequencyPinning:
    def test_small_run_stays_pinned(self, box14):
        cfg = OptimizeConfig(alpha=math.pi, bounds=box14, n_cells=48,
                             max_iters=40)
        res = minimize_im_at_frequency(cfg)
        assert abs(res.kappa.real - math.pi) <= _TOL_FREQ
        objs = [r.objective for r in res.trajectory]
        assert all(b <= a + 1e-12 for a, b in zip(objs, objs[1:]))
        assert all(r.objective > 0 for r in res.trajectory)

    def test_finalization_reports_both(self, pi_optimum):
        res = pi_optimum
        assert res.rounded is not None and res.rounded_kappa is not None
        assert res.polished is not None and res.polished_kappa is not None
        assert res.polished.is_bang_bang()
        assert abs(res.polished_kappa.real - math.pi) < 1e-9


class TestTrackFallback:
    """_track falls back to locate when Newton leaves its trust radius."""

    ROOT = math.pi / 2 + 1j * LN3_4

    @pytest.mark.parametrize("offset", [0.2, 0.2j, -0.15 + 0.1j])
    def test_locate_recovers_root(self, box14, offset):
        B = to_grid(constant(4.0, box14), 32)
        trust = 0.6 * abs(offset)
        assert newton_refine(B, self.ROOT + offset, tol=1e-10,
                             leash=trust) is None
        assert abs(_track(B, self.ROOT + offset, trust) - self.ROOT) < 1e-12

    def test_empty_window_is_lost(self, box14):
        B = to_grid(constant(4.0, box14), 32)
        with pytest.raises(LostEigenvalue):
            _track(B, self.ROOT + 1.0, 0.05)


class TestDropThinLayers:
    def test_interior_sliver(self, box14):
        B = PiecewiseStructure((0.0, 0.3, 0.30005, 0.6, 1.0),
                               (1.0, 4.0, 1.0, 4.0), box14)
        out = _drop_thin_layers(B)
        assert out.breakpoints.tolist() == [0.0, 0.6, 1.0]
        assert out.values.tolist() == [1.0, 4.0]

    def test_leading_sliver(self, box14):
        B = PiecewiseStructure((0.0, 5e-5, 0.5, 1.0), (4.0, 1.0, 4.0), box14)
        out = _drop_thin_layers(B)
        assert out.breakpoints.tolist() == [0.0, 0.5, 1.0]
        assert out.values.tolist() == [1.0, 4.0]


class TestPolishAcceptance:
    """A switch polish whose damping failed does not replace the rounded
    medium.  On bounds (1, 9) the iterate it stopped at held a 1.9e-9 layer
    and re-solved to a larger Im k than the grid's.  At alpha = 5.3 the
    polish keeps the rounded medium, whose Re k is 3.4e-3 off alpha, so
    there is no polished result; at 7.7 the polish lands on alpha."""

    @pytest.mark.parametrize("alpha", [5.3, 7.7])
    def test_failed_polish_is_not_kept(self, alpha):
        cfg = OptimizeConfig(alpha=alpha, bounds=AdmissibleBounds(1.0, 9.0),
                             n_cells=128)
        res = minimize_im_at_frequency(cfg)
        if alpha == 5.3:
            assert res.polished is None and res.polished_kappa is None
            assert abs(res.rounded_kappa.real - alpha) > 1e-3
            assert res.rounded_kappa.imag <= res.kappa.imag
        else:
            assert abs(res.polished_kappa.real - alpha) <= _TOL_FREQ
            assert res.polished_kappa.imag <= res.kappa.imag

    def test_off_frequency_polish_is_not_reported(self):
        """Here the polish keeps the rounded medium, 0.013 off alpha: the
        result has no polished medium, and `qnmopt optimize` writes the
        rounded one with its own kappa, not the grid's."""
        cfg = OptimizeConfig(alpha=9.4, bounds=AdmissibleBounds(0.5, 3.0),
                             n_cells=64)
        res = minimize_im_at_frequency(cfg)
        assert res.polished is None and res.polished_kappa is None
        assert abs(res.rounded_kappa - (9.38704 + 0.06702j)) < 1e-5
        assert abs(res.kappa.real - 9.4) <= _TOL_FREQ

    def test_collapsing_polish_is_kept(self):
        """Here the polish stops at an infeasible difference point: two
        switches collapse, the sliver is dropped and the re-polish lands on
        a three-interval medium at Re k = alpha that passes the switch
        certificate."""
        cfg = OptimizeConfig(alpha=2.2, bounds=AdmissibleBounds(1.0, 4.0),
                             n_cells=128)
        res = minimize_im_at_frequency(cfg)
        assert res.polished.n_intervals == 3
        assert abs(res.polished_kappa.real - 2.2) <= 1e-8
        cert = switch_alignment(res.polished, res.polished_kappa)
        assert cert.max_deviation < 0.05


class TestConfigValidation:
    def test_invariants(self, box14):
        with pytest.raises(InputError):
            OptimizeConfig(alpha=0.0, bounds=box14, n_cells=8)
        OptimizeConfig(alpha=1, bounds=box14, n_cells=np.int64(16),
                       max_iters=0)

    @pytest.mark.parametrize("bad", [
        {"alpha": math.nan}, {"alpha": math.inf}, {"alpha": -math.inf},
        {"alpha": 1 + 0j}, {"alpha": "1.5"}, {"alpha": True},
        {"alpha": 10 ** 400},
        {"n_cells": 16.5}, {"n_cells": 16.0}, {"n_cells": True},
        {"n_cells": "64"}, {"max_iters": 2.5}, {"max_iters": -1},
        {"max_iters": False}, {"max_iters": None},
        {"bounds": (1, 4)}, {"bounds": None},
        {"seed_kappa": "x"}, {"seed_kappa": [1.5, 0.25]},
    ])
    def test_bad_field_is_input_error(self, box14, bad):
        # n_cells = 16.5 and max_iters = 2.5 escaped as TypeError from deep
        # inside the run, bounds = (1, 4) and seed_kappa = "x" as
        # AttributeError, and alpha = nan was accepted
        with pytest.raises(InputError):
            OptimizeConfig(**{"alpha": 1.5, "bounds": box14, **bad})

    def test_knobs_are_constants(self):
        assert [f.name for f in fields(OptimizeConfig)] == [
            "alpha", "bounds", "n_cells", "max_iters", "seed_kappa"]
        assert "tol_grad" not in inspect.signature(step_direction).parameters

    @pytest.mark.parametrize("seed_kappa", [complex(math.nan, 1.0),
                                            complex(1.0, math.inf),
                                            complex(math.inf, 1.0)])
    def test_nonfinite_seed_is_input_error(self, box14, seed_kappa):
        cfg = OptimizeConfig(alpha=math.pi, bounds=box14, n_cells=32,
                             seed_kappa=seed_kappa)
        with pytest.raises(InputError):
            minimize_im_at_frequency(cfg, to_grid(constant(4.0, box14), 32))

    def test_seed_kappa_needs_seed_medium(self, box14):
        # it was ignored: the run seeded from best_constant_seed instead
        cfg = OptimizeConfig(alpha=math.pi, bounds=box14, n_cells=32,
                             seed_kappa=math.pi + 0.3j)
        with pytest.raises(InputError, match="seed medium"):
            minimize_im_at_frequency(cfg)


class TestSubUnitBoxSanity:
    def test_no_axis_spectrum_when_b2_below_one(self):
        # desk-scale absence check over the axis segment i [0.05, 20]
        bounds = AdmissibleBounds(0.2, 0.9)
        rng = np.random.default_rng(77)
        betas = np.linspace(0.05, 20.0, 2000)
        for _ in range(20):
            B = random_bang_bang(bounds, rng)
            gs = charF_many(1j * betas, B).real
            assert np.all(gs > 0.0)  # no sign change: no axis eigenvalue


class TestNearMultipleDetection:
    def test_gradient_refuses_double_root(self, double_fixture):
        from qnmopt.errors import NearMultiple
        B, kappa = double_fixture
        with pytest.raises(NearMultiple):
            eigenvalue_gradient(B, kappa, n_cells=16)


class TestCollisionPath:
    @staticmethod
    def _grid_aligned_double_root():
        # double eigenvalue of a two-layer structure whose interface sits on
        # a 32-cell grid line, so the grid view is exact
        from scipy.optimize import root as scipy_root
        from qnmopt.medium import PiecewiseStructure
        a = 23.0 / 32.0
        wide = AdmissibleBounds(0.0, 8.0)

        def build(v1, v2):
            return PiecewiseStructure((0.0, a, 1.0), (v1, v2), wide)

        def residual(p):
            from qnmopt.field import charF, dzF
            v1, v2, re, im = p
            if v1 <= 0 or v2 <= 0 or im <= 0:
                return [1e3] * 4
            z = complex(re, im)
            B = build(v1, v2)
            f, df = charF(z, B), dzF(z, B)
            return [f.real, f.imag, df.real, df.imag]

        sol = scipy_root(residual, [4.0, 1.52, 4.45, 1.04], tol=1e-13)
        assert sol.success
        v1, v2, re, im = sol.x
        return build(v1, v2), complex(re, im)

    def test_collision_detected_with_partial(self):
        from qnmopt.errors import CollisionDetected
        from qnmopt.field import charF, dzF
        B, kappa = self._grid_aligned_double_root()
        assert abs(charF(kappa, B)) + abs(dzF(kappa, B)) < 1e-10
        seed = to_grid(B, 32)
        with pytest.raises(CollisionDetected) as exc_info:
            minimize_im_at_frequency(
                OptimizeConfig(alpha=kappa.real, bounds=B.bounds, n_cells=32,
                               max_iters=20, seed_kappa=kappa), seed)
        partial = getattr(exc_info.value, "partial", None)
        assert partial is not None
        assert partial.status == "collision"

    def test_collision_from_seeds_ulps_off_the_root(self):
        # from a seed that is already a root no Newton step is taken: at a
        # double root that step is rounding noise over rounding noise, and
        # it used to throw a few of these seeds past the leash
        from qnmopt.errors import CollisionDetected, QnmOptError

        def ulps(x, k):
            for _ in range(abs(k)):
                x = math.nextafter(x, math.copysign(math.inf, k))
            return x

        B, kappa = self._grid_aligned_double_root()
        seed = to_grid(B, 32)
        outcomes = []
        for i in range(-3, 4):
            for j in range(-3, 4):
                k0 = complex(ulps(kappa.real, i), ulps(kappa.imag, j))
                cfg = OptimizeConfig(alpha=kappa.real, bounds=B.bounds,
                                     n_cells=32, max_iters=20, seed_kappa=k0)
                try:
                    minimize_im_at_frequency(cfg, seed)
                    outcomes.append("returned")
                except QnmOptError as exc:
                    outcomes.append(type(exc).__name__)
                    if isinstance(exc, CollisionDetected):
                        assert exc.partial.status == "collision"
        assert outcomes == ["CollisionDetected"] * 49


class TestSweep:
    def test_entries_bounded_and_positive(self, box14):
        cfg = OptimizeConfig(alpha=0.0, bounds=box14, n_cells=48,
                             max_iters=150)
        alphas = [math.pi / 2, math.pi]
        entries = sweep_I(alphas, cfg)
        assert [e.alpha for e in entries] == alphas
        for e in entries:
            assert e.error is None
            assert 0.0 < e.I_alpha <= e.upper_bound + 1e-9

    def test_mirror_symmetry(self, box14):
        cfg = OptimizeConfig(alpha=0.0, bounds=box14, n_cells=48,
                             max_iters=150)
        plus, minus = sweep_I([math.pi, -math.pi], cfg)
        assert abs(plus.I_alpha - minus.I_alpha) < 1e-6

    def test_failures_recorded(self):
        bounds = AdmissibleBounds(0.2, 0.9)
        cfg = OptimizeConfig(alpha=0.0, bounds=bounds, n_cells=32)
        entries = sweep_I([0.1], cfg)
        assert entries[0].error is not None
        assert math.isnan(entries[0].I_alpha)


class TestSecantPolish:
    """The switch polish keeps one forward-difference Jacobian by Broyden's
    update instead of a central-difference one per Newton step (29, 56 and
    115 residual calls at the acceptance frequencies), and lands where the
    central-difference polish does."""

    def test_work_and_agreement(self, box14, monkeypatch):
        import qnmopt.optimize as opt
        from qnmopt.sensitivity import _damped_newton
        calls = []

        def policy(secant_on):
            def damped(residual, q, max_iters, aux=None, secant=False):
                def counted(qq, a):
                    calls.append(secant_on)
                    return residual(qq, a)
                return _damped_newton(counted, q, max_iters, aux,
                                      secant=secant and secant_on)
            return damped

        cfgs = [OptimizeConfig(alpha=alpha, bounds=box14, n_cells=256)
                for alpha in (math.pi / 2, math.pi, 2 * math.pi)]
        for cfg, res in [(c, minimize_im_at_frequency(c)) for c in cfgs]:
            B, k = res.rounded, res.rounded_kappa
            monkeypatch.setattr(opt, "_damped_newton", policy(True))
            secant, k_s = opt._polish_switches(B, k, cfg)
            monkeypatch.setattr(opt, "_damped_newton", policy(False))
            central, k_c = opt._polish_switches(B, k, cfg)
            assert secant == res.polished and k_s == res.polished_kappa
            assert abs(k_s - k_c) <= 1e-12
            assert secant.n_intervals == central.n_intervals
            np.testing.assert_allclose(secant.breakpoints, central.breakpoints,
                                       rtol=0, atol=1e-10)
        assert 0 < calls.count(True) <= 80
        assert calls.count(False) >= 150   # the central Newton's 200


_ALPHAS = [0.0, math.pi, -2.5, 1.0, 40.0, 1e-3, math.nan, "1", None]
_BOXES = [AdmissibleBounds(1.0, 4.0), AdmissibleBounds(0.0, 5.0),
          AdmissibleBounds(0.25, 0.9), AdmissibleBounds(2.0, 2.0),
          (1.0, 4.0), None, "box"]


class TestErrorContract:
    """OptimizeConfig, minimize_im_at_frequency (with a seed medium),
    step_direction, best_constant_seed, constant_upper_bound and sweep_I end
    in a result or a QnmOptError for any inputs, wrong types among them."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_only_qnmopt_errors_escape(self, data):
        draw = data.draw
        alpha, bounds = draw(st.sampled_from(_ALPHAS)), \
            draw(st.sampled_from(_BOXES))
        seed_kappa = draw(st.sampled_from([None, math.pi + 0.3j, 2.0 + 0j,
                                           complex(math.nan, 1.0), "x"]))
        try:
            cfg = OptimizeConfig(alpha=alpha, bounds=bounds, n_cells=16,
                                 max_iters=draw(st.sampled_from([0, 1, 3])),
                                 seed_kappa=seed_kappa)
        except QnmOptError:
            cfg = draw(st.sampled_from([None, "config", (1.0, 4.0)]))
        box = AdmissibleBounds(1.0, 4.0)
        cells = draw(st.sampled_from([16, 12]))
        values = draw(st.lists(st.floats(0.0, 5.0), min_size=cells,
                               max_size=cells))
        B = GridStructure(values, box)
        B0 = draw(st.sampled_from([None, B, constant(2.0, box), "B0", values]))
        g = GradientDensity(1.0 + 0.5j, draw(st.lists(
            st.complex_numbers(max_magnitude=10.0), min_size=16, max_size=16)),
            1.0)
        grad = draw(st.sampled_from([g, g.g, None]))
        alphas = draw(st.sampled_from([[], [math.pi], [alpha], 3.0, None]))
        calls = [lambda: minimize_im_at_frequency(cfg, B0),
                 lambda: step_direction(grad, B, bounds),
                 lambda: best_constant_seed(alpha, bounds),
                 lambda: constant_upper_bound(alpha, bounds),
                 lambda: sweep_I(alphas, cfg)]
        for call in calls:
            try:
                call()
            except QnmOptError:
                pass

    @pytest.mark.parametrize("config, B0", [
        ("config", None), (None, None),
        (OptimizeConfig(alpha=math.pi, bounds=AdmissibleBounds(1.0, 4.0),
                        n_cells=16), "B0")])
    def test_wrong_types_are_input_errors(self, config, B0):
        # each raised AttributeError
        with pytest.raises(InputError):
            minimize_im_at_frequency(config, B0)

    def test_seed_of_other_grid_is_input_error(self, box14):
        # a 32-cell seed ran on its own 32 cells
        cfg = OptimizeConfig(alpha=math.pi, bounds=box14, n_cells=256)
        with pytest.raises(InputError, match="32 cells.*n_cells = 256"):
            minimize_im_at_frequency(cfg, to_grid(constant(2.0, box14), 32))

    def test_gradient_of_other_grid_is_input_error(self, box14):
        # raised ValueError from the LP's array shapes
        g = GradientDensity(1.0 + 0.5j, np.ones(8), 1.0)
        with pytest.raises(InputError, match="cells"):
            step_direction(g, to_grid(constant(2.0, box14), 16), box14)

    def test_bounds_must_be_admissible_bounds(self, box14):
        # each raised AttributeError
        g = GradientDensity(1.0 + 0.5j, np.ones(16), 1.0)
        B = to_grid(constant(2.0, box14), 16)
        for call in (lambda: step_direction(g, B, (1.0, 4.0)),
                     lambda: best_constant_seed(math.pi, (1.0, 4.0)),
                     lambda: constant_upper_bound(math.pi, (1.0, 4.0))):
            with pytest.raises(InputError, match="AdmissibleBounds"):
                call()
