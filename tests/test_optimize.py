import math
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qnmopt.errors import (InfeasibleError, InputError, LostEigenvalue,
                           StalledDirection, ZeroFrequency)
from qnmopt.field import charF_many
from qnmopt.medium import (AdmissibleBounds, GridStructure, PiecewiseStructure,
                           constant, random_bang_bang, to_grid)
from qnmopt.optimize import (OptimizeConfig, _drop_thin_layers, _lp_direction,
                             _track, best_constant_seed, constant_upper_bound,
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

    @pytest.mark.parametrize("alpha", [math.inf, -math.inf, math.nan])
    def test_nonfinite_frequency_rejected(self, box14, alpha):
        with pytest.raises(InputError):
            best_constant_seed(alpha, box14)

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
        # Re g and Im g orthogonal in L2: lambda = 0, direction = -Im g
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
        assert np.max(np.abs(d)) <= 1.0 + 1e-12
        vals = B.values
        assert np.all(d[vals <= box14.b1 + 1e-12] >= 0.0)
        assert np.all(d[vals >= box14.b2 - 1e-12] <= 0.0)


def reference_lp_direction(obj, con, vals, bounds, act_tol=1e-12):
    """The bisection that `_lp_direction` replaced, kept as a reference."""
    u = np.where(vals >= bounds.b2 - act_tol, 0.0, 1.0)
    l = np.where(vals <= bounds.b1 + act_tol, 0.0, -1.0)

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
    """KKT conditions of max obj.d s.t. con.d = 0, l <= d <= u."""
    u = np.where(vals >= bounds.b2 - 1e-12, 0.0, 1.0)
    l = np.where(vals <= bounds.b1 + 1e-12, 0.0, -1.0)
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
        # and returns d = -1: con.d = -5 and obj.d = -3.5, worse than d = 0
        box = AdmissibleBounds(1.0, 4.0)
        obj = np.array([1.0, 1.0, 1.0, 1.0, -0.5])
        con, vals = np.ones(5), np.full(5, 2.5)
        ref = reference_lp_direction(obj, con, vals, box)
        assert np.dot(con, ref) == -5.0
        d = _lp_direction(obj, con, vals, box)
        assert np.dot(con, d) == 0.0
        assert np.dot(obj, d) == 1.5


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
        assert abs(res.kappa.real - math.pi) <= cfg.tol_freq
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


class TestConfigValidation:
    def test_invariants(self, box14):
        with pytest.raises(InputError):
            OptimizeConfig(alpha=0.0, bounds=box14, n_cells=8)
        with pytest.raises(InputError):
            OptimizeConfig(alpha=0.0, bounds=box14, step0=0.0)
        with pytest.raises(InputError):
            OptimizeConfig(alpha=0.0, bounds=box14, tol_freq=0.0)


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
