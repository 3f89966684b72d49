import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qnmopt.certificate import (nonlinear_residual, phase_trace,
                                self_consistent_solve, switch_alignment)
from qnmopt.errors import (InputError, NoConvergence, NotAtRoot,
                           NotBangBang, OnImaginaryAxis, QnmOptError)
from qnmopt.field import mode_values
from qnmopt.medium import (AdmissibleBounds, GridStructure, PiecewiseStructure,
                           constant, random_bang_bang, to_piecewise)
from qnmopt.spectrum import SpectralWindow, locate, newton_refine

from conftest import LN3_4


class TestPhaseTrace:
    def test_decreasing_for_positive_frequency(self):
        B = constant(4.0)
        kappa = math.pi + 1j * LN3_4
        tr = phase_trace(B, kappa)
        assert tr.xi[0] == 0.0
        assert tr.xi_prime_sign == -1
        assert np.all(np.diff(tr.xi) <= 1e-12)
        # interior samples strictly decreasing
        inner = (tr.xs > 0.05) & (tr.xs <= 1.0)
        assert np.all(np.diff(tr.xi[inner]) < 0)

    def test_increasing_for_mirror(self):
        B = constant(4.0)
        kappa = -math.pi + 1j * LN3_4
        tr = phase_trace(B, kappa)
        assert tr.xi_prime_sign == 1
        assert np.all(np.diff(tr.xi) >= -1e-12)

    def test_leading_zero_interval_flat(self):
        bounds = AdmissibleBounds(0.0, 4.0)
        B = PiecewiseStructure((0.0, 0.3, 1.0), (0.0, 4.0), bounds)
        evs = locate(B, SpectralWindow(0.5, 5.0, 0.05, 2.5))
        assert evs
        tr = phase_trace(B, evs[0].kappa)
        assert tr.a1 == 0.3
        flat = tr.xs <= 0.3 + 1e-12
        assert np.max(np.abs(tr.xi[flat])) < 1e-12

    def test_requires_root(self):
        with pytest.raises(NotAtRoot):
            phase_trace(constant(4.0), 1.0 + 0.5j)


def unwrapped_phase(B, kappa, at, n=100_001):
    """Oracle: xi = arg phi^2 at the sorted positions `at`, unwrapped over
    n uniform samples and the breakpoints.  Each of its steps is asserted
    below 0.5 rad, far from the pi at which unwrapping turns ambiguous."""
    xs = np.union1d(np.linspace(0.0, 1.0, n), B.breakpoints)
    phi, _ = mode_values(B, kappa, xs)
    steps = np.angle((phi[1:] / phi[:-1]) ** 2)
    assert np.abs(steps).max() < 0.5
    return np.interp(at, xs, np.concatenate(([0.0], np.cumsum(steps))))


_PHASE_BOXES = [AdmissibleBounds(1.0, 4.0), AdmissibleBounds(0.5, 3.0),
                AdmissibleBounds(1.0, 9.0), AdmissibleBounds(0.0, 4.0)]
_PHASE_WINDOWS = [SpectralWindow(0.1, 12.0, 0.05, 3.0),
                  SpectralWindow(-12.0, -0.1, 0.05, 3.0)]


class TestClosedFormPhase:
    """phase_trace reads arg phi in closed form per layer.  The sampled
    trace it replaced refined only where two neighbours differed by pi/2,
    so it could not see a turn of nearly 2 pi next to a near-node of phi:
    both media below lost one, and the second passed the interval bound."""

    def test_turn_next_to_a_near_node(self):
        B = PiecewiseStructure((0.0, 0.05107972, 0.50302757, 0.68674601, 1.0),
                               (4.0, 1.0, 4.0, 1.0), AdmissibleBounds(1.0, 4.0))
        kappa = newton_refine(B, 13.747343026333944 + 0.4111163735988592j,
                              tol=1e-12, leash=1e-6)[0]
        tr = phase_trace(B, kappa)
        # the sampled trace gave -27.6537953 and 10.9245795
        assert tr.value(1.0) == pytest.approx(-33.9369806, abs=1e-7)
        np.testing.assert_allclose(
            [tr.value(x) for x in B.breakpoints],
            unwrapped_phase(B, kappa, B.breakpoints), rtol=0, atol=1e-9)
        cert = switch_alignment(B, kappa)
        assert cert.max_interval_variation == pytest.approx(13.9097045,
                                                            abs=1e-7)

    def test_lost_turn_no_longer_passes_the_bound(self):
        B = PiecewiseStructure((0.0, 0.212812571317, 1.0), (4.0, 0.0),
                               AdmissibleBounds(0.0, 4.0))
        kappa = newton_refine(B, 7.572663079519315 + 0.0311997031497557j,
                              tol=1e-12, leash=1e-6)[0]
        cert = switch_alignment(B, kappa)
        # the sampled trace gave 2.8171994, inside pi + 0.05
        assert cert.max_interval_variation == pytest.approx(6.2853551,
                                                            abs=1e-7)
        assert cert.max_interval_variation > math.pi + 0.05

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(box=st.sampled_from(_PHASE_BOXES),
           window=st.sampled_from(_PHASE_WINDOWS),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_the_dense_unwrap(self, box, window, seed):
        B = random_bang_bang(box, np.random.default_rng(seed))
        evs = locate(B, window)
        assert evs
        for ev in evs:
            tr = phase_trace(B, ev.kappa)
            np.testing.assert_allclose(
                [tr.value(x) for x in B.breakpoints],
                unwrapped_phase(B, ev.kappa, B.breakpoints), rtol=0,
                atol=1e-9)


class TestSwitchAlignment:
    def test_optimum_aligns(self, pi_optimum):
        cert = switch_alignment(pi_optimum.polished,
                                pi_optimum.polished_kappa)
        assert cert.max_deviation < 0.05
        assert cert.max_interval_variation <= math.pi + 0.05
        assert -math.pi <= cert.omega < math.pi
        assert cert.nonlinear_mismatch < 0.02

    def test_displaced_switch_detected(self, pi_optimum):
        B, kappa = pi_optimum.polished, pi_optimum.polished_kappa
        pts = list(B.breakpoints)
        pts[1] += 0.05
        B2 = PiecewiseStructure(tuple(pts), B.values, B.bounds)
        k2 = newton_refine(B2, kappa, tol=1e-10, leash=0.5)[0]
        cert = switch_alignment(B2, k2)
        assert cert.max_deviation > 0.1

    def test_constant_medium_reports_variation(self):
        B = constant(4.0, AdmissibleBounds(1, 4))
        kappa = math.pi + 1j * LN3_4
        cert = switch_alignment(B, kappa)
        assert cert.deviations == ()
        # the non-optimal constant medium fails the interval bound
        assert cert.max_interval_variation > math.pi + 0.05

    def test_mirror_consistency(self, pi_optimum):
        B, kappa = pi_optimum.polished, pi_optimum.polished_kappa
        cert = switch_alignment(B, kappa)
        mirror = switch_alignment(B, -kappa.conjugate())
        d_omega = (mirror.omega + cert.omega + math.pi) % (2 * math.pi) - math.pi
        assert abs(d_omega) < 1e-9
        assert mirror.max_deviation < 0.05
        assert abs(mirror.max_interval_variation
                   - cert.max_interval_variation) < 1e-9

    def test_rejects_axis_and_interior_values(self, box14):
        with pytest.raises(OnImaginaryAxis):
            switch_alignment(constant(4.0, box14), 1j * LN3_4)
        B = PiecewiseStructure((0.0, 0.5, 1.0), (2.0, 4.0), box14)
        with pytest.raises(NotBangBang):
            switch_alignment(B, 1.0 + 0.5j)


class TestNonlinearResidual:
    def test_axis_optimum_zero_mismatch(self, box14):
        B = constant(4.0, box14)
        theta, mismatch = nonlinear_residual(B, 1j * LN3_4)
        assert theta == pytest.approx(math.pi / 4)
        assert mismatch == 0.0

    def test_certified_optimum_small(self, pi_optimum):
        theta, mismatch = nonlinear_residual(pi_optimum.polished,
                                             pi_optimum.polished_kappa)
        assert mismatch < 0.02

    def test_non_optimal_reported_large(self, box14):
        B = PiecewiseStructure((0.0, 0.5, 1.0), (4.0, 1.0), box14)
        evs = locate(B, SpectralWindow(0.5, 6.0, 0.05, 2.0))
        _, mismatch = nonlinear_residual(B, evs[0].kappa)
        assert mismatch > 0.05  # diagnostic only: clearly non-optimal


class TestNonFiniteKappa:
    def test_phase_trace_and_residual_reject_nan(self, box14):
        B = constant(4.0, box14)
        for kappa in (complex(math.nan, 0.3), complex(1.0, math.nan)):
            with pytest.raises(NotAtRoot):
                phase_trace(B, kappa)
            with pytest.raises(NotAtRoot):
                nonlinear_residual(B, kappa)


class TestDegenerateLowerBound:
    """b1 = 0 media: leading zero intervals and the real-ray convention."""

    def test_optimum_with_vacuum_layers_certifies(self):
        from qnmopt.optimize import OptimizeConfig, minimize_im_at_frequency
        bounds = AdmissibleBounds(0.0, 4.0)
        cfg = OptimizeConfig(alpha=math.pi, bounds=bounds, n_cells=128,
                             max_iters=400)
        res = minimize_im_at_frequency(cfg)
        assert set(res.polished.values) <= {0.0, 4.0}
        cert = switch_alignment(res.polished, res.polished_kappa)
        assert cert.max_deviation < 0.05
        assert cert.nonlinear_mismatch < 0.02
        sc = self_consistent_solve(res.polished_kappa, bounds, n_grid=1024,
                                   B0=res.polished)
        assert abs(sc.kappa - res.polished_kappa) < 1e-8

    def test_leading_zero_interval_machinery(self):
        from qnmopt.certificate import _omega, certificate_theta
        from qnmopt.medium import switch_points
        bounds = AdmissibleBounds(0.0, 4.0)
        B = PiecewiseStructure((0.0, 0.25, 0.55, 0.8, 1.0),
                               (0.0, 4.0, 0.0, 4.0), bounds)
        ev = locate(B, SpectralWindow(2.0, 4.5, 0.05, 2.0))[0]
        tr = phase_trace(B, ev.kappa)
        assert tr.a1 == 0.25
        # the mode is exactly 1 on the empty leading interval
        assert np.max(np.abs(tr.xi[tr.xs <= 0.25])) == 0.0
        sw = switch_points(B)
        omega = _omega([tr.value(x) for x, _ in sw], sw)
        assert omega == 0.0  # switches of the degenerate family sit on R
        theta = certificate_theta(ev.kappa, omega, 0.0, tr.a1)
        assert theta == pytest.approx(-math.pi / 2)


_VACUUM_BOUNDS = [AdmissibleBounds(0.0, b2) for b2 in (1.5, 4.0, 9.0, 25.0,
                                                       100.0)]


class TestLeadingVacuumSeeds:
    """A seed with a leading vacuum layer (b1 = 0) is shot from x = 0 like
    any other medium: the solve ends in a medium whose eigenvalue
    newton_refine confirms, with no leading vacuum layer, or in a
    QnmOptError."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_solve_confirms_or_raises(self, data):
        from qnmopt.certificate import _SOLVE_TOL, _solve_shot
        draw = data.draw
        bounds = draw(st.sampled_from(_VACUUM_BOUNDS))
        a1 = draw(st.floats(0.02, 0.9))
        widths = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=2,
                                        max_size=6)))
        cuts = a1 + (1.0 - a1) * np.cumsum(widths)[:-1] / widths.sum()
        pts = [0.0, a1, *cuts, 1.0]
        B0 = PiecewiseStructure(pts, [(0.0, bounds.b2)[j % 2]
                                      for j in range(len(pts) - 1)], bounds)
        z0 = complex(draw(st.floats(0.5, 12.0)), draw(st.floats(0.05, 1.5)))
        try:
            if draw(st.booleans()):
                sc = self_consistent_solve(z0, bounds, n_grid=16, B0=B0)
                B, kappa = sc.B, sc.kappa
            else:
                res = newton_refine(B0, z0, tol=1e-9, leash=1.0)
                assume(res is not None)
                k0 = draw(st.sampled_from([res[0], -res[0].conjugate()]))
                B, kappa, _, _ = _solve_shot(B0, k0, k0.real, bounds)
        except QnmOptError:
            return
        assert B.leading_zero_interval() == 0.0
        res = newton_refine(B, kappa, tol=1e-11, leash=0.1)
        assert res is not None and abs(res[0] - kappa) < _SOLVE_TOL


class TestSelfConsistent:
    def test_fixed_point_matches_optimizer(self, box14, pi_optimum):
        res = self_consistent_solve(pi_optimum.polished_kappa, box14,
                                    n_grid=2048, B0=pi_optimum.polished)
        assert len(res.history) <= 20
        assert abs(res.kappa - pi_optimum.polished_kappa) < 1e-8
        _, mismatch = nonlinear_residual(res.B, res.kappa)
        assert mismatch < 1e-3

    def test_axis_seed_reaches_constant_b2(self, box14):
        res = self_consistent_solve(0.27j, box14, n_grid=512)
        assert res.B.values.tolist() == [4.0]
        assert abs(res.kappa - 1j * LN3_4) < 1e-10

    def test_y_satisfies_boundary_conditions(self, box14, pi_optimum):
        res = self_consistent_solve(pi_optimum.polished_kappa, box14,
                                    n_grid=1024, B0=pi_optimum.polished)
        from qnmopt.field import charF
        assert abs(charF(res.kappa, res.B)) < 1e-8
        # y = e^{i theta} phi: y(0) = e^{i theta}
        assert abs(res.y[0] - np.exp(1j * res.theta)) < 1e-12

    def test_history_records_each_newton_iterate(self, box14, pi_optimum):
        # a displaced switch: the seed's eigenvalue leaves the solution, and
        # Newton takes several iterates back at the seed's Re kappa
        B = pi_optimum.polished
        pts = B.breakpoints.copy()
        pts[1] += 0.01
        B0 = PiecewiseStructure(pts, B.values, box14)
        k0 = newton_refine(B0, pi_optimum.polished_kappa, tol=1e-9,
                           leash=1.0)[0]
        res = self_consistent_solve(k0, box14, n_grid=100, B0=B0)
        assert len(res.history) >= 3
        assert [h[0] for h in res.history] == list(range(len(res.history)))
        assert all(h[1].real == k0.real for h in res.history)
        assert abs(res.kappa - res.history[-1][1]) < 1e-10
        np.testing.assert_allclose(res.history[-1][2], res.B.breakpoints[1:-1],
                                   rtol=0, atol=1e-12)
        # n_grid only sets the sampling of y
        assert len(res.xs) == len(res.y) == 101

    def test_mirror_seed_gives_the_mirror_solution(self, box14, pi_optimum):
        B, kappa = pi_optimum.polished, pi_optimum.polished_kappa
        res = self_consistent_solve(kappa, box14, n_grid=64, B0=B)
        mirror = self_consistent_solve(-kappa.conjugate(), box14, n_grid=64,
                                       B0=B)
        assert mirror.B == res.B
        assert mirror.kappa == -res.kappa.conjugate()
        # phi is conjugated and theta goes to pi/2 - theta: y to i conj(y),
        # so Im y^2 and the medium it rebuilds stay the same
        np.testing.assert_allclose(mirror.y, 1j * np.conj(res.y), rtol=0,
                                   atol=1e-12)


def reference_rebuild(B, kappa, theta, bounds, n_grid):
    """b1 + (b2 - b1) chi_{C+}(e^{2i theta} phi^2) with its switches found by
    scalar bisection of the sign of Im y^2 sampled on n_grid cells: an
    oracle for the shooting solve that shares no event code with it."""
    import cmath
    from qnmopt.field import mode_values
    xs = np.linspace(0.0, 1.0, n_grid + 1)
    phi, _ = mode_values(B, kappa, xs)
    s = ((cmath.exp(1j * theta) ** 2) * phi * phi).imag
    rot = cmath.exp(1j * theta) ** 2

    def im_y2(x: float) -> float:
        p, _ = mode_values(B, kappa, np.array([x]))
        return float((rot * p[0] * p[0]).imag)

    cuts = []
    for i in range(n_grid):
        if (s[i] > 0.0) != (s[i + 1] > 0.0):
            lo, hi = xs[i], xs[i + 1]
            flo = s[i]
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                fm = im_y2(mid)
                if (fm > 0.0) == (flo > 0.0):
                    lo, flo = mid, fm
                else:
                    hi = mid
            cuts.append(0.5 * (lo + hi))
    pts = [0.0] + cuts + [1.0]
    mids = [0.5 * (a + b) for a, b in zip(pts[:-1], pts[1:])]
    vals = [bounds.b2 if im_y2(m) > 0.0 else bounds.b1 for m in mids]
    return PiecewiseStructure(tuple(pts), tuple(vals), bounds)


STORED_OPTIMA = (Path(__file__).resolve().parent.parent
                 / "perfbench" / "data" / "optima.json")


class TestRebuildStructure:
    """The shooting solve against the scalar bisection of the sampled sign
    of Im y^2: the solved medium is what reference_rebuild finds from the
    solved (B, kappa, theta), switch for switch."""

    @pytest.mark.parametrize("index", range(3))
    def test_matches_scalar_bisection_on_stored_optima(self, index):
        rec = json.loads(STORED_OPTIMA.read_text(encoding="utf-8"))[index]
        B = PiecewiseStructure.from_json_dict(rec["structure"])
        sc = self_consistent_solve(complex(*rec["kappa"]), B.bounds,
                                   n_grid=2048, B0=B)
        ref = reference_rebuild(sc.B, sc.kappa, sc.theta, B.bounds, 2048)
        assert len(sc.B.breakpoints) > 2
        assert ref.values.tolist() == sc.B.values.tolist()
        np.testing.assert_allclose(ref.breakpoints, sc.B.breakpoints,
                                   rtol=0, atol=1e-12)

    def test_constant_rebuild_without_switches(self, box14):
        sc = self_consistent_solve(0.27j, box14, n_grid=64)
        ref = reference_rebuild(sc.B, sc.kappa, sc.theta, box14, 64)
        assert ref == sc.B
        assert sc.B.values.tolist() == [4.0]


def plain_shot(kappa, theta, bounds):
    """The shot's F with no tangents: phi carried from event to event by
    field's layer map alone, an oracle for _shoot's F, bit for bit."""
    import cmath
    from qnmopt.certificate import _arg_phi, _event
    from qnmopt.field import _coefficients
    x, p, dp = 0.0, 1.0 + 0j, 0j
    m = math.ceil(2.0 * theta / math.pi) - 1
    fall = theta - 0.5 * m * math.pi
    while True:
        b, room = (bounds.b2 if m % 2 == 0 else bounds.b1), 1.0 - x
        if fall <= 0.0:
            t, short = 0.0, fall
        elif b > 0.0:
            t, short = _event(kappa * math.sqrt(b), p, dp, fall, room)
        else:
            v, t, short = dp / p, None, 0.0
            if _arg_phi(0j, p, dp, room, fall)[0] <= 0.0:
                t = -math.sin(fall) / (cmath.exp(1j * fall) * v).imag
        end = t is None or not t < room
        if end or t > 0.0:
            c, sw = map(complex, _coefficients(
                kappa, math.sqrt(b), room if end else t)[2:])
            p, dp = c * p + sw * dp, c * dp - kappa * kappa * b * sw * p
            x = 1.0 if end else x + t
        if end:
            return p - 1j * dp / kappa
        m, fall = m - 1, 0.5 * math.pi + short


_SHOT_BOXES = [AdmissibleBounds(1.0, 4.0), AdmissibleBounds(0.5, 9.0),
               AdmissibleBounds(0.0, 4.0)]   # the last with b = 0 layers


class TestShotTangents:
    """_shoot carries F's derivatives in the solve's unknowns beside phi:
    Im kappa and theta, Im kappa alone on the axis."""

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_match_central_differences(self, data):
        from qnmopt.certificate import _shoot
        draw = data.draw
        bounds = draw(st.sampled_from(_SHOT_BOXES))
        branch = draw(st.sampled_from(["theta", "axis"]))
        im = draw(st.floats(0.01, 1.0))
        re = 0.0 if branch == "axis" else draw(st.floats(0.3, 12.0))
        theta = draw(st.floats(-4.0, 4.0)) if branch == "theta" else \
            0.25 * math.pi
        # at theta = k pi / 2 the first switch sits at x = 0, where arg phi
        # is flat, so F goes as sqrt(theta - k pi / 2) there
        assume(branch != "theta" or abs(theta - 0.5 * math.pi * round(
            theta / (0.5 * math.pi))) > 1e-3)
        F, dF, _, vals = _shoot(complex(re, im), theta, bounds)
        assert F == plain_shot(complex(re, im), theta, bounds)
        h = 1e-6
        moves = [(1j * h, 0.0)] + [(0.0, h)] * (branch == "theta")
        for d, (dk, dth) in zip(dF, moves):
            plus, minus = (_shoot(complex(re, im) + s * dk, theta + s * dth,
                                  bounds) for s in (1.0, -1.0))
            # a switch that enters or leaves at an end is a kink of F
            assume(plus[3] == minus[3] == vals)
            fd = (plus[0] - minus[0]) / (2.0 * h)
            assert abs(d - fd) <= 1e-5 * abs(d)


class TestSolveShotFailure:
    def test_events_at_one_float_do_not_converge(self, monkeypatch):
        # a shot that solves F = 0 but puts two switches at one float
        # yields no medium, so the solve reports no solution
        from qnmopt import certificate
        monkeypatch.setattr(
            certificate, "_shoot", lambda kappa, theta, bounds: (
                0j, (1.0 + 0j, 1j), [0.0, 0.5, 0.5, 1.0], [4.0, 1.0, 4.0]))
        B0 = constant(4.0, AdmissibleBounds(1.0, 4.0))
        with pytest.raises(NoConvergence, match="no solution"):
            certificate._solve_shot(B0, math.pi / 2 + 1j * LN3_4,
                                    math.pi / 2, B0.bounds)


_BOX = AdmissibleBounds(1.0, 4.0)
_MEDIA = [constant(4.0, _BOX),
          PiecewiseStructure((0.0, 0.3, 1.0), (1.0, 4.0), _BOX),
          PiecewiseStructure((0.0, 0.4, 0.7, 1.0), (0.0, 4.0, 0.0),
                             AdmissibleBounds(0.0, 4.0)),
          PiecewiseStructure((0.0, 0.5, 1.0), (2.0, 3.0), _BOX),
          GridStructure((4.0, 1.0, 1.0, 4.0), _BOX),
          GridStructure((0.5, 4.0), _BOX)]   # outside its bounds
_NOT_MEDIA = ["B", None, (0.0, 1.0)]
_SEEDS = [math.pi / 2 + 1j * LN3_4, 2.0 + 0.3j, 4.5 + 0.2j, 3.0j, 0j,
          complex(math.nan, 1.0), complex(math.inf), "x", None]


class TestErrorContract:
    """phase_trace, switch_alignment, nonlinear_residual and
    self_consistent_solve end in a result or a QnmOptError for any medium,
    eigenvalue, bounds, grid and seed medium, wrong types among them."""

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_only_qnmopt_errors_escape(self, data):
        draw = data.draw
        B = draw(st.sampled_from(_MEDIA + _NOT_MEDIA))
        kappa = draw(st.sampled_from(_SEEDS))
        if draw(st.booleans()) and B in _MEDIA and isinstance(kappa, complex):
            try:   # often a root, so the checks run past the root test
                res = newton_refine(B, kappa, tol=1e-10, leash=1.0)
            except QnmOptError:
                res = None
            kappa = kappa if res is None else res[0]
        bounds = draw(st.sampled_from([_BOX, AdmissibleBounds(0.0, 4.0),
                                       AdmissibleBounds(2.0, 2.0), (1.0, 4.0),
                                       None]))
        n_grid = draw(st.sampled_from([16, 1, 0, -5, 2.5, "x", True]))
        B0 = draw(st.sampled_from([None] + _MEDIA + _NOT_MEDIA))
        calls = [lambda: phase_trace(B, kappa),
                 lambda: switch_alignment(B, kappa),
                 lambda: nonlinear_residual(B, kappa),
                 lambda: self_consistent_solve(kappa, bounds, n_grid, B0)]
        for call in calls:
            try:
                call()
            except QnmOptError:
                pass

    def test_grid_is_read_in_its_piecewise_form(self):
        # switch_alignment raised AttributeError on a grid
        B = GridStructure((4.0, 1.0, 1.0, 4.0), _BOX)
        kappa = newton_refine(B, 2.0 + 0.3j, tol=1e-10, leash=1.0)[0]
        assert switch_alignment(B, kappa) \
            == switch_alignment(to_piecewise(B), kappa)

    @pytest.mark.parametrize("call", [
        lambda: switch_alignment("B", 1.0 + 0.5j),
        lambda: phase_trace(None, 1.0 + 0.5j),
        lambda: self_consistent_solve(1.0 + 0.5j, (1.0, 4.0)),
        lambda: self_consistent_solve(1.0 + 0.5j, _BOX, 16, "B0")],
        ids=["switch", "trace", "bounds", "B0"])
    def test_wrong_types_are_input_errors(self, call):
        with pytest.raises(InputError):
            call()

    @pytest.mark.parametrize("n_grid", [0, -5, 2.5, True, "16"])
    def test_n_grid_is_a_positive_integer(self, n_grid):
        # 0 returned a fixed point rebuilt from one sample, -5 raised
        # ValueError and 2.5 TypeError
        with pytest.raises(InputError, match="n_grid"):
            self_consistent_solve(1.0 + 0.5j, _BOX, n_grid)
