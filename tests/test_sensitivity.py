import cmath
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qnmopt import field, sensitivity
from qnmopt.errors import (InputError, NearMultiple, NoConvergence, NotAtRoot,
                           NumericalError, QnmOptError)
from qnmopt.field import (charF, dzF, overlap_integrals,
                          phi2_cell_integrals, propagate)
from qnmopt.medium import (AdmissibleBounds, GridStructure, PiecewiseStructure,
                           constant, to_grid, to_piecewise)
from qnmopt.sensitivity import (GradientDensity, _damped_newton, _perturbed,
                                dzF_higher, eigenvalue_gradient,
                                find_double_eigenvalue, splitting_probe)
from qnmopt.spectrum import SpectralWindow, locate, multiplicity, newton_refine

from conftest import (AXIS_DOUBLE_KAPPA_SEED, AXIS_DOUBLE_SEED,
                      DOUBLE_KAPPA_SEED, DOUBLE_SEED, LN3_4)


def uniform_direction(n, bounds, value=1.0):
    return GridStructure((value,) * n, bounds)


def reference_require_root(B, kappa, tol=1e-8):
    r = abs(charF(kappa, B))
    if r >= tol:
        raise NotAtRoot(f"|F({kappa})| = {r:.3e} >= {tol:.0e}")


def dBF_direction(B, kappa: complex, direction: GridStructure) -> complex:
    """Directional derivative of F with respect to the medium at a root.

    Equals kappa [-kappa psi(1) + i psi'(1)] * int phi^2 d; linear in the
    direction.  splitting_probe takes the Wronskian form i kappa int phi^2 d
    / phi(1) instead.
    """
    reference_require_root(B, kappa)
    bd = propagate(B, kappa)
    cells = phi2_cell_integrals(B, kappa, direction.edges)
    w = complex(np.dot(cells, direction.values))
    return kappa * (-kappa * bd.psi1 + 1j * bd.dpsi1) * w


class TestDbfDirection:
    def test_zero_direction(self, box14):
        B = constant(4.0, box14)
        kappa = math.pi / 2 + 1j * LN3_4
        d = uniform_direction(8, box14, 0.0)
        assert dBF_direction(B, kappa, d) == 0.0

    def test_matches_finite_difference(self, box14):
        B = constant(4.0, box14)
        kappa = math.pi / 2 + 1j * LN3_4
        d = uniform_direction(8, box14)
        got = dBF_direction(B, kappa, d)
        h = 1e-6
        fd = (charF(kappa, constant(4.0 + h, AdmissibleBounds(1, 6)))
              - charF(kappa, constant(4.0 - h, AdmissibleBounds(1, 6)))) / (2 * h)
        assert abs(got - fd) < 1e-6 * max(1.0, abs(fd))

    def test_linearity(self, box14):
        B = constant(4.0, box14)
        kappa = math.pi / 2 + 1j * LN3_4
        rng = np.random.default_rng(2)
        vals = rng.uniform(-1, 1, 16)
        d1 = GridStructure(tuple(vals), box14)
        d2 = GridStructure(tuple(2 * vals), box14)
        a, b = dBF_direction(B, kappa, d1), dBF_direction(B, kappa, d2)
        assert abs(b - 2 * a) <= 1e-12 * max(1.0, abs(b))

    def test_requires_root(self, box14):
        with pytest.raises(NotAtRoot):
            dBF_direction(constant(4.0, box14), 1.0 + 1.0j,
                          uniform_direction(8, box14))


class TestGradientStorage:
    """g is a read-only complex array, copied once on construction."""

    def test_read_only(self):
        g = GradientDensity(1 + 1j, (1.0 + 1.0j, 2.0), 1.0)
        with pytest.raises(ValueError):
            g.g[0] = 0.0

    def test_source_mutation_ignored(self):
        src = np.array([1.0 + 1.0j, 2.0 + 0.0j])
        g = GradientDensity(1 + 1j, src, 1.0)
        src[0] = 5.0
        assert g.g.tolist() == [1.0 + 1.0j, 2.0 + 0.0j]

    @pytest.mark.parametrize("direction", ["abc", None, np.ones((16, 1))],
                             ids=["str", "None", "column"])
    def test_direction_must_be_1d_reals(self, direction):
        # "abc" raised ValueError, None and a column TypeError
        g = GradientDensity(1 + 1j, np.ones(16, complex), 1.0)
        with pytest.raises(InputError):
            g.directional(direction)

    @pytest.mark.parametrize("g", ["x", 1.0])
    def test_g_must_be_a_complex_array(self, g):
        # "x" raised ValueError, and a scalar TypeError at its first len
        with pytest.raises(InputError):
            GradientDensity(1 + 1j, g, 1.0)


class TestEigenvalueGradient:
    def test_resolve_oracle_uniform_shift(self, box14):
        # B = 4, kappa = pi + i ln3/4, direction = 1: predicted shift vs
        # freshly located eigenvalue of the shifted constant medium
        B = to_grid(constant(4.0, box14), 32)
        kappa = math.pi + 1j * LN3_4
        g = eigenvalue_gradient(B, kappa)
        d = uniform_direction(32, box14)
        pred = g.directional(d)
        h = 1e-4
        wide = AdmissibleBounds(1, 6)
        k2 = newton_refine(constant(4.0 + h, wide), kappa, tol=1e-12, leash=0.5)[0]
        fd = (k2 - kappa) / h
        assert abs(pred - fd) / abs(pred) < 1e-3

    def test_conjugate_symmetry(self, random_structures):
        w = SpectralWindow(0.5, 6.0, 0.05, 2.0)
        B = random_structures[0]
        ev = locate(B, w)[0]
        g_plus = eigenvalue_gradient(B, ev.kappa, n_cells=32)
        g_minus = eigenvalue_gradient(B, -ev.kappa.conjugate(), n_cells=32)
        a = g_plus.g
        b = g_minus.g
        assert np.max(np.abs(b + a.conjugate())) < 1e-10 * max(1.0, np.max(np.abs(a)))

    def test_gradient_check_random(self, box14, random_structures):
        # dense check of the derivative formula against re-solves
        rng = np.random.default_rng(31)
        w = SpectralWindow(0.5, 8.0, 0.05, 2.0)
        h = 1e-5
        n = 48
        checked = 0
        for B in random_structures[:4]:
            for ev in locate(B, w):
                g = eigenvalue_gradient(B, ev.kappa, n_cells=n)
                for _ in range(3):
                    direction = GridStructure(tuple(rng.uniform(-1, 1, n)),
                                              box14)
                    pred = g.directional(direction)
                    Bp = _perturbed(B, direction, h)
                    kp = newton_refine(Bp, ev.kappa, tol=1e-13, leash=0.2)
                    assert kp is not None
                    fd = (kp[0] - ev.kappa) / h
                    assert abs(pred - fd) / max(abs(pred), 1e-14) < 1e-3
                    checked += 1
        assert checked >= 20


STORED_OPTIMA = (Path(__file__).resolve().parent.parent
                 / "perfbench" / "data" / "optima.json")


def same_gradient(a, b):
    """Equal kappa; g and denom_abs equal to 1e-13 of their scale."""
    scale = float(np.max(np.abs(b.g)))
    return (a.kappa == b.kappa
            and float(np.max(np.abs(a.g - b.g))) <= 1e-13 * scale
            and abs(a.denom_abs - b.denom_abs) <= 1e-13 * b.denom_abs)


def reference_eigenvalue_gradient(B, kappa, n_cells=None):
    """eigenvalue_gradient before the jet: the B-weighted overlap integral
    in the denominator and dzF_higher's F'' in the simple-root floor."""
    reference_require_root(B, kappa)
    dz = abs(dzF(kappa, B))
    if dz < 1e-6 * max(1.0, abs(dzF_higher(B, kappa, 2))):
        raise NearMultiple(f"|dF/dz| = {dz:.3e} below the simple-root floor")
    if n_cells is None:
        if not isinstance(B, GridStructure):
            raise InputError("n_cells required for piecewise structures")
        n_cells = B.n_cells
    edges = np.linspace(0.0, 1.0, n_cells + 1)
    bd, i_phi2b, _ = overlap_integrals(B, kappa)
    denom = 2.0 * kappa * i_phi2b - 1j * bd.phi1 ** 2
    cells = phi2_cell_integrals(B, kappa, edges)
    g = -kappa ** 2 * cells / denom * n_cells  # cell averages of the density
    return GradientDensity(kappa, tuple(complex(v) for v in g), abs(denom))


class TestGradientOneSweep:
    """The gradient read off one jet matches the overlap-integral original."""

    @pytest.mark.parametrize("index", range(3))
    def test_stored_optima_equal_reference(self, index):
        rec = json.loads(STORED_OPTIMA.read_text(encoding="utf-8"))[index]
        B = PiecewiseStructure.from_json_dict(rec["structure"])
        kappa = newton_refine(B, complex(*rec["kappa"]), tol=1e-9,
                              leash=1.0)[0]
        for n_cells in (64, 256):
            assert same_gradient(eigenvalue_gradient(B, kappa, n_cells),
                                 reference_eigenvalue_gradient(B, kappa, n_cells))

    def test_grid_medium_equal_reference(self, box14):
        B = to_grid(constant(4.0, box14), 32)
        kappa = newton_refine(B, math.pi + 1j * LN3_4)[0]
        assert same_gradient(eigenvalue_gradient(B, kappa),
                             reference_eigenvalue_gradient(B, kappa))

    def test_no_contour_sweep(self, monkeypatch, box14):
        # the simple-root floor reads F'' off the jet, not a many-z sweep
        def refuse(*args):
            raise AssertionError("eigenvalue_gradient swept a contour")
        monkeypatch.setattr(field, "charF_many", refuse)
        monkeypatch.setattr(sensitivity, "dzF_higher", refuse)
        B = to_grid(constant(4.0, box14), 32)
        kappa = newton_refine(B, math.pi + 1j * LN3_4)[0]
        assert eigenvalue_gradient(B, kappa).n_cells == 32

    @pytest.mark.parametrize("kappa", [0, 0j, 1.0 + 1.0j, -2.0 + 0.3j])
    def test_off_root_raises_not_at_root(self, box14, kappa):
        for B in (constant(4.0, box14), to_grid(constant(4.0, box14), 16)):
            with pytest.raises(NotAtRoot) as exc:
                eigenvalue_gradient(B, kappa, n_cells=16)
            with pytest.raises(NotAtRoot) as ref:
                reference_eigenvalue_gradient(B, kappa, n_cells=16)
            assert str(exc.value) == str(ref.value)

    @pytest.mark.parametrize("n_cells", [0, -1, 2.5, 16.0, True, "16"])
    def test_bad_cell_count_is_input_error(self, box14, n_cells):
        # 0 raised a bare ValueError from np.linspace, 2.5 a TypeError
        B = constant(4.0, box14)
        with pytest.raises(InputError):
            eigenvalue_gradient(B, math.pi + 1j * LN3_4, n_cells)


class TestSplittingProbe:
    def test_exponent_and_coefficient(self, box14, double_fixture):
        B, kappa = double_fixture
        n = 16
        d = GridStructure(tuple(1.0 if i < n // 2 else 0.0 for i in range(n)),
                          box14)
        zetas = [1e-4, 1e-5, 1e-6, 1e-7]
        pr = splitting_probe(B, kappa, 2, d, zetas)
        assert 0.45 <= pr.fitted_exponent <= 0.55
        dist = min(abs(pr.c1_fitted * cmath.exp(1j * math.pi * k) - pr.c1_predicted)
                   for k in range(2))
        assert dist < 1e-2 * abs(pr.c1_predicted)

    def test_branches_simple_and_antipodal(self, box14, double_fixture):
        B, kappa = double_fixture
        n = 16
        d = GridStructure(tuple(1.0 if i < n // 2 else 0.0 for i in range(n)),
                          box14)
        pr = splitting_probe(B, kappa, 2, d, [1e-5])
        branches = pr.branch_points[0]
        assert len(branches) == 2
        spread = abs(cmath.phase((branches[0] - kappa) / (branches[1] - kappa)))
        assert abs(spread - math.pi) < 0.02
        Bz = _perturbed(B, d, 1e-5)
        for z in branches:
            assert abs(dzF(z, Bz)) > 1e-6  # simple roots

    def test_grid_medium_matches_piecewise(self, grid_double_fixture):
        B, kappa = grid_double_fixture
        g = to_grid(B, 256)
        d = GridStructure(tuple(1.0 if i < 8 else 0.0 for i in range(16)),
                          B.bounds)
        pr = splitting_probe(g, kappa, 2, d, [1e-4, 1e-5])
        assert pr == splitting_probe(to_piecewise(g), kappa, 2, d, [1e-4, 1e-5])
        assert 0.45 <= pr.fitted_exponent <= 0.55

    @pytest.mark.parametrize("fixture", ["double_fixture",
                                         "grid_double_fixture"])
    def test_predicted_coefficient_matches_boundary_data(self, request,
                                                          fixture):
        # the Wronskian form of dBF agrees with the psi(1), psi'(1) form
        B, kappa = request.getfixturevalue(fixture)
        d = GridStructure(np.arange(16) < 8, B.bounds)
        pr = splitting_probe(B, kappa, 2, d, [1e-5])
        eta = -2.0 * dBF_direction(B, kappa, d) / dzF_higher(B, kappa, 2)
        assert abs(pr.c1_predicted - eta ** 0.5) <= 1e-12 * abs(eta ** 0.5)

    @pytest.mark.parametrize("r, zetas", [
        (2, []), (2, ()), (1, [1e-5]), (2.5, [1e-5]), (True, [1e-5]),
        (None, [1e-5])])
    def test_bad_arguments_are_input_errors(self, box14, double_fixture, r,
                                            zetas):
        # no zetas raised IndexError after the Newton work, r = 2.5 TypeError
        B, kappa = double_fixture
        d = GridStructure((1.0,) * 8, box14)
        with pytest.raises(InputError):
            splitting_probe(B, kappa, r, d, zetas)

    @pytest.mark.parametrize("zetas", [
        ["x"], [-1e-5], [0.0], [math.inf], [math.nan], [1e-5, -1e-6],
        [1e-5, 1e-6, 1e-5], [1e-5, 1e-5], [1e-5j], [True], [None], 1e-5])
    def test_bad_zetas_refused_before_newton(self, box14, double_fixture,
                                             monkeypatch, zetas):
        # "x" escaped as ValueError, -1e-5 as TypeError and inf as a
        # RuntimeWarning; a repeat was refused after its Newton runs
        def no_newton(*args, **kwargs):
            raise AssertionError("Newton ran before the zetas were checked")

        monkeypatch.setattr(sensitivity, "newton_refine", no_newton)
        B, kappa = double_fixture
        d = GridStructure((1.0,) * 8, box14)
        with pytest.raises(InputError):
            splitting_probe(B, kappa, 2, d, zetas)

    def test_zeta_must_decrease(self, box14, double_fixture):
        B, kappa = double_fixture
        d = GridStructure((1.0,) * 8, box14)
        pr = splitting_probe(B, kappa, 2, d, [1e-6, 1e-4])  # sorted internally
        assert pr.zeta_values[0] > pr.zeta_values[-1]


class TestFindDouble:
    def test_fixture_properties(self, double_fixture):
        B, kappa = double_fixture
        assert abs(charF(kappa, B)) < 1e-10
        assert abs(dzF(kappa, B)) < 1e-10
        assert kappa.imag > 0

    def test_interface_perturbation_splits(self, double_fixture):
        from qnmopt.medium import PiecewiseStructure
        from qnmopt.spectrum import locate as loc
        B, kappa = double_fixture
        pts = list(B.breakpoints)
        pts[1] += 1e-3
        B2 = PiecewiseStructure(tuple(pts), B.values, B.bounds)
        w = SpectralWindow(kappa.real - 0.3, kappa.real + 0.3,
                           max(kappa.imag - 0.3, 0.01), kappa.imag + 0.3)
        evs = loc(B2, w)
        assert len(evs) == 2
        assert all(ev.multiplicity == 1 for ev in evs)

    def test_axis_double_root(self):
        B, kappa = find_double_eigenvalue(AXIS_DOUBLE_SEED,
                                          AXIS_DOUBLE_KAPPA_SEED)
        assert kappa.real == 0.0
        assert abs(charF(kappa, B)) + abs(dzF(kappa, B)) < 1e-10

    @pytest.mark.parametrize("seed,kappa_seed,want", [
        (DOUBLE_SEED, DOUBLE_KAPPA_SEED,
         ([0.0, 0.7072805106388309, 1.0], [4.0, 1.459553817454178],
          4.441791631939977 + 1.0492974550506469j)),
        (AXIS_DOUBLE_SEED, AXIS_DOUBLE_KAPPA_SEED,
         ([0.0, 0.30310679528068857, 1.0], [9.0, 0.25],
          0.7086155870683264j)),
    ], ids=["complex", "axis"])
    def test_fixtures_unchanged(self, seed, kappa_seed, want):
        # the values the separate complex and axis Newton loops produced;
        # the jet's dF/dz moved them by at most 1.1e-15
        B, kappa = find_double_eigenvalue(seed, kappa_seed)
        got = B.breakpoints.tolist() + B.values.tolist() + [kappa]
        assert len(got) == 6
        for a, b in zip(got, want[0] + want[1] + [want[2]]):
            assert abs(a - b) <= 1e-12

    @pytest.mark.parametrize("seed,kappa_seed", [
        ((0.0, *DOUBLE_SEED[1:]), DOUBLE_KAPPA_SEED),
        (DOUBLE_SEED, DOUBLE_KAPPA_SEED.conjugate()),
        ((0.0, *AXIS_DOUBLE_SEED[1:]), AXIS_DOUBLE_KAPPA_SEED),
        (AXIS_DOUBLE_SEED, -AXIS_DOUBLE_KAPPA_SEED),
    ], ids=["complex-interface", "complex-lower", "axis-interface",
            "axis-lower"])
    def test_infeasible_seed(self, seed, kappa_seed):
        with pytest.raises(InputError):
            find_double_eigenvalue(seed, kappa_seed)

    @pytest.mark.parametrize("seed,kappa_seed", [
        (DOUBLE_SEED, DOUBLE_KAPPA_SEED),
        (AXIS_DOUBLE_SEED, AXIS_DOUBLE_KAPPA_SEED),
    ], ids=["complex", "axis"])
    def test_iteration_budget(self, monkeypatch, seed, kappa_seed):
        monkeypatch.setattr(sensitivity, "_DOUBLE_ITERS", 1)
        with pytest.raises(NoConvergence, match="max_iters = 1 reached"):
            find_double_eigenvalue(seed, kappa_seed)


def _scalar(f, domain=lambda x: True, df=None):
    """A one-unknown residual for _damped_newton; with df, it returns its
    exact Jacobian too."""
    def residual(q, aux):
        if not domain(q[0]):
            return None
        r = np.array([f(q[0])])
        return (r, aux) if df is None else (r, aux, np.array([[df(q[0])]]))
    return residual


class TestDampedNewton:
    @pytest.mark.parametrize("residual,q0,max_iters,why", [
        (_scalar(lambda x: x ** 3 - 8.0), 3.0, 60, None),
        # a step that converges counts even when it is the last allowed
        (_scalar(lambda x: x - 2.0), 5.0, 2, None),
        (_scalar(lambda x: x - 1.0, lambda x: x > 0), -1.0, 60,
         "infeasible start"),
        (_scalar(lambda x: x - 1.0, lambda x: x >= 0), 0.0, 60,
         "infeasible difference point"),
        (_scalar(lambda x: x * x + 1.0), 0.0, 60, "singular Jacobian"),
        # the kink at 0 makes the difference Jacobian point uphill
        (_scalar(lambda x: 2.0 + x + 2.0 * abs(x)), 0.0, 60,
         "damping failed"),
        (_scalar(lambda x: x ** 3 - 8.0), 3.0, 1, "max_iters = 1 reached"),
        # exact-Jacobian twins; an exact Jacobian has no difference points
        (_scalar(lambda x: x ** 3 - 8.0, df=lambda x: 3.0 * x * x), 3.0, 60,
         None),
        (_scalar(lambda x: x - 2.0, df=lambda x: 1.0), 5.0, 2, None),
        (_scalar(lambda x: x - 1.0, lambda x: x > 0, lambda x: 1.0), -1.0, 60,
         "infeasible start"),
        (_scalar(lambda x: x * x + 1.0, df=lambda x: 2.0 * x), 0.0, 60,
         "singular Jacobian"),
        (_scalar(lambda x: 2.0 + x + 2.0 * abs(x),
                 df=lambda x: 1.0 + 2.0 * np.sign(x)), 0.0, 60,
         "damping failed"),
        (_scalar(lambda x: x ** 3 - 8.0, df=lambda x: 3.0 * x * x), 3.0, 1,
         "max_iters = 1 reached"),
    ], ids=["converged", "last-step", "start", "difference", "singular", "damping",
            "budget", "converged-exact", "last-step-exact", "start-exact",
            "singular-exact", "damping-exact", "budget-exact"])
    def test_stop_reasons(self, residual, q0, max_iters, why):
        q, r, aux, got = _damped_newton(residual, np.array([q0]), max_iters,
                                        aux="kept")
        assert got == why
        assert aux == "kept"
        if why is None:
            assert abs(q[0] - 2.0) < 1e-12 and abs(r[0]) < 1e-12
        elif why == "infeasible start":
            assert r is None and q[0] == q0
        else:
            # the last accepted iterate comes back with its residual
            assert r[0] == residual(q, None)[0][0]


class TestDampingFloor:
    """Halving stops once every component of the damped step is below what
    the Jacobian resolves: the difference step _FD_STEP (1 + |q|) for a
    central-difference Jacobian, rounding, eps (1 + |q|), for an exact one.
    Further halvings only spend residual calls."""

    def test_kink_stops_at_the_difference_step(self):
        calls = []
        f = _scalar(lambda x: 2.0 + x + 2.0 * abs(x))
        q, _, _, why = _damped_newton(
            lambda q, aux: calls.append(q[0]) or f(q, aux), np.array([0.0]),
            60)
        assert why == "damping failed" and q[0] == 0.0
        # the start, two difference points and steps 2, 1, ..., 2^-23: the
        # next, 2^-24, is below the difference step 1e-7 (30 halvings before)
        assert len(calls) == 28
        assert abs(calls[-1]) >= 1e-7 > abs(calls[-1]) / 2

    def test_exact_kink_stops_at_rounding(self):
        calls = []
        f = _scalar(lambda x: 2.0 + x + 2.0 * abs(x),
                    df=lambda x: 1.0 + 2.0 * np.sign(x))
        q, _, _, why = _damped_newton(
            lambda q, aux: calls.append(q[0]) or f(q, aux), np.array([0.0]),
            60)
        assert why == "damping failed" and q[0] == 0.0
        # the start and steps 2, 1, ..., 2^-52 = eps: the exact Jacobian
        # needs no difference points, and halving runs past 1e-7 to rounding
        eps = np.finfo(float).eps
        assert len(calls) == 55
        assert abs(calls[-1]) >= eps > abs(calls[-1]) / 2

    def test_shooting_polish_at_its_noise_floor(self, monkeypatch):
        # at alpha = 9.4 on (1, 4), 256 cells, F's noise floor sits above
        # the Newton tolerance, so the shooting solve ends on 'damping
        # failed'.  With the shot's exact Jacobian halving runs to rounding:
        # 48 shots, where central differences stopped at the difference step
        # after 21 and moved kappa by 9e-15 relative; both keep the switch
        # deviation below 1e-10 (TestShootingPolish)
        from qnmopt import certificate
        from qnmopt.optimize import OptimizeConfig, minimize_im_at_frequency
        shots = []
        shoot = certificate._shoot
        monkeypatch.setattr(certificate, "_shoot",
                            lambda *a: shots.append(a) or shoot(*a))
        res = minimize_im_at_frequency(OptimizeConfig(
            alpha=9.4, bounds=AdmissibleBounds(1.0, 4.0), n_cells=256))
        assert len(shots) == 48
        want = 9.40000000000027 + 0.008097612016161269j
        assert abs(res.polished_kappa - want) <= 1e-14 * abs(want)


class TestHigherDerivatives:
    def test_second_derivative_of_unit_medium(self):
        # F = e^{iz} for B = 1: every z-derivative is i^k e^{iz}
        B = constant(1.0)
        z = 1.3 + 0.4j
        d2 = dzF_higher(B, z, 2)
        want = -cmath.exp(1j * z)
        assert abs(d2 - want) < 1e-7 * abs(want)

    def test_third_derivative(self):
        B = constant(1.0)
        z = 0.9 + 0.2j
        d3 = dzF_higher(B, z, 3)
        want = -1j * cmath.exp(1j * z)
        assert abs(d3 - want) < 1e-5 * abs(want)

    def test_order_validation(self):
        with pytest.raises(InputError):
            dzF_higher(constant(1.0), 1.0, 1)


def reference_dzF_higher(B, kappa: complex, order: int) -> complex:
    """An independent dzF_higher: finite differences of dzF.

    A 5-point stencil for order 2, else the (order - 1)-th central
    difference, with step 1e-4 (1 + |kappa|).
    """
    h = 1e-4 * (1.0 + abs(kappa))
    if order == 2:
        vals = [dzF(kappa + k * h, B) for k in (-2, -1, 1, 2)]
        return (vals[0] - 8 * vals[1] + 8 * vals[2] - vals[3]) / (12 * h)
    m = order - 1
    offsets = [m / 2.0 - j for j in range(m + 1)]
    coef = [(-1) ** j * math.comb(m, j) for j in range(m + 1)]
    vals = [dzF(kappa + o * h, B) for o in offsets]
    return sum(c * v for c, v in zip(coef, vals)) / h ** m


def constant_dzF(b: float, z: complex, order: int) -> complex:
    """d^order F / dz^order of the constant medium B = b in closed form.

    F(z) = cos(sz) + i s sin(sz) with s = sqrt(b).
    """
    s = math.sqrt(b)
    a = s * z + order * math.pi / 2
    return s ** order * (cmath.cos(a) + 1j * s * cmath.sin(a))


class TestCauchyDerivative:
    """dzF_higher, the Taylor product at orders 2 to 6, against closed forms
    and finite differences."""

    @pytest.mark.parametrize("b", [0.25, 4.0, 9.0, 100.0])
    def test_constant_media_closed_form(self, b):
        for z in (0.3 + 0.2j, 3 + 1j, 20 + 0.5j, 0.001 + 0.01j, 40 + 3j,
                  -5 + 0.7j):
            for order in range(2, 7):
                want = constant_dzF(b, z, order)
                err = abs(dzF_higher(constant(b), z, order) - want) / abs(want)
                assert err <= 1e-12, (z, order)

    def test_second_order_matches_reference(self, double_fixture,
                                            grid_double_fixture):
        cases = [double_fixture, grid_double_fixture]
        for rec in json.loads(STORED_OPTIMA.read_text(encoding="utf-8")):
            B = PiecewiseStructure.from_json_dict(rec["structure"])
            cases.append((B, newton_refine(B, complex(*rec["kappa"]),
                                           tol=1e-9, leash=1.0)[0]))
        for B, kappa in cases:
            assert abs(dzF_higher(B, kappa, 2)
                       - reference_dzF_higher(B, kappa, 2)) <= 1e-10

    def test_no_other_kernel(self, monkeypatch, random_structures):
        # F^(r) comes off the Taylor product alone: no contour, no F' sweep
        def refuse(*args):
            raise AssertionError("dzF_higher called another kernel")
        for name in ("charF_many", "charF_dzF", "dzF"):
            monkeypatch.setattr(field, name, refuse)
        monkeypatch.setattr(sensitivity, "charF_dzF", refuse)
        for B in random_structures[:3]:
            for order in range(2, 7):
                assert np.isfinite(dzF_higher(B, 2.0 + 0.5j, order))

    @pytest.mark.parametrize("order", [1, 7, 2.5, 2.0, True, "2"])
    def test_order_range(self, order):
        with pytest.raises(InputError):
            dzF_higher(constant(4.0), 1.0 + 0.5j, order)

    def test_splitting_order_range(self, triple_fixture):
        B, kappa, _ = triple_fixture
        d = GridStructure(np.arange(16) < 8, B.bounds)
        with pytest.raises(InputError):
            splitting_probe(B, kappa, 7, d, [1e-4, 1e-5])


class TestTripleRoot:
    """F = F' = F'' = 0 on three layers (4, v2, v3) in the box (0, 5)."""

    def test_solve_converges(self, triple_fixture):
        B, kappa, why = triple_fixture
        assert why is None
        np.testing.assert_allclose(
            B.breakpoints[1:3].tolist() + B.values[1:].tolist()
            + [kappa.real, kappa.imag],
            [0.53588608543013, 0.74096273829851, 1.70707471072542,
             1.06994262295816, 5.86242624879545, 1.97356983068325],
            rtol=0, atol=1e-10)
        assert abs(dzF_higher(B, kappa, 3)) > 1.0

    def test_multiplicity_three(self, triple_fixture):
        B, kappa, _ = triple_fixture
        assert multiplicity(B, kappa, 0.05) == 3

    def test_puiseux_exponent(self, triple_fixture):
        B, kappa, _ = triple_fixture
        d = GridStructure(np.arange(16) < 8, B.bounds)
        pr = splitting_probe(B, kappa, 3, d, [1e-4, 1e-5, 1e-6, 1e-7])
        assert abs(pr.fitted_exponent - 1 / 3) <= 0.05
        assert all(len(br) == 3 for br in pr.branch_points)


class TestNonFiniteKappa:
    def test_gradient_at_nan_raises(self, box14):
        B = to_grid(constant(4.0, box14), 16)
        with pytest.raises(NotAtRoot):
            eigenvalue_gradient(B, complex(math.nan, 0.3))


_KAPPAS = [0j, 1e-300j, 2.0 + 0.5j, -3.0 + 0.1j, 1e300j,
           complex(1e200, 1e200), complex(math.inf), complex(math.nan, 1.0),
           math.inf, 4, np.complex128(1.0 + 1.0j)]
_NOT_NUMBERS = ["x", None, True, [1.0], "1+2j", object()]


class TestErrorContract:
    """eigenvalue_gradient, dzF_higher and splitting_probe end in a result
    or a QnmOptError for any kappa, non-numbers among them, and any order,
    cell count and medium; no other exception and no RuntimeWarning
    escapes."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(values=st.lists(st.sampled_from([0.0, 1.0, 4.0, 100.0]),
                           min_size=1, max_size=6),
           kappa=st.sampled_from(_KAPPAS + _NOT_NUMBERS)
           | st.complex_numbers(max_magnitude=20.0),
           order=st.sampled_from([2, 3, 6, 1, 7, 2.0, "3", None]),
           n_cells=st.sampled_from([None, 1, 8, 0, 2.5]))
    def test_only_qnmopt_errors_escape(self, values, kappa, order, n_cells):
        B = GridStructure(tuple(values), AdmissibleBounds(0.0, 100.0))
        calls = [lambda: eigenvalue_gradient(B, kappa, n_cells),
                 lambda: dzF_higher(B, kappa, order),
                 lambda: splitting_probe(to_piecewise(B), kappa, 2,
                                         uniform_direction(4, B.bounds),
                                         [1e-3])]
        for call in calls:
            try:
                call()
            except QnmOptError:
                pass
        if kappa in _NOT_NUMBERS:
            for call in calls:
                with pytest.raises(InputError, match="must be a number"):
                    call()

    @pytest.mark.parametrize("kappa", [1e300j, complex(1e200, 1e200)])
    def test_overflowing_jet_is_numerical_error(self, kappa):
        B = GridStructure((1.0, 4.0, 2.0), AdmissibleBounds(1.0, 4.0))
        for call in (lambda: eigenvalue_gradient(B, kappa),
                     lambda: dzF_higher(B, kappa, 3)):
            with pytest.raises(NumericalError, match="not finite"):
                call()

    @pytest.mark.parametrize("kappa", [complex(math.inf), math.inf,
                                       complex(0.3, math.nan)])
    def test_non_finite_kappa_is_input_error(self, kappa):
        B = GridStructure((1.0, 4.0, 2.0), AdmissibleBounds(1.0, 4.0))
        with pytest.raises(NotAtRoot):
            eigenvalue_gradient(B, kappa)
        with pytest.raises(InputError, match="finite"):
            dzF_higher(B, kappa, 3)

    @pytest.mark.parametrize("kappa_seed", ["x", None, complex(math.inf),
                                            complex(1.0, math.nan)])
    def test_double_root_seed_must_be_a_finite_number(self, kappa_seed):
        with pytest.raises(InputError):
            find_double_eigenvalue(DOUBLE_SEED, kappa_seed)

    @pytest.mark.parametrize("seed", [("x", 1, 2), (0.5, 1), None,
                                      (0.5, math.nan, 2.0),
                                      (0.5, True, 2.0), "0.5"])
    def test_double_root_seed_must_be_three_finite_reals(self, seed):
        # ('x', 1, 2) and (0.5, 1) raised ValueError, None TypeError
        with pytest.raises(InputError, match="three finite reals"):
            find_double_eigenvalue(seed, DOUBLE_KAPPA_SEED)
