"""Acceptance suite: one test per shipping criterion.

Each test prints a PASS line with the measured numbers once its assertions
hold, so `pytest -s tests/test_acceptance.py` reads as a checklist.
"""
import cmath
import math
import time

import numpy as np
import pytest

from qnmopt.certificate import (nonlinear_residual, self_consistent_solve,
                                switch_alignment)
from qnmopt.field import dzF, phi_series, propagate
from qnmopt.medium import (AdmissibleBounds, GridStructure,
                           PiecewiseStructure, constant, extremality_measure,
                           random_bang_bang, to_grid)
from qnmopt.optimize import OptimizeConfig, minimize_im_at_frequency
from qnmopt.sensitivity import (_perturbed, eigenvalue_gradient,
                                splitting_probe)
from qnmopt.spectrum import (SpectralWindow, constant_spectrum, locate,
                             newton_refine)
from qnmopt.timedomain import excite_and_fit

from conftest import LN3_4

GOLDEN_WINDOW = SpectralWindow(0.1, 12.0, 0.05, 3.0)
ALPHAS = (math.pi / 2, math.pi, 2 * math.pi)


@pytest.fixture(scope="session")
def attraction_runs(box14, pi_optimum):
    runs = {math.pi: pi_optimum}
    for alpha in (math.pi / 2, 2 * math.pi):
        cfg = OptimizeConfig(alpha=alpha, bounds=box14, n_cells=256,
                             max_iters=400)
        runs[alpha] = minimize_im_at_frequency(cfg)
    return runs


def _report(n, label, detail):
    print(f"\ncriterion {n:2d} PASS  {label}: {detail}")


def test_c01_constant_golden_spectra():
    t0 = time.perf_counter()
    worst = 0.0
    for b in (0.25, 4.0, 9.0):
        evs = locate(constant(b), GOLDEN_WINDOW)
        want = constant_spectrum(b, GOLDEN_WINDOW)
        assert len(evs) == len(want)
        worst = max(worst, max(abs(ev.kappa - z)
                               for ev, z in zip(evs, want)))
    elapsed = time.perf_counter() - t0
    assert worst < 1e-10
    assert elapsed < 10.0
    _report(1, "constant-medium golden spectra",
            f"max |dk| = {worst:.2e}, {elapsed:.2f}s")


def test_c02_empty_spectra():
    t0 = time.perf_counter()
    for b in (0.0, 1.0):
        assert locate(constant(b), GOLDEN_WINDOW) == []
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report(2, "empty spectra for B=0 and B=1", f"{elapsed:.2f}s")


def test_c03_axis_optimum(box14):
    t0 = time.perf_counter()
    cfg = OptimizeConfig(alpha=0.0, bounds=box14, n_cells=256, max_iters=300)
    res = minimize_im_at_frequency(cfg, to_grid(constant(2.5, box14), 256))
    err = abs(res.kappa.imag - LN3_4)
    elapsed = time.perf_counter() - t0
    assert err < 1e-6
    assert np.allclose(res.B.values, 4.0)
    assert elapsed < 60.0
    _report(3, "alpha = 0 optimum is B = b2",
            f"|Im k - ln3/4| = {err:.2e}, {elapsed:.1f}s")


def test_c04_gradient_fidelity(box14):
    t0 = time.perf_counter()
    rng = np.random.default_rng(404)
    w = SpectralWindow(0.5, 8.0, 0.05, 2.0)
    h = 1e-5
    n = 48
    worst = 0.0
    n_checked = 0
    for i in range(10):
        B = random_bang_bang(box14, rng)
        for ev in locate(B, w):
            if ev.multiplicity != 1:
                continue
            g = eigenvalue_gradient(B, ev.kappa, n_cells=n)
            for _ in range(5):
                d = GridStructure(tuple(rng.uniform(-1, 1, n)), box14)
                pred = g.directional(d)
                kp = newton_refine(_perturbed(B, d, h), ev.kappa,
                                   tol=1e-13, leash=0.2)
                assert kp is not None
                rel = abs(pred - (kp[0] - ev.kappa) / h) / abs(pred)
                worst = max(worst, rel)
                n_checked += 1
    elapsed = time.perf_counter() - t0
    assert worst < 1e-3
    assert elapsed < 120.0
    _report(4, "gradient vs re-solve finite differences",
            f"{n_checked} checks, worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_c05_bang_bang_attraction(box14, attraction_runs):
    t0 = time.perf_counter()
    details = []
    for alpha in ALPHAS:
        res = attraction_runs[alpha]
        ext = extremality_measure(res.B, box14, 0.15)
        assert ext < 0.02
        assert abs(res.kappa.real - alpha) <= 1e-8
        details.append(f"a={alpha:.3f}: ext={ext:.4f}")
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    _report(5, "bang-bang attraction at N = 256", "; ".join(details))


def test_c06_switch_certificates(box14, attraction_runs):
    t0 = time.perf_counter()
    details = []
    for alpha in ALPHAS:
        res = attraction_runs[alpha]
        cert = switch_alignment(res.polished, res.polished_kappa)
        assert cert.max_deviation < 0.05
        assert cert.max_interval_variation <= math.pi + 0.05
        details.append(f"a={alpha:.3f}: dev={cert.max_deviation:.1e}")
    # negative control: one switch displaced by 0.05 must fail the bound
    res = attraction_runs[math.pi]
    pts = list(res.polished.breakpoints)
    pts[1] += 0.05
    bad = PiecewiseStructure(tuple(pts), res.polished.values, box14)
    k_bad = newton_refine(bad, res.polished_kappa, tol=1e-10, leash=0.5)[0]
    cert_bad = switch_alignment(bad, k_bad)
    assert cert_bad.max_deviation > 0.05
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report(6, "switch-ray certificates",
            "; ".join(details) + f"; control dev={cert_bad.max_deviation:.2f}")


def test_c07_nonlinear_fixed_point(box14, attraction_runs):
    t0 = time.perf_counter()
    res = attraction_runs[math.pi]
    sc = self_consistent_solve(res.polished_kappa, box14, n_grid=2048,
                               B0=res.polished)
    dk = abs(sc.kappa - res.polished_kappa)
    _, mismatch = nonlinear_residual(sc.B, sc.kappa)
    elapsed = time.perf_counter() - t0
    assert dk < 1e-8
    assert mismatch < 1e-3
    assert elapsed < 60.0
    _report(7, "self-consistent fixed point",
            f"|dk| = {dk:.2e}, mismatch = {mismatch:.1e}, "
            f"{len(sc.history)} iterations, {elapsed:.1f}s")


def test_c08_puiseux_splitting(box14, double_fixture):
    t0 = time.perf_counter()
    B, kappa = double_fixture
    n = 16
    d = GridStructure(tuple(1.0 if i < n // 2 else 0.0 for i in range(n)),
                      box14)
    zetas = [1e-4, 1e-5, 1e-6, 1e-7]
    probe = splitting_probe(B, kappa, 2, d, zetas)
    assert 0.45 <= probe.fitted_exponent <= 0.55
    for zeta, branches in zip(probe.zeta_values, probe.branch_points):
        assert len(branches) == 2
        Bz = _perturbed(B, d, zeta)
        for z in branches:
            assert abs(dzF(z, Bz)) > 1e-8  # each perturbed root is simple
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(8, "Puiseux splitting of the double eigenvalue",
            f"fitted exponent {probe.fitted_exponent:.4f}, {elapsed:.1f}s")


def test_c09_symmetry_and_positivity(box14):
    t0 = time.perf_counter()
    rng = np.random.default_rng(909)
    w = SpectralWindow(0.3, 7.0, 0.05, 2.5)
    wm = SpectralWindow(-7.0, -0.3, 0.05, 2.5)
    n_roots = 0
    worst = 0.0
    for _ in range(20):
        B = random_bang_bang(box14, rng)
        evs = locate(B, w)
        mirror = locate(B, wm)
        for ev in evs:
            assert ev.kappa.imag > 0
            target = -ev.kappa.conjugate()
            d = min(abs(m.kappa - target) for m in mirror)
            worst = max(worst, d)
            n_roots += 1
    elapsed = time.perf_counter() - t0
    assert worst < 1e-10
    assert elapsed < 60.0
    _report(9, "positivity and mirror symmetry",
            f"{n_roots} roots, worst partner gap {worst:.2e}, {elapsed:.1f}s")


def test_c10_time_domain_cross_check(box14):
    t0 = time.perf_counter()
    B = constant(4.0, box14)
    kappa = math.pi + 1j * LN3_4
    discrepancies = []
    for m in (1024, 2048, 4096):
        fit = excite_and_fit(B, kappa, 15.0, m)
        discrepancies.append(abs(fit.beta / fit.expected - 1.0))
    elapsed = time.perf_counter() - t0
    assert discrepancies[-1] < 0.05
    assert discrepancies[2] < discrepancies[1] < discrepancies[0]
    assert elapsed < 120.0
    _report(10, "time-domain decay matches 2 Im k",
            f"discrepancies {['%.2e' % d for d in discrepancies]} "
            f"for M = 1024/2048/4096, {elapsed:.1f}s")


def test_c11_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1111)
    worst = 0.0
    for _ in range(50):
        r = math.exp(rng.uniform(math.log(0.5), math.log(20.0)))
        z = r * cmath.exp(1j * rng.uniform(0.0, math.pi))
        # large |z| pairs with lighter media so the power-series comparison
        # stays within double-precision conditioning (|z| sqrt(sup B) <= 13)
        b2 = min(4.0, (13.0 / r) ** 2)
        b1 = 0.25 * b2
        B = random_bang_bang(AdmissibleBounds(b1, b2), rng)
        bd = propagate(B, z)
        sr = phi_series(B, z)
        for a, b in ((bd.phi1, sr.bd.phi1), (bd.dphi1, sr.bd.dphi1)):
            worst = max(worst, abs(a - b) / max(1.0, abs(a)))
    elapsed = time.perf_counter() - t0
    assert worst < 1e-8
    assert elapsed < 30.0
    _report(11, "transfer-matrix vs power-series oracle",
            f"50 draws, worst rel gap {worst:.2e}, {elapsed:.1f}s")
