"""Certifying a candidate optimum through its mode phase.

At an optimal structure every low-to-high switch sits where the squared
mode crosses one ray of the complex plane and every high-to-low switch
where it crosses the opposite ray; the phase varies by at most pi across
any interval of constancy; and a rotation of the mode solves the nonlinear
eigenvalue problem whose coefficient is rebuilt from sign(Im y^2).

Run:  python3 demos/demo_certificate.py
"""
import math

from qnmopt import (AdmissibleBounds, OptimizeConfig, PiecewiseStructure,
                    minimize_im_at_frequency, nonlinear_residual, phase_trace,
                    self_consistent_solve, switch_alignment)
from qnmopt.spectrum import newton_refine

bounds = AdmissibleBounds(1.0, 4.0)
cfg = OptimizeConfig(alpha=math.pi, bounds=bounds, n_cells=256, max_iters=400)
res = minimize_im_at_frequency(cfg)
B, kappa = res.polished, res.polished_kappa
print(f"candidate: kappa = {kappa:.10f}, "
      f"switches at {[f'{x:.4f}' for x in B.breakpoints[1:-1]]}")

# --- the phase trace and the ray alignment -----------------------------------

trace = phase_trace(B, kappa)
print(f"\nphase xi: xi(0) = {trace.xi[0]:.3f}, xi(1) = {trace.xi[-1]:.3f}, "
      f"monotone {'down' if trace.xi_prime_sign < 0 else 'up'}")

cert = switch_alignment(B, kappa)
print(f"omega = {cert.omega:.6f}")
for x, dev in zip(cert.switch_xs, cert.deviations):
    print(f"   switch {x:.6f}: angular deviation {dev:.2e} rad")
print(f"max interval variation {cert.max_interval_variation:.6f} "
      f"(bound pi = {math.pi:.6f})")
print(f"nonlinear mismatch {cert.nonlinear_mismatch:.2e} "
      f"at theta = {cert.theta:.6f}")

# --- negative control: break one switch ---------------------------------------

pts = B.breakpoints.copy()
pts[1] += 0.05
bad = PiecewiseStructure(pts, B.values, bounds)
k_bad = newton_refine(bad, kappa, tol=1e-10, leash=0.5)[0]
cert_bad = switch_alignment(bad, k_bad)
print(f"\nafter displacing the first switch by 0.05:")
print(f"   max deviation {cert_bad.max_deviation:.3f} rad -> not optimal")
print(f"   mismatch {cert_bad.nonlinear_mismatch:.3f}")

# --- the nonlinear eigenvalue problem, solved by shooting ---------------------

sc = self_consistent_solve(kappa, bounds, n_grid=2048, B0=B)
print(f"\nshooting solution after {len(sc.history) - 1} Newton steps:")
print(f"   kappa = {sc.kappa:.12f}")
print(f"   |kappa - optimizer| = {abs(sc.kappa - kappa):.2e}")
_, mismatch = nonlinear_residual(sc.B, sc.kappa)
print(f"   reconstruction mismatch = {mismatch:.2e}")
