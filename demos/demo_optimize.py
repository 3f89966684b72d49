"""Minimizing the decay rate of a resonance at a fixed frequency.

Conditional-gradient steps over media constrained to 1 <= B <= 4, each
toward the bang-bang vertex of the linearised problem, tracking the
eigenvalue pinned at Re kappa = alpha.  The optimum is a two-valued
(bang-bang) structure; the finalization rounds the grid iterate and then
solves the paper's nonlinear eigenvalue problem at Re kappa = alpha by
shooting from the rounded medium, which places the switches in the
continuum.

Run:  python3 demos/demo_optimize.py
"""
import math

from qnmopt import (AdmissibleBounds, OptimizeConfig, constant,
                    constant_upper_bound, extremality_measure,
                    minimize_im_at_frequency, sweep_I, to_grid)

bounds = AdmissibleBounds(1.0, 4.0)

# --- alpha = 0: the answer is known exactly ----------------------------------

cfg0 = OptimizeConfig(alpha=0.0, bounds=bounds, n_cells=128, max_iters=200)
res0 = minimize_im_at_frequency(cfg0, to_grid(constant(2.5, bounds), 128))
print("alpha = 0 from B = 2.5:")
print(f"   final Im kappa = {res0.kappa.imag:.12f}")
print(f"   exact ln(3)/4  = {math.log(3) / 4:.12f}")
print(f"   structure collapsed to B = {set(res0.B.values.tolist())}")

# --- alpha = pi: nontrivial bang-bang optimum ---------------------------------

cfg = OptimizeConfig(alpha=math.pi, bounds=bounds, n_cells=256, max_iters=400)
res = minimize_im_at_frequency(cfg)
ub = constant_upper_bound(math.pi, bounds)
print(f"\nalpha = pi (constant-medium upper bound Im = {ub:.6f}):")
print(f"   {len(res.trajectory)} iterations, status {res.status}")
print(f"   grid iterate:  Im = {res.kappa.imag:.8f}, "
      f"extremality = {extremality_measure(res.B, bounds, 0.15):.4f}")
print(f"   rounded:       Im = {res.rounded_kappa.imag:.8f}")
print(f"   polished:      Im = {res.polished_kappa.imag:.10f}, "
      f"Re drift = {abs(res.polished_kappa.real - math.pi):.1e}")
print("   switch points:", [f"{x:.6f}" for x in res.polished.breakpoints[1:-1]])
print("   layer values: ", res.polished.values.tolist())
q = abs(res.polished_kappa.real) / (2 * res.polished_kappa.imag)
print(f"   Q factor {q:.2f} vs constant-medium {math.pi / (2 * ub):.2f}")

# --- a small frequency sweep ---------------------------------------------------

print("\nsweep of I(alpha) on a coarse grid (N = 96):")
cfg_s = OptimizeConfig(alpha=0.0, bounds=bounds, n_cells=96, max_iters=250)
for entry in sweep_I([math.pi / 2, math.pi, 2 * math.pi], cfg_s):
    status = entry.error or "ok"
    print(f"   alpha = {entry.alpha:7.4f}: I = {entry.I_alpha:.6f} "
          f"(constant bound {entry.upper_bound:.6f})  [{status}]")
