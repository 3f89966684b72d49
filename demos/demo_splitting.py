"""Perturbing a double eigenvalue: Puiseux branches.

At a multiplicity-2 eigenvalue the gradient formula fails; the eigenvalue
splits along two branches ~ +-c1 sqrt(zeta).  This demo builds a two-layer
structure with a genuine double eigenvalue and measures the splitting
exponent and leading coefficient.

Run:  python3 demos/demo_splitting.py
"""
import cmath
import math

from qnmopt import (GridStructure, find_double_eigenvalue, multiplicity,
                    splitting_probe)

# damped Newton on (interface, second value, kappa) from a frozen seed
B, kappa = find_double_eigenvalue((0.7125, 4.0, 1.4792), 4.44244 + 1.03017j)
print(f"double eigenvalue at {kappa:.10f}")
print(f"   interface {B.breakpoints[1]:.8f}, layer values {B.values.tolist()}")
print(f"   square count: multiplicity = {multiplicity(B, kappa, 0.05)}")

# --- measure the splitting law --------------------------------------------------

n = 16
direction = GridStructure(tuple(1.0 if i < n // 2 else 0.0 for i in range(n)),
                          B.bounds)
zetas = [1e-4, 1e-5, 1e-6, 1e-7]
probe = splitting_probe(B, kappa, 2, direction, zetas)
print(f"\nsplitting under B + zeta * (bump on [0, 1/2]):")
print(f"   fitted exponent {probe.fitted_exponent:.5f} (theory: 1/2)")
print(f"   c1 predicted {probe.c1_predicted:.6f}")
print(f"   c1 fitted    {probe.c1_fitted:.6f}")
for zeta, branches in zip(probe.zeta_values, probe.branch_points):
    spread = abs(cmath.phase((branches[0] - kappa) / (branches[1] - kappa)))
    print(f"   zeta = {zeta:.0e}: branch gap angle {spread:.4f} "
          f"(antipodal = {math.pi:.4f})")
