"""Derivatives of quasi-normal eigenvalues with respect to the medium.

A simple eigenvalue kappa(B) is analytic in B with directional derivative

    dkappa(B_D) = - kappa^2 int phi^2 B_D / (2 kappa int phi^2 B - i phi^2(1)),

realized here as a per-cell density (the adjoint gradient of the optimizer).
At a root the denominator D equals -i kappa phi(1) F'(kappa), so one jet
sweep of the field module (F, F', F'', phi(1)) and the closed-form cell
integrals of phi^2 give the gradient, its root check and its simple-root
floor.  Multiple eigenvalues instead split along r Puiseux branches
~ c1 zeta^(1/r); splitting_probe measures that exponent and coefficient
against the formula, whose F^(r) (2 <= r <= 6) dzF_higher reads off
Cauchy's integral from one charF_many call.  find_double_eigenvalue builds
the two-layer double root the tests use; it and the optimizer's switch
polish share one damped-Newton driver, _damped_newton.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import (BranchCountMismatch, InputError, NearMultiple,
                     NoConvergence, NotAtRoot)
from .field import _jet, charF_dzF, charF_many, phi2_cell_integrals, propagate
from .medium import (AdmissibleBounds, GridStructure, PiecewiseStructure,
                     _read_only, to_piecewise)
from .spectrum import newton_refine

__all__ = [
    "GradientDensity", "SplittingProbe",
    "eigenvalue_gradient", "splitting_probe", "find_double_eigenvalue",
    "dzF_higher",
]

_ROOT_TOL = 1e-8   # |F| above this is "not at a root"
_CAUCHY_NODES = np.exp(2j * np.pi * np.arange(16) / 16)  # of dzF_higher
_MAX_ORDER = 6     # highest z-derivative the 16 nodes resolve to 1e-9


@dataclass(frozen=True, eq=False)
class GradientDensity:
    """Cell-averaged gradient density g of the tracked eigenvalue.

    The directional derivative along a cellwise-constant direction d is
    sum_i g[i] d[i] / N (exact: the per-cell integrals of phi^2 are closed
    form).  g is a read-only complex array, copied once on construction.
    denom_abs records |D|, D the denominator of the module docstring.
    """

    kappa: complex
    g: np.ndarray
    denom_abs: float

    def __post_init__(self):
        object.__setattr__(self, "g",
                           _read_only(np.array(self.g, dtype=complex)))

    @property
    def n_cells(self) -> int:
        return len(self.g)

    def directional(self, direction) -> complex:
        d = direction.values if isinstance(direction, GridStructure) \
            else np.asarray(direction, dtype=float)
        if len(d) != self.n_cells:
            raise InputError("direction grid does not match gradient grid")
        return complex(np.dot(self.g, d) / self.n_cells)


def dzF_higher(B, kappa: complex, order: int) -> complex:
    """d^order F / dz^order for 2 <= order <= 6, from Cauchy's integral.

    The trapezoid rule on the 16 points f_k = F(kappa + rho e^{2 pi i k/16}),
    rho = 0.5 / max(1, sum sqrt(b_j) L_j), gives the Taylor coefficient c_r
    of F at kappa as c_r rho^r = fft(f)[r] / 16, and F^(r) = r! c_r.  The
    aliased c_{r+16} rho^16 lies far below rounding, which grows like
    eps max|f| r! / rho^r: past order 6 it exceeds about 1e-9 relative.
    """
    if not 2 <= order <= _MAX_ORDER:
        raise InputError(f"order {order} outside 2..{_MAX_ORDER} "
                         "(dzF gives the first derivative)")
    _, lengths, values = B.layers
    rho = 0.5 / max(1.0, float(np.dot(np.sqrt(values), lengths)))
    f = charF_many(kappa + rho * _CAUCHY_NODES, B)
    c = np.fft.fft(f)[order] / len(_CAUCHY_NODES)
    return complex(math.factorial(order) * c / rho ** order)


def eigenvalue_gradient(B, kappa: complex, n_cells: int | None = None) -> GradientDensity:
    """Gradient density of a simple eigenvalue on a uniform cell grid.

    One order-2 jet at kappa gives the root check (NotAtRoot unless
    |F| < _ROOT_TOL), the simple-root floor 1e-6 max(1, |F''|), under which
    |F'| raises NearMultiple and the splitting machinery applies instead, and
    the denominator D = -i kappa phi(1) F'(kappa) (F = 0 and the Wronskian).
    """
    f, df, d2f, phi1 = _jet(kappa, B, 2)
    if not abs(f) < _ROOT_TOL:
        raise NotAtRoot(f"|F({kappa})| = {abs(f):.3e} >= {_ROOT_TOL:.0e}")
    if abs(df) < 1e-6 * max(1.0, abs(d2f)):
        raise NearMultiple(f"|dF/dz| = {abs(df):.3e} below the simple-root floor")
    if n_cells is None:
        if not isinstance(B, GridStructure):
            raise InputError("n_cells required for piecewise structures")
        n_cells = B.n_cells
    edges = np.linspace(0.0, 1.0, n_cells + 1)
    denom = -1j * kappa * phi1 * df
    cells = phi2_cell_integrals(B, kappa, edges)
    g = -kappa ** 2 * cells / denom * n_cells  # cell averages of the density
    return GradientDensity(kappa, g, abs(denom))


@dataclass(frozen=True)
class SplittingProbe:
    """Measured splitting of a multiple eigenvalue under B + zeta * d."""

    r: int
    zeta_values: tuple
    branch_points: tuple      # one tuple of r roots per zeta
    fitted_exponent: float
    c1_predicted: complex
    c1_fitted: complex

    def __post_init__(self):
        zs = np.asarray(self.zeta_values)
        if np.any(np.diff(zs) >= 0):
            raise InputError("zeta values must decrease toward 0")


def _perturbed(B: PiecewiseStructure, direction: GridStructure,
               zeta: float) -> PiecewiseStructure:
    """B + zeta * direction as a piecewise structure with loose bounds."""
    edges = np.union1d(direction.edges, B.breakpoints)
    mids = 0.5 * (edges[:-1] + edges[1:])
    n = direction.n_cells
    cell = np.minimum((mids * n).astype(int), n - 1)
    vals = B.layers.values_at(mids) + zeta * direction.values[cell]
    bounds = AdmissibleBounds(min(0.0, vals.min()), max(1.0, vals.max()) + 1.0)
    return PiecewiseStructure(edges, vals, bounds)


def splitting_probe(B, kappa0: complex, r: int, direction: GridStructure,
                    zetas) -> SplittingProbe:
    """Track the r Puiseux branches of an r-fold eigenvalue.

    For each zeta the r nearby roots of the perturbed structure are located
    by Newton from the predicted branch positions; the radii are regressed
    against zeta on log-log axes (slope ~ 1/r) and the fitted leading
    coefficient is compared with
    c1 = (-r! dBF(direction) / d^r F/dz^r)^(1/r).
    """
    zetas = tuple(sorted((float(z) for z in zetas), reverse=True))
    if r < 2:
        raise InputError("splitting requires multiplicity r >= 2")
    if isinstance(B, GridStructure):
        B = to_piecewise(B)
    bd = propagate(B, kappa0)
    cells = phi2_cell_integrals(B, kappa0, direction.edges)
    w = complex(np.dot(cells, direction.values))
    if abs(w) < 1e-12 * max(1.0, float(np.max(np.abs(cells)))
                            * float(np.max(np.abs(direction.values)))):
        raise InputError("int phi^2 * direction vanishes; pick another direction")
    dbf = kappa0 * (-kappa0 * bd.psi1 + 1j * bd.dpsi1) * w
    drf = dzF_higher(B, kappa0, r)
    eta = -math.factorial(r) * dbf / drf
    c1_pred = eta ** (1.0 / r)

    branch_sets = []
    radii = []
    for zeta in zetas:
        Bz = _perturbed(B, direction, zeta)
        scale = abs(c1_pred) * zeta ** (1.0 / r)
        roots = []
        for k in range(r):
            seed = kappa0 + c1_pred * zeta ** (1.0 / r) * cmath.exp(2j * math.pi * k / r)
            res = newton_refine(Bz, seed, tol=1e-9, leash=6.0 * scale)
            if res is None:
                continue
            z = res[0]
            if all(abs(z - other) > 0.05 * scale for other in roots):
                roots.append(z)
        if len(roots) < r:
            raise BranchCountMismatch(
                f"found {len(roots)} of {r} branches at zeta = {zeta:.1e}")
        branch_sets.append(tuple(roots))
        radii.append(np.mean([abs(z - kappa0) for z in roots]))

    if len(zetas) >= 2:
        slope = np.polyfit(np.log(np.asarray(zetas)),
                           np.log(np.asarray(radii)), 1)[0]
    else:
        slope = math.nan  # one zeta verifies branches but cannot fit a slope
    # leading coefficient from the smallest zeta, phased against the branch
    # nearest the predicted direction
    z_small = zetas[-1]
    br = branch_sets[-1]
    mag = math.exp(float(np.mean([math.log(abs(z - kappa0)) for z in br]))) \
        / z_small ** (1.0 / r)
    best = min(br, key=lambda z: abs((z - kappa0) / z_small ** (1.0 / r) - c1_pred))
    c1_fit = mag * cmath.exp(1j * cmath.phase(best - kappa0))
    return SplittingProbe(r, zetas, tuple(branch_sets), float(slope),
                          c1_pred, c1_fit)


# -- damped Newton ---------------------------------------------------------

_NEWTON_TOL = 1e-12     # stop once |r| drops below this
_FD_STEP = 1e-7         # relative central-difference step of the Jacobian
_HALVINGS = 30          # step halvings tried before damping gives up


def _damped_newton(residual, q: np.ndarray, max_iters: int, aux=None):
    """Damped Newton on residual(q, aux) -> (r, aux), or None off the domain.

    aux carries state from one residual call to the next (a root to track
    from); the Jacobian is taken by central differences at the current
    iterate's aux, and each Newton step is halved until |r| drops.  Returns
    (q, r, aux, why) at the last accepted iterate: why is None once
    |r| < _NEWTON_TOL, else the reason the iteration stopped, and r is None
    when the start itself is infeasible.
    """
    out = residual(q, aux)
    if out is None:
        return q, None, aux, "infeasible start"
    r, aux = out
    for _ in range(max_iters):
        nrm = float(np.linalg.norm(r))
        if nrm < _NEWTON_TOL:
            return q, r, aux, None
        J = np.empty((len(r), len(q)))
        for j in range(len(q)):
            e = np.zeros(len(q))
            e[j] = _FD_STEP * (1.0 + abs(q[j]))
            rp, rm = residual(q + e, aux), residual(q - e, aux)
            if rp is None or rm is None:
                return q, r, aux, "infeasible difference point"
            J[:, j] = (rp[0] - rm[0]) / (2.0 * e[j])
        try:
            step = np.linalg.solve(J, r)
        except np.linalg.LinAlgError:
            return q, r, aux, "singular Jacobian"
        lam = 1.0
        for _ in range(_HALVINGS):
            out = residual(q - lam * step, aux)
            if out is not None and float(np.linalg.norm(out[0])) < nrm:
                break
            lam *= 0.5
        else:
            return q, r, aux, "damping failed"
        q = q - lam * step
        r, aux = out
    if float(np.linalg.norm(r)) < _NEWTON_TOL:
        return q, r, aux, None
    return q, r, aux, f"max_iters = {max_iters} reached"


# -- double-eigenvalue fixture --------------------------------------------

def _two_layer(a: float, v1: float, v2: float) -> PiecewiseStructure:
    bounds = AdmissibleBounds(min(0.0, v1, v2), max(1.0, v1, v2) + 1.0)
    return PiecewiseStructure((0.0, a, 1.0), (v1, v2), bounds)


def find_double_eigenvalue(seed: tuple, kappa_seed: complex,
                           max_iters: int = 80):
    """Construct a two-layer structure with a genuine double eigenvalue.

    seed = (a, v1, v2): interface position and the two layer values; v1 stays
    fixed while (a, v2, Re kappa, Im kappa) solve F = dF/dz = 0 by damped
    Newton.  Bounds of the returned structure are relaxed around the layer
    values (diagnostic fixture only).

    A purely imaginary kappa_seed requests a double root on the axis: there
    both layer values stay fixed and (a, Im kappa) solve the two real
    equations F(i beta) = 0, Im dF/dz (i beta) = 0.
    """
    a, v1, v2 = (float(s) for s in seed)
    axis = kappa_seed.real == 0.0

    def residual(q, _):
        # q = (a, beta) on the axis, (a, v2, Re kappa, Im kappa) off it
        if not 0.01 < q[0] < 0.99 or q[1] <= 0 or q[-1] <= 0:
            return None
        B = _two_layer(q[0], v1, v2 if axis else q[1])
        if axis:
            f, df = charF_dzF(1j * q[1], B)
            return np.array([f.real, df.imag]), None
        f, df = charF_dzF(complex(q[2], q[3]), B)
        return np.array([f.real, f.imag, df.real, df.imag]), None

    q0 = [a, kappa_seed.imag] if axis else \
        [a, v2, kappa_seed.real, kappa_seed.imag]
    q, r, _, why = _damped_newton(residual, np.array(q0), max_iters)
    if r is None:
        raise InputError("seed outside the feasible region")
    if why is not None:
        raise NoConvergence(f"no double root: {why}")
    B = _two_layer(q[0], v1, v2 if axis else q[1])
    kappa = complex(0.0, q[1]) if axis else complex(q[2], q[3])
    f, df = charF_dzF(kappa, B)
    if abs(f) + abs(df) >= 1e-10:
        raise NoConvergence("residual stalled above 1e-10")
    return B, kappa
