"""Derivatives of quasi-normal eigenvalues with respect to the medium.

A simple eigenvalue kappa(B) is analytic in B with directional derivative

    dkappa(B_D) = - kappa^2 int phi^2 B_D / (2 kappa int phi^2 B - i phi^2(1)),

realized here as a per-cell density (the adjoint gradient of the optimizer).
At a root the denominator D equals -i kappa phi(1) F'(kappa), so one
order-2 jet of the field module (F, F', F'', phi(1)) and the closed-form
cell integrals of phi^2 give the gradient, its root check and its
simple-root floor.  Multiple eigenvalues instead split along r Puiseux
branches ~ c1 zeta^(1/r); splitting_probe measures that exponent and
coefficient against the formula, whose F^(r) (2 <= r <= 6; dzF_higher)
and phi(1) come off one order-r jet, exact to rounding.  find_double_eigenvalue
builds the two-layer double root the tests use; it and the shooting solve
of the paper's nonlinear eigenvalue problem (certificate._solve_shot)
share one damped-Newton helper, _damped_newton: the former with
central-difference Jacobians, the latter with the exact one that the shot
carries beside phi.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import (BranchCountMismatch, InputError, NearMultiple,
                     NoConvergence, NotAtRoot, NumericalError)
from .field import _jet, charF_dzF, phi2_cell_integrals
from .medium import (AdmissibleBounds, GridStructure, PiecewiseStructure,
                     _as_complex, _complexes, _instance, _is_finite_real,
                     _is_int, _medium, _piecewise, _read_only, _reals)
from .spectrum import newton_refine

__all__ = [
    "GradientDensity", "SplittingProbe",
    "eigenvalue_gradient", "splitting_probe", "find_double_eigenvalue",
    "dzF_higher",
]

_ROOT_TOL = 1e-8   # |F| above this is "not at a root"
_MAX_ORDER = 6     # highest order checked against closed forms and 50 digits
_DOUBLE_ITERS = 80  # damped-Newton iterations of find_double_eigenvalue


@dataclass(frozen=True, eq=False)
class GradientDensity:
    """Cell-averaged gradient density g of the tracked eigenvalue.

    The directional derivative along a cellwise-constant direction d is
    sum_i g[i] d[i] / N (exact: the per-cell integrals of phi^2 are closed
    form).  g is a read-only 1-D complex array, copied once on construction
    (InputError for anything else); a direction is a grid or a 1-D sequence
    of N reals (InputError).
    denom_abs records |D|, D the denominator of the module docstring.
    """

    kappa: complex
    g: np.ndarray
    denom_abs: float

    def __post_init__(self):
        g = _complexes(self.g, "g")
        if g.ndim != 1:
            raise InputError("g must be a 1-D array of cells")
        object.__setattr__(self, "g", _read_only(g))

    @property
    def n_cells(self) -> int:
        return len(self.g)

    def directional(self, direction) -> complex:
        d = direction.values if isinstance(direction, GridStructure) \
            else _reals(direction, "direction")
        if d.ndim != 1:
            raise InputError("direction must be a 1-D array of cells")
        if len(d) != self.n_cells:
            raise InputError("direction grid does not match gradient grid")
        return complex(np.dot(self.g, d) / self.n_cells)


def _order_jet(B, kappa: complex, order) -> tuple:
    """field._jet at a finite kappa and an order that must be an integer
    in 2.._MAX_ORDER; NumericalError where it overflows."""
    if not (_is_int(order) and 2 <= order <= _MAX_ORDER):
        raise InputError(f"order {order!r} is not an integer in "
                         f"2..{_MAX_ORDER}")
    with np.errstate(all="ignore"):   # caught below
        jet = _jet(kappa, B, order)
    if not all(map(cmath.isfinite, jet)):
        raise NumericalError(f"the order-{order} jet at {kappa} is not finite")
    return jet


def dzF_higher(B, kappa: complex, order: int) -> complex:
    """d^order F / dz^order for 2 <= order <= 6, exact to rounding: read off
    one pairwise product of the layer maps' Taylor series (field._jet).
    B must be a medium and kappa a finite number (InputError); a jet that
    overflows raises NumericalError."""
    _as_complex(kappa, "kappa", finite=True)
    return _order_jet(_medium(B), kappa, order)[order]


def eigenvalue_gradient(B, kappa: complex, n_cells: int | None = None) -> GradientDensity:
    """Gradient density of a simple eigenvalue on a uniform cell grid.

    One order-2 jet at kappa gives the root check (NotAtRoot unless
    |F| < _ROOT_TOL), the simple-root floor 1e-6 max(1, |F''|), under which
    |F'| raises NearMultiple and the splitting machinery applies instead, and
    the denominator D = -i kappa phi(1) F'(kappa) (F = 0 and the Wronskian).
    B must be a medium and kappa a number (InputError), and kappa finite
    (NotAtRoot); a jet that overflows raises NumericalError.
    """
    _medium(B)
    if not cmath.isfinite(_as_complex(kappa, "kappa", finite=False)):
        raise NotAtRoot(f"kappa = {kappa!r} is not a finite root")
    if n_cells is None:
        if not isinstance(B, GridStructure):
            raise InputError("n_cells required for piecewise structures")
        n_cells = B.n_cells
    elif not (_is_int(n_cells) and n_cells >= 1):
        raise InputError(f"n_cells must be an integer >= 1, got {n_cells!r}")
    f, df, d2f, phi1 = _order_jet(B, kappa, 2)
    if not abs(f) < _ROOT_TOL:
        raise NotAtRoot(f"|F({kappa})| = {abs(f):.3e} >= {_ROOT_TOL:.0e}")
    if abs(df) < 1e-6 * max(1.0, abs(d2f)):
        raise NearMultiple(f"|dF/dz| = {abs(df):.3e} below the simple-root floor")
    edges = B.edges if isinstance(B, GridStructure) and n_cells == B.n_cells \
        else np.linspace(0.0, 1.0, n_cells + 1)
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
    c1 = (-r! dBF(direction) / d^r F/dz^r)^(1/r).  At a root the Wronskian
    gives dBF = i kappa0 int phi^2 direction / phi(1), so one order-r jet
    holds phi(1) and F^(r).  r must be an integer in 2..6 and zetas a
    non-empty sequence of distinct finite positive reals, else InputError
    before any Newton run, as is a B that is not a medium (a grid is read
    in its piecewise form), a direction that is not a GridStructure and a
    kappa0 that is not a finite number.
    """
    B, direction = _piecewise(B), _instance(direction, GridStructure)
    _as_complex(kappa0, "kappa0", finite=True)
    try:
        zetas = tuple(zetas)
    except TypeError:
        raise InputError(f"zetas must be a sequence, not {zetas!r}") from None
    if not zetas:
        raise InputError("splitting needs at least one zeta")
    if not all(_is_finite_real(z) and z > 0 for z in zetas):
        raise InputError(f"zetas must be finite positive reals, not {zetas!r}")
    zetas = tuple(sorted(map(float, zetas), reverse=True))
    if len(set(zetas)) < len(zetas):
        raise InputError(f"zetas must be distinct, not {zetas!r}")
    cells = phi2_cell_integrals(B, kappa0, direction.edges)
    w = complex(np.dot(cells, direction.values))
    if abs(w) < 1e-12 * max(1.0, float(np.max(np.abs(cells)))
                            * float(np.max(np.abs(direction.values)))):
        raise InputError("int phi^2 * direction vanishes; pick another direction")
    jet = _order_jet(B, kappa0, r)
    if jet[r] == 0 or jet[-1] == 0:
        raise InputError(f"F^({r}) or phi(1) vanishes at {kappa0}: not an "
                         f"{r}-fold zero")
    dbf = 1j * kappa0 * w / jet[-1]
    eta = -math.factorial(r) * dbf / jet[r]
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
_FD_STEP = 1e-7         # relative step of the difference Jacobian


def _damped_newton(residual, q: np.ndarray, max_iters: int, aux=None):
    """Damped Newton on residual(q, aux) -> (r, aux) or (r, aux, J), or None
    off the domain.

    aux carries state from one accepted iterate to the next (a record of
    the iterates); difference and rejected points leave it alone.  A
    residual that returns J, its exact Jacobian at q, is called once per
    step; otherwise each step takes a central-difference Jacobian (2n more
    calls for n unknowns).  The step is halved until |r| drops, but not
    below what J resolves: the difference step _FD_STEP (1 + |q|) for a
    differenced J, rounding, eps (1 + |q|), for an exact one.  Returns (q,
    r, aux, why) at the last accepted iterate: why is None once |r| <
    _NEWTON_TOL, else the reason the iteration stopped; r is None for an
    infeasible start.
    """
    out = residual(q, aux)
    if out is None:
        return q, None, aux, "infeasible start"
    r, aux = out[:2]
    for _ in range(max_iters):
        nrm = float(np.linalg.norm(r))
        if nrm < _NEWTON_TOL:
            return q, r, aux, None
        if len(out) > 2:
            J, rel = out[2], np.finfo(float).eps
        else:
            J, rel = np.empty((len(r), len(q))), _FD_STEP
            for j in range(len(q)):   # central differences
                e = np.zeros(len(q))
                e[j] = _FD_STEP * (1.0 + abs(q[j]))
                rp, rm = residual(q + e, aux), residual(q - e, aux)
                if rp is None or rm is None:
                    return q, r, aux, "infeasible difference point"
                J[:, j] = (rp[0] - rm[0]) / (2.0 * e[j])
        try:
            step = np.linalg.solve(J, r)
        except np.linalg.LinAlgError:
            step = None
        if step is None or not np.isfinite(step).all():
            return q, r, aux, "singular Jacobian"
        lam, floor = 1.0, rel * (1.0 + np.abs(q))
        while True:
            out = residual(q - lam * step, aux)
            if out is not None and float(np.linalg.norm(out[0])) < nrm:
                break
            lam *= 0.5
            if (np.abs(lam * step) < floor).all():
                return q, r, aux, "damping failed"
        q = q - lam * step
        r, aux = out[:2]
    if float(np.linalg.norm(r)) < _NEWTON_TOL:
        return q, r, aux, None
    return q, r, aux, f"max_iters = {max_iters} reached"


# -- double-eigenvalue fixture --------------------------------------------

def _two_layer(a: float, v1: float, v2: float) -> PiecewiseStructure:
    bounds = AdmissibleBounds(min(0.0, v1, v2), max(1.0, v1, v2) + 1.0)
    return PiecewiseStructure((0.0, a, 1.0), (v1, v2), bounds)


def find_double_eigenvalue(seed: tuple, kappa_seed: complex):
    """Construct a two-layer structure with a genuine double eigenvalue.

    seed = (a, v1, v2): interface position and the two layer values; v1 stays
    fixed while (a, v2, Re kappa, Im kappa) solve F = dF/dz = 0 by damped
    Newton of at most _DOUBLE_ITERS iterations.  Bounds of the returned
    structure are relaxed around the layer values (diagnostic fixture only).

    A purely imaginary kappa_seed requests a double root on the axis: there
    both layer values stay fixed and (a, Im kappa) solve the two real
    equations F(i beta) = 0, Im dF/dz (i beta) = 0.  seed must be three
    finite reals and kappa_seed a finite number (InputError).
    """
    _as_complex(kappa_seed, "kappa_seed", finite=True)
    if not (isinstance(seed, (tuple, list)) and len(seed) == 3
            and all(map(_is_finite_real, seed))):
        raise InputError(f"seed must be three finite reals, not {seed!r}")
    a, v1, v2 = map(float, seed)
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
    q, r, _, why = _damped_newton(residual, np.array(q0), _DOUBLE_ITERS)
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
