"""Minimizing the decay rate Im kappa at a prescribed frequency.

Conditional-gradient flow on a uniform-cell medium (Frank & Wolfe, Naval
Res. Logist. Q. 3, 1956): each step moves toward the vertex of the
linearised problem, the box-constrained medium that decreases Im kappa
fastest while leaving Re kappa unchanged to first order.  That vertex is
the exact solution of a one-constraint box LP over each cell's true room
(_lp_direction, one sort of the ratios): bang-bang but for one marginal
cell, the structure the paper proves for optimal media.  Armijo
backtracking on the tracked eigenvalue picks the fraction of the way to
the vertex; a frequency re-pinning correction steps toward the vertex of
the Im-neutral LP that moves Re kappa back to alpha.  Step sizes and
tolerances are fixed module constants.  Optimal media take only the values
b1 and b2, so finalization snaps every cell to its nearer bound and then
solves the paper's nonlinear eigenvalue problem at Re kappa = alpha by
shooting from the rounded medium (certificate._solve_shot), which picks
the switches, and their number, itself.
Multiple-eigenvalue collisions are detected through |dF/dz|: the run stops
with CollisionDetected, whose `.partial` holds the result so far.

alpha = 0 runs the same loop.  For a real medium F(i beta) is real and
dF/dz(i beta) imaginary, so a Newton step from an axis point lands exactly
on the axis: Re kappa stays 0.0, the pin sees no drift, Re g vanishes so
every cell heads to the bound that the sign of -Im g picks, and the
rounded medium is reported as the polished one.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (CollisionDetected, InfeasibleError, InputError,
                     LostEigenvalue, NearMultiple, NumericalError, QnmOptError,
                     StalledDirection, ZeroFrequency)
from .certificate import _solve_shot
from .field import charF
from .medium import (AdmissibleBounds, GridStructure, PiecewiseStructure,
                     _as_complex, _box, _instance, _is_finite_real, _is_int,
                     constant, extremality_measure, project_to_box,
                     round_to_extreme, to_grid)
from .sensitivity import GradientDensity, eigenvalue_gradient
from .spectrum import SpectralWindow, axis_offset, locate, newton_refine

__all__ = [
    "OptimizeConfig", "IterationRecord", "OptimizeResult", "step_direction",
    "minimize_im_at_frequency", "sweep_I",
    "constant_upper_bound", "best_constant_seed",
]

_STEP0 = 0.2              # first fraction of the way to the LP vertex
_STEP_GROW = 1.5          # step factor after an accepted trial (capped at 1)
_STEP_SHRINK = 0.5        # Armijo backtracking factor after a rejected one
_TOL_FREQ = 1e-8          # a pin stops within half of this of alpha
_TOL_GRAD = 1e-10         # predicted Im decrease at which the flow stalls
_PIN_ROUNDS = 12          # frequency re-pinning rounds per call
_SEED_ROOT_TOL = 1e-12    # |F| below which the seed eigenvalue is kept as is


@dataclass(frozen=True)
class OptimizeConfig:
    """One optimization run at a fixed target frequency alpha.

    The target, the box, the grid of at least 16 cells, the iteration cap
    and an optional seed eigenvalue, which needs a seed medium B0.  Step
    sizes and tolerances are the module constants _STEP0 to _TOL_GRAD.
    """

    alpha: float
    bounds: AdmissibleBounds
    n_cells: int = 256
    max_iters: int = 400
    seed_kappa: complex | None = None

    def __post_init__(self):
        if not _is_finite_real(self.alpha):
            raise InputError(f"alpha must be a finite real, got {self.alpha!r}")
        _box(self.bounds)
        if not (_is_int(self.n_cells) and self.n_cells >= 16):
            raise InputError(
                f"n_cells must be an integer >= 16, got {self.n_cells!r}")
        if not (_is_int(self.max_iters) and self.max_iters >= 0):
            raise InputError(
                f"max_iters must be an integer >= 0, got {self.max_iters!r}")
        if self.seed_kappa is not None:
            _as_complex(self.seed_kappa, "seed_kappa", finite=False)


@dataclass(frozen=True)
class IterationRecord:
    iter: int
    kappa: complex
    objective: float      # Im kappa
    drift: float          # |Re kappa - alpha|
    extremality: float
    step: float           # fraction of the way to the LP vertex


@dataclass(frozen=True)
class OptimizeResult:
    B: GridStructure
    kappa: complex
    trajectory: tuple
    status: str
    rounded: PiecewiseStructure | None = None
    rounded_kappa: complex | None = None
    polished: PiecewiseStructure | None = None
    polished_kappa: complex | None = None


# -- seeding -------------------------------------------------------------------

def _constant_candidates(alpha: float, bounds: AdmissibleBounds) -> list:
    """Constant media resonating at Re kappa = alpha, near each family's best.

    Each integer n gives b = (pi (n + shift) / alpha)^2: shift 0 for b > 1,
    1/2 for b < 1.  axis_offset falls with b above 1 and rises below it, so
    a family's best is its largest or smallest admissible n, which lies
    within a few ulps of its closed form: a window of 17 floats around that
    finds it at any alpha (stepping by ulps past 2^53, where n + 1 == n).
    The ratio meets sqrt(b2) before it is squared, so a tiny alpha finds no
    candidate instead of overflowing.  Near the largest floats, where
    edge alpha or pi (m + shift) overflows, pi / alpha is taken first.
    """
    if not _is_finite_real(alpha):
        raise InputError(f"alpha must be a finite real, got {alpha!r}")
    _box(bounds)
    if alpha == 0.0:
        return [(bounds.b2, complex(0.0, axis_offset(bounds.b2)))] \
            if bounds.b2 > 1.0 else []
    out = []
    a = abs(alpha)
    r_max = math.sqrt(bounds.b2 + 1e-12)
    r_min = math.sqrt(max(bounds.b1 - 1e-12, 0.0))
    for shift, edge in ((0.0, r_max), (0.5, r_min)):
        top = edge * a / math.pi
        if top == math.inf:
            top = edge / (math.pi / a)
        n = math.floor(min(top - shift, 1.9 * 2.0 ** 1023))
        step = max(1, int(math.ulp(n)))
        for m in range(max(n - 8 * step, 0), n + 9 * step, step):
            r = math.pi * (m + shift) / a
            if r == math.inf:
                r = (m + shift) * (math.pi / a)
            if r > r_max:
                continue
            b = r ** 2
            # the n-offset family lives above 1, the half-shift family below;
            # b = 0 (r^2 underflows) has no spectrum either
            if (b > 0.0 and b >= bounds.b1 - 1e-12 and abs(b - 1.0) >= 1e-9
                    and (shift == 0.0) == (b > 1.0)):
                b = min(max(b, bounds.b1), bounds.b2)
                out.append((b, complex(alpha, axis_offset(b))))
    return out


def constant_upper_bound(alpha: float, bounds: AdmissibleBounds) -> float:
    """min Im over constant media having an eigenvalue at frequency alpha."""
    return min((k.imag for _, k in _constant_candidates(alpha, bounds)),
               default=math.inf)


def best_constant_seed(alpha: float, bounds: AdmissibleBounds):
    """(GridStructure factory value b, kappa) of the best constant preset."""
    cands = _constant_candidates(alpha, bounds)
    if not cands:
        raise InfeasibleError(
            f"no constant structure in [{bounds.b1}, {bounds.b2}] resonates "
            f"at frequency {alpha}")
    return min(cands, key=lambda t: t[1].imag)


# -- step direction --------------------------------------------------------------

def step_direction(g: GradientDensity, B: GridStructure,
                   bounds: AdmissibleBounds) -> np.ndarray:
    """Conditional-gradient step of Im kappa that is Re-neutral.

    delta B takes B to the vertex of the linearised problem: minimize
    int Im(g) delta B subject to int Re(g) delta B = 0 over the box
    b1 <= B + delta B <= b2, solved exactly by _lp_direction (Frank & Wolfe,
    Naval Res. Logist. Q. 3, 1956).  B + delta B is bang-bang except for at
    most one marginal cell.  Returns delta B as a float array over the cells
    of B.  StalledDirection signals first-order optimality: a predicted Im
    decrease no larger than _TOL_GRAD.  g must be a GradientDensity on the
    cells of the GridStructure B (InputError).
    """
    if not (isinstance(g, GradientDensity) and isinstance(B, GridStructure)
            and g.n_cells == B.n_cells):
        raise InputError("step_direction needs a GradientDensity on the "
                         "cells of a GridStructure")
    d = _lp_direction(-g.g.imag, g.g.real, B.values, _box(bounds))
    slope = float(np.dot(g.g.imag, d)) / len(d)
    if slope >= -_TOL_GRAD:
        raise StalledDirection(
            f"predicted Im decrease {slope:.3e} above -{_TOL_GRAD:.0e}")
    return d


# -- eigenvalue tracking ----------------------------------------------------------

def _trust_radius(B: GridStructure) -> float:
    mean_b = float(np.add.reduce(B.values) / B.n_cells)
    return 0.35 * math.pi / math.sqrt(max(mean_b, 1e-6))


def _track(B, kappa_prev: complex, trust: float) -> complex:
    res = newton_refine(B, kappa_prev, tol=1e-10, leash=trust)
    if res is not None:
        return res[0]
    pad = 2.0 * trust
    w = SpectralWindow(kappa_prev.real - pad, kappa_prev.real + pad,
                       max(kappa_prev.imag - pad, 1e-4),
                       kappa_prev.imag + pad)
    try:
        roots = locate(B, w, tol=1e-10)
    except NumericalError as exc:
        raise LostEigenvalue(f"re-location failed: {exc}") from exc
    if not roots:
        raise LostEigenvalue(f"no eigenvalue near {kappa_prev}")
    return min((r.kappa for r in roots), key=lambda z: abs(z - kappa_prev))


def _lp_direction(obj: np.ndarray, con: np.ndarray, vals: np.ndarray,
                  bounds: AdmissibleBounds) -> np.ndarray:
    """Feasible direction maximizing sum(obj * d) subject to sum(con * d) = 0.

    Each cell moves within its true room l = b1 - vals <= d <= u = b2 - vals.
    One-constraint box LP, a fractional knapsack solved exactly by sorting
    (Dantzig, Oper. Res. 5(2), 1957).  At a multiplier nu each cell sits at
    its upper room u where obj - nu * con > 0 and at its lower room l
    otherwise; cells with con = 0 take u or l by the sign of obj.  As nu
    rises past the ratio obj/con of a cell, the cell flips to its other
    extreme and the response con . d drops by |con| (u - l).  Since
    u >= 0 >= l the response starts >= 0 and ends <= 0, so it always
    crosses: the cells flip in stable ratio order up to the first prefix
    whose response is <= 0, and the last of them, the marginal cell, is made
    fractional against the residual con . d so that the constraint holds to
    rounding.  vals + d is therefore bang-bang but for the marginal cell.
    """
    l, u = bounds.b1 - vals, bounds.b2 - vals
    d = np.where(obj > 0.0, u, l)
    move = np.flatnonzero(con != 0.0)
    if not move.size:
        return d
    with np.errstate(over="ignore"):   # a ratio past the float range is +-inf
        order = move[np.argsort(obj[move] / con[move], kind="stable")]
    rising = con[order] > 0.0
    d[order] = np.where(rising, u[order], l[order])  # nu -> -inf
    after = np.dot(con, d) - np.cumsum(np.abs(con[order]) * (u - l)[order])
    n_flip = min(np.count_nonzero(after > 0.0) + 1, len(order))
    flip = order[:n_flip]
    d[flip] = np.where(rising[:n_flip], l[flip], u[flip])
    m = order[n_flip - 1]
    d[m] = min(max(d[m] - np.dot(con, d) / con[m], l[m]), u[m])
    return d


def _pin_frequency(B: GridStructure, kappa: complex, cfg: OptimizeConfig):
    """Pull Re kappa back to alpha toward the vertex of the Im-neutral LP.

    Each round moves the linearly predicted fraction s of the way to the
    vertex that moves Re kappa toward alpha fastest, s at most 1.  Returns
    (B, kappa, ok); ok=False means the feasible cone cannot reach the target
    frequency from here (caller should reject the step).
    """
    bounds = cfg.bounds
    n = B.n_cells
    for _ in range(_PIN_ROUNDS):
        drift = kappa.real - cfg.alpha
        if abs(drift) <= 0.5 * _TOL_FREQ:
            return B, kappa, True
        ga = eigenvalue_gradient(B, kappa).g
        vals = B.values
        want = -drift  # desired Re move
        sgn = 1.0 if want >= 0 else -1.0
        d = _lp_direction(sgn * ga.real, ga.imag, vals, bounds)
        dre = float(np.dot(ga.real, d)) / n
        if abs(dre) < 1e-14:
            return B, kappa, False
        s = max(min(want / dre, 1.0), -1.0)
        B = GridStructure((vals + s * d).clip(bounds.b1, bounds.b2), bounds)
        kappa = _track(B, kappa, _trust_radius(B))
    return B, kappa, abs(kappa.real - cfg.alpha) <= 0.5 * _TOL_FREQ


# -- main loop ---------------------------------------------------------------------

def minimize_im_at_frequency(config: OptimizeConfig,
                             B0: GridStructure | None = None) -> OptimizeResult:
    """Conditional-gradient minimization of Im kappa with Re kappa = alpha.

    Returns the final grid structure, tracked eigenvalue, per-iteration
    trajectory, and the bang-bang finalization: the rounded medium with its
    kappa and, only when its kappa is within _TOL_FREQ of alpha, the
    polished one, the shooting solution of the nonlinear eigenvalue problem
    (polished and polished_kappa are None otherwise).
    Raises ZeroFrequency for a seed_kappa with Im <= 0, InputError for a
    non-finite one or one without B0, and LostEigenvalue /
    CollisionDetected with a .partial attribute carrying the trajectory so
    far.  config must be an OptimizeConfig and B0 a GridStructure of
    config.n_cells cells or None (InputError).
    """
    cfg = _instance(config, OptimizeConfig)
    if not isinstance(B0, (GridStructure, type(None))):
        raise InputError(f"B0 must be a GridStructure or None, not {B0!r}")
    if B0 is not None and B0.n_cells != cfg.n_cells:
        raise InputError(f"B0 has {B0.n_cells} cells, the config asks for "
                         f"n_cells = {cfg.n_cells}")
    if cfg.seed_kappa is not None:
        if not cfg.seed_kappa.imag > 0:
            raise ZeroFrequency("a seed eigenvalue needs Im kappa > 0")
        _as_complex(cfg.seed_kappa, "seed_kappa", finite=True)
        if B0 is None:
            raise InputError("seed_kappa needs a seed medium B0")
    bounds = cfg.bounds
    if B0 is None:
        b, kappa = best_constant_seed(cfg.alpha, bounds)
        B0 = to_grid(constant(b, bounds), cfg.n_cells)
    else:
        B0 = project_to_box(B0, bounds)
        kappa = cfg.seed_kappa
        if kappa is None:
            kappa = best_constant_seed(cfg.alpha, bounds)[1]
    # a seed that is already a root takes no step: at a multiple root the
    # Newton step is rounding noise over rounding noise
    if not abs(charF(kappa, B0)) < _SEED_ROOT_TOL:
        res = newton_refine(B0, kappa, tol=1e-9, leash=1.0)
        if res is None:
            raise InfeasibleError(f"seed eigenvalue near {kappa} did not converge")
        kappa = res[0]

    B = B0
    try:
        B, kappa, pinned = _pin_frequency(B, kappa, cfg)
    except NearMultiple as exc:
        err = CollisionDetected(str(exc))
        err.partial = OptimizeResult(B, kappa, (), "collision")
        raise err from exc
    if not pinned:
        raise InfeasibleError(
            f"seed cannot be pinned to frequency {cfg.alpha}")
    eps_ext = 0.05 * bounds.width
    step = _STEP0
    trajectory = [IterationRecord(0, kappa, kappa.imag,
                                  abs(kappa.real - cfg.alpha),
                                  extremality_measure(B, bounds, eps_ext), 0.0)]
    status = "max_iters"
    step_min = 1e-7

    for it in range(1, cfg.max_iters + 1):
        if kappa.imag <= 0:
            raise NumericalError("tracked eigenvalue left the upper half-plane")
        try:
            g = eigenvalue_gradient(B, kappa)
        except NearMultiple as exc:
            err = CollisionDetected(str(exc))
            err.partial = _finalize(B, kappa, cfg, trajectory, "collision")
            raise err from exc
        try:
            d = step_direction(g, B, bounds)
        except StalledDirection:
            status = "stalled"
            break
        slope = float(np.dot(g.g.imag, d)) / B.n_cells

        accepted = False
        while step >= step_min:
            try:
                Bt = GridStructure((B.values + step * d).clip(
                    bounds.b1, bounds.b2), bounds)
                kt = _track(Bt, kappa, _trust_radius(B))
                Bt, kt, pinned = _pin_frequency(Bt, kt, cfg)
            except (LostEigenvalue, NearMultiple):
                step *= _STEP_SHRINK
                continue
            if pinned and kt.imag <= kappa.imag + 1e-4 * step * slope:
                B, kappa = Bt, kt
                accepted = True
                step = min(step * _STEP_GROW, 1.0)
                break
            step *= _STEP_SHRINK
        if not accepted:
            status = "stalled"
            break
        trajectory.append(IterationRecord(
            it, kappa, kappa.imag, abs(kappa.real - cfg.alpha),
            extremality_measure(B, bounds, eps_ext), step))

    return _finalize(B, kappa, cfg, trajectory, status)


# -- finalization -----------------------------------------------------------------

def _finalize(B: GridStructure, kappa: complex, cfg: OptimizeConfig,
              trajectory: list, status: str) -> OptimizeResult:
    """The result with the rounded medium and, when its kappa is within
    _TOL_FREQ of alpha, the polished one: the shooting solution seeded by
    the rounded medium, unless it is clearly non-local (the rounded medium
    stands in for a failed or rejected solve)."""
    rounded = round_to_extreme(B, cfg.bounds)
    try:
        k_r = _track(rounded, kappa, _trust_radius(B))
    except (LostEigenvalue, NumericalError, InfeasibleError):
        return OptimizeResult(B, kappa, tuple(trajectory), status)
    polished, k_p = rounded, k_r
    if cfg.alpha != 0.0:   # on the axis the rounded medium is the answer
        try:
            shot, k_s, _, _ = _solve_shot(rounded, k_r, cfg.alpha, cfg.bounds)
        except NumericalError:
            pass
        else:
            # pinning Re exactly to alpha may cost a little Im
            if 0.0 < k_s.imag <= k_r.imag + 0.02 and abs(k_s - k_r) <= 0.3:
                polished, k_p = shot, k_s
    if not abs(k_p.real - cfg.alpha) <= _TOL_FREQ:
        polished = k_p = None
    return OptimizeResult(B, kappa, tuple(trajectory), status,
                          rounded, k_r, polished, k_p)


# -- frequency sweeps ---------------------------------------------------------------

@dataclass(frozen=True)
class SweepEntry:
    alpha: float
    I_alpha: float
    result: OptimizeResult | None
    upper_bound: float
    error: str | None = None


def sweep_I(alphas, config: OptimizeConfig) -> list:
    """Trace the optimal decay rate over a list of frequencies.

    Each alpha runs from its own best constant seed: the seed of `config`
    belongs to its alpha and is dropped.  Per-alpha failures are recorded
    and the sweep continues; entries come back in input order.
    """
    _instance(config, OptimizeConfig)
    try:
        alphas = list(alphas)
    except TypeError:
        raise InputError(f"alphas must be a sequence, not {alphas!r}") from None

    def run(alpha: float) -> SweepEntry:
        cfg = replace(config, alpha=alpha, seed_kappa=None)
        ub = constant_upper_bound(alpha, cfg.bounds)
        try:
            res = minimize_im_at_frequency(cfg)
            return SweepEntry(alpha, res.kappa.imag, res, ub)
        except QnmOptError as exc:
            return SweepEntry(alpha, math.nan, None, ub,
                              f"{type(exc).__name__}: {exc}")

    return [run(a) for a in alphas]
