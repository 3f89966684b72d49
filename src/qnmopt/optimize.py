"""Minimizing the decay rate Im kappa at a prescribed frequency.

Projected gradient flow on a uniform-cell medium: the step direction is the
clipped anti-gradient of Im kappa made first-order neutral for Re kappa (a
one-parameter family resolved by a scalar root solve), with Armijo
backtracking on the tracked eigenvalue, a frequency re-pinning correction,
and a finalization pass that rounds to a two-valued structure and then
polishes the switch positions continuously.  Re-pinning, and a step whose
clipped family collapses, take the exact solution of a one-constraint box
LP (_lp_direction, one sort of the ratios); the switch polish runs the
damped-Newton driver of the sensitivity module.  Multiple-eigenvalue
collisions are detected through |dF/dz|: the run stops with
CollisionDetected, whose `.partial` holds the result so far.

alpha = 0 runs the same loop.  For a real medium F(i beta) is real and
dF/dz(i beta) imaginary, so a Newton step from an axis point lands exactly
on the axis: Re kappa stays 0.0, the pin sees no drift, Re g vanishes so the
step direction takes lambda = 0, and the switch polish, whose Jacobian is
singular there, keeps the rounded medium.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import brentq

from .errors import (CollisionDetected, InfeasibleError, InputError,
                     LostEigenvalue, NearMultiple, NumericalError, QnmOptError,
                     StalledDirection, ZeroFrequency)
from .field import mode_values, overlap_integrals
from .medium import (AdmissibleBounds, GridStructure, PiecewiseStructure,
                     constant, extremality_measure, project_to_box,
                     round_to_extreme, to_grid)
from .sensitivity import GradientDensity, _damped_newton, eigenvalue_gradient
from .spectrum import SpectralWindow, axis_offset, locate, newton_refine

__all__ = [
    "OptimizeConfig", "IterationRecord", "OptimizeResult", "step_direction",
    "minimize_im_at_frequency", "sweep_I",
    "constant_upper_bound", "best_constant_seed",
]

_PIN_ROUNDS = 12          # frequency re-pinning rounds per call
_POLISH_ITERS = 60        # damped-Newton iterations of the switch polish
_ACT_TOL = 1e-12          # distance from a bound at which a cell is railed
_MIN_LAYER_WIDTH = 1e-4   # the polish drops layers thinner than this


@dataclass(frozen=True)
class OptimizeConfig:
    """Knobs of one optimization run at a fixed target frequency alpha."""

    alpha: float
    bounds: AdmissibleBounds
    n_cells: int = 256
    step0: float = 0.2
    step_grow: float = 1.5
    step_shrink: float = 0.5
    max_iters: int = 400
    tol_freq: float = 1e-8
    tol_grad: float = 1e-10
    seed_structure: GridStructure | None = None
    seed_kappa: complex | None = None
    round_threshold: float = 0.25

    def __post_init__(self):
        if self.n_cells < 16:
            raise InputError("need at least 16 grid cells")
        if self.step0 <= 0 or self.tol_freq <= 0:
            raise InputError("step0 and tol_freq must be positive")


@dataclass(frozen=True)
class IterationRecord:
    iter: int
    kappa: complex
    objective: float      # Im kappa
    drift: float          # |Re kappa - alpha|
    extremality: float
    step: float


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
    """Constant media with an eigenvalue exactly at Re kappa = alpha.

    From the closed form Re = pi (n + shift) / sqrt(b), each integer n yields
    b = (pi (n + shift) / alpha)^2; keep those inside the box (b = 1 has no
    spectrum).  The ratio is compared with sqrt(b2) before it is squared, so
    a tiny alpha finds no candidate instead of overflowing.
    """
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
            # the n-offset family lives above 1, the half-shift family below
            if (shift == 0.0) != (b > 1.0):
                continue
            b = min(max(b, bounds.b1), bounds.b2)
            out.append((b, complex(alpha, axis_offset(b))))
    return out


def constant_upper_bound(alpha: float, bounds: AdmissibleBounds) -> float:
    """min Im over constant media having an eigenvalue at frequency alpha."""
    cands = _constant_candidates(alpha, bounds)
    if not cands:
        return math.inf
    return min(k.imag for _, k in cands)


def best_constant_seed(alpha: float, bounds: AdmissibleBounds):
    """(GridStructure factory value b, kappa) of the best constant preset."""
    cands = _constant_candidates(alpha, bounds)
    if not cands:
        raise InfeasibleError(
            f"no constant structure in [{bounds.b1}, {bounds.b2}] resonates "
            f"at frequency {alpha}")
    return min(cands, key=lambda t: t[1].imag)


# -- step direction --------------------------------------------------------------

def _clipped_direction(raw: np.ndarray, vals: np.ndarray,
                       bounds: AdmissibleBounds) -> np.ndarray:
    d = np.clip(raw, -1.0, 1.0)
    d = np.where(vals <= bounds.b1 + _ACT_TOL, np.maximum(d, 0.0), d)
    d = np.where(vals >= bounds.b2 - _ACT_TOL, np.minimum(d, 0.0), d)
    return d


def step_direction(g: GradientDensity, B: GridStructure,
                   bounds: AdmissibleBounds,
                   tol_grad: float = 1e-10) -> np.ndarray:
    """Feasible direction of steepest Im-descent that is Re-neutral.

    delta B = clip(-Im g + lambda Re g) with the multiplier fixed by
    int Re(g) delta B = 0 under the active-set clipping; the map
    lambda -> int Re(g) delta B is monotone piecewise linear, so a scalar
    bracketing solve suffices.  Returns delta B as a float array over the
    cells of B.  StalledDirection signals first-order optimality (or an
    incompatible constraint).
    """
    re, im = g.g.real, g.g.imag
    vals = B.values
    n = len(vals)

    def h(lam: float) -> float:
        d = _clipped_direction(-im + lam * re, vals, bounds)
        return float(np.dot(re, d)) / n

    if np.max(np.abs(re)) < 1e-300:
        lam = 0.0
    else:
        lo, hi = -1.0, 1.0
        scale = (np.max(np.abs(im)) + 1.0) / max(np.max(np.abs(re)), 1e-300)
        bracketed = False
        for _ in range(80):
            if h(lo) <= 0.0 <= h(hi):
                bracketed = True
                break
            lo *= 2.0
            hi *= 2.0
            if hi > 1e9 * scale:
                break
        if not bracketed:
            raise StalledDirection("cannot make the step frequency-neutral")
        lam = brentq(h, lo, hi, xtol=1e-15 * max(1.0, abs(lo), abs(hi)))

    d = _clipped_direction(-im + lam * re, vals, bounds)
    slope = float(np.dot(im, d)) / n
    if slope >= -tol_grad:
        # clipping can collapse the whole lambda family to d = 0 at a railed
        # structure; the saturated LP direction resolves that degeneracy
        d = _lp_direction(-im, re, vals, bounds)
        slope = float(np.dot(im, d)) / n
        if slope >= -tol_grad:
            raise StalledDirection(
                f"predicted Im decrease {slope:.3e} above -{tol_grad:.0e}")
    return d


# -- eigenvalue tracking ----------------------------------------------------------

def _trust_radius(B: GridStructure) -> float:
    mean_b = float(np.mean(B.values))
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

    One-constraint box LP, a fractional knapsack solved exactly by sorting
    (Dantzig, Oper. Res. 5(2), 1957).  At a multiplier nu each cell sits at
    its upper room u where obj - nu * con > 0 and at its lower room l
    otherwise; cells with con = 0 (and cells with no room) take u or l by the
    sign of obj.  As nu rises past the ratio obj/con of a movable cell, the
    cell flips to its other extreme and the response con . d drops by
    |con| (u - l).  Since u >= 0 >= l the response starts >= 0 and ends
    <= 0, so it always crosses: the movable cells flip in stable ratio
    order up to the first prefix whose response is <= 0, and the last of
    them, the marginal cell, is made fractional against the residual
    con . d so that the constraint holds to rounding.
    """
    u = np.where(vals >= bounds.b2 - _ACT_TOL, 0.0, 1.0)
    l = np.where(vals <= bounds.b1 + _ACT_TOL, 0.0, -1.0)
    d = np.where(obj > 0.0, u, l)
    move = np.flatnonzero((con != 0.0) & (u > l))
    if not move.size:
        return d
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
    """Pull Re kappa back to alpha along an Im-neutral feasible direction.

    Returns (B, kappa, ok); ok=False means the feasible cone cannot reach
    the target frequency from here (caller should reject the step).
    """
    bounds = cfg.bounds
    n = B.n_cells
    for _ in range(_PIN_ROUNDS):
        drift = kappa.real - cfg.alpha
        if abs(drift) <= 0.5 * cfg.tol_freq:
            return B, kappa, True
        ga = eigenvalue_gradient(B, kappa).g
        vals = B.values
        want = -drift  # desired Re move
        sgn = 1.0 if want >= 0 else -1.0
        d = _lp_direction(sgn * ga.real, ga.imag, vals, bounds)
        dre = float(np.dot(ga.real, d)) / n
        if abs(dre) < 1e-14:
            return B, kappa, False
        s = want / dre
        s = max(min(s, 0.1 * bounds.width), -0.1 * bounds.width)
        B = project_to_box(B.with_values(vals + s * d), bounds)
        kappa = _track(B, kappa, _trust_radius(B))
    return B, kappa, abs(kappa.real - cfg.alpha) <= 0.5 * cfg.tol_freq


# -- main loop ---------------------------------------------------------------------

def minimize_im_at_frequency(config: OptimizeConfig,
                             B0: GridStructure | None = None) -> OptimizeResult:
    """Projected gradient minimization of Im kappa with Re kappa = alpha.

    Returns the final grid structure, tracked eigenvalue, per-iteration
    trajectory, and the rounded + switch-polished bang-bang finalization.
    Raises ZeroFrequency for a seed_kappa with Im <= 0, and LostEigenvalue /
    CollisionDetected with a .partial attribute carrying the trajectory so
    far.
    """
    cfg = config
    if cfg.seed_kappa is not None and not cfg.seed_kappa.imag > 0:
        raise ZeroFrequency("a seed eigenvalue needs Im kappa > 0")
    bounds = cfg.bounds
    if B0 is None:
        B0 = cfg.seed_structure
    if B0 is None:
        b, k0 = best_constant_seed(cfg.alpha, bounds)
        B0 = to_grid(constant(b, bounds), cfg.n_cells)
        kappa = k0
    else:
        B0 = project_to_box(B0, bounds)
        kappa = cfg.seed_kappa
        if kappa is None:
            _, k0 = best_constant_seed(cfg.alpha, bounds)
            kappa = k0
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
    step = cfg.step0
    trajectory = [IterationRecord(0, kappa, kappa.imag,
                                  abs(kappa.real - cfg.alpha),
                                  extremality_measure(B, bounds, eps_ext), 0.0)]
    status = "max_iters"
    step_min = 1e-7 * bounds.width

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
            d = step_direction(g, B, bounds, cfg.tol_grad)
        except StalledDirection:
            status = "stalled"
            break
        slope = float(np.dot(g.g.imag, d)) / B.n_cells

        accepted = False
        while step >= step_min:
            try:
                Bt = project_to_box(B.with_values(B.values + step * d), bounds)
                kt = _track(Bt, kappa, _trust_radius(B))
                Bt, kt, pinned = _pin_frequency(Bt, kt, cfg)
            except (LostEigenvalue, NearMultiple):
                step *= cfg.step_shrink
                continue
            if pinned and kt.imag <= kappa.imag + 1e-4 * step * slope:
                B, kappa = Bt, kt
                accepted = True
                step = min(step * cfg.step_grow, 2.0 * bounds.width)
                break
            step *= cfg.step_shrink
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
    rounded, _ = round_to_extreme(B, cfg.bounds, cfg.round_threshold)
    out = OptimizeResult(B, kappa, tuple(trajectory), status)
    try:
        k_r = _track(rounded, kappa, _trust_radius(B))
        polished, k_p = _polish_switches(rounded, k_r, cfg)
        return OptimizeResult(B, kappa, tuple(trajectory), status,
                              rounded, k_r, polished, k_p)
    except (LostEigenvalue, NumericalError, InfeasibleError):
        return out


def _switch_sensitivities(B: PiecewiseStructure, kappa: complex) -> np.ndarray:
    """d kappa / d x_j for each interior breakpoint (value jump * density)."""
    xs, vals = B.breakpoints[1:-1], B.values
    bd, i_phi2b, _ = overlap_integrals(B, kappa)
    denom = 2.0 * kappa * i_phi2b - 1j * bd.phi1 ** 2
    phi, _ = mode_values(B, kappa, xs)
    dens = -kappa ** 2 * phi ** 2 / denom
    return (vals[:-1] - vals[1:]) * dens


def _drop_thin_layers(B: PiecewiseStructure):
    """Remove layers narrower than _MIN_LAYER_WIDTH (collapsed switch pairs the
    continuum optimum wants gone); equal-valued neighbours re-merge."""
    while B.n_intervals > 1:
        thin = np.flatnonzero(B.layers.lengths < _MIN_LAYER_WIDTH)
        if not thin.size:
            return B
        j = thin[0]
        # the sliver merges into a neighbour
        B = PiecewiseStructure(np.delete(B.breakpoints, max(j, 1)),
                               np.delete(B.values, j), B.bounds)
    return B


def _polish_switches(B: PiecewiseStructure, kappa: complex,
                     cfg: OptimizeConfig):
    """Continuum refinement of switch positions at fixed values.

    Runs the stationarity Newton solve, and whenever it drives a pair of
    switches together (a sliver layer the optimum does not want), removes
    the collapsed layer and re-solves with the reduced switch count.
    """
    for _ in range(4):
        B2, k2 = _polish_newton(B, kappa, cfg)
        cleaned = _drop_thin_layers(B2)
        if cleaned is B2:
            return B2, k2
        res = newton_refine(cleaned, k2, tol=1e-9, leash=0.3)
        if res is None:
            return B2, k2
        B, kappa = cleaned, res[0]
    return B, kappa


def _polish_newton(B: PiecewiseStructure, kappa: complex,
                   cfg: OptimizeConfig):
    """One damped-Newton pass on Im(dk/dx_j) = lam Re(dk/dx_j), Re k = alpha."""
    if B.n_intervals == 1:
        return B, kappa
    vals = B.values
    bounds = B.bounds

    def build(xs):
        pts = np.concatenate(([0.0], np.sort(xs), [1.0]))
        if np.any(np.diff(pts) < 1e-9):
            return None
        return PiecewiseStructure(pts, vals, bounds)

    def residual(q, kappa_near):
        Bq = build(q[:-1])
        res = None if Bq is None else \
            newton_refine(Bq, kappa_near, tol=1e-9, leash=0.5)
        if res is None:
            return None
        kq = res[0]
        sens = _switch_sensitivities(Bq, kq)
        return np.append(sens.imag - q[-1] * sens.real, kq.real - cfg.alpha), kq

    # keeps the last accepted iterate whatever stopped the iteration
    q, r, kappa_cur, _ = _damped_newton(
        residual, np.append(B.breakpoints[1:-1], 0.0), _POLISH_ITERS, kappa)
    if r is None:
        return B, kappa
    Bq = build(q[:-1])
    res = newton_refine(Bq, kappa_cur, tol=1e-11, leash=0.5)
    if res is None:
        return B, kappa
    kp = res[0]
    # pinning Re exactly to alpha may cost a little Im; only reject clearly
    # non-local outcomes
    if kp.imag <= 0 or kp.imag > kappa.imag + 0.02 or abs(kp - kappa) > 0.3:
        return B, kappa
    return Bq, kp


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
    def run(alpha: float) -> SweepEntry:
        cfg = replace(config, alpha=alpha, seed_structure=None,
                      seed_kappa=None)
        ub = constant_upper_bound(alpha, cfg.bounds)
        try:
            res = minimize_im_at_frequency(cfg)
            return SweepEntry(alpha, res.kappa.imag, res, ub)
        except QnmOptError as exc:
            return SweepEntry(alpha, math.nan, None, ub,
                              f"{type(exc).__name__}: {exc}")

    return [run(a) for a in alphas]
