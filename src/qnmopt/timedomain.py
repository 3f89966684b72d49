"""Time-domain cross-check: a mode of the open cavity decays at Im kappa.

Explicit leapfrog for B u_tt = u_xx on [0,1] with a reflecting (Neumann)
left end and a first-order absorbing right end (u_x = -u_t, discretized in
the classic one-sided transparent form that is exact for unit-speed
right-movers on the characteristic grid; Mur, IEEE Trans. EMC 23(4), 1981).
The discrete energy E = 1/2 int (B u_t^2 + u_x^2) is non-increasing, and a
simulation excited with a frequency-domain mode must show log E decaying at
twice the mode's imaginary part.  Runs take the CFL-safe step
dt = CFL_SAFETY h sqrt(min B), h = 1/m_cells, and probe the wall node x = 0.

The loop runs in velocity form: it carries V^n = u^{n+1} - u^n and
D^n = diff(u^n), so a step is

    V^{n+1} = V^n + lam2 (D^{n+1}[1:] - D^{n+1}[:-1])   (nodes 0..m-1),
    u^{n+2} = u^{n+1} + V^{n+1},

five in-place array operations on row views built once per call.  Row
D^{n+1} carries a ghost entry -D^{n+1}[0] in front (the Neumann mirror
u[-1] = u[1]), so the Neumann node takes the interior update:
lam2 (d + d) equals the one-sided 2 lam2 d to the bit.  The Mur node is a
scalar update whose previous value and neighbour are carried as Python
floats.  V and D each alternate between two preallocated rows.

The staggered energy at t = (n + 1/2) dt,

    E^n = h/2 (sum_i w_i B_i (V^n_i / dt)^2 + sum_i D^{n+1}_i D^n_i / h^2),

with trapezoid weights w, is not formed per step.  Multiplying the update
of node i by w_i (u_i^{n+1} - u_i^{n-1}) and summing by parts (the discrete
energy method; Strikwerda, Finite Difference Schemes and PDEs, 2nd ed.,
2004, ch. 6) telescopes the interior; the Neumann mirror cancels the term
at x = 0, so only the flux through the Mur node m is left:

    E^n - E^{n-1} = (u_m^{n+1} - u_m^{n-1}) [(u_m^n - u_{m-1}^n)
                    + (u_m^{n+1} - 2 u_m^n + u_m^{n-1}) / (2 lam2_m)] / (2h),

with lam2_m = dt^2 / (h^2 B_m).  The loop advances E by this identity in
Python floats beside the Mur scalars, and every _BLOCK (16) steps resets it
to the quadratic form of one row.  The reset bounds the rounding of the
running sum to _BLOCK steps, so down a decay of many decades E keeps its
relative precision, and makes a step's energy independent of where the run
stops.  `excite_and_fit` therefore runs only as far as its fit reads: to
the end of the 0.9 T window plus half an averaging period and two steps.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateMedium, FitUnstable, InputError, NumericalError
from .field import mode_values
from .medium import (GridStructure, PiecewiseStructure, _as_complex,
                     _is_finite_real, _is_int, _medium)

__all__ = ["SimResult", "simulate", "excite_and_fit", "FitResult",
           "CFL_SAFETY"]

CFL_SAFETY = 0.9
_BLOCK = 16   # steps between re-anchorings of the running energy
_FIT_WINDOW = (0.15, 0.9)   # fraction of T over which log E is fitted
_MAX_REL_RESIDUAL = 0.05    # largest rms misfit / slope span of a stable fit
_MAX_FLOATS = 1 << 26       # floats a run may hold: 3 traces + node-length rows
_NODE_ROWS = 20   # node-length arrays a run holds at its peak: about 19 while
                 # excite_and_fit builds its mode data, 15 in simulate

Medium = PiecewiseStructure | GridStructure


@dataclass(frozen=True)
class SimResult:
    times: np.ndarray
    energies: np.ndarray
    probe: np.ndarray            # u at the wall node x = 0 per step
    dt: float
    dx: float


def _node_coefficients(B: Medium, m_cells: int) -> np.ndarray:
    """B sampled at grid nodes (breakpoint nodes take the side average)."""
    xs = np.linspace(0.0, 1.0, m_cells + 1)
    h = 1.0 / m_cells
    left = B.layers.values_at(np.maximum(xs - 0.25 * h, 0.0))
    right = B.layers.values_at(np.minimum(xs + 0.25 * h, 1.0))
    return 0.5 * (left + right)


def _plan(B: Medium, T, m_cells) -> tuple:
    """(dt, steps) of a run until T on m_cells cells at the CFL-safe step
    dt = CFL_SAFETY dx sqrt(min B), checked before any allocation:
    InputError for a B that is not a medium, a bad T or m_cells or a run
    of more than _MAX_FLOATS floats, DegenerateMedium for min B <= 0."""
    if not _is_int(m_cells) or m_cells < 1:
        raise InputError(f"m_cells must be a positive integer, not {m_cells!r}")
    if m_cells >= _MAX_FLOATS // _NODE_ROWS:
        raise InputError(f"{m_cells} cells exceed the run size limit")
    if not (_is_finite_real(T) and T >= 0.0):
        raise InputError(f"T must be finite and >= 0, not {T!r}")
    b_min = float(_medium(B).layers.values.min())
    if b_min <= 0.0:
        raise DegenerateMedium("simulation requires min B > 0")
    h = 1.0 / m_cells
    dt = CFL_SAFETY * h * math.sqrt(b_min)
    steps = T / dt
    if not 3.0 * steps + _NODE_ROWS * (m_cells + 1) <= _MAX_FLOATS:
        raise InputError(f"{steps:.3g} steps on {m_cells} cells exceed the "
                         f"run size limit")
    return dt, math.ceil(steps)


def _node_array(a, m_cells: int) -> np.ndarray:
    """A float copy of real, finite node data of length m_cells + 1."""
    try:
        a = np.asarray(a)
    except (TypeError, ValueError) as exc:
        raise InputError(f"u0 and v0 must be real node arrays: {exc}") from exc
    if a.dtype.kind not in "iuf" or a.shape != (m_cells + 1,):
        raise InputError("u0 and v0 must be real node arrays of length "
                         "m_cells+1")
    a = a.astype(float)     # a long double past the float range is inf
    if not np.all(np.isfinite(a)):
        raise InputError("u0 and v0 must be finite")
    return a


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def simulate(B: Medium, u0, v0, T: float, m_cells: int) -> SimResult:
    """Leapfrog run until time T on m_cells uniform cells.

    u0, v0 are node arrays of length m_cells + 1 (displacement and
    velocity).  The run takes the CFL-safe step dt = 0.9 dx sqrt(min B)
    and probes the wall node x = 0.  B must be a medium, T finite and >=
    0, m_cells a positive integer, u0 and v0 real and finite, and the run
    must fit in _MAX_FLOATS floats; anything else raises InputError.  A
    run that overflows (huge data) raises NumericalError after its loop
    instead of warning at every step.
    """
    dt, n_steps = _plan(B, T, m_cells)
    u_prev = _node_array(u0, m_cells)
    v_init = _node_array(v0, m_cells)
    bn = _node_coefficients(B, m_cells)
    h = 1.0 / m_cells

    lam2 = dt ** 2 / (h ** 2 * bn)
    # radiating end: u_x = -u_t with unit impedance irrespective of B(1);
    # time-centered one-sided form (exact for B = 1 on the dt = h grid)
    mur = (dt - h) / (dt + h)

    # leapfrog start: u at t = dt from a Taylor step
    lap = np.zeros_like(u_prev)
    lap[1:-1] = u_prev[2:] - 2.0 * u_prev[1:-1] + u_prev[:-2]
    lap[0] = 2.0 * (u_prev[1] - u_prev[0])    # Neumann ghost u[-1] = u[1]
    u = u_prev + dt * v_init + 0.5 * lam2 * lap
    u[-1] = u_prev[-2] + mur * (u[-2] - u_prev[-1])

    times = (np.arange(n_steps) + 0.5) * dt
    energies = np.empty(n_steps)
    probe = np.empty(n_steps)
    w = np.ones(m_cells + 1)
    w[0] = w[-1] = 0.5
    kin = w * bn / dt ** 2

    # step n reads V^n = u^{n+1} - u^n from row n % 2 of V and writes V^{n+1}
    # to the other row; D alternates alike, D[., 1:] = diff(u) behind the
    # Neumann ghost D[., 0]
    V = np.zeros((2, m_cells + 1))
    D = np.zeros((2, m_cells + 1))
    V[0] = u - u_prev
    D[0, 1:] = np.diff(u_prev)
    rows = [(D[1], D[1, 1:], D[1, :-1], V[1], V[1, :-1], V[0, :-1]),
            (D[0], D[0, 1:], D[0, :-1], V[0], V[0, :-1], V[1, :-1])]
    rows *= _BLOCK // 2
    u_hi, u_lo, lam2_lo = u[1:], u[:-1], lam2[:-1]
    # the Mur node at steps n + 1 and n, and its neighbour at step n + 1
    end, old, pre = u.item(-1), u_prev.item(-1), u.item(-2)
    flux, kin_end = 0.5 / h, 0.5 / lam2.item(-1)
    sub, mul, add = np.subtract, np.multiply, np.add
    for n0 in range(0, n_steps, _BLOCK):
        # E^{n0} from its quadratic form; V[1] and D[1] are overwritten by
        # step n0
        mul(V[0], V[0], V[1])
        sub(u_hi, u_lo, D[1, 1:])
        e = float(0.5 * h * (V[1] @ kin + (D[1, 1:] @ D[0, 1:]) / h ** 2))
        for n, (d_row, d, d_lo, v_row, v, v_old) in zip(range(n0, n_steps),
                                                        rows):
            probe[n] = u[0]
            energies[n] = e
            sub(u_hi, u_lo, d)
            d_row[0] = -d_row[1]
            # V^{n+1} = V^n + lam2 lap(u^{n+1}) on nodes 0..m-1, then
            # u^{n+2} = u^{n+1} + V^{n+1} there and Mur's update at the end
            sub(d, d_lo, v)
            mul(v, lam2_lo, v)
            add(v, v_old, v)
            add(u_lo, v, u_lo)
            mid = u.item(-2)
            new = pre + mur * (mid - end)
            u[-1] = new
            v_row[-1] = new - end
            # E^{n+1} - E^n: the interior sums by parts to the Mur node
            e += (new - old) * (end - pre
                                + (new - 2.0 * end + old) * kin_end) * flux
            old, end, pre = end, new, mid
    if not (np.all(np.isfinite(energies)) and np.all(np.isfinite(probe))):
        raise NumericalError("the run overflowed the float range")

    return SimResult(times, energies, probe, dt, h)


@dataclass(frozen=True)
class FitResult:
    beta: float                 # fitted energy decay rate (log E slope, negated)
    expected: float             # 2 Im kappa
    rel_residual: float         # rms residual of the linear fit / slope span
    window: tuple


def excite_and_fit(B: Medium, kappa: complex, T: float,
                   m_cells: int) -> FitResult:
    """Initialize with Re(phi), Re(i kappa phi) and fit the energy decay.

    The fitted slope of log E approximates 2 Im kappa (energy is quadratic
    in amplitude).  A log-energy trace that is not straight over the fit
    window (mode mixing, under-resolved grid), or one shorter than the
    averaging period, raises FitUnstable.  The run stops after the last
    step the fit reads, with the same result as a run until T.  B must be
    a medium and kappa a finite number (InputError).
    """
    kappa = _as_complex(kappa, "kappa", finite=True)
    dt, _ = _plan(B, T, m_cells)
    p = _averaging_steps(kappa, dt, T)
    # an averaged sample at time t reads the steps within p/2 of it
    t_stop = min(T, _FIT_WINDOW[1] * T + (0.5 * p + 2.0) * dt)
    sim = simulate(B, *_mode_data(B, kappa, m_cells), t_stop, m_cells)
    return _fit_decay(sim, kappa, T)


def _mode_data(B: Medium, kappa: complex, m_cells: int) -> tuple:
    """(u0, v0) = (Re phi, Re(i kappa phi)) at the m_cells + 1 nodes."""
    phi, _ = mode_values(B, kappa, np.linspace(0.0, 1.0, m_cells + 1))
    return phi.real.copy(), (1j * kappa * phi).real.copy()


def _averaging_steps(kappa: complex, dt: float, T: float) -> int:
    """Steps p in one period of the interference term of a run until T.

    The real field carries an interference term at frequency 2 Re kappa;
    averaging E over exactly one oscillation period leaves the pure decay.
    A period longer than the run raises FitUnstable.
    """
    if kappa.real == 0.0:
        return 0
    period, n_steps = math.pi / abs(kappa.real) / dt, math.ceil(T / dt)
    if not period <= n_steps:
        raise FitUnstable(f"averaging period of {period:.3g} steps is "
                          f"longer than the {n_steps}-step run")
    return round(period)


def _fit_decay(sim: SimResult, kappa: complex, T: float) -> FitResult:
    """excite_and_fit's fit of sim, a run from _mode_data(B, kappa, m) that
    reaches at least as far as the fit reads (a run until T does)."""
    p = _averaging_steps(kappa, sim.dt, T)
    times, energies = sim.times, sim.energies
    if p >= 2:
        kern = np.ones(p) / p
        energies = np.convolve(energies, kern, mode="valid")
        times = times[p - 1:] - 0.5 * (p - 1) * sim.dt
    t0, t1 = _FIT_WINDOW[0] * T, _FIT_WINDOW[1] * T
    sel = (times >= t0) & (times <= t1)
    ts = times[sel]
    es = energies[sel]
    if np.any(es <= 0.0) or len(ts) < 16:
        raise FitUnstable("energy reached zero or too few samples to fit")
    logs = np.log(es)
    a, b = np.polyfit(ts, logs, 1)
    resid = logs - (a * ts + b)
    span = abs(a) * (ts[-1] - ts[0])
    rel = float(np.sqrt(np.mean(resid ** 2)) / max(span, 1e-300))
    if rel > _MAX_REL_RESIDUAL:
        raise FitUnstable(
            f"log-energy trace nonlinear (rel residual {rel:.3e})")
    return FitResult(beta=float(-a), expected=2.0 * kappa.imag,
                     rel_residual=rel, window=(float(t0), float(t1)))
