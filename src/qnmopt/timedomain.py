"""Time-domain cross-check: a mode of the open cavity decays at Im kappa.

Explicit leapfrog for B u_tt = u_xx on [0,1] with a reflecting (Neumann)
left end and a first-order absorbing right end (u_x = -u_t, discretized in
the classic one-sided transparent form that is exact for unit-speed
right-movers on the characteristic grid; Mur, IEEE Trans. EMC 23(4), 1981).
The discrete energy E = 1/2 int (B u_t^2 + u_x^2) is non-increasing, and a
simulation excited with a frequency-domain mode must show log E decaying at
twice the mode's imaginary part.

The loop runs in velocity form: it carries V^n = u^{n+1} - u^n and
D^n = diff(u^n), so a step is

    V^{n+1} = V^n + lam2 (D^{n+1}[1:] - D^{n+1}[:-1])   (interior nodes),
    u^{n+2} = u^{n+1} + V^{n+1},

plus two scalar updates at the Neumann and Mur nodes: five in-place array
operations in all.  The staggered energy at t = (n + 1/2) dt,

    E^n = h/2 (sum_i w_i B_i (V^n_i / dt)^2 + sum_i D^{n+1}_i D^n_i / h^2),

with trapezoid weights w, is not formed per step: V and D rows of _BLOCK
(16) consecutive steps are kept in three preallocated buffers of at most
(_BLOCK + 1) x (m_cells + 1) floats, and each block's energies come from
one matrix-vector product and one row-wise dot.  The last V and D rows of a
block carry over as row 0 of the next.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import CFLViolation, DegenerateMedium, FitUnstable, InputError
from .field import mode_values
from .medium import GridStructure, PiecewiseStructure

__all__ = ["SimResult", "simulate", "excite_and_fit", "FitResult",
           "CFL_SAFETY"]

CFL_SAFETY = 0.9
_BLOCK = 16   # time steps whose V and D rows are buffered between energy passes
_FIT_WINDOW = (0.15, 0.9)   # fraction of T over which log E is fitted
_MAX_REL_RESIDUAL = 0.05    # largest rms misfit / slope span of a stable fit

Medium = PiecewiseStructure | GridStructure


@dataclass(frozen=True)
class SimResult:
    times: np.ndarray
    energies: np.ndarray
    probe: np.ndarray            # u at the probe node per recorded step
    dt: float
    dx: float


def _node_coefficients(B: Medium, m_cells: int) -> np.ndarray:
    """B sampled at grid nodes (breakpoint nodes take the side average)."""
    xs = np.linspace(0.0, 1.0, m_cells + 1)
    h = 1.0 / m_cells
    left = B.layers.values_at(np.maximum(xs - 0.25 * h, 0.0))
    right = B.layers.values_at(np.minimum(xs + 0.25 * h, 1.0))
    return 0.5 * (left + right)


def _is_int(v) -> bool:
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def simulate(B: Medium, u0, v0, T: float, m_cells: int,
             dt: float | None = None, probe_index: int = 0) -> SimResult:
    """Leapfrog run until time T on m_cells uniform cells.

    u0, v0 are node arrays of length m_cells + 1 (displacement and
    velocity).  dt defaults to the CFL-safe value 0.9 dx sqrt(min B);
    a caller-supplied dt beyond that bound raises CFLViolation.  T must be
    finite and >= 0, m_cells a positive integer, u0 and v0 finite and
    probe_index a node index (negative counts from the right end); anything
    else raises InputError.
    """
    if not _is_int(m_cells) or m_cells < 1:
        raise InputError(f"m_cells must be a positive integer, not {m_cells!r}")
    if not math.isfinite(T) or T < 0.0:
        raise InputError(f"T must be finite and >= 0, not {T!r}")
    if not _is_int(probe_index) or not -m_cells - 1 <= probe_index <= m_cells:
        raise InputError(f"probe_index {probe_index!r} is not a node of "
                         f"the {m_cells}-cell grid")
    b_min = float(B.layers.values.min())
    if b_min <= 0.0:
        raise DegenerateMedium("simulation requires min B > 0")
    bn = _node_coefficients(B, m_cells)
    h = 1.0 / m_cells
    dt_max = CFL_SAFETY * h * math.sqrt(b_min)
    if dt is None:
        dt = dt_max
    elif not (math.isfinite(dt) and dt > 0.0):
        raise InputError(f"dt must be finite and > 0, not {dt!r}")
    elif dt > dt_max * (1.0 + 1e-12):
        raise CFLViolation(f"dt = {dt:.3e} exceeds {dt_max:.3e}")

    u_prev = np.asarray(u0, dtype=float).copy()
    v_init = np.asarray(v0, dtype=float)
    if u_prev.shape != (m_cells + 1,) or v_init.shape != (m_cells + 1,):
        raise InputError("u0 and v0 must be node arrays of length m_cells+1")
    if not (np.all(np.isfinite(u_prev)) and np.all(np.isfinite(v_init))):
        raise InputError("u0 and v0 must be finite")

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

    n_steps = math.ceil(T / dt)
    times = (np.arange(n_steps) + 0.5) * dt
    energies = np.empty(n_steps)
    probe = np.empty(n_steps)
    w = np.ones(m_cells + 1)
    w[0] = w[-1] = 0.5
    kin = w * bn / dt ** 2

    # row j of a block holds step n = n0 + j: V[j] = u^{n+1} - u^n and
    # D[j] = diff(u^n); row 0 is carried over from the previous block
    V = np.empty((_BLOCK + 1, m_cells + 1))
    D = np.empty((_BLOCK + 1, m_cells))
    VV = np.empty((_BLOCK, m_cells + 1))
    V[0] = u - u_prev
    D[0] = np.diff(u_prev)
    V_in, V_head = V[:, 1:-1], V[:, :-1]
    D_hi, D_lo = D[:, 1:], D[:, :-1]
    u_hi, u_lo = u[1:], u[:-1]
    lam2_in, lam2_0 = lam2[1:-1], 2.0 * lam2[0]
    sub, mul, add = np.subtract, np.multiply, np.add
    for n0 in range(0, n_steps, _BLOCK):
        rows = min(_BLOCK, n_steps - n0)
        for j in range(rows):
            probe[n0 + j] = u[probe_index]
            d = D[j + 1]
            sub(u_hi, u_lo, d)
            # V^{n+1} = V^n + lam2 lap(u^{n+1}) on the interior ...
            v_in = V_in[j + 1]
            sub(D_hi[j + 1], D_lo[j + 1], v_in)
            mul(v_in, lam2_in, v_in)
            add(v_in, V_in[j], v_in)
            # ... and at the Neumann node, then u^{n+2} = u^{n+1} + V^{n+1}
            v_new = V[j + 1]
            v_new[0] = V[j, 0] + lam2_0 * d[0]
            last, before = u[-1], u[-2]
            add(u_lo, V_head[j + 1], u_lo)
            u[-1] = before + mur * (u[-2] - last)
            v_new[-1] = u[-1] - last
        # staggered (conserved-form) energy at t = (n + 1/2) dt
        vv = np.multiply(V[:rows], V[:rows], out=VV[:rows])
        grad = np.einsum("ij,ij->i", D[1:rows + 1], D[:rows])
        energies[n0:n0 + rows] = 0.5 * h * (vv @ kin + grad / h ** 2)
        V[0], D[0] = V[rows], D[rows]

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
    window (mode mixing, under-resolved grid) raises FitUnstable.
    """
    xs = np.linspace(0.0, 1.0, m_cells + 1)
    phi, _ = mode_values(B, kappa, xs)
    u0 = phi.real.copy()
    v0 = (1j * kappa * phi).real.copy()
    sim = simulate(B, u0, v0, T, m_cells)

    # the real field carries an interference term at frequency 2 Re kappa;
    # averaging E over exactly one oscillation period leaves the pure decay
    times, energies = sim.times, sim.energies
    if kappa.real != 0.0:
        period = math.pi / abs(kappa.real)
        p = int(round(period / sim.dt))
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
    rel = float(np.sqrt(np.mean(resid ** 2))) / max(span, 1e-300)
    if rel > _MAX_REL_RESIDUAL:
        raise FitUnstable(
            f"log-energy trace nonlinear (rel residual {rel:.3e})")
    return FitResult(beta=float(-a), expected=2.0 * kappa.imag,
                     rel_residual=rel, window=(t0, t1))
