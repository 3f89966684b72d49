"""Necessary-optimality certificates for candidate (B, kappa) pairs.

An optimal two-valued structure is tied to the phase of its mode: with
xi(x) the continuous branch of arg phi^2(x, kappa; B) fixed by xi(0) = 0,
there is a single angle omega such that every low-to-high switch sits on
the ray xi = omega (mod 2 pi) and every high-to-low switch on xi = omega +
pi, while xi varies by at most pi across any interval of constancy.  The
same geometry makes y = e^{i theta} phi solve the paper's nonlinear
eigenvalue problem y'' = -kappa^2 B y, y'(0) = 0, F = 0 at x = 1, with
B = b2 where Im y^2 > 0 and b1 elsewhere.  At a fixed Re kappa its two
real unknowns are (Im kappa, theta); the optimizer's polish and
self_consistent_solve both solve it by shooting (_solve_shot), Newton with
the Jacobian that the shot carries beside phi, one shot a step.  Per layer
arg phi has a closed form (_arg_phi): the shot's switch events solve it,
and phase_trace evaluates it, with no sampled unwrap to lose turns of 2 pi.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import (InputError, LostEigenvalue, NoConvergence, NotAtRoot,
                     OnImaginaryAxis)
from .field import _coefficients, charF, mode_values
from .medium import (AdmissibleBounds, PiecewiseStructure, _as_complex, _box,
                     _is_int, _piecewise, constant, switch_points)
from .sensitivity import _damped_newton
from .spectrum import newton_refine

__all__ = [
    "PhaseTrace", "SwitchCertificate", "phase_trace", "switch_alignment",
    "nonlinear_residual", "self_consistent_solve", "SelfConsistentResult",
    "certificate_theta",
]

_ROOT_TOL = 1e-7
_MISMATCH_SAMPLES = 4096      # midpoint samples of the nonlinear mismatch
_SHOT_ITERS = 20              # Newton steps of _solve_shot, a shot each
_SOLVE_TOL = 1e-8             # the shot's kappa and its medium's eigenvalue


def _wrap_pi(x: float) -> float:
    """Wrap an angle into [-pi, pi)."""
    return (x + math.pi) % (2.0 * math.pi) - math.pi


@dataclass(frozen=True)
class PhaseTrace:
    """Continuous branch of arg phi^2 along [0,1] with xi(0) = 0."""

    xs: np.ndarray
    xi: np.ndarray
    a1: float                # leading zero interval of B (xi = 0 there)
    xi_prime_sign: int       # sign of xi' on (a1, 1]

    def value(self, x: float) -> float:
        return float(np.interp(x, self.xs, self.xi))


def _arg_phi(w: complex, p: complex, dp: complex, t, start: float) -> tuple:
    """(arg phi(x0 + t), Im phi'/phi there) on the branch with arg phi(x0)
    = start, for phi entering a layer of w = kappa sqrt(b) at x0 with
    (phi, phi') = (p, dp), at Re kappa > 0; t is a float or an array.

    phi = d e^{-iwt} (1 + zeta), zeta = rho e^{2iwt}, rho = (wp - i dp) /
    (wp + i dp), so arg phi - arg p = -Re(w) t + Arg(1 + zeta) - Arg(1 +
    rho), continuous: Im phi'/phi <= 0 keeps zeta off (-inf, -1).  At b = 0
    phi = p + dp t, and it is Arg(1 + (dp/p) t).
    """
    exp, arg = (np.exp, np.angle) if isinstance(t, np.ndarray) \
        else (cmath.exp, cmath.phase)
    if w == 0.0:
        v = dp / p
        return start + arg(1.0 + v * t), (v / (1.0 + v * t)).imag
    wp, idp = w * p, 1j * dp
    zeta = (wp - idp) / (wp + idp) * exp(2j * w * t)
    return (start - w.real * t + arg(1.0 + zeta) - arg(wp / (wp + idp)),
            (w * (zeta - 1.0) / (zeta + 1.0)).real)


def phase_trace(B: PiecewiseStructure, kappa: complex) -> PhaseTrace:
    """xi = arg phi^2 at 24 points a layer and the breakpoints, in closed
    form: twice arg phi, carried from layer to layer by _arg_phi from each
    layer's entry state, with no sampled unwrap.  Re kappa < 0 is traced
    as its mirror, xi(-conj kappa) = -xi(kappa).
    B must be a medium and kappa a number (InputError), an eigenvalue
    (NotAtRoot) off the imaginary axis (OnImaginaryAxis).
    """
    B = _piecewise(B)
    _as_complex(kappa, "kappa", finite=False)
    if kappa.real == 0.0:
        raise OnImaginaryAxis("phi is real on the axis; the phase is 0 or pi")
    if not abs(charF(kappa, B)) < _ROOT_TOL:
        raise NotAtRoot(f"kappa = {kappa} is not an eigenvalue")
    sign, k = (-1, kappa) if kappa.real > 0 else (1, -kappa.conjugate())
    bps = B.breakpoints
    p, dp = (v.tolist() for v in mode_values(B, k, bps[:-1]))
    xs, phases, phase = [np.zeros(1)], [np.zeros(1)], 0.0
    for x0, x1, w, p0, dp0 in zip(bps[:-1], bps[1:],
                                  (k * np.sqrt(B.values)).tolist(), p, dp):
        x = np.linspace(x0, x1, 25)[1:]
        xs.append(x)
        phases.append(_arg_phi(w, p0, dp0, x - x0, phase)[0])
        phase = phases[-1][-1]
    xs, first = np.unique(np.concatenate(xs), return_index=True)
    xi = -2.0 * sign * np.concatenate(phases)[first]
    return PhaseTrace(xs, xi, B.leading_zero_interval(), sign)


@dataclass(frozen=True)
class SwitchCertificate:
    """Angular diagnostics of the switch-ray characterization."""

    omega: float
    switch_xs: tuple
    deviations: tuple            # angular deviation per switch (radians)
    max_deviation: float
    max_interval_variation: float
    theta: float
    nonlinear_mismatch: float


def _omega(xi: list, sw: list) -> float:
    """The angle of the switch rays from the phases xi at the switches sw:
    the first switch's, plus pi for a down switch; 0 with no switch.  phi
    = 1 on a leading vacuum layer (b1 = 0), so there the first switch, an
    up one, reads xi = 0: that family's switches sit on the real rays."""
    if not sw:
        return 0.0
    return _wrap_pi(xi[0] + math.pi if sw[0][1] == "down" else xi[0])


def certificate_theta(kappa: complex, omega: float, b1: float,
                      a1: float) -> float:
    """Rotation making y = e^{i theta} phi solve the nonlinear problem;
    kappa must be a number (InputError)."""
    if _as_complex(kappa, "kappa", finite=False).real == 0.0:
        return 0.25 * math.pi  # any value in (0, pi/2) works on the axis
    if b1 == 0.0 and a1 > 0.0:
        return -0.5 * math.pi if kappa.real > 0 else 0.0
    if kappa.real > 0:
        return 0.5 * (math.pi - omega)
    return -0.5 * omega


def switch_alignment(B: PiecewiseStructure, kappa: complex) -> SwitchCertificate:
    """Verify the ray alignment of switches and the per-interval phase bound.

    omega follows the first switch (its phase for an up switch, shifted by
    pi for a down switch); up switches are then measured against omega and
    down switches against omega + pi, modulo 2 pi.  The phases are exact at
    the switches (phase_trace), and xi is monotone, so an interval's ends
    give its variation.  B must be a medium and kappa a number (InputError).
    """
    B = _piecewise(B)
    _as_complex(kappa, "kappa", finite=False)
    if kappa.real == 0.0:
        raise OnImaginaryAxis("use the axis characterization at Re kappa = 0")
    sw = switch_points(B)  # raises NotBangBang when appropriate
    trace = phase_trace(B, kappa)
    xi = [trace.value(x) for x in [0.0, *(x for x, _ in sw), 1.0]]
    omega = _omega(xi[1:-1], sw)
    devs = [abs(_wrap_pi(v - (omega if d == "up" else omega + math.pi)))
            for v, (_, d) in zip(xi[1:-1], sw)]
    variation = max(abs(b - a) for a, b in zip(xi[:-1], xi[1:]))
    theta = certificate_theta(kappa, omega, B.bounds.b1, trace.a1)
    return SwitchCertificate(
        omega=omega, switch_xs=tuple(x for x, _ in sw),
        deviations=tuple(devs),
        max_deviation=max(devs) if devs else 0.0,
        max_interval_variation=float(variation),
        theta=theta, nonlinear_mismatch=_mismatch(B, kappa, theta))


def nonlinear_residual(B: PiecewiseStructure, kappa: complex) -> tuple:
    """(theta, mismatch): does chi_{C+}((e^{i theta} phi)^2) rebuild B?

    theta (pi/4 on the axis) and the mismatch are switch_alignment's.  B
    must be a medium and kappa a number (InputError).
    """
    B = _piecewise(B)
    _as_complex(kappa, "kappa", finite=False)
    if not abs(charF(kappa, B)) < _ROOT_TOL:
        raise NotAtRoot(f"kappa = {kappa} is not an eigenvalue")
    b1, a1 = B.bounds.b1, B.leading_zero_interval()
    omega = None   # theta needs none on the axis or after a leading vacuum
    if kappa.real != 0.0 and not (b1 == 0.0 and a1 > 0.0):
        sw = switch_points(B)  # NotBangBang before any phase work
        trace = phase_trace(B, kappa)
        omega = _omega([trace.value(x) for x, _ in sw[:1]], sw)
    theta = certificate_theta(kappa, omega, b1, a1)
    return float(theta), _mismatch(B, kappa, theta)


def _mismatch(B: PiecewiseStructure, kappa: complex, theta: float) -> float:
    """The share of _MISMATCH_SAMPLES midpoint cells where b1 + (b2 - b1)
    chi_{C+}((e^{i theta} phi)^2) disagrees with B; the indicator takes 1
    only on Im > 0 (zero on the closed lower half-plane and the reals)."""
    xs = (np.arange(_MISMATCH_SAMPLES) + 0.5) / _MISMATCH_SAMPLES
    phi, _ = mode_values(B, kappa, xs)
    y2 = (cmath.exp(1j * theta) ** 2) * phi * phi
    rebuilt = np.where(y2.imag > 0.0, B.bounds.b2, B.bounds.b1)
    return float(np.mean(np.abs(rebuilt - B.layers.values_at(xs)) > 1e-12))


# -- the nonlinear eigenvalue problem, by shooting ----------------------------

def _event(w: complex, p: complex, dp: complex, fall: float, room: float):
    """(t, short): the first t < room (None if none) at which arg phi,
    entering a layer of w = kappa sqrt(b) with (phi, phi') = (p, dp), has
    fallen by `fall`, and by how much its fall at t is short: Newton on
    _arg_phi started at `fall`, which falls to 0 there, bisecting its
    bracket as needed.
    """
    if not _arg_phi(w, p, dp, room, fall)[0] <= 0.0:   # also past the range
        return None, 0.0
    lo, hi, t, last = 0.0, room, 0.0, math.inf
    for _ in range(60):
        g, dg = _arg_phi(w, p, dp, t, fall)
        lo, hi = (t, hi) if g > 0.0 else (lo, t)
        step = g / dg if dg < 0.0 else math.inf
        if abs(step) <= 1e-14:
            return t - step, g - dg * step
        # bisect where Newton leaves the bracket or |g| fails to halve
        t, last = (t - step if lo < t - step < hi and abs(g) < 0.5 * last
                   else 0.5 * (lo + hi)), abs(g)
    return t, _arg_phi(w, p, dp, t, fall)[0]


def _shoot(kappa: complex, theta: float, bounds: AdmissibleBounds) -> tuple:
    """(F, dF, breakpoints, values): phi shot from phi(0) = 1, phi'(0) = 0
    at Re kappa >= 0, with B = b2 where Im(e^{2i theta} phi^2) > 0, i.e.
    while the falling eta = arg phi^2 + 2 theta is in (0, pi] mod 2 pi.
    Each switch is a fall of pi/2 in arg phi (_event); its shortfall is
    carried into the next.

    dF = (dF/d Im kappa, dF/d theta): the tangents (phi_l, phi'_l) ride
    along, across a layer by the kappa-derivative of its map, dc = -kappa b
    L sw and dsw = (L c - sw) / kappa, and at a switch x_j by the jump
    (A_before - A_after)(phi, phi') dx_j, A_b = [[0, 1], [-kappa^2 b, 0]],
    where arg phi(x_j) = -theta + const gives dx_j = (-dtheta - Im(phi_l /
    phi)) / Im(phi'/phi).
    """
    x, p, dp = 0.0, 1.0 + 0j, 0j
    pts, vals = [0.0], []
    m = math.ceil(2.0 * theta / math.pi) - 1   # eta in (m pi, (m + 1) pi]
    fall = theta - 0.5 * m * math.pi
    kk, db = kappa * kappa, bounds.b2 - bounds.b1
    uk = vk = um = vm = 0j   # tangents in Im kappa (dkappa = i) and theta
    while True:
        b, room = (bounds.b2 if m % 2 == 0 else bounds.b1), 1.0 - x
        if fall <= 0.0:   # the level was passed within the last event's float
            t, short = 0.0, fall
        elif b > 0.0:
            t, short = _event(kappa * math.sqrt(b), p, dp, fall, room)
        else:   # phi = p + dp t: arg(1 + v t) = -fall in closed form
            v, t, short = dp / p, None, 0.0
            if _arg_phi(0j, p, dp, room, fall)[0] <= 0.0:
                t = -math.sin(fall) / (cmath.exp(1j * fall) * v).imag
        end = t is None or not t < room
        if end or t > 0.0:   # field's layer map; a layer of zero width goes
            L = room if end else t
            c, sw = map(complex, _coefficients(kappa, math.sqrt(b), L)[2:])
            ksw, dsw = kk * b * sw, (L * c - sw) / kappa
            dc = -kappa * b * L * sw
            fp = 1j * (dc * p + dsw * dp)
            fdp = 1j * (dc * dp - b * (2.0 * kappa * sw + kk * dsw) * p)
            uk, vk = c * uk + sw * vk + fp, c * vk - ksw * uk + fdp
            um, vm = c * um + sw * vm, c * vm - ksw * um
            p, dp = c * p + sw * dp, c * dp - kappa * kappa * b * sw * p
            x = 1.0 if end else x + t
            pts.append(x)
            vals.append(b)
        if end:
            return (p - 1j * dp / kappa,
                    (uk - 1j * vk / kappa - dp / kk, um - 1j * vm / kappa),
                    pts, vals)
        # b steps to the other bound at x_j: dphi' += kappa^2 (b' - b) phi dx_j
        jump = kk * (-db if m % 2 == 0 else db) * p / (dp / p).imag
        vk -= jump * (uk / p).imag
        vm -= jump * (1.0 + (um / p).imag)
        m, fall = m - 1, 0.5 * math.pi + short


def _solve_shot(B0: PiecewiseStructure, kappa0: complex, alpha: float,
                bounds: AdmissibleBounds) -> tuple:
    """(B, kappa, theta, history) at Re kappa = alpha, shot from the seed
    medium B0 with its eigenvalue kappa0: _damped_newton drives F of _shoot
    to zero in (Im kappa, theta) with the shot's own Jacobian, one shot a
    step and one per halving, seeded by Im kappa0 and the theta that
    puts B0's first switch on an event.  On the axis theta = pi/4 and Im
    kappa is alone.  No event ends a leading vacuum layer (b1 = 0), where
    phi = 1, so a seed with one is seeded like any other medium: phi(a1) =
    1 puts its first switch, an up one, on theta = pi/2, a shot from b2.
    Re kappa < 0 is shot as its mirror.  NoConvergence (with .history)
    unless newton_refine puts the medium's eigenvalue within _SOLVE_TOL.
    history holds an (iteration, kappa, switches) record per Newton iterate.
    """
    re = abs(alpha)
    k0 = -kappa0.conjugate() if alpha < 0.0 else kappa0
    q0 = [k0.imag]
    if re > 0.0:
        # an up switch sits on eta = pi (mod 2 pi), a down switch on eta = 0
        up = B0.n_intervals > 1 and B0.values[1] > B0.values[0]
        xi = cmath.phase(mode_values(B0, k0, B0.breakpoints[1:2])[0][0] ** 2)
        q0.append(0.5 * (up * math.pi - xi))

    def residual(q, aux):
        th = q[1] if len(q) > 1 else 0.25 * math.pi   # certificate_theta
        if not q[0] > 0.0:
            return None
        try:
            with np.errstate(all="ignore"):
                F, dF, pts, vals = _shoot(complex(re, q[0]), th, bounds)
        except (ZeroDivisionError, OverflowError):   # a state past the range
            return None
        if not abs(F) < 1e150:   # also one whose square, in |r|, overflows
            return None
        n = len(q)   # F is real on the axis
        J = np.array([[d.real for d in dF], [d.imag for d in dF]])[:n, :n]
        record = (len(aux[0]), complex(alpha, q[0]), np.array(pts[1:-1]))
        return (np.array([F.real, F.imag][:n]),
                (aux[0] + (record,), (pts, vals, th)), J)

    q, _, (history, last), why = _damped_newton(
        residual, np.array(q0), _SHOT_ITERS, ((), None))
    kappa, res = complex(alpha, q[0]), None
    if last is not None:
        try:
            B = PiecewiseStructure(last[0], last[1], bounds)
            res = newton_refine(B, kappa, tol=1e-11, leash=0.1)
        except InputError:   # two events at one float
            pass
    if res is None or not abs(res[0] - kappa) < _SOLVE_TOL:
        err = NoConvergence(f"no solution at Re kappa = {alpha}: {why}")
        err.history = history
        raise err
    theta = 0.5 * math.pi - last[2] if alpha < 0.0 else last[2]   # mirror
    return B, res[0], theta, history


@dataclass(frozen=True)
class SelfConsistentResult:
    B: PiecewiseStructure
    kappa: complex
    theta: float
    xs: np.ndarray
    y: np.ndarray               # e^{i theta} phi on xs
    history: tuple               # (iteration, kappa, switch array) records


def self_consistent_solve(kappa_seed: complex, bounds: AdmissibleBounds,
                          n_grid: int = 2048,
                          B0: PiecewiseStructure | None = None
                          ) -> SelfConsistentResult:
    """B = b1 + (b2 - b1) chi_{C+}(y^2) and y = e^{i theta} phi, solved by
    shooting (_solve_shot) at the Re kappa of B0's eigenvalue near
    kappa_seed (LostEigenvalue if there is none), or NoConvergence; y is
    sampled on n_grid + 1 uniform points.  B0 defaults to the constant b2
    preset; B never keeps a leading vacuum layer of B0 (_solve_shot).
    kappa_seed must be a finite number, bounds AdmissibleBounds, n_grid an
    integer >= 1 and B0 a medium or None (InputError).
    """
    _as_complex(kappa_seed, "kappa_seed", finite=True)
    if not _box(bounds).b1 < bounds.b2:
        raise InputError("need b1 < b2 for a two-valued reconstruction")
    if not (_is_int(n_grid) and n_grid >= 1):
        raise InputError(f"n_grid must be an integer >= 1, not {n_grid!r}")
    B0 = _piecewise(B0) if B0 is not None else constant(bounds.b2, bounds)
    res = newton_refine(B0, kappa_seed, tol=1e-9, leash=1.0)
    if res is None:
        raise LostEigenvalue(f"no eigenvalue of the seed near {kappa_seed}")
    B, kappa, theta, history = _solve_shot(B0, res[0], res[0].real, bounds)
    xs = np.linspace(0.0, 1.0, n_grid + 1)
    y = cmath.exp(1j * theta) * mode_values(B, kappa, xs)[0]
    return SelfConsistentResult(B, kappa, theta, xs, y, history)
