"""Necessary-optimality certificates for candidate (B, kappa) pairs.

An optimal two-valued structure is tied to the phase of its mode: with
xi(x) the continuous branch of arg phi^2(x, kappa; B) fixed by xi(0) = 0,
there is a single angle omega such that every low-to-high switch sits on
the ray xi = omega (mod 2 pi) and every high-to-low switch on xi = omega +
pi, while xi varies by at most pi across any interval of constancy.  The
same geometry makes y = e^{i theta} phi solve the nonlinear eigenvalue
problem whose coefficient is rebuilt from the sign of Im y^2; the
self-consistent solver iterates exactly that reconstruction to a fixed
point.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import (InputError, LostEigenvalue, NoConvergence, NotAtRoot,
                     NumericalError, OnImaginaryAxis, PhaseJump)
from .field import charF, mode_values
from .medium import (AdmissibleBounds, GridStructure, PiecewiseStructure,
                     _as_complex, _box, _is_finite_real, _is_int, constant,
                     switch_points, to_piecewise)
from .spectrum import newton_refine

__all__ = [
    "PhaseTrace", "SwitchCertificate", "phase_trace", "switch_alignment",
    "nonlinear_residual", "self_consistent_solve", "SelfConsistentResult",
    "certificate_theta",
]

_ROOT_TOL = 1e-7
_MAX_TRACE_POINTS = 200_000   # phase-trace samples before refinement stops
_MISMATCH_SAMPLES = 4096      # midpoint samples of the nonlinear mismatch
_FIXED_POINT_ITERS = 40       # rounds of self_consistent_solve
_SWITCH_TOL = 1e-8            # fixed point: switch movement below this
_KAPPA_TOL = 1e-10            # fixed point: eigenvalue movement below this


def _piecewise(B) -> PiecewiseStructure:
    """B, a grid in its exact piecewise form; InputError for a non-medium."""
    if isinstance(B, GridStructure):
        return to_piecewise(B)
    if not isinstance(B, PiecewiseStructure):
        raise InputError(f"B must be a medium, not {B!r}")
    return B


def _wrap_pi(x: float) -> float:
    """Wrap an angle into [-pi, pi)."""
    return (x + math.pi) % (2.0 * math.pi) - math.pi


def _circ_dist(a: float, b: float) -> float:
    """Distance between two angles on the circle."""
    return abs(_wrap_pi(a - b))


@dataclass(frozen=True)
class PhaseTrace:
    """Continuous branch of arg phi^2 along [0,1] with xi(0) = 0."""

    xs: np.ndarray
    xi: np.ndarray
    a1: float                # leading zero interval of B (xi = 0 there)
    xi_prime_sign: int       # sign of xi' on (a1, 1]

    def value(self, x: float) -> float:
        return float(np.interp(x, self.xs, self.xi))


def phase_trace(B: PiecewiseStructure, kappa: complex) -> PhaseTrace:
    """Unwrapped phase of phi^2 with adaptive refinement.

    Refines until adjacent samples differ by under pi/2; a persistent jump
    signals phi passing through 0, which cannot happen off the real axis
    for positive media, so it is reported as numerical failure (PhaseJump).
    B must be a medium and kappa a number (InputError).
    """
    B = _piecewise(B)
    _as_complex(kappa, "kappa", finite=False)
    if kappa.real == 0.0:
        raise OnImaginaryAxis("phi is real on the axis; the phase is 0 or pi")
    if not abs(charF(kappa, B)) < _ROOT_TOL:
        raise NotAtRoot(f"kappa = {kappa} is not an eigenvalue")
    a1 = B.leading_zero_interval()
    xs = [0.0]
    for x0, x1 in zip(B.breakpoints[:-1], B.breakpoints[1:]):
        n = 24
        xs.extend(np.linspace(x0, x1, n + 1)[1:])
    xs = np.unique(np.concatenate((xs, B.breakpoints)))

    for _ in range(40):
        phi, _ = mode_values(B, kappa, xs)
        phi2 = phi * phi
        if np.any(phi2 == 0):
            raise PhaseJump("phi vanished on a sample point")
        dphase = np.angle(phi2[1:] / phi2[:-1])
        bad = np.abs(dphase) >= 0.5 * math.pi
        if not bad.any():
            xi = np.concatenate(([0.0], np.cumsum(dphase)))
            sign = -1 if kappa.real > 0 else (1 if kappa.real < 0 else 0)
            return PhaseTrace(xs, xi, a1, sign)
        if len(xs) > _MAX_TRACE_POINTS:
            break
        mids = 0.5 * (xs[:-1] + xs[1:])
        gaps = xs[1:] - xs[:-1]
        insert = mids[bad & (gaps > 1e-12)]
        if len(insert) == 0:
            break
        xs = np.sort(np.concatenate((xs, insert)))
    raise PhaseJump("phase continuity not reachable at the floor step")


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


def _omega_from_trace(trace: PhaseTrace, sw: list,
                      b1: float) -> float:
    if b1 == 0.0 and trace.a1 > 0.0:
        return 0.0  # degenerate family: switches sit on the real rays
    if not sw:
        return 0.0  # constant structure: certificate reduces to variation
    x1, direction = sw[0]
    omega = trace.value(x1)
    if direction == "down":
        omega += math.pi
    return _wrap_pi(omega)


def _omega(B: PiecewiseStructure, kappa: complex, b1: float) -> float:
    """omega of B at kappa: 0 on the imaginary axis and for a leading
    vacuum layer (b1 = 0), where the switches sit on the real rays."""
    if kappa.real == 0.0 or (b1 == 0.0 and B.leading_zero_interval() > 0.0):
        return 0.0
    sw = switch_points(B)  # NotBangBang before any phase work
    return _omega_from_trace(phase_trace(B, kappa), sw, b1)


def certificate_theta(kappa: complex, omega: float, b1: float,
                      a1: float) -> float:
    """Rotation making y = e^{i theta} phi solve the nonlinear problem."""
    if kappa.real == 0.0:
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
    down switches against omega + pi, modulo 2 pi.  B must be a medium and
    kappa a number (InputError).
    """
    B = _piecewise(B)
    _as_complex(kappa, "kappa", finite=False)
    if kappa.real == 0.0:
        raise OnImaginaryAxis("use the axis characterization at Re kappa = 0")
    sw = switch_points(B)  # raises NotBangBang when appropriate
    trace = phase_trace(B, kappa)
    omega = _omega_from_trace(trace, sw, B.bounds.b1)

    devs = []
    for x, direction in sw:
        target = omega if direction == "up" else omega + math.pi
        devs.append(_circ_dist(trace.value(x), target))

    nodes = [0.0] + [x for x, _ in sw] + [1.0]
    variation = max(abs(trace.value(b) - trace.value(a))
                    for a, b in zip(nodes[:-1], nodes[1:]))

    theta, mismatch = nonlinear_residual(B, kappa, omega=omega)
    return SwitchCertificate(
        omega=omega, switch_xs=tuple(x for x, _ in sw),
        deviations=tuple(devs),
        max_deviation=max(devs) if devs else 0.0,
        max_interval_variation=float(variation),
        theta=theta, nonlinear_mismatch=mismatch)


def nonlinear_residual(B: PiecewiseStructure, kappa: complex,
                       omega: float | None = None) -> tuple:
    """(theta, mismatch): does chi_{C+}((e^{i theta} phi)^2) rebuild B?

    The indicator takes 1 only on Im > 0 (zero on the closed lower
    half-plane including the reals), and the mismatch is the measure of the
    sample cells where the rebuilt two-valued coefficient disagrees with B.
    B must be a medium, kappa a number and omega None or a finite real
    (InputError).
    """
    B = _piecewise(B)
    _as_complex(kappa, "kappa", finite=False)
    if not (omega is None or _is_finite_real(omega)):
        raise InputError(f"omega must be a finite real, not {omega!r}")
    if not abs(charF(kappa, B)) < _ROOT_TOL:
        raise NotAtRoot(f"kappa = {kappa} is not an eigenvalue")
    b1, b2 = B.bounds.b1, B.bounds.b2
    if omega is None:
        omega = _omega(B, kappa, b1)
    theta = certificate_theta(kappa, omega, b1, B.leading_zero_interval())
    xs = (np.arange(_MISMATCH_SAMPLES) + 0.5) / _MISMATCH_SAMPLES
    phi, _ = mode_values(B, kappa, xs)
    y2 = (cmath.exp(1j * theta) ** 2) * phi * phi
    rebuilt = np.where(y2.imag > 0.0, b2, b1)
    actual = B.layers.values_at(xs)
    mismatch = float(np.mean(np.abs(rebuilt - actual) > 1e-12))
    return float(theta), mismatch


@dataclass(frozen=True)
class SelfConsistentResult:
    B: PiecewiseStructure
    kappa: complex
    theta: float
    xs: np.ndarray
    y: np.ndarray               # e^{i theta} phi on xs
    history: tuple               # (iteration, kappa, switch array) records


def _rebuild_structure(B: PiecewiseStructure, kappa: complex, theta: float,
                       bounds: AdmissibleBounds, n_grid: int) -> PiecewiseStructure:
    """b1 + (b2-b1) chi_{C+}(y^2) as a structure with bisected switch points.

    Every sign change of Im y^2 between grid nodes is bisected at once: each
    of the 60 halvings evaluates the mode at all bracket midpoints together.
    """
    rot = cmath.exp(1j * theta) ** 2

    def positive(xs: np.ndarray) -> np.ndarray:
        phi, _ = mode_values(B, kappa, xs)
        return (rot * phi * phi).imag > 0.0

    xs = np.linspace(0.0, 1.0, n_grid + 1)
    pos = positive(xs)
    i = np.flatnonzero(pos[:-1] != pos[1:])
    lo, hi, pos_lo = xs[i], xs[i + 1], pos[i]
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        same = positive(mid) == pos_lo
        lo = np.where(same, mid, lo)
        hi = np.where(same, hi, mid)
    pts = np.concatenate(([0.0], 0.5 * (lo + hi), [1.0]))
    vals = np.where(positive(0.5 * (pts[:-1] + pts[1:])), bounds.b2, bounds.b1)
    return PiecewiseStructure(pts, vals, bounds)


def self_consistent_solve(kappa_seed: complex, bounds: AdmissibleBounds,
                          n_grid: int = 2048,
                          B0: PiecewiseStructure | None = None
                          ) -> SelfConsistentResult:
    """Fixed point of the nonlinear reconstruction B <- chi_{C+}(y^2).

    Per round: Newton-locate kappa on the current structure, rotate the mode
    by the certificate angle, rebuild the two-valued coefficient from the
    sign of Im y^2, and stop once switch points move under _SWITCH_TOL and
    kappa under _KAPPA_TOL.  The seed structure defaults to the constant b2
    preset.  kappa_seed must be a finite number, bounds AdmissibleBounds,
    n_grid an integer >= 1 and B0 a medium or None (InputError).
    """
    _as_complex(kappa_seed, "kappa_seed", finite=True)
    if not _box(bounds).b1 < bounds.b2:
        raise InputError("need b1 < b2 for a two-valued reconstruction")
    if not (_is_int(n_grid) and n_grid >= 1):
        raise InputError(f"n_grid must be an integer >= 1, not {n_grid!r}")
    B = _piecewise(B0) if B0 is not None else constant(bounds.b2, bounds)
    kappa = kappa_seed
    history = []
    for it in range(1, _FIXED_POINT_ITERS + 1):
        res = newton_refine(B, kappa, tol=1e-9, leash=1.0)
        if res is None:
            raise LostEigenvalue(f"eigenvalue lost at iteration {it}")
        kappa_new = res[0]
        sw_old = B.breakpoints[1:-1] if it > 1 else None

        try:
            omega = _omega(B, kappa_new, bounds.b1)
        except (InputError, NumericalError):
            omega = 0.0
        theta = certificate_theta(kappa_new, omega, bounds.b1,
                                  B.leading_zero_interval())

        B_new = _rebuild_structure(B, kappa_new, theta, bounds, n_grid)
        sw_new = B_new.breakpoints[1:-1]
        history.append((it, kappa_new, sw_new))

        converged = (sw_old is not None and len(sw_old) == len(sw_new)
                     and (len(sw_new) == 0
                          or np.max(np.abs(sw_old - sw_new)) < _SWITCH_TOL)
                     and abs(kappa_new - kappa) < _KAPPA_TOL)
        B, kappa = B_new, kappa_new
        if converged:
            final = newton_refine(B, kappa, tol=1e-10, leash=0.1)
            if final is not None:
                kappa = final[0]
            xs = np.linspace(0.0, 1.0, n_grid + 1)
            phi, _ = mode_values(B, kappa, xs)
            y = cmath.exp(1j * theta) * phi
            return SelfConsistentResult(B, kappa, theta, xs, y,
                                        tuple(history))
    err = NoConvergence(f"no fixed point after {_FIXED_POINT_ITERS} iterations")
    err.history = tuple(history)
    raise err
