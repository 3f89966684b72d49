"""Locating quasi-normal eigenvalues inside windows of the upper half-plane.

The characteristic function F(.; B) is entire, so zeros inside a rectangle
are counted by the winding number of F along the boundary (argument
principle), with adaptive contour refinement: F is taken on all contour
points in one charF_many call, and the midpoints of every segment that
turns too far are inserted at once.  A contour on which F overflows raises
NumericalError.  locate() combines recursive window bisection with Newton
iteration driven by the exact derivative; each Newton step takes F and
dF/dz from one layer sweep (charF_dzF).  Constant media have a closed-form
spectrum that serves as the golden oracle.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (InputError, MaxDepthExceeded, NotIsolated,
                     NumericalError, ZeroOnContour)
from .field import charF, charF_dzF, charF_many


__all__ = [
    "SpectralWindow", "QuasiEigenvalue", "winding_count", "locate",
    "multiplicity", "constant_spectrum", "newton_refine",
]

_CONTOUR_FLOOR = 1e-12   # relative |F| floor on contours
_DILATE = 1.37           # window growth factor on ZeroOnContour retries
_MAX_DEPTH = 64
_WINDING_ROUNDS = 40     # contour refinement rounds before giving up
_NEWTON_ITERS = 60       # iteration cap of newton_refine
_EDGE = np.arange(16) / 16   # fractions k/16 along each rectangle edge
_UNIT_CIRCLE = np.exp(1j * np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False))


@dataclass(frozen=True)
class SpectralWindow:
    """Open rectangle (re_min, re_max) x (im_min, im_max), im_min > 0."""

    re_min: float
    re_max: float
    im_min: float
    im_max: float

    def __post_init__(self):
        if not self.re_min < self.re_max:
            raise InputError("need re_min < re_max")
        if not (0.0 < self.im_min < self.im_max):
            raise InputError("need 0 < im_min < im_max (zeros live in C+)")

    @property
    def center(self) -> complex:
        return complex(0.5 * (self.re_min + self.re_max),
                       0.5 * (self.im_min + self.im_max))

    @property
    def widths(self) -> tuple:
        return (self.re_max - self.re_min, self.im_max - self.im_min)

    def contains(self, z: complex, pad: float = 0.0) -> bool:
        return (self.re_min - pad <= z.real <= self.re_max + pad
                and self.im_min - pad <= z.imag <= self.im_max + pad)

    def dilated(self, factor: float) -> "SpectralWindow":
        c = self.center
        w, h = self.widths
        return SpectralWindow(c.real - 0.5 * factor * w, c.real + 0.5 * factor * w,
                              max(c.imag - 0.5 * factor * h, 0.25 * self.im_min),
                              c.imag + 0.5 * factor * h)

    def corners(self) -> list:
        return [complex(self.re_min, self.im_min), complex(self.re_max, self.im_min),
                complex(self.re_max, self.im_max), complex(self.re_min, self.im_max)]


@dataclass(frozen=True)
class QuasiEigenvalue:
    kappa: complex
    multiplicity: int
    residual: float
    newton_iters: int


def _phase_winding(points: np.ndarray, B) -> int:
    """Winding number of F along a closed polyline, refining until every
    segment turns by less than pi/2.

    Every contour here is positively oriented and F is entire, so a
    negative count can only come from under-sampling and is refused.
    """
    pts = np.asarray(points, dtype=complex)
    for _ in range(_WINDING_ROUNDS):
        fv = charF_many(pts, B)
        af = np.abs(fv)
        fmax = af.max()
        if not math.isfinite(fmax):
            raise NumericalError("F is not finite on the contour")
        if fmax == 0.0 or af.min() < _CONTOUR_FLOOR * fmax:
            raise ZeroOnContour("|F| collapsed on the contour")
        dtheta = np.angle(np.concatenate((fv[1:], fv[:1])) / fv)
        bad = np.abs(dtheta) >= 0.5 * math.pi
        if not bad.any():
            total = float(np.sum(dtheta))
            n = round(total / (2.0 * math.pi))
            if abs(total - 2.0 * math.pi * n) > 0.5:
                raise NumericalError("contour phase sum far from a multiple of 2 pi")
            if n < 0:
                raise NumericalError("negative winding: contour under-sampled")
            return int(n)
        # midpoint of every segment that turns too far, after its start
        i = np.flatnonzero(bad)
        pts = np.insert(pts, i + 1, 0.5 * (pts[i] + pts[(i + 1) % len(pts)]))
        if len(pts) > 400_000:
            break
    raise NumericalError("contour refinement did not converge")


def _rect_points(w: SpectralWindow) -> np.ndarray:
    a = np.array(w.corners())
    b = np.concatenate((a[1:], a[:1]))
    return (a[:, None] + _EDGE * (b - a)[:, None]).ravel()


def winding_count(B, w: SpectralWindow) -> int:
    """Number of zeros of F inside w, counted with multiplicity."""
    return _phase_winding(_rect_points(w), B)


def _circle_winding(B, center: complex, radius: float) -> int:
    return _phase_winding(center + radius * _UNIT_CIRCLE, B)


def newton_refine(B, z0: complex, tol: float = 1e-12,
                  leash: float = math.inf):
    """Newton iteration for F(., B) from z0; returns (kappa, iters) or None.

    Each step takes F and dF/dz from one sweep (charF_dzF); z = 0, a zero
    derivative, or |kappa - z0| beyond leash count as divergence.  Once the
    step is below 1e-14 (1 + |z|), kappa is accepted if |F(kappa)| < tol.
    """
    z = complex(z0)
    for it in range(1, _NEWTON_ITERS + 1):
        if z == 0:
            return None
        f, df = charF_dzF(z, B)
        if df == 0:
            return None
        step = f / df
        z -= step
        if abs(z - z0) > leash:
            return None
        if abs(step) < 1e-14 * (1.0 + abs(z)):
            fz = abs(charF(z, B))
            if fz < tol:
                return z, it
            return None
    fz = abs(charF(z, B))
    if fz < tol:
        return z, _NEWTON_ITERS
    return None


def _split(w: SpectralWindow, frac: float) -> tuple:
    dw, dh = w.widths
    if dw >= dh:
        xm = w.re_min + frac * dw
        return (SpectralWindow(w.re_min, xm, w.im_min, w.im_max),
                SpectralWindow(xm, w.re_max, w.im_min, w.im_max))
    ym = w.im_min + frac * dh
    return (SpectralWindow(w.re_min, w.re_max, w.im_min, ym),
            SpectralWindow(w.re_min, w.re_max, ym, w.im_max))


def _winding_with_jitter(B, w: SpectralWindow) -> tuple:
    """Winding of w, re-splitting on contours that graze a zero.

    Returns (count, window); the window may be jittered slightly when the
    original boundary passed through a zero.
    """
    last = None
    for k in range(6):
        try:
            return _phase_winding(_rect_points(w), B), w
        except ZeroOnContour as exc:
            last = exc
            w = w.dilated(1.0 + 0.004 * (k + 1))
    raise last


def locate(B, w: SpectralWindow, tol: float = 1e-12) -> list:
    """All zeros of F(., B) in w, Newton-refined to |F| < tol.

    Counts stay consistent with winding_count.  Zeros closer together than
    about 1e-6 are below the isolation resolution and come back as a single
    eigenvalue whose multiplicity is the cluster's total (exactly what the
    circle count of a true multiple zero gives).
    """
    w_orig = w
    for attempt in range(6):
        try:
            total = winding_count(B, w)
            break
        except ZeroOnContour:
            if attempt == 5:
                raise
            w = w.dilated(_DILATE)
    found: list = []
    _locate_rec(B, w, total, tol, 0, found)
    found = [ev for ev in found if w_orig.contains(ev.kappa, pad=1e-9)]
    found.sort(key=lambda ev: (ev.kappa.real, ev.kappa.imag))
    # sub-resolution clusters merge with their multiplicities summed
    out: list = []
    for ev in found:
        if out and abs(ev.kappa - out[-1].kappa) < 1e-6 * (1.0 + abs(ev.kappa)):
            prev = out[-1]
            best = ev if ev.residual < prev.residual else prev
            out[-1] = QuasiEigenvalue(best.kappa,
                                      prev.multiplicity + ev.multiplicity,
                                      best.residual,
                                      max(prev.newton_iters, ev.newton_iters))
            continue
        out.append(ev)
    return out


def _locate_rec(B, w: SpectralWindow, count: int, tol: float, depth: int,
                found: list) -> None:
    if count == 0:
        return
    if depth > _MAX_DEPTH:
        raise MaxDepthExceeded(f"cannot isolate {count} zeros near {w.center}")
    diam = math.hypot(*w.widths)
    if count == 1:
        res = newton_refine(B, w.center, tol=tol, leash=4.0 * diam + 1.0)
        if res is not None and w.contains(res[0], pad=1e-12):
            kappa, iters = res
            found.append(QuasiEigenvalue(kappa, 1, abs(charF(kappa, B)), iters))
            return
    elif diam < 1e-5:
        # suspected multiple zero: Newton pulls to the cluster centroid
        res = newton_refine(B, w.center, tol=math.inf, leash=4.0 * diam + 1.0)
        if res is not None and w.contains(res[0], pad=diam):
            kappa, iters = res
            mult = _circle_winding(B, kappa, 2.0 * diam + 1e-7)
            if mult == count:
                found.append(QuasiEigenvalue(kappa, mult, abs(charF(kappa, B)),
                                             iters))
                return
        raise MaxDepthExceeded(f"cluster of {count} zeros near {w.center}")
    for frac in (0.5, 0.5321, 0.4717, 0.5613):
        a, b = _split(w, frac)
        try:
            ca, wa = _winding_with_jitter(B, a)
            cb, wb = _winding_with_jitter(B, b)
        except ZeroOnContour:
            continue
        if ca + cb == count:
            _locate_rec(B, wa, ca, tol, depth + 1, found)
            _locate_rec(B, wb, cb, tol, depth + 1, found)
            return
    raise NumericalError(f"child windings never matched parent near {w.center}")


def multiplicity(B, kappa0: complex, radius: float) -> int:
    """Zero count of F on the disc of given radius around a located zero.

    Demands an empty annulus radius..2*radius so the answer is attributable
    to the single zero at kappa0.  radius must be finite and positive.
    """
    if not (math.isfinite(radius) and radius > 0):
        raise InputError(f"radius must be finite and positive, got {radius}")
    inner = _circle_winding(B, kappa0, radius)
    outer = _circle_winding(B, kappa0, 2.0 * radius)
    if outer != inner:
        raise NotIsolated(
            f"{outer - inner} extra zeros in the annulus around {kappa0}")
    return inner


def axis_offset(b: float) -> float:
    """Imaginary part of every constant-medium eigenvalue: the decay floor
    log|(sqrt b + 1)/(sqrt b - 1)| / (2 sqrt b)."""
    if b in (0.0, 1.0):
        raise InputError("no eigenvalues for b in {0, 1}")
    s = math.sqrt(b)
    return math.log(abs((s + 1.0) / (s - 1.0))) / (2.0 * s)


def constant_spectrum(b: float, w: SpectralWindow) -> list:
    """Closed-form eigenvalues of the constant structure B = b inside w.

    Empty for b in {0, 1}; otherwise kappa_n = pi/sqrt(b) * (n or n + 1/2)
    + i * axis_offset(b) over all integers n.
    """
    if b < 0:
        raise InputError("b must be nonnegative")
    if b == 0.0 or b == 1.0:
        return []
    s = math.sqrt(b)
    im = axis_offset(b)
    if not (w.im_min <= im <= w.im_max):
        return []
    shift = 0.0 if b > 1.0 else 0.5
    step = math.pi / s
    n_lo = math.ceil(w.re_min / step - shift)
    n_hi = math.floor(w.re_max / step - shift)
    return [complex((n + shift) * step, im) for n in range(n_lo, n_hi + 1)]
