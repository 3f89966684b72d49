"""Locating quasi-normal eigenvalues inside windows of the upper half-plane.

The characteristic function F(.; B) is entire, so zeros inside a rectangle
are counted by the winding number of F along the boundary (argument
principle), with adaptive contour refinement.  The walk takes the new points
of all its contours in one charF_many call per round and inserts the
midpoint of every segment that turns too far.  Each rectangle edge refines
on its own, so one locate() call keeps every finished edge by its corner
pair, as (turn, min |F|, max |F|): a child window reuses its parent's two
uncut edges, and the two halves of a split are walked together and
evaluate their shared edge once.  The cut half-edges are sampled anew, so
the children's counts still check the parent's.  A contour on which F
overflows raises NumericalError.  locate() combines recursive window
bisection with Newton iteration; each Newton step takes F and the exact
dF/dz from one tangent sweep of the layer recurrence (charF_dzF).  Constant
media have a closed-form spectrum that serves as the golden oracle.
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


def _rect_edges(w: SpectralWindow) -> list:
    c = w.corners()
    return list(zip(c, c[1:] + c[:1]))


def _walk(B, contours: list, done: dict) -> list:
    """Zero counts of F inside closed contours, None where |F| collapses.

    A contour is a list of rectangle edges, corner pairs (a, b) standing for
    a + k/16 (b - a), k < 16, and b, or one closed point array (a circle,
    never cached).  An edge whose corner pair is in done, either way round,
    costs no evaluation; the other edges share one flat point array, so a
    round makes one charF_many call for all contours, on the new points
    only, and gives the midpoint to every segment that turns by pi/2 or
    more.  A converged contour stores its edges in done as
    (turn, min |F|, max |F|).

    Every contour here is positively oriented and F is entire, so a
    negative count can only come from under-sampling and is refused.
    """
    loops = [c for c in contours if isinstance(c, np.ndarray)]
    keys = [None] * len(loops)   # corner pair of each new edge
    loop_ids, index, plan = iter(range(len(loops))), {}, []
    for c in contours:
        # the new edges with their signs; turn and |F| range of cached ones
        e, sgn, t0, lo0, hi0 = [], [], 0.0, math.inf, -math.inf
        if isinstance(c, np.ndarray):
            e, sgn, c = [next(loop_ids)], [1.0], []
        for key in c:
            rev = key[::-1]
            if key in done or rev in done:
                t, l, h = done[key] if key in done else done[rev]
                t0 += t if key in done else -t
                lo0, hi0 = min(lo0, l), max(hi0, h)
                continue
            if key not in index and rev not in index:
                index[key] = len(keys)
                keys.append(key)
            e.append(index[key] if key in index else index[rev])
            sgn.append(1.0 if key in index else -1.0)
        plan.append((np.array(e, dtype=int), np.array(sgn), t0, lo0, hi0))
    ab = np.array(keys[len(loops):], dtype=complex).reshape(-1, 2)
    a, b = ab[:, :1], ab[:, 1:]
    pts = np.concatenate([np.append(p, p[0]) for p in loops]
                         + [np.concatenate((a + _EDGE * (b - a), b),
                                           axis=1).ravel()])
    starts = np.cumsum([0] + [len(p) + 1 for p in loops]
                       + [len(_EDGE) + 1] * len(ab))[:-1]
    counts: list = [None] * len(contours)
    pending = list(range(len(contours)))
    fv = charF_many(pts, B) if len(pts) else pts
    for rnd in range(_WINDING_ROUNDS):
        af = np.abs(fv)
        lo = np.minimum.reduceat(af, starts)
        hi = np.maximum.reduceat(af, starts)
        with np.errstate(divide="ignore", invalid="ignore"):
            dtheta = np.angle(fv[1:] / fv[:-1])
        dtheta[starts[1:] - 1] = 0.0      # no segment joins two edges
        bad = np.abs(dtheta) >= 0.5 * math.pi
        turn = np.add.reduceat(dtheta, starts)
        rough = np.logical_or.reduceat(bad, starts)
        for c in list(pending):
            e, sgn, t, l, h = plan[c]
            fmax = hi[e].max(initial=h)
            if not math.isfinite(fmax):
                raise NumericalError("F is not finite on the contour")
            if fmax == 0.0 or lo[e].min(initial=l) < _CONTOUR_FLOOR * fmax:
                pending.remove(c)
                continue
            if rough[e].any():
                continue
            total = float(np.dot(turn[e], sgn)) + t
            n = round(total / (2.0 * math.pi))
            if abs(total - 2.0 * math.pi * n) > 0.5:
                raise NumericalError("contour phase sum far from a multiple of 2 pi")
            if n < 0:
                raise NumericalError("negative winding: contour under-sampled")
            counts[c] = int(n)
            pending.remove(c)
            for j in e.tolist():
                if keys[j] is not None:
                    done[keys[j]] = (float(turn[j]), float(lo[j]), float(hi[j]))
        if not pending:
            return counts
        # midpoint of every segment that turns too far on a pending contour
        live = np.zeros(len(starts), dtype=bool)
        for c in pending:
            live[plan[c][0]] = True
        sizes = np.diff(starts, append=len(pts))
        i = np.flatnonzero(bad & np.repeat(live, sizes)[:-1])
        mids = 0.5 * (pts[i] + pts[i + 1])
        pts = np.insert(pts, i + 1, mids)
        if rnd == _WINDING_ROUNDS - 1 or len(pts) - len(starts) > 400_000:
            break
        fv = np.insert(fv, i + 1, charF_many(mids, B))
        starts += np.searchsorted(i, starts)
    raise NumericalError("contour refinement did not converge")


def _counted(counts: list) -> list:
    if None in counts:
        raise ZeroOnContour("|F| collapsed on the contour")
    return counts


def winding_count(B, w: SpectralWindow) -> int:
    """Number of zeros of F inside w, counted with multiplicity."""
    return _counted(_walk(B, [_rect_edges(w)], {}))[0]


def _circle(center: complex, radius: float) -> np.ndarray:
    return center + radius * _UNIT_CIRCLE


def _circle_winding(B, center: complex, radius: float) -> int:
    return _counted(_walk(B, [_circle(center, radius)], {}))[0]


def newton_refine(B, z0: complex, tol: float = 1e-12,
                  leash: float = math.inf):
    """Newton iteration for F(., B) from z0; (kappa, iters, |F(kappa)|) or None.

    Each step takes F and dF/dz from one sweep (charF_dzF); a zero
    derivative, or |kappa - z0| beyond leash, counts as divergence.  Once the
    step is below 1e-14 (1 + |z|), kappa is accepted if |F(kappa)| < tol.
    """
    z = complex(z0)
    for it in range(1, _NEWTON_ITERS + 1):
        f, df = charF_dzF(z, B)
        if df == 0:
            return None
        step = f / df
        z -= step
        if abs(z - z0) > leash:
            return None
        if abs(step) < 1e-14 * (1.0 + abs(z)):
            break
    fz = abs(charF(z, B))
    return (z, it, fz) if fz < tol else None


def _split(w: SpectralWindow, frac: float) -> tuple:
    dw, dh = w.widths
    if dw >= dh:
        xm = w.re_min + frac * dw
        return (SpectralWindow(w.re_min, xm, w.im_min, w.im_max),
                SpectralWindow(xm, w.re_max, w.im_min, w.im_max))
    ym = w.im_min + frac * dh
    return (SpectralWindow(w.re_min, w.re_max, w.im_min, ym),
            SpectralWindow(w.re_min, w.re_max, ym, w.im_max))


def _halves(B, w: SpectralWindow, frac: float, done: dict) -> list:
    """[(count, window)] of the two halves of w, walked together.

    A half whose contour grazes a zero is dilated alone, slightly more on
    each of up to 5 retries; the retries walk only that half.
    """
    out = []
    halves = _split(w, frac)
    for n, h in zip(_walk(B, [_rect_edges(h) for h in halves], done), halves):
        for k in range(1, 6):
            if n is not None:
                break
            h = h.dilated(1.0 + 0.004 * k)
            n = _walk(B, [_rect_edges(h)], done)[0]
        out.append((_counted([n])[0], h))
    return out


def locate(B, w: SpectralWindow, tol: float = 1e-12) -> list:
    """All zeros of F(., B) in w, Newton-refined to |F| < tol.

    Counts stay consistent with winding_count.  Zeros closer together than
    about 1e-6 are below the isolation resolution and come back as a single
    eigenvalue whose multiplicity is the cluster's total (exactly what the
    circle count of a true multiple zero gives).
    """
    w_orig, done = w, {}
    for attempt in range(6):
        total = _walk(B, [_rect_edges(w)], done)[0]
        if total is not None or attempt == 5:
            break
        w = w.dilated(_DILATE)
    found: list = []
    _locate_rec(B, w, _counted([total])[0], tol, 0, found, done)
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
                found: list, done: dict) -> None:
    if count == 0:
        return
    if depth > _MAX_DEPTH:
        raise MaxDepthExceeded(f"cannot isolate {count} zeros near {w.center}")
    diam = math.hypot(*w.widths)
    if count == 1:
        res = newton_refine(B, w.center, tol=tol, leash=4.0 * diam + 1.0)
        if res is not None and w.contains(res[0], pad=1e-12):
            kappa, iters, fz = res
            found.append(QuasiEigenvalue(kappa, 1, fz, iters))
            return
    elif diam < 1e-5:
        # suspected multiple zero: Newton pulls to the cluster centroid
        res = newton_refine(B, w.center, tol=math.inf, leash=4.0 * diam + 1.0)
        if res is not None and w.contains(res[0], pad=diam):
            kappa, iters, fz = res
            mult = _circle_winding(B, kappa, 2.0 * diam + 1e-7)
            if mult == count:
                found.append(QuasiEigenvalue(kappa, mult, fz, iters))
                return
        raise MaxDepthExceeded(f"cluster of {count} zeros near {w.center}")
    for frac in (0.5, 0.5321, 0.4717, 0.5613):
        try:
            (ca, wa), (cb, wb) = _halves(B, w, frac, done)
        except ZeroOnContour:
            continue
        if ca + cb == count:
            _locate_rec(B, wa, ca, tol, depth + 1, found, done)
            _locate_rec(B, wb, cb, tol, depth + 1, found, done)
            return
    raise NumericalError(f"child windings never matched parent near {w.center}")


def multiplicity(B, kappa0: complex, radius: float) -> int:
    """Zero count of F on the disc of given radius around a located zero.

    Demands an empty annulus radius..2*radius so the answer is attributable
    to the single zero at kappa0.  radius must be finite and positive.
    """
    if not (math.isfinite(radius) and radius > 0):
        raise InputError(f"radius must be finite and positive, got {radius}")
    inner, outer = _counted(_walk(B, [_circle(kappa0, radius),
                                      _circle(kappa0, 2.0 * radius)], {}))
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
    if s < 1e-4:   # the log cancels; it equals atanh(s)/s = 1 + b/3 + b^2/5...
        return 1.0 + b * (1.0 / 3.0 + b / 5.0)
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
