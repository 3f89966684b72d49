"""Locating quasi-normal eigenvalues inside windows of the upper half-plane.

The characteristic function F(.; B) is entire, so zeros inside a rectangle
are counted by the winding number of F along the boundary (argument
principle), with adaptive contour refinement.  Every count is taken on
rectangles; multiplicity() counts on the squares of half-side r and 2r
about a zero.  An edge of length l starts from max(16, ceil(2 l int
sqrt(B) / pi)) samples, about a quarter turn of F apart, so wide windows
do not alias.  A walk takes one closed contour: it puts its four edges in
one point array, takes the new points in one charF_many call per round and
inserts the midpoint of every segment that turns too far, merged in by one
index that also moves the edge starts.  A converged contour returns its
count, its samples and log F on them.  |F| collapses on a contour where its
minimum is below 1e-12 of its maximum once its growth exp(|Im z| int
sqrt B) is divided out; such a window is dilated by 1 + 0.004 k and walked
again, k = 1, .., 5, before ZeroOnContour.  A contour on which F overflows
raises NumericalError.

locate() combines window bisection with Newton iteration, one window at a
time, oldest first.  A window holding one to eight zeros first takes Newton
starts from its contour moments: by parts, a fourth-order rule
(_cubic_weights) on its walk's samples gives the power sums of its zeros in
one product (Delves & Lyness, Math. Comp. 21, 1967; Kravanja & Van Barel,
Computing the Zeros of Analytic Functions, LNM 1727, 2000), Newton's
identities the polynomial with those zeros, and the eigenvalues of its
companion matrix (the roots numpy.roots would give) the starts, whatever
the window's size; a lone zero whose start falls outside starts from the
centre.  All Newton iteration is one loop, _newton_lockstep, which steps a
window's runs together: each step takes F and the exact dF/dz at all their
points from one order-1 Taylor product of the layer maps (field._jet).
newton_refine is its one-start case.  The window is bisected only when a
run fails, leaves it or lands on a zero already found; its halves, each
with its walk, join the end of the queue.
Constant media have a closed-form spectrum that serves as the golden oracle.
"""
from __future__ import annotations

import cmath
import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import (InputError, MaxDepthExceeded, NotIsolated,
                     NumericalError, ZeroOnContour)
from .field import _jet, charF, charF_many
from .medium import (_as_complex, _instance, _is_finite_real, _is_real,
                     _medium, _read_only)


__all__ = [
    "SpectralWindow", "QuasiEigenvalue", "winding_count", "locate",
    "multiplicity", "constant_spectrum", "newton_refine",
]

_CONTOUR_FLOOR = 1e-12   # relative |F| floor on contours
_MAX_DEPTH = 64
_WINDING_ROUNDS = 40     # contour refinement rounds before giving up
_MAX_POINTS = 400_000    # contour points a walk may hold, and eigenvalues
                         # constant_spectrum may list
_NEWTON_ITERS = 60       # iteration cap of a Newton run
_EDGE_MIN = 16           # fewest segments on a rectangle edge
_MOMENTS = 8             # most zeros a window takes from its moments
_ROUNDING = 8 * np.finfo(float).eps   # |F| / exp(|Im z| int sqrt B) at which
                                      # a run that has converged may stop


@dataclass(frozen=True)
class SpectralWindow:
    """Open rectangle (re_min, re_max) x (im_min, im_max), im_min > 0."""

    re_min: float
    re_max: float
    im_min: float
    im_max: float

    def __post_init__(self):
        if not all(map(_is_finite_real, (self.re_min, self.re_max,
                                         self.im_min, self.im_max))):
            raise InputError("window bounds must be finite real numbers")
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


def _square_edges(c: complex, h: float) -> list:
    """The edges of the square of half-side h about c, corners ordered as in
    SpectralWindow; it may reach below the real axis."""
    cs = [c + h * d for d in (-1 - 1j, 1 - 1j, 1 + 1j, -1 + 1j)]
    return list(zip(cs, cs[1:] + cs[:1]))


@functools.lru_cache(maxsize=256)
def _edge_layout(n: tuple) -> tuple:
    """For edges of n[e] segments, end to end: per sample its edge and its
    fraction k/n of the way along it, and the index of each edge's first
    and last sample.  Shared by every call, so read-only."""
    n = np.array(n)
    lasts = np.cumsum(n + 1) - 1
    firsts = lasts - n
    edge = np.repeat(np.arange(len(n)), n + 1)
    frac = (np.arange(lasts[-1] + 1) - firsts[edge]) / n[edge]
    return tuple(map(_read_only, (edge, frac, firsts, lasts)))


def _edge_points(ab: np.ndarray, optical: float) -> tuple:
    """Starting samples of the edges ab[:, 0] -> ab[:, 1], end to end, and
    the index of the first sample of each.

    An edge (a, b) of n segments holds a + k/n (b - a), k < n, and b.  Along
    a horizontal edge F turns by about |b - a| int sqrt(B) (the phase of
    exp(+-i z int sqrt B)), so n = max(16, ceil(2 |b - a| int sqrt(B) / pi))
    starts every segment at most a quarter turn long; a fixed 16 let wide
    windows alias to a wrong count.  A turn that overflows fails the point
    budget; the caller silences its warning.
    """
    a, b = ab[:, 0], ab[:, 1]
    d = b - a
    n = np.maximum(np.ceil(np.abs(d) * optical * (2.0 / math.pi)), _EDGE_MIN)
    if not n.sum() <= _MAX_POINTS:
        raise NumericalError(f"contour needs more than {_MAX_POINTS} points")
    edge, frac, firsts, lasts = _edge_layout(tuple(n.astype(int).tolist()))
    pts = a[edge] + frac * d[edge]
    pts[lasts] = b
    return pts, firsts.copy()


@functools.lru_cache(maxsize=256)
def _stencil_layout(n: int, starts: tuple) -> tuple:
    """For _cubic_weights on n samples in pieces from starts: the index of
    each segment, its stencil's samples (a column per segment, stored
    segment by segment) and the flat index of its first sample among them.
    Shared by every call, so read-only."""
    starts = np.array(starts)
    nxt = np.append(starts[1:], n)   # one past each piece
    seg = np.delete(np.arange(n - 1), nxt[:-1] - 1)   # none joins two pieces
    # the stencil's first sample: seg - 1 inside a piece, its first sample
    # at its first segment and its fourth-last at its last
    lo = seg - 1
    p = np.arange(len(starts))
    lo[starts - p] = starts
    lo[nxt - p - 2] = nxt - 4
    stencil = (lo[:, None] + np.arange(4)).T
    first = (seg - lo) * len(seg) + np.arange(len(seg))
    return tuple(map(_read_only, (seg, stencil, first)))


def _cubic_weights(pts, starts) -> np.ndarray:
    """Per sample, its weight in the fourth-order sums of g dz over each
    contour piece: sum(w * g) over a piece integrates g along it.

    Each segment integrates the cubic through four samples of its piece,
    centred on it inside, one-sided at the piece's two ends.  A piece lies
    on a line, so the Lagrange basis is real in the distance u from the
    segment's midpoint; over a segment of length H the basis polynomial
    prod_{j != i} (u - u_j) = u^3 - e1 u^2 + e2 u - e3 integrates to
    -(e3 H + e1 H^3 / 12).  A uniform run gives (-1, 13, 13, -1) / 24.
    Every piece needs at least three segments.
    """
    n = len(pts)
    seg, stencil, first = _stencil_layout(n, tuple(starts.tolist()))
    dz = pts[1:] - pts[:-1]
    h = np.abs(dz)
    u = np.zeros(stencil.shape)    # distances from the stencil's first sample
    np.add.accumulate(h[stencil[:3]], axis=0, out=u[1:])
    hs = h[seg]
    u -= u.take(first) + 0.5 * hs
    e1 = np.add.reduce(u, axis=0) - u
    e3 = u.prod(axis=0) / u     # no midpoint is a sample
    d = u[:, None] - u          # u_i - u_j
    d.reshape(16, -1)[::5] = 1.0   # the factor j = i
    w = (-(e3 + e1 * (hs * hs / 12.0)) / d.prod(axis=1) * dz[seg]).T.ravel()
    # summed segment by segment, as the samples meet them (np.add.at's order)
    samples = stencil.T.ravel()
    out = np.empty(n, complex)
    out.real = np.bincount(samples, w.real, n)
    out.imag = np.bincount(samples, w.imag, n)
    return out


@np.errstate(all="ignore")   # what overflows is caught below
def _walk(B, edges: list):
    """None where |F| collapses on the closed contour of edges, else (count,
    z, log F, edge starts): the zero count of F inside, the final samples,
    log F there with its phase unwrapped from the first corner, where it is
    0, and the index in z of each edge's first sample.

    The edges are corner pairs (a, b), sampled end to end by _edge_points.
    A round makes one charF_many call, on the new points only, and gives the
    midpoint to every segment that turns by pi/2 or more.  The midpoints and
    the old points are merged by one index, which also moves the edge
    starts.  The _MAX_POINTS budget holds for this one contour.

    |F| is taken as |F| exp(-|Im z| int sqrt B), F with its growth taken
    out, and collapses where its minimum on the contour is below 1e-12 of its
    maximum: on raw |F| a tall contour on a strong medium spans more than
    1e12 with no zero near it.  Every contour here is positively oriented and
    F is entire, so a negative count can only come from under-sampling and
    is refused.
    """
    optical = B.layers.optical   # int sqrt(B)
    pts, starts = _edge_points(np.array(edges, dtype=complex), optical)
    fv = charF_many(pts, B)
    for rnd in range(_WINDING_ROUNDS):
        af = np.abs(fv)
        scaled = af * np.exp(-optical * np.abs(pts.imag))
        hi = scaled.max()
        if not math.isfinite(hi):
            raise NumericalError("F is not finite on the contour")
        if hi == 0.0 or scaled.min() < _CONTOUR_FLOOR * hi:
            return None
        ratio = fv[1:] / fv[:-1]
        dtheta = np.arctan2(ratio.imag, ratio.real)
        dtheta[starts[1:] - 1] = 0.0      # no segment joins two edges
        bad = np.abs(dtheta) >= 0.5 * math.pi
        if not bad.any():
            turn = dtheta.sum()
            n = round(turn / (2.0 * math.pi))
            if abs(turn - 2.0 * math.pi * n) > 0.5:
                raise NumericalError("contour phase sum far from a multiple of 2 pi")
            if n < 0:
                raise NumericalError("negative winding: contour under-sampled")
            logf = np.empty(len(pts), complex)
            np.log(af, out=logf.real)
            logf.imag[0] = 0.0
            np.add.accumulate(dtheta, out=logf.imag[1:])
            return int(n), pts, logf, starts
        # the midpoint of every segment that turns too far
        i = bad.nonzero()[0]
        # the midpoints go to i + 1 + k, the old points to the rest
        new = i + np.arange(1, len(i) + 1)
        old = np.ones(len(pts) + len(i), dtype=bool)
        old[new] = False
        mids = 0.5 * (pts[i] + pts[i + 1])
        merged = np.empty(len(old), complex)
        merged[old] = pts
        merged[new] = mids
        pts = merged
        if rnd == _WINDING_ROUNDS - 1 or len(pts) - len(starts) > _MAX_POINTS:
            break
        merged = np.empty(len(old), complex)
        merged[old] = fv
        merged[new] = charF_many(mids, B)
        fv = merged
        starts = starts + i.searchsorted(starts)
    raise NumericalError("contour refinement did not converge")


def _counted(walk) -> int:
    """The zero count of a _walk."""
    if walk is None:
        raise ZeroOnContour("|F| collapsed on the contour")
    return walk[0]


def winding_count(B, w: SpectralWindow) -> int:
    """Number of zeros of F inside w, counted with multiplicity; InputError
    unless B is a medium and w a SpectralWindow."""
    w = _instance(w, SpectralWindow)
    return _counted(_walk(_medium(B), _rect_edges(w)))


@np.errstate(all="ignore")   # a product that overflows ends its run
def _newton_lockstep(B, starts: list, tol: float, leashes: list) -> list:
    """newton_refine from every start in lockstep; its result for each.

    Each step takes F and dF/dz at every live point from one many-point
    order-1 product (_jet), so every run steps exactly as it would alone; a
    point left on its own takes the scalar product, or charF when it awaits
    its closing |F|.
    """
    z0s = [complex(z) for z in starts]
    zs, out = list(z0s), [None] * len(z0s)
    asks, closing = list(range(len(zs))), {}   # runs awaiting F, in order
    it = 0
    while asks:
        if len(asks) == 1:
            i, = asks
            jets = [(charF(zs[i], B),) if i in closing else _jet(zs[i], B, 1)]
        else:
            jets = _jet(np.array([zs[i] for i in asks]), B, 1)
        it += 1   # the step of every run but the closing ones
        still = []
        for i, jet in zip(asks, jets):
            z = zs[i]
            if i in closing:   # its last step was step it - 1
                fz = abs(jet[0])
                if fz < tol or closing[i] and fz * math.exp(
                        -abs(z.imag) * B.layers.optical) < _ROUNDING:
                    out[i] = (z, it - 1, fz)
                continue
            f, df, _ = jet
            if df == 0 or not (cmath.isfinite(f) and cmath.isfinite(df)):
                continue
            step = f / df
            zs[i] = z - step
            if abs(zs[i] - z0s[i]) > leashes[i]:
                continue
            scale = 1.0 + abs(zs[i])
            if abs(step) < 1e-15 * scale and abs(f) < tol:
                out[i] = (z, it, abs(f))
                continue
            if abs(step) < 1e-14 * scale or it == _NEWTON_ITERS:
                closing[i] = abs(step) < 1e-15 * scale   # a few ulps
            still.append(i)
        asks = still
    return out


def newton_refine(B, z0: complex, tol: float = 1e-12,
                  leash: float = math.inf):
    """Newton iteration for F(., B) from z0; (kappa, iters, |F(kappa)|) or None.

    Each step takes F and dF/dz from one order-1 product (_jet); a zero
    derivative, a product that is not finite, or |kappa - z0| beyond leash,
    counts as divergence.  Once the step is below 1e-14 (1 + |z|), or after
    60 steps, kappa is accepted if |F(kappa)| (charF) < tol; a step below
    1e-15 (1 + |z|) moves z by a few ulps, so kappa is then the point it
    left, whose F is in hand, and no charF is taken.  A run whose step is a
    few ulps has converged to rounding: where tol is below what F can show
    there, its kappa is also accepted when |F(kappa)| is within _ROUNDING of
    F's growth exp(|Im kappa| int sqrt B), and that |F| is its residual.
    The one-start case of _newton_lockstep.  B must be a medium, z0 a
    number and tol and leash real numbers (InputError).
    """
    _medium(B)
    _as_complex(z0, "z0", finite=False)
    if not (_is_real(tol) and _is_real(leash)):
        raise InputError(f"tol and leash must be real, not {tol!r}, {leash!r}")
    return _newton_lockstep(B, [z0], tol, [leash])[0]


def _split(w: SpectralWindow, frac: float) -> tuple:
    dw, dh = w.widths
    if dw >= dh:
        xm = w.re_min + frac * dw
        return (SpectralWindow(w.re_min, xm, w.im_min, w.im_max),
                SpectralWindow(xm, w.re_max, w.im_min, w.im_max))
    ym = w.im_min + frac * dh
    return (SpectralWindow(w.re_min, w.re_max, w.im_min, ym),
            SpectralWindow(w.re_min, w.re_max, ym, w.im_max))


def _window_counts(B, ws: list) -> list:
    """[(window, walk)] of the windows ws: the _walk of each window's
    rectangle.

    Every window is walked before any is dilated, so a NumericalError on one
    contour wins over a zero grazing another.  A window whose contour grazes
    a zero is dilated alone, slightly more on each of up to 5 retries.
    """
    out = []
    for walk, w in zip([_walk(B, _rect_edges(w)) for w in ws], ws):
        for k in range(1, 6):
            if walk is not None:
                break
            w = w.dilated(1.0 + 0.004 * k)
            walk = _walk(B, _rect_edges(w))
        _counted(walk)
        out.append((w, walk))
    return out


def locate(B, w: SpectralWindow, tol: float = 1e-12) -> list:
    """All zeros of F(., B) in w, Newton-refined to |F| < tol.

    Counts stay consistent with winding_count.  Zeros closer together than
    about 1e-6 are below the isolation resolution and come back as a single
    eigenvalue whose multiplicity is the cluster's total (exactly what the
    square count of a true multiple zero gives).  B must be a medium, w a
    SpectralWindow and tol a positive number (InputError).
    """
    _medium(B)
    _instance(w, SpectralWindow)
    if not (_is_real(tol) and tol > 0):
        raise InputError(f"tol must be a positive number, not {tol!r}")
    # (depth, window, walk), oldest first; a window that Newton does not
    # solve is split and its halves join the end
    work = [(0, *_window_counts(B, [w])[0])]
    found: list = []
    while work:
        depth, part, walk = work.pop(0)
        count = walk[0]
        if count == 0:
            continue
        if depth > _MAX_DEPTH:
            raise MaxDepthExceeded(
                f"cannot isolate {count} zeros near {part.center}")
        roots = _window_roots(B, part, walk, tol)
        if roots is None:
            work += [(depth + 1, *half) for half in _bisect(B, part, count)]
        else:
            found += roots
    found = [ev for ev in found if w.contains(ev.kappa, pad=1e-9)]
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


def _power_sums(w: SpectralWindow, walk: tuple) -> np.ndarray:
    """s_1 .. s_n: the sums of ((zeta - c) / r)^p over the n zeros zeta of
    F in the walked window w, c its centre and r its half-diagonal.

    By parts from the argument principle (Delves & Lyness, Math. Comp. 21,
    1967), s_p = n u0^p - p / (2 pi i) oint u^(p-1) log F du, u = (z - c) / r
    and u0 its value at the first corner, from which log F is continued.  One
    product of the walk's samples with their powers takes the integral by
    the fourth-order rule (_cubic_weights).  The phase an edge starts from
    is constant along it, so that part is integrated exactly, (u_end^p -
    u_start^p) / p: the rule is exact only for p <= 4.
    """
    n, z, logf, starts = walk
    c, r = w.center, 0.5 * math.hypot(*w.widths)
    u = (z - c) / r
    at = logf.imag[starts]
    nxt = np.concatenate((starts[1:], [len(u)]))   # one past each edge
    g = (logf - 1j * at.repeat(nxt - starts)) * _cubic_weights(u, starts)
    j = np.arange(1, n + 1)
    powers = np.empty((len(u), n), complex)   # u^0 .. u^(n-1)
    powers[:, 0] = 1.0
    powers[:, 1:] = u[:, None]
    np.multiply.accumulate(powers[:, 1:], axis=1, out=powers[:, 1:])
    # acc[p - 1] = oint u^(p-1) log F du
    acc = g @ powers \
        + 1j * at @ (u[nxt - 1, None] ** j - u[starts, None] ** j) / j
    return n * u[0] ** j - j * acc / (2j * math.pi)


@np.errstate(all="ignore")   # sums that overflow give no starts
def _moment_starts(w: SpectralWindow, walk: tuple) -> list:
    """Newton starts for the zeros of F in the walked window w.

    They are the roots of the monic polynomial whose power sums are
    _power_sums, its coefficients by Newton's identities, in the scaled
    variable (z - c) / r: the eigenvalues of its companion matrix, built as
    numpy.roots builds it.  Empty if the power sums are not finite.
    """
    n = walk[0]
    s = _power_sums(w, walk).tolist()
    p = [1.0]   # (-1)^k e_k, e_k the elementary symmetric functions
    for k in range(1, n + 1):
        p.append(-sum(map(operator.mul, p[::-1], s)) / k)
    if not all(map(cmath.isfinite, p)):
        return []
    # the eigenvalues of the companion matrix, as numpy.roots takes them
    p = np.array(p)
    companion = np.zeros((n, n), complex)
    companion.flat[n::n + 1] = 1.0
    companion[0] = -p[1:] / p[0]
    c, r = w.center, 0.5 * math.hypot(*w.widths)
    return (c + r * np.linalg.eigvals(companion)).tolist()


def _window_roots(B, w: SpectralWindow, walk: tuple, tol: float):
    """All walk[0] zeros of F in the walked window w, each simple and inside
    it, from one lockstep Newton run of its starts; None, for a split, when
    a run fails, leaves w or lands on a zero already found."""
    count = walk[0]
    zs = _moment_starts(w, walk) if count <= _MOMENTS else []
    if count == 1 and not (zs and w.contains(zs[0])):
        zs = [w.center]
    leash = 4.0 * math.hypot(*w.widths) + 1.0
    roots: list = []
    for res in _newton_lockstep(B, zs, tol, [leash] * len(zs)):
        if res is None or not w.contains(res[0], pad=1e-12) or any(
                abs(res[0] - ev.kappa) < 1e-6 * (1.0 + abs(res[0]))
                for ev in roots):
            return None
        kappa, iters, fz = res
        roots.append(QuasiEigenvalue(kappa, 1, fz, iters))
    return roots if len(roots) == count else None


def _bisect(B, w: SpectralWindow, count: int) -> list:
    """[(half, walk)] of the first split of w whose halves' counts add up
    to count."""
    for frac in (0.5, 0.5321, 0.4717, 0.5613):
        try:
            halves = _window_counts(B, _split(w, frac))
        except ZeroOnContour:
            continue
        if sum(walk[0] for _, walk in halves) == count:
            return halves
    raise NumericalError(f"child windings never matched parent near {w.center}")


def multiplicity(B, kappa0: complex, radius: float) -> int:
    """Zero count of F inside the square of half-side radius about a located
    zero.

    Demands no zero between it and the square of half-side 2*radius, so
    the answer is attributable to the single zero at kappa0.  B must be a
    medium, kappa0 a finite number and radius a finite positive real
    (InputError).
    """
    _medium(B)
    if not (_is_finite_real(radius) and radius > 0):
        raise InputError(f"radius must be finite and positive, not {radius!r}")
    _as_complex(kappa0, "kappa0", finite=True)
    walks = [_walk(B, _square_edges(kappa0, h)) for h in (radius, 2.0 * radius)]
    inner, outer = map(_counted, walks)
    if outer != inner:
        raise NotIsolated(
            f"{outer - inner} extra zeros between the squares about {kappa0}")
    return inner


def axis_offset(b: float) -> float:
    """Imaginary part of every constant-medium eigenvalue: the decay floor
    log|(s + 1)/(s - 1)| / (2 s), s = sqrt b, as atanh(min(s, 1/s)) / s,
    which keeps full precision at small and large b.  Near b = 1, where
    min(s, 1/s) rounds toward 1, 1 - x comes from the exact b - 1 and
    atanh x = log1p(2 x / (1 - x)) / 2.  b must be a nonnegative real
    (InputError)."""
    if not (_is_real(b) and b >= 0.0):
        raise InputError(f"b must be a nonnegative real, not {b!r}")
    if b in (0.0, 1.0):
        raise InputError("no eigenvalues for b in {0, 1}")
    s = math.sqrt(b)
    x = min(s, 1.0 / s)
    if abs(b - 1.0) >= 0.5:
        return math.atanh(x) / s
    one_minus_x = abs(b - 1.0) / ((1.0 + s) * max(1.0, s))
    return 0.5 * math.log1p(2.0 * x / one_minus_x) / s


def constant_spectrum(b: float, w: SpectralWindow) -> list:
    """Closed-form eigenvalues of the constant structure B = b inside w.

    Empty for b in {0, 1}; otherwise kappa_n = pi/sqrt(b) * (n or n + 1/2)
    + i * axis_offset(b) over all integers n.  b must be a nonnegative real,
    and w a SpectralWindow that holds at most _MAX_POINTS of them
    (InputError).
    """
    _instance(w, SpectralWindow)
    if not (_is_real(b) and b >= 0.0):
        raise InputError(f"b must be a nonnegative real, not {b!r}")
    if b == 0.0 or b == 1.0:
        return []
    s = math.sqrt(b)
    im = axis_offset(b)
    if not (w.im_min <= im <= w.im_max):
        return []
    shift = 0.0 if b > 1.0 else 0.5
    step = math.pi / s
    lo, hi = w.re_min / step - shift, w.re_max / step - shift
    if not (math.isfinite(lo) and math.isfinite(hi)
            and math.floor(hi) - math.ceil(lo) < _MAX_POINTS):
        raise InputError(f"the window holds more than {_MAX_POINTS} "
                         f"eigenvalues of b = {b!r}")
    n_lo, n_hi = math.ceil(lo), math.floor(hi)
    return [complex((n + shift) * step, im) for n in range(n_lo, n_hi + 1)]
