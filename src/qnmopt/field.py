"""Fundamental solutions and the characteristic function of the cavity.

Everything is built on the Cauchy problem y'' = -z^2 B(x) y with the two
normalized solutions

    phi: phi(0) = 1, phi'(0) = 0        psi: psi(0) = 0, psi'(0) = 1.

The characteristic function F(z; B) = phi(1, z) - i phi'(1, z) / z
(F(0) = 1) is entire in z; its zeros in the upper half-plane are the
quasi-normal eigenvalues.

B is piecewise constant, so everything is one recurrence over its layers
(`B.layers`): across a layer of length L and value b, with w = z sqrt(b),
(phi, phi'/z) moves by [[cos wL, sin(wL)/sqrt(b)], [-sqrt(b) sin wL, cos wL]],
entire in z.  F and its z-derivatives come from one pairwise product of
those maps' truncated Taylor series in z (`_jet`: charF, charF_dzF, dzF,
the gradient's F'', the splitting probe's F^(r) and, with several points
stacked behind the layers, locate's lockstep Newton steps).  charF_many
multiplies the same maps pairwise for many z at once, built from real trig
of the real and imaginary parts of wL.  Both read what only the medium
fixes (sqrt(b), beta = sqrt(b) L, their negatives, -b and the b = 0 mask)
from `B.layers`, which computes each once per medium (medium.Layers).
`_sweep` keeps the states at every layer boundary, which a pairwise
product does not give, for the boundary data, the mode values and the
closed-form layer integrals.  phi_series (the power series in z^2) stays
outside the kernel as the oracle the tests check it against.
"""
from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InputError, NumericalError, TailNotConverged
from .medium import _reals

__all__ = [
    "BoundaryData", "propagate", "charF", "charF_many", "charF_dzF", "dzF",
    "phi_series", "SeriesResult", "overlap_integrals", "phi2_cell_integrals",
    "mode_values",
]


@dataclass(frozen=True)
class BoundaryData:
    """phi, phi', psi, psi' at x = 1 for a given (z, B)."""
    phi1: complex
    dphi1: complex
    psi1: complex
    dpsi1: complex

    def wronskian(self) -> complex:
        return self.phi1 * self.dpsi1 - self.dphi1 * self.psi1


# -- the layer sweep -----------------------------------------------------------

_SMALL = 1e-8      # |wL| below which sin(wL)/w equals L to double precision
_CHUNK = 1 << 11   # layers x points per charF_many chunk; at 1 << 12 and up
                   # glibc gave its temporaries back to the OS per chunk
_SERIES_TOL = 1e-16   # term bound at which phi_series stops summing
_SERIES_TERMS = 200   # most terms phi_series sums before TailNotConverged


def _coefficients(z, rootb, lengths) -> tuple:
    """Per layer: w = z sqrt(b), the mask |wL| >= _SMALL, cos wL, sin(wL)/w.

    sin(wL)/w is L where |wL| < _SMALL: one rule for b = 0, z = 0 and
    subnormal w (where numpy's complex division returns inf+nanj).
    """
    w = z * rootb
    wl = w * lengths
    s = np.sin(wl)
    big = np.abs(wl) >= _SMALL
    sw = np.where(big, s, lengths)
    np.divide(s, w, out=sw, where=big)
    return w, big, np.cos(wl), sw


def _states(c, a, m, y, dy) -> tuple:
    """(y, dy) at every layer boundary under y <- c y + a dy, dy <- c dy - m y."""
    ys, dys = [y], [dy]
    for ci, ai, mi in zip(c, a, m):
        y, dy = ci * y + ai * dy, ci * dy - mi * y
        ys.append(y)
        dys.append(dy)
    return ys, dys


class _Sweep(NamedTuple):
    """One pass of a scalar z through a stack of layers."""
    w: np.ndarray
    big: np.ndarray
    c: np.ndarray
    sw: np.ndarray
    phi: tuple          # (phi, phi'/z^2) lists at the n + 1 layer boundaries
    psi: tuple | None   # (psi, psi') lists, when asked for


def _sweep(z: complex, values, lengths, psi: bool = False) -> _Sweep:
    """Coefficients at z and the states of phi (and psi) at every boundary.

    phi is carried as (phi, e = phi'/z^2), propagated by
    [[c, z^2 sw], [-b sw, c]]: nothing divides by z, so F = phi - i z e and
    the layer integrals hold at z = 0 and subnormal z alike.
    """
    w, big, c, sw = _coefficients(z, np.sqrt(values), lengths)
    z2 = z * z
    bsw = values * sw
    c_ = c.tolist()
    return _Sweep(w, big, c, sw,
                  _states(c_, (z2 * sw).tolist(), bsw.tolist(), 1.0, 0.0),
                  _states(c_, sw.tolist(), (z2 * bsw).tolist(), 0.0, 1.0)
                  if psi else None)


def _phi2_integrals(sweep: _Sweep, lengths, p, dp):
    """Per layer, the integral of phi^2 for phi entering it with (p, dp).

    phi = p cos wt + dp sin(wt)/w; int cos^2 = (L + c sw)/2,
    int sin cos / w = sw^2/2 and int sin^2 / w^2 = (L - c sw)/(2 w^2),
    which is L^3/3 where |wL| < _SMALL.
    """
    w, big, csw, sw = sweep.w, sweep.big, sweep.c * sweep.sw, sweep.sw
    iss2 = np.where(big, lengths - csw, lengths ** 3 / 1.5)  # twice the last
    np.divide(iss2, w * w, out=iss2, where=big)
    return 0.5 * (p * p * (lengths + csw) + dp * dp * iss2) + p * dp * sw * sw


def _finite(z, *values) -> None:
    """NumericalError unless every one of values is finite."""
    if not all(np.isfinite(v).all() for v in values):
        raise NumericalError(f"values at z = {z!r} are not finite")


def propagate(B, z: complex) -> BoundaryData:
    """phi and psi pushed from x=0 to x=1 through the layers of B.

    Exact up to rounding for piecewise-constant B; values that are not
    finite raise NumericalError.
    """
    _, lengths, values = B.layers
    with np.errstate(over="ignore", invalid="ignore"):   # caught below
        sweep = _sweep(z, values, lengths, psi=True)
    (p, e), (q, dq) = sweep.phi, sweep.psi
    bd = BoundaryData(p[-1], z * z * e[-1], q[-1], dq[-1])
    _finite(z, list(vars(bd).values()))
    return bd


# -- F and its z-derivatives -------------------------------------------------

@functools.cache
def _toeplitz_slots(k: int) -> np.ndarray:
    """Row of (c_0..c_r, a_0..a_r, -m_0..-m_r, 0), r = k - 1, for each entry
    of the 2k x 2k block upper-triangular Toeplitz matrix whose block (p, q)
    is [[c_j, a_j], [-m_j, c_j]] with j = q - p >= 0 (zero below)."""
    p = np.arange(k)
    j = p - p[:, None]
    slots = np.where(j >= 0, np.array([[j, j + k], [j + 2 * k, j]]), 3 * k)
    slots = slots.transpose(2, 0, 3, 1).reshape(2 * k, 2 * k)
    slots.flags.writeable = False   # shared by every call
    return slots


def _jet(z, B, order: int):
    """(F, F', ..., F^(order), phi(1)) at z from one pairwise product.

    With beta = sqrt(b) L, the layer map of (phi, u = phi'/z) has the Taylor
    coefficients c_j = beta^j/j! cos(wL + j pi/2) on its diagonal and
    a_j = L beta^(j-1)/j! sin(wL + j pi/2) and -m_j = -b a_j off it (j >= 1;
    a_0 = sin(wL)/sqrt(b), zL at b = 0, and m_0 = sqrt(b) sin wL).  Nothing
    divides by z, and a_1 = L cos wL gives F'(0) = i int B exactly.
    Truncated Taylor series multiply as block upper-triangular Toeplitz
    matrices (Griewank & Walther, *Evaluating Derivatives*, 2nd ed., SIAM
    2008, ch. 13): the layers' blocks are multiplied pairwise, later times
    earlier, and F^(j) = j! (phi_j - i u_j) is read off the first block row.

    z may also be a 1-D numpy array of points: the result is then the list
    of their tuples.  The points are stacked behind the layers, so each @ of
    the product multiplies the same blocks as the scalar call and every
    point's tuple is bit-equal to it; a product takes at most
    max(1, _CHUNK // layers) points at a time.
    """
    lay = B.layers
    lengths, k = lay.lengths, order + 1
    many = isinstance(z, np.ndarray) and z.ndim > 0
    if many:
        step = max(1, _CHUNK // len(lengths))
        if len(z) > step:
            return [v for i in range(0, len(z), step)
                    for v in _jet(z[i:i + step], B, order)]
        z = z.astype(complex, copy=False)[:, None]
    else:
        z = complex(z)
    wl = z * lay.beta
    g = np.zeros((3 * k + 1,) + wl.shape, complex)  # rows c_j, a_j, -m_j, 0
    c, s = np.cos(wl, out=g[0]), np.sin(wl)
    # a_0; a masked divide costs a third of the build, so only with b = 0
    if lay.vacuum is None:
        np.divide(s, lay.rootb, out=g[k])
    else:
        np.divide(s, lay.rootb, out=g[k], where=~lay.vacuum)
        np.copyto(g[k], z * lengths, where=lay.vacuum)
    np.multiply(lay.neg_rootb, s, out=g[2 * k])
    # with s_j = beta^j/j! sin(wL + j pi/2): c_j = -(beta/j) s_(j-1),
    # s_j = (beta/j) c_(j-1) and a_j = (L/j) c_(j-1); each product with a
    # negated factor rounds as the negated product
    for j in range(1, k):
        lj, bj, neg_bj = (lengths, lay.beta, lay.neg_beta) if j == 1 else (
            lengths / j, lay.beta / j, lay.beta / -j)
        np.multiply(lj, c, out=g[k + j])                      # a_j
        np.multiply(lay.neg_b, g[k + j], out=g[2 * k + j])    # -m_j
        c, s = np.multiply(neg_bj, s, out=g[j]), bj * c if j < order else s
    # (layers, [points,] 2k, 2k)
    t = g.T[..., _toeplitz_slots(k)]
    while len(t) > 1:
        n = len(t)
        p = t[1::2] @ t[0:n - 1:2]
        if n % 2:
            p[-1] = t[-1] @ p[-1]
        t = p
    if many:
        return list(map(_read_jet, t[0, :, 0, ::2].tolist(),
                        t[0, :, 1, ::2].tolist()))
    return _read_jet(*t[0, :2, ::2].tolist())


@functools.cache
def _factorials(k: int) -> tuple:
    return tuple(math.factorial(j) for j in range(k))


def _read_jet(ys: list, us: list) -> tuple:
    """(F, F', ..., phi(1)) from the Taylor coefficients of phi and u."""
    return (*[(y - 1j * u) * f
              for y, u, f in zip(ys, us, _factorials(len(ys)))], ys[0])


@np.errstate(all="ignore")   # overflow returns inf or nan, as in charF_many
def charF(z: complex, B) -> complex:
    """Characteristic function F(z; B); F(0) = 1 (removable singularity).
    The order-1 product of charF_dzF, so the two agree bit for bit."""
    return _jet(z, B, 1)[0]


@np.errstate(all="ignore")
def charF_dzF(z: complex, B) -> tuple:
    """(F, dF/dz) at z from one order-1 product (_jet); dF/dz(0) = i int B."""
    return _jet(z, B, 1)[:2]


@np.errstate(all="ignore")
def dzF(z: complex, B) -> complex:
    """dF/dz from the order-1 product (_jet); dF/dz(0) = i int B."""
    return _jet(z, B, 1)[1]


def _layer_matrices(z, lay) -> np.ndarray:
    """Per layer and z, the map [[c, a], [-m, c]] of (phi, phi'/z) (_jet).

    z is a column of points and lay the medium's Layers, whose constants
    are rows of layers; the result has shape (2, 2, points, layers).
    c = cos wL, a = sin(wL)/sqrt(b) (zL at b = 0) and m = sqrt(b) sin wL.
    cos and sin of wL = x + iy come from real trig (Kahan, "Branch cuts for
    complex elementary functions", 1987), a quarter of the cost of numpy's
    complex sin and cos:
        cos wL = cos x cosh y - i sin x sinh y,
        sin wL = sin x cosh y + i cos x sinh y.
    """
    x, y = z.real * lay.beta, z.imag * lay.beta
    t = np.empty((2, 2) + x.shape, complex)
    c, s = t[0, 0], t[0, 1]
    np.cos(x, out=c.real)
    np.sin(x, out=s.real)
    sh = np.sinh(y)
    np.multiply(c.real, sh, out=s.imag)
    np.multiply(s.real, sh, out=c.imag)
    np.negative(c.imag, out=c.imag)
    ch = np.cosh(y)
    c.real *= ch
    s.real *= ch
    np.multiply(s, lay.neg_rootb, out=t[1, 0])
    s *= 1 / lay.rootb
    t[1, 1] = c
    if lay.vacuum is not None:
        np.copyto(s, z * lay.lengths, where=lay.vacuum)
    return t


def _pair(t) -> np.ndarray:
    """Products of adjacent layer maps, later times earlier; an odd last
    layer is carried forward."""
    n = t.shape[3]
    lo, hi = t[..., 0:n - 1:2], t[..., 1::2]
    p = hi[:, :1] * lo[:1]
    p += hi[:, 1:] * lo[1:]
    return np.concatenate((p, t[..., -1:]), axis=3) if n % 2 else p


def charF_many(zs, B) -> np.ndarray:
    """Vectorized F over an array of z (used by contour walks and scans).

    Per chunk of points: the layer maps (_layer_matrices), multiplied
    pairwise down to one map (_pair: a few numpy calls per round, log2 of
    the layer count rounds; the sequential product's rounding bound,
    Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd ed.,
    2002, sec. 3.5), whose first column is (phi, phi'/z) at x = 1.
    F is bit-equal whatever the batch around z (the contour walk caches it
    per point); overflow returns inf or nan, without a warning.
    """
    zs = np.asarray(zs, dtype=complex)
    flat = zs.ravel()
    lay = B.layers
    out = np.empty_like(flat)
    step = max(1, _CHUNK // len(lay.lengths))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for k in range(0, len(flat), step):
            z = flat[k:k + step, None]
            t = _layer_matrices(z, lay)
            while t.shape[3] > 1:
                t = _pair(t)
            out[k:k + step] = t[0, 0, :, 0] - 1j * t[1, 0, :, 0]
    return out.reshape(zs.shape)


def mode_values(B, z: complex, xs) -> tuple:
    """(phi, phi') evaluated at sorted positions xs in [0, 1].

    A non-finite z raises InputError, values past the float range
    NumericalError.
    """
    if not cmath.isfinite(z):
        raise InputError(f"z must be finite, not {z!r}")
    xs = np.asarray(xs, dtype=float)
    if not xs.size:
        return np.zeros(0, complex), np.zeros(0, complex)
    if (xs[1:] < xs[:-1]).any() or xs.min() < -1e-15 or xs.max() > 1 + 1e-15:
        raise InputError("positions must be sorted inside [0, 1]")
    bps, lengths, values = B.layers
    with np.errstate(over="ignore", invalid="ignore"):   # caught below
        p, e = (np.array(v, complex) for v in _sweep(z, values, lengths).phi)
        j = bps[1:-1].searchsorted(xs, side="right")
        b, p, e = values[j], p[j], e[j]
        _, _, c, sw = _coefficients(z, np.sqrt(b), xs - bps[j])
        z2 = z * z
        phi, dphi = c * p + z2 * sw * e, z2 * (c * e - b * sw * p)
    _finite(z, phi, dphi)
    return phi, dphi


def overlap_integrals(B, z: complex):
    """BoundaryData plus the B-weighted mode integrals.

    Returns (bd, int_0^1 phi^2 B ds, int_0^1 phi psi B ds) in closed form.
    On a layer u'v' + w^2 u v is constant, so 2 z^2 int b u v =
    L (u'v' + w^2 u v) - [u v']; over all layers the brackets telescope to
    phi'(1) v(1) (constant Wronskian, phi'(0) = 0).  Hence, with phi' = z^2 e,
    int phi v B = (sum b L phi v + sum L e v' - e(1) v(1)) / 2.
    Values that are not finite raise NumericalError.
    """
    _, lengths, values = B.layers
    with np.errstate(over="ignore", invalid="ignore"):   # caught below
        sweep = _sweep(z, values, lengths, psi=True)
        (p, e), (q, dq) = sweep.phi, sweep.psi
        y = np.array((p[:-1], q[:-1]))
        d = np.array((e[:-1], dq[:-1]))
        a2, apq = ((y * y[0]) @ (values * lengths)).tolist()
        g2, gpq = ((d * d[0]) @ lengths).tolist()
    z2 = z * z
    bd = BoundaryData(p[-1], z2 * e[-1], q[-1], dq[-1])
    i2 = 0.5 * (a2 + z2 * g2 - e[-1] * p[-1])
    ipq = 0.5 * (apq + gpq - e[-1] * q[-1])
    _finite(z, [*vars(bd).values(), i2, ipq])
    return bd, i2, ipq


def phi2_cell_integrals(B, z: complex, edges) -> np.ndarray:
    """Unweighted integrals of phi^2 between consecutive edges.

    edges must be at least two reals increasing strictly from 0 to 1, else
    InputError; layer boundaries of B are merged in internally so each
    piece is resolved in closed form.  Integrals that are not finite raise
    NumericalError.
    """
    edges = _reals(edges, "edges")
    if not (edges.ndim == 1 and len(edges) >= 2 and edges[0] == 0.0
            and edges[-1] == 1.0 and (edges[1:] > edges[:-1]).all()):
        raise InputError("edges must increase strictly from 0 to 1")
    bps, _, values = B.layers
    cuts = np.union1d(edges, bps)
    mids = 0.5 * (cuts[:-1] + cuts[1:])
    layer = bps[1:-1].searchsorted(mids, side="right")
    lengths = cuts[1:] - cuts[:-1]
    with np.errstate(over="ignore", invalid="ignore"):   # caught below
        sweep = _sweep(z, values[layer], lengths)
        p, e = (np.array(v[:-1], complex) for v in sweep.phi)
        pieces = _phi2_integrals(sweep, lengths, p, z * z * e)
    _finite(z, pieces)
    n = len(edges) - 1
    cell = edges[1:-1].searchsorted(mids, side="right")
    return (np.bincount(cell, pieces.real, n)
            + 1j * np.bincount(cell, pieces.imag, n))


# -- power-series oracle ------------------------------------------------------

class SeriesResult(NamedTuple):
    bd: BoundaryData
    n_terms: int
    tail_bound: float       # truncation bound on |phi(1)| terms left out
    roundoff_bound: float   # double-precision floor of the alternating sum


def _polyval(c, t):
    out = 0.0
    for ck in c[::-1]:
        out = out * t + ck
    return out


def _end_values(c, L) -> tuple:
    """(value, derivative) at t = L of the polynomial with coefficients c."""
    return _polyval(c, L), _polyval(np.arange(1, len(c)) * c[1:], L)


def _double_integrate_sourced(source_coeffs, lengths, bvals):
    """Solve y'' = B * source, y(0) = y'(0) = 0, exactly per layer.

    source_coeffs holds the polynomial of the previous iterate per layer, in
    the local variable t; returns the new per-layer polynomials and (y, y')
    at x = 1.
    """
    end = 0.0, 0.0
    out = []
    for c, L, b in zip(source_coeffs, lengths, bvals):
        m = np.arange(len(c))
        new = np.concatenate((end, b * c / ((m + 1) * (m + 2))))
        out.append(new)
        end = _end_values(new, L)
    return out, end


def phi_series(B, z: complex) -> SeriesResult:
    """phi and psi at x = 1 from the Maclaurin series in z^2.

    The iterates solve y_j'' = B y_{j-1} with zero initial data and are
    nonnegative piecewise polynomials, integrated exactly per layer, so each
    coefficient carries full double precision.  The sum runs to the first
    n >= 2 at which the a-priori term bound (sup B |z|^2)^n / (2n)! drops
    below _SERIES_TOL, counted before any term is formed (TailNotConverged
    when that exceeds _SERIES_TERMS, or when |z|^(2n) passes the float
    range); the result reports that tail bound and a roundoff majorant
    eps * sum |term| for the alternating sum itself.
    """
    xs, lengths, bvals = (a.tolist() for a in B.layers)
    try:
        r2 = abs(z) ** 2
    except OverflowError:   # past the float range: no sum converges
        r2 = math.inf
    az2 = r2 * max(bvals)
    # a series that cannot converge raises before its terms overflow
    n, bound = 0, 1.0
    while n < 2 or not bound < _SERIES_TOL:
        n += 1
        if n > _SERIES_TERMS:
            raise TailNotConverged(
                f"term bound {bound:.3e} still above {_SERIES_TOL:.1e} "
                f"after {_SERIES_TERMS} terms")
        bound *= az2 / (2 * n * (2 * n - 1))
    if not n * math.log(max(r2, 1.0)) < 690.0:   # z^(2n) would overflow
        raise TailNotConverged(f"|z|^{2 * n} is past the float range")

    # j = 0 iterates: phi_0 = 1, psi_0 = x (local form x0 + t per layer)
    phi_c = [np.array([1.0]) for _ in lengths]
    psi_c = [np.array([x0, 1.0]) for x0 in xs[:-1]]

    z2 = z * z
    zpow = 1.0 + 0.0j
    phi1, dphi1 = 1.0 + 0.0j, 0.0 + 0.0j
    psi1, dpsi1 = map(complex, _end_values(psi_c[-1], lengths[-1]))
    abs_sum = abs(phi1)
    for _ in range(n):
        phi_c, (pv, pd) = _double_integrate_sourced(phi_c, lengths, bvals)
        psi_c, (qv, qd) = _double_integrate_sourced(psi_c, lengths, bvals)
        zpow *= -z2
        phi1 += zpow * pv
        dphi1 += zpow * pd
        psi1 += zpow * qv
        dpsi1 += zpow * qd
        abs_sum += abs(zpow) * abs(pv)

    m = (2 * n + 1) * (2 * n + 2)
    tail = bound / max(1e-300, 1.0 - az2 / m) if az2 < m else math.inf
    roundoff = 8.0 * np.finfo(float).eps * abs_sum
    return SeriesResult(BoundaryData(phi1, dphi1, psi1, dpsi1),
                        n, float(tail), float(roundoff))
