"""Fundamental solutions and the characteristic function of the cavity.

Everything is built on the Cauchy problem y'' = -z^2 B(x) y with the two
normalized solutions

    phi: phi(0) = 1, phi'(0) = 0        psi: psi(0) = 0, psi'(0) = 1.

The characteristic function F(z; B) = phi(1, z) - i phi'(1, z) / z
(F(0) = 1) is entire in z; its zeros in the upper half-plane are the
quasi-normal eigenvalues.

B is piecewise constant, so everything is one recurrence over its layers
(`B.layers`): across a layer of length L and value b, with w = z sqrt(b),
(y, y') moves by [[cos wL, sin(wL)/w], [-w sin wL, cos wL]].  `_sweep`
takes those coefficients for all layers in one numpy pass and the states at
every layer boundary in one sequential pass; F, the boundary data and the
closed-form layer integrals read from it.  The z-derivatives come from the
same recurrence by forward differentiation (`_jet`): one sweep carries phi
and its first (Newton steps, charF_dzF) or first and second (the gradient
and its simple-root floor) z-derivatives.  phi_series (the power series in
z^2) stays outside the kernel as the oracle the tests check it against.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InputError, TailNotConverged

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
_SERIES_X = 1e-4   # |wL|^2 below which _jet sums r as a series
_CHUNK = 1 << 16   # layers x points held at once by charF_many
_SERIES_TOL = 1e-16   # term bound at which phi_series stops summing


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


def propagate(B, z: complex) -> BoundaryData:
    """phi and psi pushed from x=0 to x=1 through the layers of B.

    Exact up to rounding for piecewise-constant B.
    """
    _, lengths, values = B.layers
    sweep = _sweep(z, values, lengths, psi=True)
    (p, e), (q, dq) = sweep.phi, sweep.psi
    return BoundaryData(p[-1], z * z * e[-1], q[-1], dq[-1])


def charF(z: complex, B) -> complex:
    """Characteristic function F(z; B); F(0) = 1 (removable singularity)."""
    _, lengths, values = B.layers
    p, e = _sweep(z, values, lengths).phi
    return p[-1] - 1j * z * e[-1]


def charF_many(zs, B) -> np.ndarray:
    """Vectorized F over an array of z (used by contour walks and scans)."""
    zs = np.asarray(zs, dtype=complex)
    flat = zs.ravel()
    _, lengths, values = B.layers
    rootb, lengths, values = (np.sqrt(values)[:, None], lengths[:, None],
                              values[:, None])
    out = np.empty_like(flat)
    step = max(1, _CHUNK // len(lengths))
    for k in range(0, len(flat), step):
        z = flat[k:k + step]
        _, _, c, sw = _coefficients(z, rootb, lengths)
        p, e = _states(c, z * z * sw, values * sw, 1.0, 0.0)
        out[k:k + step] = p[-1] - 1j * z * e[-1]
    return out.reshape(zs.shape)


def mode_values(B, z: complex, xs) -> tuple:
    """(phi, phi') evaluated at sorted positions xs in [0, 1]."""
    xs = np.asarray(xs, dtype=float)
    if not xs.size:
        return np.zeros(0, complex), np.zeros(0, complex)
    if np.any(np.diff(xs) < 0) or xs.min() < -1e-15 or xs.max() > 1 + 1e-15:
        raise InputError("positions must be sorted inside [0, 1]")
    bps, lengths, values = B.layers
    p, e = (np.array(v) for v in _sweep(z, values, lengths).phi)
    j = np.clip(np.searchsorted(bps, xs, side="right") - 1, 0, len(lengths) - 1)
    b, p, e = values[j], p[j], e[j]
    _, _, c, sw = _coefficients(z, np.sqrt(b), xs - bps[j])
    z2 = z * z
    return c * p + z2 * sw * e, z2 * (c * e - b * sw * p)


def overlap_integrals(B, z: complex):
    """BoundaryData plus the B-weighted mode integrals.

    Returns (bd, int_0^1 phi^2 B ds, int_0^1 phi psi B ds) in closed form.
    On a layer u'v' + w^2 u v is constant, so 2 z^2 int b u v =
    L (u'v' + w^2 u v) - [u v']; over all layers the brackets telescope to
    phi'(1) v(1) (constant Wronskian, phi'(0) = 0).  Hence, with phi' = z^2 e,
    int phi v B = (sum b L phi v + sum L e v' - e(1) v(1)) / 2.
    """
    _, lengths, values = B.layers
    sweep = _sweep(z, values, lengths, psi=True)
    (p, e), (q, dq) = sweep.phi, sweep.psi
    y = np.array((p[:-1], q[:-1]))
    d = np.array((e[:-1], dq[:-1]))
    a2, apq = ((y * y[0]) @ (values * lengths)).tolist()
    g2, gpq = ((d * d[0]) @ lengths).tolist()
    z2 = z * z
    return (BoundaryData(p[-1], z2 * e[-1], q[-1], dq[-1]),
            0.5 * (a2 + z2 * g2 - e[-1] * p[-1]),
            0.5 * (apq + gpq - e[-1] * q[-1]))


def phi2_cell_integrals(B, z: complex, edges) -> np.ndarray:
    """Unweighted integrals of phi^2 between consecutive edges.

    edges must be a sorted array starting at 0 and ending at 1; layer
    boundaries of B are merged in internally so each piece is resolved in
    closed form.
    """
    edges = np.asarray(edges, dtype=float)
    bps, _, values = B.layers
    cuts = np.union1d(edges, bps)
    mids = 0.5 * (cuts[:-1] + cuts[1:])
    layer = np.clip(np.searchsorted(bps, mids, side="right") - 1,
                    0, len(values) - 1)
    lengths = np.diff(cuts)
    sweep = _sweep(z, values[layer], lengths)
    p, e = (np.array(v[:-1]) for v in sweep.phi)
    pieces = _phi2_integrals(sweep, lengths, p, z * z * e)
    n = len(edges) - 1
    cell = np.clip(np.searchsorted(edges, mids, side="right") - 1, 0, n - 1)
    return (np.bincount(cell, pieces.real, n)
            + 1j * np.bincount(cell, pieces.imag, n))


# -- derivatives of F ------------------------------------------------------

def _tangent(*coeffs) -> tuple:
    """(y, e, y'/z, e'/z) at x = 1 under the layer map and its z-derivative."""
    y, e, y1, e1 = 1.0, 0.0, 0.0, 0.0
    for c, a, m, k, h, n in zip(*coeffs):
        y, e, y1, e1 = (c * y + a * e, c * e - m * y,
                        c * y1 + a * e1 + h * e - k * y,
                        c * e1 - m * y1 + n * y - k * e)
    return y, e, y1, e1


def _curvature(t, *coeffs) -> tuple:
    """(y, e, y'/z, e'/z, y'', e'') at x = 1 for t = 2 z^2 (see _jet)."""
    y, e, y1, e1, y2, e2 = 1.0, 0.0, 0.0, 0.0, 0.0, 0.0
    for c, a, m, k, h, n, c2, a2, m2 in zip(*coeffs):
        y, e, y1, e1, y2, e2 = (
            c * y + a * e, c * e - m * y,
            c * y1 + a * e1 + h * e - k * y, c * e1 - m * y1 + n * y - k * e,
            c * y2 + a * e2 + c2 * y + a2 * e + t * (h * e1 - k * y1),
            c * e2 - m * y2 + c2 * e - m2 * y + t * (n * y1 - k * e1))
    return y, e, y1, e1, y2, e2


def _jet(z: complex, B, order: int) -> tuple:
    """(F, F', F'', phi(1)) at z from one sweep; F'' is None at order 1.

    Forward-mode differentiation of the layer map (Griewank & Walther,
    *Evaluating Derivatives*, 2nd ed., SIAM 2008): (phi, e = phi'/z^2) and
    their z-derivatives cross each layer under y <- c y + a e,
    e <- c e - m y, with c = cos wL, a = z^2 sw and m = b sw.  With
    r = (sw - L c) / w^2 (its series in x = (wL)^2 below _SERIES_X),
        c' = -z k,  a' = z h,  m' = -z n;  k = b L sw, h = sw + L c, n = b^2 r,
        c'' = -b L^2 c,  a'' = 2 L c - z^2 L k,  m'' = 2 n - b L k,
    and the loop carries the first derivatives divided by z.  Nothing divides
    by z, so F'(0) = i int B exactly, and F is bit-equal to charF.
    """
    _, lengths, values = B.layers
    w, _, c, sw = _coefficients(z, np.sqrt(values), lengths)
    x, lc = (w * lengths) ** 2, lengths * c
    r = lengths ** 3 * (1 / 3 - x * (1 / 30 - x * (1 / 840 - x / 45360)))
    np.divide(sw - lc, w * w, out=r, where=np.abs(x) >= _SERIES_X)
    z2, m = z * z, values * sw
    k, n = lengths * m, values * values * r
    coeffs = [c, z2 * sw, m, k, sw + lc, n]
    if order == 2:
        bl = values * lengths
        coeffs += [-bl * lc, 2.0 * lc - z2 * lengths * k, 2.0 * n - bl * k]
    ls = [v.tolist() for v in coeffs]
    y, e, y1, e1, *ys = _curvature(2 * z2, *ls) if order == 2 else _tangent(*ls)
    d2f = ys[0] - 2j * z * e1 - 1j * z * ys[1] if ys else None
    return y - 1j * z * e, z * y1 - 1j * e - 1j * z2 * e1, d2f, y


def charF_dzF(z: complex, B) -> tuple:
    """(F, dF/dz) at z from one tangent sweep (_jet); F is bit-equal to charF."""
    return _jet(z, B, 1)[:2]


def dzF(z: complex, B) -> complex:
    """dF/dz by forward differentiation of the layer map; dF/dz(0) = i int B."""
    return _jet(z, B, 1)[1]


# -- power-series oracle ------------------------------------------------------

class SeriesResult(NamedTuple):
    bd: BoundaryData
    n_terms: int
    tail_bound: float       # truncation bound on |phi(1)| terms left out
    roundoff_bound: float   # double-precision floor of the alternating sum


class _PiecewisePoly:
    """Polynomial coefficients per layer in the local variable t."""

    def __init__(self, coeffs: list):
        self.coeffs = coeffs  # list of 1-D arrays, one per layer

    def end_values(self, lengths) -> tuple:
        """(value, derivative) at the right end of the last layer."""
        c = self.coeffs[-1]
        L = lengths[-1]
        val = _polyval(c, L)
        dval = _polyval(np.arange(1, len(c)) * c[1:], L)
        return val, dval


def _polyval(c, t):
    out = 0.0
    for ck in c[::-1]:
        out = out * t + ck
    return out


def _double_integrate_sourced(source_coeffs, lengths, bvals):
    """Solve y'' = B * source, y(0) = y'(0) = 0, exactly per layer.

    source_coeffs holds the polynomial of the previous iterate per layer;
    returns the new per-layer polynomials.
    """
    entry, dentry = 0.0, 0.0
    out = []
    for c, L, b in zip(source_coeffs, lengths, bvals):
        m = np.arange(len(c))
        body = b * c / ((m + 1) * (m + 2))
        new = np.concatenate(([entry, dentry], body))
        out.append(new)
        entry = _polyval(new, L)
        dentry = _polyval(np.arange(1, len(new)) * new[1:], L)
    return out


def phi_series(B, z: complex, terms: int = 200) -> SeriesResult:
    """phi and psi at x = 1 from the Maclaurin series in z^2.

    The iterates solve y_j'' = B y_{j-1} with zero initial data and are
    nonnegative piecewise polynomials, integrated exactly per layer, so each
    coefficient carries full double precision.  Summation stops once the
    a-priori term bound (sup B |z|^2)^j / (2j)! drops below _SERIES_TOL;
    the result reports that tail bound and a roundoff majorant
    eps * sum |term| for the alternating sum itself.
    """
    xs, lengths, bvals = (a.tolist() for a in B.layers)
    az2 = (abs(z) ** 2) * max(bvals)

    # j = 0 iterates: phi_0 = 1, psi_0 = x (local form x0 + t per layer)
    phi_c = [np.array([1.0]) for _ in lengths]
    psi_c = [np.array([x0, 1.0]) for x0 in xs[:-1]]

    z2 = z * z
    zpow = 1.0 + 0.0j
    phi1 = complex(_polyval(phi_c[-1], lengths[-1]))
    dphi1 = 0.0 + 0.0j
    psi1, dpsi1 = (complex(v) for v in
                   _PiecewisePoly(psi_c).end_values(lengths))
    abs_sum = abs(phi1)

    n = 0
    bound = 1.0
    fact_arg = 0
    while True:
        n += 1
        if n > terms:
            raise TailNotConverged(
                f"term bound {bound:.3e} still above {_SERIES_TOL:.1e} "
                f"after {terms} terms")
        phi_c = _double_integrate_sourced(phi_c, lengths, bvals)
        psi_c = _double_integrate_sourced(psi_c, lengths, bvals)
        zpow *= -z2
        pv, pd = _PiecewisePoly(phi_c).end_values(lengths)
        qv, qd = _PiecewisePoly(psi_c).end_values(lengths)
        phi1 += zpow * pv
        dphi1 += zpow * pd
        psi1 += zpow * qv
        dpsi1 += zpow * qd
        abs_sum += abs(zpow) * abs(pv)
        # a-priori bound (sup B |z|^2)^n / (2n)!
        fact_arg += 2
        bound *= az2 / (fact_arg * (fact_arg - 1))
        if bound < _SERIES_TOL and n >= 2:
            break

    tail = bound / max(1e-300, 1.0 - az2 / ((fact_arg + 1) * (fact_arg + 2))) \
        if az2 < (fact_arg + 1) * (fact_arg + 2) else math.inf
    roundoff = 8.0 * np.finfo(float).eps * abs_sum
    return SeriesResult(BoundaryData(phi1, dphi1, psi1, dpsi1),
                        n, float(tail), float(roundoff))
