"""Fundamental solutions and the characteristic function of the cavity.

Everything is built on the Cauchy problem y'' = -z^2 B(x) y with the two
normalized solutions

    phi: phi(0) = 1, phi'(0) = 0        psi: psi(0) = 0, psi'(0) = 1.

The characteristic function F(z; B) = phi(1, z) - i phi'(1, z) / z
(F(0) = 1) is entire in z; its zeros in the upper half-plane are the
quasi-normal eigenvalues.

B is piecewise constant, so everything is one recurrence over its layers
(`B.layers`): across a layer of length L and value b, with w = z sqrt(b),
(y, y') moves by [[cos wL, sin(wL)/w], [-w sin wL, cos wL]].  The kernel
`_sweep` takes those coefficients for all layers in one numpy pass and the
states at every layer boundary in one sequential pass; every field quantity
below reads from it, and the layer integrals (hence the exact dzF, by
variation of parameters) are closed forms in those states.  One sweep of
phi and psi (`_overlaps`) yields F, the boundary data and the B-weighted
integrals together, so charF_dzF, dzF and overlap_integrals all read the
same pass, and a Newton step or a gradient needs one sweep, not two.
layer_matrix, phi_series (the power series in z^2) and integral_residual
stay outside the kernel as the references the tests check it against.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InputError, TailNotConverged, ZeroFrequency

__all__ = [
    "BoundaryData", "CauchyState", "ModeTrace",
    "layer_matrix", "propagate", "charF", "charF_many", "charF_dzF", "dzF",
    "dzF_at_root",
    "phi_series", "SeriesResult", "overlap_integrals", "phi2_cell_integrals",
    "mode_values", "integral_residual", "axis_charF", "axis_dcharF",
]


@dataclass(frozen=True)
class CauchyState:
    """Solution pair (y, y') at a position x."""
    x: float
    y: complex
    dy: complex


@dataclass(frozen=True)
class ModeTrace:
    """Sampled solution along [0,1]; samples include every breakpoint of B."""
    samples: tuple

    def xs(self) -> np.ndarray:
        return np.array([s.x for s in self.samples])

    def ys(self) -> np.ndarray:
        return np.array([s.y for s in self.samples])


@dataclass(frozen=True)
class BoundaryData:
    """phi, phi', psi, psi' at x = 1 for a given (z, B)."""
    phi1: complex
    dphi1: complex
    psi1: complex
    dpsi1: complex

    def wronskian(self) -> complex:
        return self.phi1 * self.dpsi1 - self.dphi1 * self.psi1


def _segments(B) -> list:
    """(start, length, value) triples of the layers of B."""
    xs, lengths, values = B.layers
    return list(zip(xs[:-1].tolist(), lengths.tolist(), values.tolist()))


def layer_matrix(b: float, length: float, z: complex) -> np.ndarray:
    """Propagator of (y, y') across a constant layer.

    For w = z*sqrt(b) != 0 the matrix is [[cos wL, sin wL / w],
    [-w sin wL, cos wL]]; for b = 0 or z = 0 it degenerates to free
    propagation [[1, L], [0, 1]].  det = 1 always (Wronskian).
    """
    if length <= 0:
        raise ValueError("layer length must be positive")
    if b == 0.0 or z == 0:
        return np.array([[1.0, length], [0.0, 1.0]], dtype=complex)
    w = z * math.sqrt(b)
    wl = w * length
    c, s = cmath.cos(wl), cmath.sin(wl)
    return np.array([[c, s / w], [-w * s, c]], dtype=complex)


# -- the layer sweep -----------------------------------------------------------

_SMALL = 1e-8      # |wL| below which sin(wL)/w equals L to double precision
_CHUNK = 1 << 16   # layers x points held at once by charF_many


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
    the overlap integrals hold at z = 0 and subnormal z alike.
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


def propagate(B, z: complex, trace: bool = False):
    """phi and psi pushed from x=0 to x=1 through the layers of B.

    Returns BoundaryData, or (BoundaryData, (phi_trace, psi_trace)) when
    trace is set.  Exact up to rounding for piecewise-constant B.
    """
    xs, lengths, values = B.layers
    sweep = _sweep(z, values, lengths, psi=True)
    (p, e), (q, dq) = sweep.phi, sweep.psi
    z2 = z * z
    bd = BoundaryData(p[-1], z2 * e[-1], q[-1], dq[-1])
    if trace:
        xs = xs.tolist()
        dp = [z2 * v for v in e]
        return bd, (ModeTrace(tuple(map(CauchyState, xs, p, dp))),
                    ModeTrace(tuple(map(CauchyState, xs, q, dq))))
    return bd


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


class _Overlaps(NamedTuple):
    """F, the boundary data and the B-weighted mode integrals at one z.

    On a layer u'v' + w^2 u v is constant, so 2 z^2 int b u v =
    L (u'v' + w^2 u v) - [u v']; over all layers the brackets telescope to
    phi'(1) v(1) (constant Wronskian, phi'(0) = 0).  Hence, with phi' = z^2 e,
    int phi v B = (sum b L phi v + sum L e v' - e(1) v(1)) / 2.
    """
    z: complex
    F: complex
    bd: BoundaryData
    i_phi2: complex     # int_0^1 phi^2 B ds
    i_phipsi: complex   # int_0^1 phi psi B ds

    def dF(self) -> complex:
        """dF/dz by variation of parameters (exact for piecewise-constant B).

        d_z phi solves the same equation with source -2 z B phi and zero
        initial data, so d_z phi(1) = psi(1) I1 - phi(1) I2 with
        I1 = -2z int phi^2 B and I2 = -2z int phi psi B; similarly for the
        x-derivative.  Needs z^2 != 0.
        """
        z, bd = self.z, self.bd
        i1 = -2.0 * z * self.i_phi2
        i2 = -2.0 * z * self.i_phipsi
        dzphi1 = bd.psi1 * i1 - bd.phi1 * i2
        dzdxphi1 = bd.dpsi1 * i1 - bd.dphi1 * i2
        return dzphi1 - 1j * dzdxphi1 / z + 1j * bd.dphi1 / z ** 2


def _overlaps(z: complex, B) -> _Overlaps:
    """One sweep of phi and psi at z, read out as F, dF/dz and the integrals."""
    _, lengths, values = B.layers
    sweep = _sweep(z, values, lengths, psi=True)
    (p, e), (q, dq) = sweep.phi, sweep.psi
    y = np.array((p[:-1], q[:-1]))
    d = np.array((e[:-1], dq[:-1]))
    a2, apq = ((y * y[0]) @ (values * lengths)).tolist()
    g2, gpq = ((d * d[0]) @ lengths).tolist()
    z2 = z * z
    return _Overlaps(z, p[-1] - 1j * z * e[-1],
                     BoundaryData(p[-1], z2 * e[-1], q[-1], dq[-1]),
                     0.5 * (a2 + z2 * g2 - e[-1] * p[-1]),
                     0.5 * (apq + gpq - e[-1] * q[-1]))


def overlap_integrals(B, z: complex):
    """BoundaryData plus the B-weighted mode integrals.

    Returns (bd, int_0^1 phi^2 B ds, int_0^1 phi psi B ds) in closed form
    (see _Overlaps).
    """
    return _overlaps(z, B)[2:]


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


# -- derivative of F --------------------------------------------------------

def charF_dzF(z: complex, B) -> tuple:
    """(F, dF/dz) at z from one sweep, bit-equal to (charF, dzF).

    dF/dz divides by z^2, so z = 0 and z whose square underflows to 0
    (|z| below about 1e-154) raise ZeroFrequency.
    """
    if z * z == 0:
        raise ZeroFrequency(f"dF/dz is not defined where z^2 = 0 (z = {z})")
    ov = _overlaps(z, B)
    return ov.F, ov.dF()


def dzF(z: complex, B) -> complex:
    """dF/dz by variation of parameters (exact for piecewise-constant B)."""
    return charF_dzF(z, B)[1]


def dzF_at_root(kappa: complex, B) -> complex:
    """dF/dz at a zero of F via the root-specialized closed form.

    Independent of dzF's variational route; the two must agree at roots.
    """
    if kappa == 0:
        raise ZeroFrequency("dF/dz is not defined at z = 0")
    bd, i_phi2, _ = overlap_integrals(B, kappa)
    bracket = -kappa * bd.psi1 + 1j * bd.dpsi1
    return 2.0 * bracket * i_phi2 + bd.phi1 / kappa


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


def phi_series(B, z: complex, terms: int = 200, tol: float = 1e-16) -> SeriesResult:
    """phi and psi at x = 1 from the Maclaurin series in z^2.

    The iterates solve y_j'' = B y_{j-1} with zero initial data and are
    nonnegative piecewise polynomials, integrated exactly per layer, so each
    coefficient carries full double precision.  Summation stops once the
    a-priori term bound (sup B |z|^2)^j / (2j)! drops below tol; the result
    reports that tail bound and a roundoff majorant eps * sum |term| for the
    alternating sum itself.
    """
    segs = _segments(B)
    lengths = [s[1] for s in segs]
    bvals = [s[2] for s in segs]
    starts = [s[0] for s in segs]
    sup_b = max(bvals) if bvals else 0.0
    az2 = (abs(z) ** 2) * sup_b

    # j = 0 iterates: phi_0 = 1, psi_0 = x (local form x0 + t per layer)
    phi_c = [np.array([1.0]) for _ in segs]
    psi_c = [np.array([x0, 1.0]) for x0 in starts]

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
                f"term bound {bound:.3e} still above {tol:.1e} after {terms} terms")
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
        if bound < tol and n >= 2:
            break

    tail = bound / max(1e-300, 1.0 - az2 / ((fact_arg + 1) * (fact_arg + 2))) \
        if az2 < (fact_arg + 1) * (fact_arg + 2) else math.inf
    roundoff = 8.0 * np.finfo(float).eps * abs_sum
    return SeriesResult(BoundaryData(phi1, dphi1, psi1, dpsi1),
                        n, float(tail), float(roundoff))


# -- integral-form residuals ---------------------------------------------------

def _layer_first_moments(w, length, p, dp):
    """(int phi dt, int t phi dt) over a layer from its entry state."""
    a, b = p, dp / w
    wl = w * length
    c, s = cmath.cos(wl), cmath.sin(wl)
    i0 = a * s / w + b * (1.0 - c) / w
    i_t = a * (c + wl * s - 1.0) / w ** 2 + b * (s - wl * c) / w ** 2
    return i0, i_t


def integral_residual(B, kappa: complex, points_per_layer: int = 8) -> tuple:
    """Residuals of the integral form of the eigenvalue problem.

    r1 is the sup-norm defect of y(x) = 1 - kappa^2 int_0^x (x-s) B y ds with
    y = phi (an identity, so r1 is a pure consistency number), and r2 is
    |y(1) + i kappa int_0^1 B y ds|, which vanishes exactly on the spectrum.
    """
    if kappa == 0:
        raise ZeroFrequency("integral form requires kappa != 0")
    segs = _segments(B)
    r1 = 0.0
    c1 = 0.0 + 0.0j  # int_0^x B phi
    c2 = 0.0 + 0.0j  # int_0^x s B phi
    p, dp = 1.0 + 0.0j, 0.0 + 0.0j
    for x0, length, b in segs:
        ts = np.linspace(0.0, length, points_per_layer + 1)[1:]
        if b == 0.0:
            for t in ts:
                x = x0 + t
                y = p + t * dp
                r1 = max(r1, abs(y - 1.0 + kappa ** 2 * (x * c1 - c2)))
            p, dp = p + length * dp, dp
            continue
        w = kappa * math.sqrt(b)
        for t in ts:
            x = x0 + t
            i0, i_t = _layer_first_moments(w, t, p, dp)
            part1 = c1 + b * i0
            part2 = c2 + b * (x0 * i0 + i_t)
            y = cmath.cos(w * t) * p + cmath.sin(w * t) / w * dp
            r1 = max(r1, abs(y - 1.0 + kappa ** 2 * (x * part1 - part2)))
        i0, i_t = _layer_first_moments(w, length, p, dp)
        c1 += b * i0
        c2 += b * (x0 * i0 + i_t)
        wl = w * length
        c, s = cmath.cos(wl), cmath.sin(wl)
        p, dp = c * p + (s / w) * dp, -w * s * p + c * dp
    r2 = abs(p + 1j * kappa * c1)
    return float(r1), float(r2)


# -- imaginary-axis specialization ---------------------------------------------

def axis_charF(beta: float, B) -> float:
    """F(i beta; B), which is real for real B."""
    if beta <= 0:
        raise ZeroFrequency("axis evaluation needs beta > 0")
    return charF(1j * beta, B).real


def axis_dcharF(beta: float, B) -> float:
    """d/d beta of F(i beta; B), real-valued."""
    return (1j * dzF(1j * beta, B)).real
