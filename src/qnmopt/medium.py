"""Admissible media for the 1-D cavity problem.

A medium is a coefficient B on [0,1] constrained to b1 <= B <= b2.  Two
representations are used: PiecewiseStructure (breakpoints + per-interval
values; canonical form merges equal neighbours) and GridStructure (uniform
cells, the optimizer's design variable).  Values at the breakpoints
themselves carry no information (measure zero), so canonicalization is
lossless for every operation in the package.  Both store read-only 1-D
float arrays, copied once on construction, and expose the same merged
`layers` arrays, which is all the field solvers read; `layers` also
carries the constants of the layer maps (sqrt(b), sqrt(b) L, ...) that
the kernels read, each computed once per medium on first read.  One rule
merges equal neighbours for both (`_merged_layers`); media compare equal
when their bounds and arrays are equal, element for element.
round_to_extreme snaps a grid to a bang-bang medium, each cell to its
nearer bound (ties to b1); extremality_measure gives the measure of the
cells away from both bounds.
"""
from __future__ import annotations

import cmath
import json
import numbers
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import InputError, NotBangBang

_BOUND_SLACK = 1e-12  # distance past or from a bound that counts as on it


@dataclass(frozen=True)
class AdmissibleBounds:
    """Box constraints 0 <= b1 <= B(x) <= b2, b2 > 0 finite."""

    b1: float
    b2: float

    def __post_init__(self):
        if not (_is_finite_real(self.b1) and _is_finite_real(self.b2)
                and 0.0 <= self.b1 <= self.b2 and self.b2 > 0.0):
            raise InputError(f"invalid bounds ({self.b1}, {self.b2})")

    @property
    def width(self) -> float:
        return self.b2 - self.b1

    def contains(self, v) -> bool:
        v = np.asarray(v, dtype=float)   # empty: True; a NaN: False
        return not v.size or bool(
            np.minimum.reduce(v, axis=None) >= self.b1 - _BOUND_SLACK
            and np.maximum.reduce(v, axis=None) <= self.b2 + _BOUND_SLACK)


class _LayerArrays(NamedTuple):
    breakpoints: np.ndarray  # n + 1 positions, 0 first and 1 last
    lengths: np.ndarray      # n layer lengths
    values: np.ndarray       # n layer values


class Layers(_LayerArrays):
    """Merged layers of a medium: equal neighbours form one layer.

    Unpacks as (breakpoints, lengths, values) and carries, read-only and
    made on first read, the layer-map constants that the kernels use.
    """

    @cached_property
    def rootb(self) -> np.ndarray:
        return _read_only(np.sqrt(self.values))

    @cached_property
    def beta(self) -> np.ndarray:
        """sqrt(b) L."""
        return _read_only(self.rootb * self.lengths)

    @cached_property
    def neg_rootb(self) -> np.ndarray:
        return _read_only(-self.rootb)

    @cached_property
    def neg_beta(self) -> np.ndarray:
        return _read_only(-self.beta)

    @cached_property
    def neg_b(self) -> np.ndarray:
        return _read_only(-self.values)

    @cached_property
    def vacuum(self) -> np.ndarray | None:
        """The mask of the layers with b = 0; None if there are none."""
        return None if self.values.all() else _read_only(self.values == 0)

    @cached_property
    def optical(self) -> float:
        """int sqrt(B)."""
        return float(np.dot(self.lengths, self.rootb))

    def values_at(self, xs):
        """Values of the layers holding xs (right-open; end layers outside)."""
        j = self.breakpoints[1:-1].searchsorted(xs, side="right")
        return self.values[j]


def _is_int(v) -> bool:
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _is_real(v) -> bool:
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


def _is_finite_real(v) -> bool:
    return _is_real(v) and abs(v) <= sys.float_info.max


def _reals(a, name: str) -> np.ndarray:
    """A new float array of a; InputError unless a holds real numbers."""
    try:
        return np.array(a, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"{name} must be real numbers: {exc}") from None


def _box(bounds) -> AdmissibleBounds:
    if not isinstance(bounds, AdmissibleBounds):
        raise InputError(f"bounds must be AdmissibleBounds, not {bounds!r}")
    return bounds


def _as_complex(v, name: str, *, finite: bool) -> complex:
    """v as a complex number; InputError unless it is a number, and a
    finite one where finite is set."""
    if not isinstance(v, numbers.Complex) or isinstance(v, bool):
        raise InputError(f"{name} must be a number, not {v!r}")
    z = complex(v)
    if finite and not cmath.isfinite(z):
        raise InputError(f"{name} must be finite, not {v!r}")
    return z


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _merged_layers(xs: np.ndarray, vs: np.ndarray,
                   bounds: AdmissibleBounds) -> Layers:
    """Read-only layers of the values vs between breakpoints xs (last 1).

    Equal neighbours merge exactly (callers quantize first if they want
    near-equal ones merged); values outside bounds raise InputError.
    """
    if not bounds.contains(vs):
        raise InputError("values outside admissible bounds")
    keep = np.concatenate(([True], vs[1:] != vs[:-1]))
    xs = np.concatenate((xs[:-1][keep], (1.0,)))
    return Layers(*map(_read_only, (xs, xs[1:] - xs[:-1], vs[keep])))


@dataclass(frozen=True, eq=False)
class PiecewiseStructure:
    """Piecewise-constant medium: value[j] on (x_j, x_{j+1}).

    breakpoints are strictly increasing with first 0 and last 1; adjacent
    intervals with equal values are merged on construction, and `layers`
    holds the same arrays.
    """

    breakpoints: np.ndarray
    values: np.ndarray
    bounds: AdmissibleBounds

    def __post_init__(self):
        xs = _reals(self.breakpoints, "breakpoints")
        vs = _reals(self.values, "values")
        if xs.ndim != 1 or vs.ndim != 1 or len(xs) != len(vs) + 1:
            raise InputError("need n+1 breakpoints for n interval values")
        if not (xs[0] == 0 and xs[-1] == 1):
            raise InputError("breakpoints must start at 0 and end at 1")
        if not (xs[1:] > xs[:-1]).all():
            raise InputError("breakpoints must be strictly increasing")
        layers = _merged_layers(xs, vs, _box(self.bounds))
        object.__setattr__(self, "breakpoints", layers.breakpoints)
        object.__setattr__(self, "values", layers.values)
        object.__setattr__(self, "layers", layers)

    def __eq__(self, other):
        if not isinstance(other, PiecewiseStructure):
            return NotImplemented
        return (self.bounds == other.bounds
                and np.array_equal(self.breakpoints, other.breakpoints)
                and np.array_equal(self.values, other.values))

    # -- basic queries ---------------------------------------------------

    @property
    def n_intervals(self) -> int:
        return len(self.values)

    def value_at(self, x: float) -> float:
        """Value on the interval containing x (right-open convention)."""
        return float(self.layers.values_at(x))

    def sup(self) -> float:
        return float(self.values.max())

    def inf(self) -> float:
        return float(self.values.min())

    def is_bang_bang(self) -> bool:
        vs = self.values
        return bool(np.all((np.abs(vs - self.bounds.b1) <= _BOUND_SLACK)
                           | (np.abs(vs - self.bounds.b2) <= _BOUND_SLACK)))

    def leading_zero_interval(self) -> float:
        """a1 = sup { x : B = 0 a.e. on [0, x] } (0 unless the first value is 0)."""
        if self.bounds.b1 > 0 or self.values[0] != 0.0:
            return 0.0
        return float(self.breakpoints[1])

    # -- serialization ----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "bounds": [self.bounds.b1, self.bounds.b2],
            "breakpoints": self.breakpoints.tolist(),
            "values": self.values.tolist(),
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "PiecewiseStructure":
        try:
            bounds = AdmissibleBounds(*map(float, d["bounds"]))
            return cls(d["breakpoints"], d["values"], bounds)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise InputError(f"bad structure record: {exc}") from exc

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json_dict(), fh, indent=2)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "PiecewiseStructure":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                d = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise InputError(f"cannot read structure file {path}: {exc}") from exc
        return cls.from_json_dict(d)


def constant(b: float, bounds: AdmissibleBounds | None = None) -> PiecewiseStructure:
    """The constant structure B = b."""
    if not _is_finite_real(b):
        raise InputError(f"b must be a finite real, not {b!r}")
    if bounds is None:
        bounds = AdmissibleBounds(min(b, 0.0) if b < 0 else 0.0, max(b, 1.0))
    return PiecewiseStructure((0.0, 1.0), (float(b),), bounds)


@dataclass(frozen=True, eq=False)
class GridStructure:
    """Medium sampled on N uniform cells: value[i] on (i/N, (i+1)/N).

    Values must be finite; the bounds are checked when `layers` is first
    read, so the optimizer may build out-of-box grids (`project_to_box`).
    """

    values: np.ndarray
    bounds: AdmissibleBounds

    def __post_init__(self):
        vs = _reals(self.values, "cell values")
        _box(self.bounds)
        if vs.ndim != 1 or len(vs) < 1:
            raise InputError("need at least one cell")
        if not np.isfinite(vs).all():
            raise InputError("cell values must be finite")
        object.__setattr__(self, "values", _read_only(vs))

    def __eq__(self, other):
        if not isinstance(other, GridStructure):
            return NotImplemented
        return (self.bounds == other.bounds
                and np.array_equal(self.values, other.values))

    @property
    def n_cells(self) -> int:
        return len(self.values)

    @cached_property
    def edges(self) -> np.ndarray:
        return _read_only(np.linspace(0.0, 1.0, self.n_cells + 1))

    @cached_property
    def layers(self) -> Layers:
        """The layers of to_piecewise(self), without building it."""
        return _merged_layers(self.edges, self.values, self.bounds)

    def with_values(self, vs) -> "GridStructure":
        return GridStructure(vs, self.bounds)


# -- conversions ---------------------------------------------------------


def to_piecewise(g: GridStructure) -> PiecewiseStructure:
    """Exact piecewise form of a grid structure (equal neighbours merged)."""
    return PiecewiseStructure(g.edges, g.values, g.bounds)


def to_grid(p: PiecewiseStructure, n_cells: int) -> GridStructure:
    """Cell averages of p on a uniform grid; exact when breakpoints align."""
    if not (_is_int(n_cells) and n_cells >= 1):
        raise InputError(f"n_cells must be an integer >= 1, got {n_cells!r}")
    edges = np.linspace(0.0, 1.0, n_cells + 1)
    xs, vs = p.breakpoints, p.values
    # length of overlap of each (breakpoint) interval with each cell
    out = np.zeros(n_cells)
    for x0, x1, v in zip(xs[:-1], xs[1:], vs):
        lo = np.clip(edges[:-1], x0, x1)
        hi = np.clip(edges[1:], x0, x1)
        out += v * np.maximum(hi - lo, 0.0)
    return GridStructure(out * n_cells, p.bounds)


# -- operations ----------------------------------------------------------


def project_to_box(g: GridStructure, bounds: AdmissibleBounds) -> GridStructure:
    """Clip every cell value into [b1, b2]; idempotent."""
    return GridStructure(g.values.clip(_box(bounds).b1, bounds.b2), bounds)


def round_to_extreme(g: GridStructure,
                     bounds: AdmissibleBounds) -> PiecewiseStructure:
    """Snap every cell to its nearer bound, ties to b1."""
    vs, b1, b2 = g.values, _box(bounds).b1, bounds.b2
    snapped = np.where(vs - b1 <= b2 - vs, b1, b2)
    return PiecewiseStructure(g.edges, snapped, bounds)


def switch_points(p: PiecewiseStructure) -> list:
    """Interior breakpoints where a bang-bang structure changes value.

    Returns ordered (x, direction) pairs with direction 'up' for b1->b2.
    Raises NotBangBang for values off the bounds.
    """
    if not p.is_bang_bang():
        raise NotBangBang(f"values {p.values.tolist()} not all in "
                          f"{{{p.bounds.b1}, {p.bounds.b2}}}")
    # merged neighbours differ, so every interior breakpoint is a switch
    up = (np.diff(p.values) > 0).tolist()
    return [(x, "up" if u else "down")
            for x, u in zip(p.breakpoints[1:-1].tolist(), up)]


def extremality_measure(g: GridStructure, bounds: AdmissibleBounds,
                        eps: float) -> float:
    """Measure of { x : b1 + eps < B(x) < b2 - eps } (cell-count fraction)."""
    if not _is_finite_real(eps):
        raise InputError(f"eps must be a finite real, not {eps!r}")
    vs = g.values
    interior = (vs > _box(bounds).b1 + eps) & (vs < bounds.b2 - eps)
    return float(np.add.reduce(interior, dtype=float) / len(vs))


def random_bang_bang(bounds: AdmissibleBounds, rng,
                     max_switches: int = 6) -> PiecewiseStructure:
    """Random bang-bang structure: helper for tests and sanity scans."""
    if not (_is_int(max_switches) and max_switches >= 1):
        raise InputError(
            f"max_switches must be an integer >= 1, got {max_switches!r}")
    _box(bounds)
    k = int(rng.integers(1, max_switches + 1))
    xs = np.sort(rng.uniform(0.05, 0.95, size=k))
    # guard against numerically coincident switch points
    xs = np.unique(np.round(xs, 12))
    vals = [bounds.b1, bounds.b2] if rng.integers(2) else [bounds.b2, bounds.b1]
    values = [vals[i % 2] for i in range(len(xs) + 1)]
    return PiecewiseStructure((0.0, *xs, 1.0), values, bounds)
