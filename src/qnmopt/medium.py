"""Admissible media for the 1-D cavity problem.

A medium is a coefficient B on [0,1] constrained to b1 <= B <= b2.  Two
representations are used: PiecewiseStructure (breakpoints + per-interval
values; canonical form merges equal neighbours) and GridStructure (uniform
cells, the optimizer's design variable).  Values at the breakpoints
themselves carry no information (measure zero), so canonicalization is
lossless for every operation in the package.  Both expose the same merged
`layers` arrays, built once per object, which is all the field solvers read.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import InputError, NotBangBang

_MERGE_TOL = 0.0  # exact equality; callers quantize before merging if needed
_BANG_TOL = 1e-12  # distance from a bound that still counts as on it


@dataclass(frozen=True)
class AdmissibleBounds:
    """Box constraints 0 <= b1 <= B(x) <= b2, b2 > 0."""

    b1: float
    b2: float

    def __post_init__(self):
        if not (0.0 <= self.b1 <= self.b2) or not self.b2 > 0.0:
            raise InputError(f"invalid bounds ({self.b1}, {self.b2})")

    @property
    def width(self) -> float:
        return self.b2 - self.b1

    def contains(self, v, tol: float = 1e-12) -> bool:
        v = np.asarray(v, dtype=float)
        return bool(np.all(v >= self.b1 - tol) and np.all(v <= self.b2 + tol))


class Layers(NamedTuple):
    """Merged layers of a medium: equal neighbours form one layer."""

    breakpoints: np.ndarray  # n + 1 positions, 0 first and 1 last
    lengths: np.ndarray      # n layer lengths
    values: np.ndarray       # n layer values

    def values_at(self, xs):
        """Values of the layers holding xs (right-open; end layers outside)."""
        j = np.searchsorted(self.breakpoints, xs, side="right") - 1
        return self.values[np.clip(j, 0, len(self.values) - 1)]


@dataclass(frozen=True)
class PiecewiseStructure:
    """Piecewise-constant medium: value[j] on (x_j, x_{j+1}).

    breakpoints are strictly increasing with first 0 and last 1; adjacent
    intervals with equal values are merged on construction.
    """

    breakpoints: tuple
    values: tuple
    bounds: AdmissibleBounds

    def __post_init__(self):
        xs = np.asarray(self.breakpoints, dtype=float)
        vs = np.asarray(self.values, dtype=float)
        if xs.ndim != 1 or vs.ndim != 1 or len(xs) != len(vs) + 1:
            raise InputError("need n+1 breakpoints for n interval values")
        if abs(xs[0]) > 0 or abs(xs[-1] - 1.0) > 0:
            raise InputError("breakpoints must start at 0 and end at 1")
        if np.any(np.diff(xs) <= 0):
            raise InputError("breakpoints must be strictly increasing")
        if not self.bounds.contains(vs):
            raise InputError("values outside admissible bounds")
        # canonical form: merge equal neighbours
        keep = np.concatenate(([True], np.abs(np.diff(vs)) > _MERGE_TOL))
        if not keep.all():
            vs = vs[keep]
            xs = np.concatenate((xs[:-1][keep], [1.0]))
        object.__setattr__(self, "breakpoints", tuple(float(x) for x in xs))
        object.__setattr__(self, "values", tuple(float(v) for v in vs))

    # -- basic queries ---------------------------------------------------

    @cached_property
    def layers(self) -> Layers:
        xs = np.asarray(self.breakpoints)
        return Layers(xs, np.diff(xs), np.asarray(self.values))

    @property
    def n_intervals(self) -> int:
        return len(self.values)

    def value_at(self, x: float) -> float:
        """Value on the interval containing x (right-open convention)."""
        return float(self.layers.values_at(x))

    def sup(self) -> float:
        return float(max(self.values))

    def inf(self) -> float:
        return float(min(self.values))

    def is_bang_bang(self) -> bool:
        b1, b2 = self.bounds.b1, self.bounds.b2
        return all(abs(v - b1) <= _BANG_TOL or abs(v - b2) <= _BANG_TOL
                   for v in self.values)

    def leading_zero_interval(self) -> float:
        """a1 = sup { x : B = 0 a.e. on [0, x] } (0 unless the first value is 0)."""
        if self.bounds.b1 > 0 or self.values[0] != 0.0:
            return 0.0
        return self.breakpoints[1]

    # -- serialization ----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "bounds": [self.bounds.b1, self.bounds.b2],
            "breakpoints": list(self.breakpoints),
            "values": list(self.values),
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "PiecewiseStructure":
        try:
            bounds = AdmissibleBounds(*map(float, d["bounds"]))
            return cls(tuple(d["breakpoints"]), tuple(d["values"]), bounds)
        except (KeyError, TypeError, ValueError) as exc:
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
    if bounds is None:
        bounds = AdmissibleBounds(min(b, 0.0) if b < 0 else 0.0, max(b, 1.0))
    return PiecewiseStructure((0.0, 1.0), (float(b),), bounds)


@dataclass(frozen=True)
class GridStructure:
    """Medium sampled on N uniform cells: value[i] on (i/N, (i+1)/N)."""

    values: tuple
    bounds: AdmissibleBounds

    def __post_init__(self):
        vs = np.asarray(self.values, dtype=float)
        if vs.ndim != 1 or len(vs) < 1:
            raise InputError("need at least one cell")
        object.__setattr__(self, "values", tuple(float(v) for v in vs))

    @property
    def n_cells(self) -> int:
        return len(self.values)

    @property
    def edges(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.n_cells + 1)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=float)

    @cached_property
    def layers(self) -> Layers:
        """The layers of to_piecewise(self), without building it."""
        vs = self.as_array()
        if not self.bounds.contains(vs):
            raise InputError("values outside admissible bounds")
        keep = np.concatenate(([True], vs[1:] != vs[:-1]))
        xs = np.append(self.edges[:-1][keep], 1.0)
        return Layers(xs, np.diff(xs), vs[keep])

    def with_values(self, vs) -> "GridStructure":
        return GridStructure(tuple(float(v) for v in vs), self.bounds)


# -- conversions ---------------------------------------------------------


def to_piecewise(g: GridStructure) -> PiecewiseStructure:
    """Exact piecewise form of a grid structure (equal neighbours merged)."""
    return PiecewiseStructure(tuple(g.edges), g.values, g.bounds)


def to_grid(p: PiecewiseStructure, n_cells: int) -> GridStructure:
    """Cell averages of p on a uniform grid; exact when breakpoints align."""
    edges = np.linspace(0.0, 1.0, n_cells + 1)
    xs = np.asarray(p.breakpoints)
    vs = np.asarray(p.values)
    # length of overlap of each (breakpoint) interval with each cell
    out = np.zeros(n_cells)
    for x0, x1, v in zip(xs[:-1], xs[1:], vs):
        lo = np.clip(edges[:-1], x0, x1)
        hi = np.clip(edges[1:], x0, x1)
        out += v * np.maximum(hi - lo, 0.0)
    return GridStructure(tuple(out * n_cells), p.bounds)


# -- operations ----------------------------------------------------------


def project_to_box(g: GridStructure, bounds: AdmissibleBounds) -> GridStructure:
    """Clip every cell value into [b1, b2]; idempotent."""
    vs = np.clip(g.as_array(), bounds.b1, bounds.b2)
    return GridStructure(tuple(vs), bounds)


class RoundingReport(NamedTuple):
    forced: tuple          # per-cell flag: cell sat in the middle band
    forced_fraction: float  # Lebesgue measure of forced cells


class RoundingResult(NamedTuple):
    structure: PiecewiseStructure
    report: RoundingReport


def round_to_extreme(g: GridStructure, bounds: AdmissibleBounds,
                     threshold: float = 0.1) -> RoundingResult:
    """Snap every cell to b1 or b2.

    Cells within threshold*(b2-b1) of a bound go to that bound; cells in the
    middle band go to the nearer bound (ties to b1) and are flagged forced.
    """
    if not (0.0 < threshold < 0.5):
        raise InputError("threshold must lie in (0, 0.5)")
    vs = g.as_array()
    b1, b2, w = bounds.b1, bounds.b2, bounds.width
    lo_edge = b1 + threshold * w
    hi_edge = b2 - threshold * w
    snapped = np.where(vs < lo_edge, b1, np.where(vs > hi_edge, b2, np.nan))
    band = np.isnan(snapped)
    # middle band: nearer bound, tie -> b1
    nearer = np.where(vs - b1 <= b2 - vs, b1, b2)
    snapped = np.where(band, nearer, snapped)
    report = RoundingReport(tuple(bool(b) for b in band),
                            float(np.mean(band)))
    pc = PiecewiseStructure(tuple(g.edges), tuple(snapped), bounds)
    return RoundingResult(pc, report)


def switch_points(p: PiecewiseStructure) -> list:
    """Interior breakpoints where a bang-bang structure changes value.

    Returns ordered (x, direction) pairs with direction 'up' for b1->b2.
    Raises NotBangBang for values off the bounds.
    """
    if not p.is_bang_bang():
        raise NotBangBang(f"values {p.values} not all in "
                          f"{{{p.bounds.b1}, {p.bounds.b2}}}")
    out = []
    for x, va, vb in zip(p.breakpoints[1:-1], p.values[:-1], p.values[1:]):
        if vb > va:
            out.append((x, "up"))
        elif vb < va:
            out.append((x, "down"))
    return out


def extremality_measure(g: GridStructure, bounds: AdmissibleBounds,
                        eps: float) -> float:
    """Measure of { x : b1 + eps < B(x) < b2 - eps } (cell-count fraction)."""
    vs = g.as_array()
    interior = (vs > bounds.b1 + eps) & (vs < bounds.b2 - eps)
    return float(np.mean(interior))


def random_bang_bang(bounds: AdmissibleBounds, rng,
                     max_switches: int = 6) -> PiecewiseStructure:
    """Random bang-bang structure: helper for tests and sanity scans."""
    k = int(rng.integers(1, max_switches + 1))
    xs = np.sort(rng.uniform(0.05, 0.95, size=k))
    # guard against numerically coincident switch points
    xs = np.unique(np.round(xs, 12))
    vals = [bounds.b1, bounds.b2] if rng.integers(2) else [bounds.b2, bounds.b1]
    values = [vals[i % 2] for i in range(len(xs) + 1)]
    return PiecewiseStructure((0.0, *xs, 1.0), tuple(values), bounds)
