import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qnmopt.errors import InputError, NotBangBang, QnmOptError
from qnmopt.medium import (AdmissibleBounds, GridStructure, PiecewiseStructure,
                           constant, extremality_measure, project_to_box,
                           random_bang_bang, round_to_extreme, switch_points,
                           to_grid, to_piecewise)


def grid(vals, bounds):
    return GridStructure(tuple(vals), bounds)


class TestBounds:
    def test_validation(self):
        AdmissibleBounds(0.0, 1.0)
        AdmissibleBounds(1.0, 4.0)
        with pytest.raises(InputError):
            AdmissibleBounds(-0.1, 1.0)
        with pytest.raises(InputError):
            AdmissibleBounds(2.0, 1.0)
        with pytest.raises(InputError):
            AdmissibleBounds(0.0, 0.0)

    @pytest.mark.parametrize("b1, b2", [(0.0, math.inf), (1.0, math.inf),
                                        (math.nan, 4.0), (1.0, math.nan),
                                        (math.inf, math.inf)])
    def test_non_finite_rejected(self, b1, b2):
        with pytest.raises(InputError):
            AdmissibleBounds(b1, b2)

    def test_contains(self):
        b = AdmissibleBounds(1, 4)
        assert b.contains([]) and b.contains(2.5) and b.contains([[1, 4]])
        assert b.contains([1 - 1e-13, 4 + 1e-13])
        assert not b.contains([2.0, 4 + 1e-11])
        assert not b.contains([0.5, 2.0])
        assert not b.contains([2.0, math.nan]) and not b.contains(math.nan)


class TestPiecewise:
    def test_canonical_merge(self):
        b = AdmissibleBounds(1, 4)
        p = PiecewiseStructure((0, 0.3, 0.7, 1.0), (4.0, 4.0, 1.0), b)
        assert p.breakpoints.tolist() == [0.0, 0.7, 1.0]
        assert p.values.tolist() == [4.0, 1.0]

    def test_invalid_breakpoints(self):
        b = AdmissibleBounds(1, 4)
        with pytest.raises(InputError):
            PiecewiseStructure((0, 0.5, 0.5, 1), (1, 2, 3), b)
        with pytest.raises(InputError):
            PiecewiseStructure((0.1, 1.0), (2.0,), b)
        with pytest.raises(InputError):
            PiecewiseStructure((0, 1.0), (5.0,), b)  # out of bounds

    @pytest.mark.parametrize("xs", [(math.nan, 0.5, 1.0), (0.0, math.nan, 1.0),
                                    (0.0, 0.5, math.nan),
                                    (0.0, math.inf, 1.0)])
    def test_non_finite_breakpoints(self, xs):
        d = {"bounds": [1, 4], "breakpoints": list(xs), "values": [1, 4]}
        with pytest.raises(InputError):
            PiecewiseStructure.from_json_dict(d)

    def test_value_at(self):
        b = AdmissibleBounds(1, 4)
        p = PiecewiseStructure((0, 0.5, 1.0), (1.0, 4.0), b)
        assert p.layers.values_at(0.25) == 1.0
        assert p.layers.values_at(0.75) == 4.0

    def test_values_at_matches_clipped_lookup(self):
        """The interior-breakpoint search equals the clipped search over all
        breakpoints, ends and points outside [0, 1] included."""
        rng = np.random.default_rng(3)
        b = AdmissibleBounds(1, 4)
        for _ in range(200):
            n = int(rng.integers(1, 10))
            p = PiecewiseStructure(
                np.concatenate(([0.0], np.sort(rng.uniform(0, 1, n - 1)),
                                [1.0])), np.arange(n) % 2 * 3.0 + 1.0, b)
            bps, _, vs = p.layers
            xs = np.concatenate((bps, rng.uniform(-0.5, 1.5, 20),
                                 [-0.0, -math.inf, math.inf, math.nan]))
            j = np.clip(np.searchsorted(bps, xs, side="right") - 1, 0,
                        len(vs) - 1)
            assert np.array_equal(p.layers.values_at(xs), vs[j])

    def test_json_roundtrip(self, tmp_path):
        b = AdmissibleBounds(1, 4)
        p = PiecewiseStructure((0, 0.3, 1.0), (1.0, 4.0), b)
        f = tmp_path / "s.json"
        p.save(f)
        q = PiecewiseStructure.load(f)
        assert q == p
        raw = json.loads(f.read_text())
        assert set(raw) == {"bounds", "breakpoints", "values"}

    def test_leading_zero_interval(self):
        b0 = AdmissibleBounds(0, 4)
        p = PiecewiseStructure((0, 0.3, 1.0), (0.0, 4.0), b0)
        assert p.leading_zero_interval() == 0.3
        q = PiecewiseStructure((0, 0.3, 1.0), (4.0, 0.0), b0)
        assert q.leading_zero_interval() == 0.0
        r = constant(4.0, AdmissibleBounds(1, 4))
        assert r.leading_zero_interval() == 0.0


class TestArrayStorage:
    """Media store read-only arrays, copied once on construction."""

    def test_read_only(self):
        b = AdmissibleBounds(1, 4)
        p = PiecewiseStructure((0, 0.5, 1.0), (1.0, 4.0), b)
        g = grid([1.0, 4.0], b)
        for a in (p.breakpoints, p.values, g.values, *p.layers, *g.layers):
            with pytest.raises(ValueError):
                a[0] = 2.0

    def test_grid_edges_made_once(self):
        g = grid([1.0, 4.0, 2.0, 3.0], AdmissibleBounds(1, 4))
        assert g.edges is g.edges
        assert g.edges.tolist() == np.linspace(0.0, 1.0, 5).tolist()
        with pytest.raises(ValueError):
            g.edges[1] = 0.5

    def test_source_mutation_ignored(self):
        b = AdmissibleBounds(1, 4)
        xs, vs = np.array([0.0, 0.5, 1.0]), np.array([1.0, 4.0])
        p = PiecewiseStructure(xs, vs, b)
        g = GridStructure(vs, b)
        layers = (p.layers, g.layers)  # cached before the sources change
        xs[1] = 0.25
        vs[:] = 2.0
        assert p.breakpoints.tolist() == [0.0, 0.5, 1.0]
        assert p.values.tolist() == g.values.tolist() == [1.0, 4.0]
        for la in layers + (p.layers, g.layers):
            assert la.breakpoints.tolist() == [0.0, 0.5, 1.0]
            assert la.values.tolist() == [1.0, 4.0]


    def test_value_equality(self):
        b = AdmissibleBounds(1, 4)
        g = grid([1.0, 4.0], b)
        assert g == GridStructure(np.array([1.0, 4.0]), b)
        assert g != grid([1.0, 4.0, 4.0], b)
        assert g != grid([1.0, 4.0], AdmissibleBounds(1, 5))
        p = PiecewiseStructure((0, 0.5, 1), (1, 4), b)
        assert to_piecewise(g) == p
        assert p != PiecewiseStructure((0, 0.25, 1), (1, 4), b)
        assert g != p


class TestProject:
    def test_clipping(self):
        b = AdmissibleBounds(1, 4)
        g = grid([0.5, 5.0], b)
        assert project_to_box(g, b).values.tolist() == [1.0, 4.0]

    def test_interior_unchanged(self):
        b = AdmissibleBounds(1, 4)
        assert project_to_box(grid([2.0, 3.0], b), b).values.tolist() == [2.0, 3.0]

    def test_boundary_fixed_point(self):
        b = AdmissibleBounds(1, 4)
        assert project_to_box(grid([1.0, 4.0], b), b).values.tolist() == [1.0, 4.0]

    @given(st.lists(st.floats(-10, 10), min_size=1, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_idempotent(self, vals):
        b = AdmissibleBounds(1, 4)
        once = project_to_box(grid(vals, b), b)
        twice = project_to_box(once, b)
        assert np.array_equal(once.values, twice.values)


class TestRoundToExtreme:
    def test_near_extreme(self):
        b = AdmissibleBounds(1, 4)
        res = round_to_extreme(grid([1.01, 3.99], b), b)
        assert res.breakpoints.tolist() == [0.0, 0.5, 1.0]
        assert res.values.tolist() == [1.0, 4.0]

    def test_merge_to_constant(self):
        b = AdmissibleBounds(1, 4)
        res = round_to_extreme(grid([4.0] * 4, b), b)
        assert res.values.tolist() == [4.0]
        assert res.breakpoints.tolist() == [0.0, 1.0]

    def test_midband_tie_goes_low(self):
        b = AdmissibleBounds(1, 4)
        res = round_to_extreme(grid([2.5], b), b)
        assert res.values.tolist() == [1.0]

    @given(st.lists(st.floats(1, 4), min_size=1, max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_output_is_bang_bang(self, vals):
        b = AdmissibleBounds(1, 4)
        res = round_to_extreme(grid(vals, b), b)
        switch_points(res)  # must not raise
        g = to_grid(res, len(vals))
        assert extremality_measure(g, b, eps=0.1) == 0.0


class TestSwitchPoints:
    def test_two_switches(self):
        b = AdmissibleBounds(1, 4)
        p = PiecewiseStructure((0, 0.3, 0.7, 1.0), (1.0, 4.0, 1.0), b)
        assert switch_points(p) == [(0.3, "up"), (0.7, "down")]

    def test_constant_none(self):
        b = AdmissibleBounds(1, 4)
        assert switch_points(constant(4.0, b)) == []

    def test_down_only(self):
        b = AdmissibleBounds(1, 4)
        p = PiecewiseStructure((0, 0.5, 1.0), (4.0, 1.0), b)
        assert switch_points(p) == [(0.5, "down")]

    def test_not_bang_bang(self):
        b = AdmissibleBounds(1, 4)
        p = PiecewiseStructure((0, 0.5, 1.0), (2.0, 4.0), b)
        with pytest.raises(NotBangBang):
            switch_points(p)


class TestExtremality:
    def test_bang_bang_zero(self):
        b = AdmissibleBounds(1, 4)
        assert extremality_measure(grid([1, 4, 4, 1], b), b, 0.1) == 0.0

    def test_midpoint_one(self):
        b = AdmissibleBounds(1, 4)
        assert extremality_measure(grid([2.5] * 8, b), b, 0.1) == 1.0

    def test_half(self):
        b = AdmissibleBounds(1, 4)
        g = grid([2.5] * 4 + [4.0] * 4, b)
        assert extremality_measure(g, b, 0.1) == 0.5


class TestConversions:
    @given(st.integers(1, 6), st.integers(0, 2 ** 12 - 1))
    @settings(max_examples=60, deadline=None)
    def test_grid_piecewise_roundtrip(self, log2n, pattern):
        n = 2 ** log2n
        b = AdmissibleBounds(1, 4)
        vals = [4.0 if (pattern >> (i % 12)) & 1 else 1.0 for i in range(n)]
        g = grid(vals, b)
        assert np.array_equal(to_grid(to_piecewise(g), n).values, g.values)
        # the grid's own layers are those of its piecewise form
        for mine, theirs in zip(g.layers, to_piecewise(g).layers):
            assert np.array_equal(mine, theirs)

    @pytest.mark.parametrize("n_cells", [0, -3, 1.5, 8.0, True, None, "8"])
    def test_bad_cell_count_is_input_error(self, n_cells):
        # 1.5 raised TypeError from np.linspace, 0 a bare ValueError
        with pytest.raises(InputError):
            to_grid(constant(4.0, AdmissibleBounds(1, 4)), n_cells)

    def test_numpy_cell_count(self):
        g = to_grid(constant(4.0, AdmissibleBounds(1, 4)), np.int64(4))
        assert g.values.tolist() == [4.0] * 4

    def test_grid_layers_check_bounds(self):
        g = GridStructure((1.0, 5.0), AdmissibleBounds(1, 4))
        with pytest.raises(InputError):
            g.layers

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_grid_refused_on_construction(self, bad):
        # a nan cell was accepted until `layers` was first read
        with pytest.raises(InputError, match="finite"):
            GridStructure((2.0, bad), AdmissibleBounds(1, 4))

    def test_aligned_refinement(self):
        b = AdmissibleBounds(1, 4)
        p = PiecewiseStructure((0, 0.25, 1.0), (1.0, 4.0), b)
        g = to_grid(p, 8)
        assert g.values.tolist() == [1.0, 1.0, 4.0, 4.0, 4.0, 4.0, 4.0, 4.0]

    def test_unaligned_average(self):
        b = AdmissibleBounds(1, 4)
        p = PiecewiseStructure((0, 0.5, 1.0), (1.0, 4.0), b)
        g = to_grid(p, 3)
        assert g.values[0] == 1.0
        assert g.values[2] == 4.0
        assert math.isclose(g.values[1], (1.0 * 0.5 + 4.0 * 0.5) / 1.0 * 1.0,
                            rel_tol=0, abs_tol=1e-12) or True
        # middle cell spans [1/3, 2/3]: half at 1, half at 4
        assert math.isclose(g.values[1], 2.5, abs_tol=1e-12)


class TestRandomBangBang:
    @pytest.mark.parametrize("max_switches", [0, -1, 2.5, True, None])
    def test_bad_switch_count_is_input_error(self, max_switches):
        # 0 raised a bare ValueError from rng.integers
        with pytest.raises(InputError):
            random_bang_bang(AdmissibleBounds(1, 4), np.random.default_rng(0),
                             max_switches=max_switches)


_REALS = [0.0, 0.25, 0.5, 1.0, 2.5, 4.0, -1.0, 1e-300, 1e300]
_NOT_REALS = [math.nan, math.inf, -math.inf, 10 ** 400, "x", None, True,
              1 + 2j, [1.0], object()]
_ELEMENTS = st.sampled_from(_REALS) | st.sampled_from(_NOT_REALS)
# arrays of any length, and things that are no 1-D array of numbers at all
_ARRAYS = st.lists(_ELEMENTS, max_size=6) | st.sampled_from(
    [5.0, [[0.0, 1.0]], [[0.0], [0.5, 1.0]], "abc", None, {"a": 1.0}, []])
_BOUNDS = st.sampled_from([AdmissibleBounds(1.0, 4.0),
                           AdmissibleBounds(0.0, 4.0),
                           AdmissibleBounds(0.0, 1e300),
                           (1.0, 4.0), None, "box"]) \
    | st.tuples(_ELEMENTS, _ELEMENTS)   # built inside the property
_BOX = AdmissibleBounds(1.0, 4.0)
_GRID = GridStructure((1.0, 2.5, 4.0), _BOX)
_PIECES = PiecewiseStructure((0.0, 0.5, 1.0), (1.0, 4.0), _BOX)


class TestErrorContract:
    """Every public entry point of medium ends in a result or a QnmOptError
    for non-numbers, non-finite values, wrong shapes and bad bounds among
    its arguments; no other exception and no RuntimeWarning escapes."""

    @staticmethod
    def _breakpoints(draw):
        """Breakpoints from 0 to 1 for up to 5 values, or a bad array."""
        inner = draw(st.lists(st.sampled_from([0.1, 0.25, 0.5, 0.75, 0.9]),
                              max_size=4, unique=True))
        return draw(st.sampled_from([(0.0, *sorted(inner), 1.0)])
                    | _ARRAYS)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_only_qnmopt_errors_escape(self, data):
        draw = data.draw
        bounds = draw(_BOUNDS)
        xs, vs = self._breakpoints(draw), draw(_ARRAYS)
        b, eps = draw(_ELEMENTS), draw(_ELEMENTS)
        n_cells = draw(st.sampled_from([1, 8, 64, 0, -3, 2.5, "4", None,
                                        True]))
        switches = draw(st.sampled_from([1, 6, 0, 2.5, "3", None, True]))
        record = draw(st.fixed_dictionaries(
            {"bounds": _ARRAYS, "breakpoints": _ARRAYS, "values": _ARRAYS})
            | st.sampled_from([None, [], "record", {"bounds": [1.0, 4.0]},
                               {"bounds": [0, 10 ** 400], "breakpoints": [0, 1],
                                "values": [10 ** 400]}]))

        def attempt(call, fallback=None):
            try:
                return call()
            except QnmOptError:
                return fallback

        if isinstance(bounds, tuple):
            bounds = attempt(lambda: AdmissibleBounds(*bounds), bounds)
        p = attempt(lambda: PiecewiseStructure(xs, vs, bounds), _PIECES)
        g = attempt(lambda: GridStructure(vs, bounds), _GRID)
        for call in [lambda: constant(b), lambda: constant(b, bounds),
                     lambda: to_grid(p, n_cells), lambda: to_piecewise(g),
                     lambda: project_to_box(g, bounds),
                     lambda: round_to_extreme(g, bounds),
                     lambda: random_bang_bang(bounds, np.random.default_rng(0),
                                              switches),
                     lambda: extremality_measure(g, bounds, eps),
                     lambda: switch_points(p),
                     lambda: PiecewiseStructure.from_json_dict(record)]:
            attempt(call)

    @pytest.mark.parametrize("call", [
        lambda: AdmissibleBounds("x", 4.0),
        lambda: AdmissibleBounds(0.0, 10 ** 400),
        lambda: PiecewiseStructure((0.0, 1.0), (10 ** 400,), _BOX),
        lambda: PiecewiseStructure((0.0, "x", 1.0), (1.0, 4.0), _BOX),
        lambda: PiecewiseStructure((0.0, 1.0), (1 + 2j,), _BOX),
        lambda: PiecewiseStructure((0.0, 1.0), (1.0,), (1.0, 4.0)),
        lambda: PiecewiseStructure((0.0, math.inf, math.inf, 1.0),
                                   (1.0, 4.0, 1.0), _BOX),
        lambda: GridStructure([[1.0], [1.0, 2.0]], _BOX),
        lambda: GridStructure((1.0,), None),
        lambda: constant("x"), lambda: constant(None),
        lambda: project_to_box(_GRID, (1.0, 4.0)),
        lambda: round_to_extreme(_GRID, None),
        lambda: extremality_measure(_GRID, _BOX, "x"),
        lambda: extremality_measure(_GRID, _BOX, math.nan),
        lambda: random_bang_bang((1.0, 4.0), np.random.default_rng(0)),
        lambda: PiecewiseStructure.from_json_dict(
            {"bounds": [0, 10 ** 400], "breakpoints": [0, 1],
             "values": [1]}),
        lambda: switch_points(_GRID), lambda: to_grid(_GRID, 4)])
    def test_found_escapes(self, call):
        # each raised TypeError, ValueError, OverflowError, AttributeError
        # or a RuntimeWarning, or (nan eps) returned 0.0
        with pytest.raises(InputError):
            call()
