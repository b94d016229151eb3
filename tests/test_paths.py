"""Path-core contracts: first-attainment argmax, split statistics, bumps,
directions, and the vectorized running-max tables."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from maxbv.errors import GridMismatchError
from maxbv.paths import (
    Direction,
    DiscretePath,
    TimeGrid,
    bump,
    delta_stat,
    direction_catalog,
    direction_inner,
    running_max,
    running_max_tables,
    segment_split_stats,
    split_tables,
    top_two_gap,
    wiener_integral,
    wiener_integral_batch,
)


def path_of(values, horizon=1.0):
    values = np.asarray(values, dtype=float)
    return DiscretePath(TimeGrid(len(values) - 1, horizon), values)


class TestTimeGrid:
    def test_basic(self):
        grid = TimeGrid(4, 2.0)
        assert grid.step == 0.5
        np.testing.assert_allclose(grid.times, [0, 0.5, 1.0, 1.5, 2.0])
        assert grid.times[0] == 0.0 and grid.times[-1] == 2.0

    def test_endpoint_exact_for_awkward_horizon(self):
        grid = TimeGrid(7, 0.3)
        assert grid.times[-1] == 0.3
        assert np.all(np.diff(grid.times) > 0)

    @pytest.mark.parametrize("n,horizon", [(0, 1.0), (-1, 1.0), (3, 0.0), (3, -2.0)])
    def test_rejects(self, n, horizon):
        with pytest.raises(ValueError):
            TimeGrid(n, horizon)


class TestRunningMax:
    def test_simple(self):
        stat = running_max(path_of([0, 1, -1]), 0, 2)
        assert (stat.max_value, stat.argmax_index) == (1, 1)

    def test_constant_zero_first_attainment(self):
        p = path_of([0, 0, 0, 0])
        for a in range(4):
            for b in range(a, 4):
                stat = running_max(p, a, b)
                assert (stat.max_value, stat.argmax_index) == (0, a)

    def test_tie_broken_by_infimum(self):
        stat = running_max(path_of([0, 2, 2, 1]), 0, 3)
        assert (stat.max_value, stat.argmax_index) == (2, 1)

    def test_out_of_range(self):
        p = path_of([0, 1, 2])
        with pytest.raises(IndexError):
            running_max(p, 0, 3)
        with pytest.raises(IndexError):
            running_max(p, 2, 1)

    def test_exhaustive_small_paths_first_argmax(self):
        # all sign patterns of length <= 6 with values in {-1, 0, 1}
        for length in range(1, 6):
            for tail in itertools.product((-1.0, 0.0, 1.0), repeat=length):
                values = (0.0,) + tail
                p = path_of(values)
                for a in range(length + 1):
                    for b in range(a, length + 1):
                        stat = running_max(p, a, b)
                        seg = values[a : b + 1]
                        expected_max = max(seg)
                        expected_arg = a + seg.index(expected_max)
                        assert stat.max_value == expected_max
                        assert stat.argmax_index == expected_arg


class TestDeltaStat:
    def test_spec_values(self):
        d = delta_stat(path_of([0, 1, 0, 2]), 2)
        assert (d.delta, d.left_excess, d.right_excess) == (1, 1, 2)

    def test_degenerate_left(self):
        d = delta_stat(path_of([0, -1, 3, 1]), 0)
        assert d.left_excess == 0.0
        assert d.delta == 3.0

    def test_degenerate_right(self):
        p = path_of([0, 2, 1, -1])
        d = delta_stat(p, 3)
        assert d.right_excess == 0.0
        assert d.delta == p.values[3] - 2.0

    @given(
        st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=20),
        st.integers(0, 20),
    )
    @settings(max_examples=200, deadline=None)
    def test_decomposition_identity_exact(self, tail, t):
        values = [0.0] + tail
        t = min(t, len(values) - 1)
        d = delta_stat(path_of(values), t)
        assert d.delta == d.right_excess - d.left_excess
        assert d.left_excess >= 0 and d.right_excess >= 0


# dyadic floats with small mantissas: all sums/products below are exact
_dyadic = st.integers(-64, 64).map(lambda k: k / 64.0)


class TestBump:
    def test_zero_eps_is_identity(self):
        grid = TimeGrid(8, 1.0)
        p = DiscretePath(grid, np.concatenate(([0.0], np.random.default_rng(0).standard_normal(8))))
        h = Direction.constant(grid)
        assert np.array_equal(bump(p, h, 0.0).values, p.values)

    def test_unit_density_adds_times(self):
        grid = TimeGrid(4, 1.0)
        p = DiscretePath(grid, np.zeros(5))
        h = Direction.constant(grid)
        np.testing.assert_allclose(bump(p, h, 1.0).values, grid.times)

    def test_involution(self):
        grid = TimeGrid(16, 1.0)
        rng = np.random.default_rng(1)
        p = DiscretePath(grid, np.concatenate(([0.0], rng.standard_normal(16))))
        h = Direction(grid, rng.standard_normal(16))
        back = bump(bump(p, h, 0.37), h, -0.37)
        np.testing.assert_allclose(back.values, p.values, atol=1e-15)

    @given(
        st.lists(_dyadic, min_size=4, max_size=4),
        st.lists(_dyadic, min_size=4, max_size=4),
        _dyadic,
        _dyadic,
    )
    @settings(max_examples=200, deadline=None)
    def test_linearity_in_eps_exact_on_dyadics(self, tail, dens, a, b):
        # with exactly representable inputs no operation rounds, so the
        # additivity bump(p, h, a+b) == bump(bump(p, h, a), h, b) is exact
        grid = TimeGrid(4, 1.0)
        p = DiscretePath(grid, np.array([0.0] + tail))
        h = Direction(grid, np.array(dens))
        one_step = bump(p, h, a + b)
        two_step = bump(bump(p, h, a), h, b)
        assert np.array_equal(one_step.values, two_step.values)

    def test_grid_mismatch(self):
        p = path_of([0, 1])
        h = Direction.constant(TimeGrid(2, 1.0))
        with pytest.raises(GridMismatchError):
            bump(p, h, 0.1)


class TestDirection:
    def test_primitive_is_discrete_integral(self):
        grid = TimeGrid(4, 2.0)
        h = Direction(grid, np.array([1.0, 2.0, -1.0, 0.5]))
        np.testing.assert_allclose(h.primitive, [0, 0.5, 1.5, 1.0, 1.25])
        assert h.primitive[0] == 0.0

    def test_wiener_integral_left_endpoint(self):
        grid = TimeGrid(3, 1.0)
        p = DiscretePath(grid, np.array([0.0, 1.0, -1.0, 2.0]))
        h = Direction(grid, np.array([2.0, 0.0, 1.0]))
        assert wiener_integral(h, p) == 2.0 * 1.0 + 0.0 * (-2.0) + 1.0 * 3.0

    def test_inner_product(self):
        grid = TimeGrid(4, 2.0)
        h = Direction(grid, np.array([1.0, 1.0, 0.0, 0.0]))
        k = Direction(grid, np.array([1.0, -1.0, 1.0, 0.0]))
        assert direction_inner(h, k) == 0.0

    def test_catalog_shapes(self):
        grid = TimeGrid(10, 1.0)
        cat = direction_catalog(grid)
        assert [d.label for d in cat] == ["unit", "front-half", "tent"]
        tent = cat[2]
        assert tent.primitive[-1] == pytest.approx(0.0, abs=1e-15)


class TestPathValidation:
    def test_nonzero_start_rejected(self):
        with pytest.raises(ValueError):
            path_of([1.0, 0.0])

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            DiscretePath(TimeGrid(3, 1.0), np.zeros(3))

    def test_values_read_only(self):
        p = path_of([0, 1, 2])
        with pytest.raises(ValueError):
            p.values[0] = 5.0


class TestBatchTables:
    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=12))
    @settings(max_examples=300, deadline=None)
    def test_tables_match_scalar_oracle(self, tail):
        values = np.array([[0.0] + tail])
        p = path_of(values[0])
        n = len(tail)
        fwd_max, fwd_arg, bwd_max, bwd_arg = running_max_tables(values)
        for i in range(n + 1):
            left = running_max(p, 0, i)
            right = running_max(p, i, n)
            assert fwd_max[0, i] == left.max_value
            assert fwd_arg[0, i] == left.argmax_index
            assert bwd_max[0, i] == right.max_value
            assert bwd_arg[0, i] == right.argmax_index

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_split_tables_match_full_table_columns(self, data):
        # tie-heavy rows: values rounded to one decimal on a coarse range
        n = data.draw(st.integers(2, 14), label="n")
        rows = data.draw(st.integers(1, 4), label="rows")
        tails = data.draw(
            st.lists(
                st.lists(st.floats(-1, 1), min_size=n, max_size=n),
                min_size=rows, max_size=rows,
            ),
            label="tails",
        )
        values = np.round(np.array([[0.0] + tail for tail in tails]), 1)
        # any non-empty set of interior nodes (adjacent pairs occur), with the
        # end nodes 1 and n-1 forced in often
        interior = list(range(1, n))
        nodes = data.draw(st.sets(st.sampled_from(interior), min_size=1), label="nodes")
        ends = data.draw(st.sampled_from([(), (1,), (n - 1,), (1, n - 1)]), label="ends")
        nodes = sorted(nodes | set(ends))
        full = running_max_tables(values)
        for table, part in zip(full, split_tables(values, nodes)):
            assert part.shape == (rows, len(nodes))
            assert np.array_equal(part, table[:, nodes])

    @pytest.mark.parametrize("nodes", [[1], [1, 2], [3, 4, 5], [0, 7], [1, 6], [0, 1, 6, 7]])
    def test_split_tables_edge_nodes_with_ties(self, nodes):
        values = np.array([
            [0.0, 1.0, 1.0, 0.5, 1.0, 0.0, 1.0, 1.0],
            [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            [0.0, -1.0, 2.0, 2.0, -1.0, 2.0, 0.5, 2.0],
        ])
        full = running_max_tables(values)
        for table, part in zip(full, split_tables(values, nodes)):
            assert np.array_equal(part, table[:, nodes])

    def test_split_tables_on_production_chunk(self):
        rng = np.random.default_rng(1001)
        values = np.zeros((1024, 1001))
        np.cumsum(rng.standard_normal((1024, 1000)), axis=1, out=values[:, 1:])
        nodes = np.round((np.arange(24) + 0.5) * 1000 / 24).astype(int)
        full = running_max_tables(values)
        for table, part in zip(full, split_tables(values, nodes)):
            assert np.array_equal(part, table[:, nodes])
            assert part.flags.f_contiguous  # the layout of the columns it replaces

    @pytest.mark.parametrize("nodes", [[], [3, 3], [4, 2], [-1, 2], [2, 8]])
    def test_split_tables_rejects_bad_nodes(self, nodes):
        with pytest.raises((ValueError, IndexError)):
            split_tables(np.zeros((2, 8)), nodes)

    @given(st.lists(st.floats(-100, 100), min_size=2, max_size=12), st.integers(0, 12))
    @settings(max_examples=200, deadline=None)
    def test_split_stats_match_scalar_oracle(self, tail, t):
        values = np.array([[0.0] + tail])
        t = min(t, len(tail))
        p = path_of(values[0])
        max_l, arg_l, max_r, arg_r = segment_split_stats(values, t)
        left = running_max(p, 0, t)
        right = running_max(p, t, len(tail))
        assert (max_l[0], arg_l[0]) == (left.max_value, left.argmax_index)
        assert (max_r[0], arg_r[0]) == (right.max_value, right.argmax_index)

    def test_top_two_gap(self):
        gaps = top_two_gap(np.array([[0.0, 2.0, 2.0, 1.0], [0.0, 3.0, 1.0, 2.0]]))
        assert gaps[0] == 0.0
        assert gaps[1] == 1.0

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_top_two_gap_matches_partition_on_ties(self, data):
        # tie-heavy rows: values rounded to one decimal on a coarse range
        n = data.draw(st.integers(1, 12), label="n")
        rows = data.draw(st.integers(1, 4), label="rows")
        tails = data.draw(
            st.lists(
                st.lists(st.floats(-1, 1), min_size=n, max_size=n),
                min_size=rows, max_size=rows,
            ),
            label="tails",
        )
        values = np.round(np.array([[0.0] + tail for tail in tails]), 1)
        before = values.copy()
        top2 = np.partition(values, n - 1, axis=1)[:, -2:]
        assert np.array_equal(top_two_gap(values), top2[:, 1] - top2[:, 0])
        assert np.array_equal(values, before)  # the input is left untouched


class TestWienerIntegralBatch:
    def test_tuple_form_is_bitwise_the_single_calls(self):
        grid = TimeGrid(200, 1.0)
        rng = np.random.default_rng(7)
        values = np.zeros((64, 201))
        np.cumsum(rng.standard_normal((64, 200)), axis=1, out=values[:, 1:])
        unit = Direction.constant(grid)
        front = Direction.indicator(grid, 0.0, 0.5)
        directions = (front, unit, Direction.constant(grid), front)
        together = wiener_integral_batch(directions, values)
        assert len(together) == 4
        for d, integral in zip(directions, together):
            assert np.array_equal(integral, wiener_integral_batch(d, values))
        assert together[2] is together[1]  # equal densities share one product
