"""Path-core contracts: grids, directions and their Wiener integrals, and
the vectorized running-max tables with first-attainment argmax."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import maxbv
from maxbv.paths import (
    Direction,
    TimeGrid,
    direction_catalog,
    direction_inner,
    running_max_tables,
    segment_split_stats,
    split_tables,
    bottom_two_gap,
    top_two_gap,
    wiener_integral_batch,
)
from maxbv.sampling import SeedSpec, brownian_values_batch


def segment_max(values, a, b):
    """Oracle: max of values[a..b] and the first index attaining it."""
    seg = list(values[a : b + 1])
    return max(seg), a + seg.index(max(seg))


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


class TestDirection:
    def test_primitive_is_discrete_integral(self):
        grid = TimeGrid(4, 2.0)
        h = Direction(grid, np.array([1.0, 2.0, -1.0, 0.5]))
        np.testing.assert_allclose(h.primitive, [0, 0.5, 1.5, 1.0, 1.25])
        assert h.primitive[0] == 0.0

    def test_wiener_integral_left_endpoint(self):
        grid = TimeGrid(3, 1.0)
        values = np.array([[0.0, 1.0, -1.0, 2.0]])
        h = Direction(grid, np.array([2.0, 0.0, 1.0]))
        (integral,) = wiener_integral_batch((h,), values)
        assert integral.tolist() == [2.0 * 1.0 + 0.0 * (-2.0) + 1.0 * 3.0]

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


class TestBatchTables:
    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=12))
    @settings(max_examples=300, deadline=None)
    def test_tables_match_scalar_oracle(self, tail):
        values = np.array([[0.0] + tail])
        n = len(tail)
        fwd_max, fwd_arg, bwd_max, bwd_arg = running_max_tables(values)
        for i in range(n + 1):
            assert (fwd_max[0, i], fwd_arg[0, i]) == segment_max(values[0], 0, i)
            assert (bwd_max[0, i], bwd_arg[0, i]) == segment_max(values[0], i, n)

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
        # the one-node view, at each node (the cases cover 0..7 between them)
        for t in nodes:
            for table, part in zip(full, segment_split_stats(values, t)):
                assert np.array_equal(part, table[:, t])

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

    @pytest.mark.parametrize("t", [-2, -1, 8])
    def test_split_stats_rejects_a_node_off_the_grid(self, t):
        # a negative t would otherwise slice from the end of the row
        with pytest.raises(IndexError):
            segment_split_stats(np.zeros((2, 8)), t)

    @given(st.lists(st.floats(-100, 100), min_size=2, max_size=12), st.integers(0, 12))
    @settings(max_examples=200, deadline=None)
    def test_split_stats_match_scalar_oracle(self, tail, t):
        values = np.array([[0.0] + tail])
        t = min(t, len(tail))
        max_l, arg_l, max_r, arg_r = segment_split_stats(values, t)
        assert (max_l[0], arg_l[0]) == segment_max(values[0], 0, t)
        assert (max_r[0], arg_r[0]) == segment_max(values[0], t, len(tail))

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


class TestTopTwoGapInPlace:
    """top_two_gap writes -inf at each row's argmax and then puts the same
    float back, so the input comes back bit for bit and is never copied."""

    @pytest.mark.parametrize("values", [
        np.array([[0.0, 2.0, 2.0, 1.0], [0.0, 3.0, 3.0, 3.0], [0.0, -1.0, -1.0, -2.0]]),
        # a negated path, whose W_0 is -0.0
        -np.array([[0.0, 0.5, -0.25], [0.0, -1.5, -1.5]]),
        np.array([[-0.0, -0.0, -1.0], [-0.0, 0.0, -0.0]]),
        np.array([[0.0], [-0.0], [2.5]]),
    ], ids=["tie-rows", "negated-path", "signed-zero-ties", "one-column"])
    def test_input_restored_bitwise(self, values):
        before = values.tobytes()
        expected = np.sort(values, axis=1)
        expected = expected[:, -1] - (expected[:, -2] if values.shape[1] > 1 else -np.inf)
        assert np.array_equal(top_two_gap(values), expected)
        assert values.tobytes() == before

    def test_no_copy_of_the_input(self):
        values = np.random.default_rng(3).standard_normal((1024, 1001))
        top_two_gap(values)
        tracemalloc.start()
        try:
            top_two_gap(values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.1 * values.nbytes  # a copy would be 1.0


class TestBottomTwoGap:
    """bottom_two_gap is the top_two_gap of -values, bit for bit, read
    without negating values: +inf at each row's first argmin, then the same
    float put back."""

    @pytest.mark.parametrize("values", [
        np.array([[0.0, 2.0, 2.0, 1.0], [0.0, -3.0, -3.0, -3.0], [0.0, 1.0, 1.0, 2.0]]),
        np.array([[0.0, 0.5, -0.25, -0.0], [-0.0, 1.5, 0.0, 1.5]]),
        np.array([[-0.0, -0.0, 1.0], [0.0, -0.0, 0.0], [0.0, 0.0, -0.0]]),
        np.array([[0.0], [-0.0], [2.5]]),
        np.round(np.random.default_rng(4).standard_normal((64, 9)), 1),
        brownian_values_batch(SeedSpec(5).generator(), 256, TimeGrid(1000, 1.0)),
    ], ids=["tie-rows", "minus-zero-entry", "signed-zero-ties", "one-column",
            "rounded-normals", "brownian-chunk"])
    def test_equals_top_two_gap_of_negation(self, values):
        before = values.tobytes()
        expected = top_two_gap(-values)
        assert bottom_two_gap(values).tobytes() == expected.tobytes()
        assert values.tobytes() == before

    def test_matches_partition(self):
        values = np.round(np.random.default_rng(6).standard_normal((200, 6)), 1)
        low2 = np.partition(values, 1, axis=1)[:, :2]
        assert np.array_equal(bottom_two_gap(values), low2[:, 1] - low2[:, 0])


def chunk_integrals(rows=None):
    """The integrals of the front-half indicator and the constant direction
    on a 782x1001 Brownian chunk, as one byte string; ``rows`` forms them
    over row slices of that size and concatenates."""
    grid = TimeGrid(1000, 1.0)
    values = brownian_values_batch(SeedSpec(3, 782).generator(), 782, grid)
    directions = (Direction.indicator(grid, 0.0, 0.5), Direction.constant(grid))
    step = rows or len(values)
    parts = [wiener_integral_batch(directions, values[r : r + step])
             for r in range(0, len(values), step)]
    return b"".join(np.concatenate(column).tobytes() for column in zip(*parts))


def run_child(script, **environ):
    """The stdout of ``script`` run by a fresh interpreter that finds maxbv
    and this file; ``environ`` sets variables, and None removes one."""
    env = dict(os.environ)
    for key, value in environ.items():
        if value is None:
            env.pop(key, None)
        else:
            env[key] = value
    paths = [str(Path(maxbv.__file__).resolve().parents[1]), str(Path(__file__).parent)]
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [*paths, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestBlasThreads:
    SCRIPT = "import os, maxbv\nprint(os.environ['OPENBLAS_NUM_THREADS'], end='')\n"

    def test_import_defaults_to_one_thread(self):
        assert run_child(self.SCRIPT, OPENBLAS_NUM_THREADS=None) == b"1"

    def test_a_value_in_the_environment_wins(self):
        assert run_child(self.SCRIPT, OPENBLAS_NUM_THREADS="2") == b"2"


class TestWienerIntegralBatch:
    def test_bits_independent_of_blas_threads_and_row_split(self):
        # one gemv over the whole chunk differed from single-thread OpenBLAS
        # in the last ulp of a few rows at this size (n = 1000, 782 rows).
        # Each side is a child that sets its thread count: importing maxbv
        # before numpy makes one thread the default, so this process may
        # have only one.
        script = (
            "import sys\n"
            "from test_paths import chunk_integrals\n"
            "sys.stdout.buffer.write(chunk_integrals())\n"
        )
        threaded = run_child(script, OPENBLAS_NUM_THREADS="2")
        single = run_child(script, OPENBLAS_NUM_THREADS="1")
        assert threaded == single
        assert single == chunk_integrals()
        assert single == chunk_integrals(rows=64)

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
            assert np.array_equal(integral, np.diff(values, axis=-1) @ d.density)
        assert together[2] is together[1]  # equal densities share one product
