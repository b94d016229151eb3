"""Layer microbenchmark: the public kernels at the production chunk shape.

One chunk is 1024 paths x 1001 nodes of float64, 8.2 MB, as drawn by the
Brownian-path experiments (``DEFAULT_CHUNK`` paths on an n=1000 grid).
Each kernel runs ``REPEATS`` times on the same chunk and the median is
reported in ns per path node.  ``mc_collect`` runs a task that does no work,
which leaves the driver's own cost per chunk.

    PYTHONPATH=src python3 perfbench/micro.py SEED

prints one JSON object of ``micro.*`` metrics.
"""

import json
import statistics
import sys
import time

import numpy as np

from maxbv.cylindrical import catalog_entry
from maxbv.malliavin import second_adjoint_batch
from maxbv.paths import Direction, TimeGrid, running_max_tables, segment_split_stats, top_two_gap
from maxbv.sampling import DEFAULT_CHUNK, N_SUBSTREAMS, SeedSpec, brownian_values_batch, mc_collect

REPEATS = 9
GRID_N = 1000
DRIVER_CHUNKS_PER_STREAM = 16


def _median_seconds(fn) -> float:
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def run(seed: int) -> dict[str, float]:
    grid = TimeGrid(GRID_N, 1.0)
    rng = np.random.default_rng(seed)
    values = brownian_values_batch(rng, DEFAULT_CHUNK, grid)
    nodes = values.size
    g = catalog_entry(grid, "bump")
    h = Direction.constant(grid)
    k = Direction.indicator(grid, 0.0, 0.5, label="front-half")
    kernels = {
        "brownian_values_batch": lambda: brownian_values_batch(rng, DEFAULT_CHUNK, grid),
        "running_max_tables": lambda: running_max_tables(values),
        "top_two_gap": lambda: top_two_gap(values),
        "segment_split_stats": lambda: segment_split_stats(values, GRID_N // 2),
        "second_adjoint_batch": lambda: second_adjoint_batch(g, k, h, values),
    }
    out = {
        f"micro.{name}_ns_per_node": 1e9 * _median_seconds(fn) / nodes
        for name, fn in kernels.items()
    }
    chunks = N_SUBSTREAMS * DRIVER_CHUNKS_PER_STREAM
    samples = chunks * DEFAULT_CHUNK

    def driver():
        mc_collect(lambda r, c: c, samples, SeedSpec(seed), combine=lambda a, b: a + b)

    out["micro.mc_collect_chunk_us"] = 1e6 * _median_seconds(driver) / chunks
    return out


if __name__ == "__main__":
    print(json.dumps(run(int(sys.argv[1]))))
