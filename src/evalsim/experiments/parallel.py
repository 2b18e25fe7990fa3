"""Chunked map-reduce over Monte Carlo runs with a fixed stream layout.

Runs at each grid point are cut into fixed-size chunks.  Each chunk draws
from a stream derived only from (master seed, experiment tag, point index,
chunk index).  A worker returns named per-run arrays, for example
``{"hol": err_h, "seg": err_s}``; the runner reduces each array to its sum,
sum of squares and run count in the process that ran the chunk, so only a
few floats cross the pool, and adds the chunks in chunk order.  Because
neither the derivation nor the reduction order depends on scheduling, a
sweep yields bitwise-identical results whether it runs sequentially or on a
process pool of any size.

Chunk size is part of the stream layout: changing it regroups the draws and
therefore changes individual estimates (never their distribution).  Keep it
fixed when exact reproducibility across runs matters.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor

from ..rng import derive_stream

DEFAULT_CHUNK_SIZE = 4096


def chunk_sizes(runs: int, chunk_size: int) -> list:
    """Split ``runs`` into full chunks plus one remainder chunk."""
    if runs < 1:
        raise ValueError("runs must be positive")
    if chunk_size < 1:
        raise ValueError("chunk_size must be positive")
    full, rest = divmod(runs, chunk_size)
    return [chunk_size] * full + ([rest] if rest else [])


def _run_one(task):
    """Run one chunk and reduce each per-run array to ``(sum, sumsq, runs)``."""
    worker, params, seed, prefix, point_index, chunk_index, size = task
    rng = derive_stream(seed, *prefix, point_index, chunk_index)
    arrays = worker(params, rng, size)
    return point_index, {
        name: (float(x.sum()), float((x * x).sum()), size) for name, x in arrays.items()
    }


def run_points(
    worker,
    points,
    runs: int,
    seed: int,
    stream_tag,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    workers: int = 1,
) -> list:
    """Evaluate ``worker`` over all points and reduce its per-run arrays.

    ``worker(params, rng, size)`` must return a dict of 1-d arrays, each
    holding one value per run, and must be picklable (a module-level
    function) when ``workers > 1``.  ``stream_tag`` is an int or tuple of ints
    prefixed to every stream path.  Returns one dict per point, in point
    order, mapping each array name to ``(sum, sumsq, runs)`` over all chunks,
    ready for ``mean_and_se(*moments)``.
    """
    if workers < 1:
        raise ValueError("workers must be positive")
    prefix = stream_tag if isinstance(stream_tag, tuple) else (stream_tag,)
    sizes = chunk_sizes(runs, chunk_size)
    tasks = [
        (worker, params, seed, prefix, pi, ci, size)
        for pi, params in enumerate(points)
        for ci, size in enumerate(sizes)
    ]
    if workers == 1:
        outputs = map(_run_one, tasks)
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outputs = list(pool.map(_run_one, tasks, chunksize=1))

    # both maps yield in task order, so each point's chunks arrive in order
    reduced = [{} for _ in points]
    for point_index, part in outputs:
        acc = reduced[point_index]
        for name, (total, total_sq, count) in part.items():
            acc_total, acc_sq, acc_count = acc.get(name, (0.0, 0.0, 0))
            acc[name] = (acc_total + total, acc_sq + total_sq, acc_count + count)
    return reduced


def mean_and_se(total: float, total_sq: float, count: int) -> tuple:
    """Sample mean and standard error from accumulated sums.

    The variance estimate uses the ``count - 1`` denominator; with a single
    run the standard error is reported as 0.
    """
    mean = total / count
    if count < 2:
        return mean, 0.0
    var = max(0.0, (total_sq - count * mean * mean) / (count - 1))
    return mean, (var / count) ** 0.5
