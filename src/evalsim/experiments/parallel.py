"""Chunked map-reduce over Monte Carlo runs with a fixed stream layout.

Grid points that agree on every parameter their draw reads form a draw
group; the points of a group are scored on one shared draw (common random
numbers), and every other point is a group of one.  Groups are numbered in
order of first appearance.  Runs are cut into fixed-size chunks, and each
chunk of a group draws from a stream derived only from (master seed,
experiment tag, group index, chunk index).  A worker takes the group's
member params and returns one dict of named per-run arrays per member, for
example ``{"hol": err_h, "seg": err_s}``; the runner reduces each array to
its sum, sum of squares and run count in the process that ran the chunk, so
only a few floats cross the pool, and adds the chunks in chunk order.
Because neither the derivation nor the reduction order depends on
scheduling, a sweep yields bitwise-identical results whether it runs
sequentially or on a process pool of any size.

Chunk size is part of the stream layout: changing it regroups the draws and
therefore changes individual estimates (never their distribution).  Keep it
fixed when exact reproducibility across runs matters.

Every process that runs chunks first sets two of the C allocator's
thresholds, process-wide, through glibc's ``mallopt``: blocks under 32 MiB
come from the heap (``M_MMAP_THRESHOLD``), and freed heap memory goes back
to the kernel only when 256 MiB lie unused at its top
(``M_TRIM_THRESHOLD``).  A chunk's temporaries then reuse the memory the
last chunk freed instead of being mapped and faulted in again.  32 MiB is
the ceiling of glibc's own dynamic threshold, which otherwise rises toward
it only as mapped blocks are freed, so every size that rule could keep on
the heap is kept there from the first chunk.  The largest heap measured
under the setting (glibc 2.36's ``mallinfo2``, x86-64) is about 140 MB,
for ``calibration`` at n = 1000 and 4096 runs a chunk; the benchmark's
chunk shapes grow 8 to 26 MB.  The setting is glibc-only: elsewhere it is
skipped.  It moves where memory comes from, never what is computed, so it
changes no result.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor

from ..rng import derive_stream


def chunk_sizes(runs: int, chunk_size: int) -> list:
    """Split ``runs`` into full chunks plus one remainder chunk."""
    if runs < 1:
        raise ValueError("runs must be positive")
    if chunk_size < 1:
        raise ValueError("chunk_size must be positive")
    full, rest = divmod(runs, chunk_size)
    return [chunk_size] * full + ([rest] if rest else [])


def _cpu_count() -> int:
    """CPUs this process may run on (all of the machine's where that is unknown)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# glibc's mallopt(3) parameters, and the values every chunk process sets
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD = 32 << 20
TRIM_THRESHOLD = 256 << 20


def _keep_freed_memory() -> None:
    """Set this process's allocator thresholds for chunks (see the module docstring).

    Does nothing where the C library has no ``mallopt`` or refuses the value.
    """
    import ctypes  # here, not at module import: only chunk processes need it

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, TypeError):  # no mallopt (macOS), or no C library to open (Windows)
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    if mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD):
        mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD)


def _run_one(task):
    """Run one chunk of a group; reduce each member's arrays to ``(sum, sumsq, runs)``."""
    worker, members, seed, prefix, group_index, chunk_index, size = task
    rng = derive_stream(seed, *prefix, group_index, chunk_index)
    return group_index, [
        {name: (float(x.sum()), float((x * x).sum()), size) for name, x in arrays.items()}
        for arrays in worker(members, rng, size)
    ]


def run_points(
    worker,
    points,
    runs: int,
    seed: int,
    stream_tag: tuple,
    chunk_size: int,
    workers: int = 1,
    draw_key=None,
) -> list:
    """Evaluate ``worker`` over all points and reduce its per-run arrays.

    Points with equal ``draw_key(params)`` form one draw group; without a
    ``draw_key`` every point is a group of one.  ``worker(members, rng,
    size)`` takes the tuple of a group's params, in point order, and must
    return one dict of 1-d arrays per member, each holding one value per
    run; it must be picklable (a module-level function) when ``workers >
    1``.  ``stream_tag`` is the tuple of ints prefixed to every stream path,
    such as ``(STREAM_BIAS_GRID,)``.  Returns one dict per point, in point
    order, mapping each array name to ``(sum, sumsq, runs)`` over all
    chunks, ready for ``mean_and_se(*moments)``.

    With ``workers=1`` the chunks run in the calling process, which keeps
    the allocator thresholds of the module docstring for the rest of its
    life: glibc's dynamic thresholds stay off, and up to 256 MiB of freed
    heap stays with the process instead of going back to the kernel.
    """
    if workers < 1:
        raise ValueError("workers must be positive")
    sizes = chunk_sizes(runs, chunk_size)
    groups = {}  # draw key -> member point indices; dicts keep first appearance
    for index, params in enumerate(points):
        key = index if draw_key is None else draw_key(params)
        groups.setdefault(key, []).append(index)
    groups = list(groups.values())
    tasks = [
        (worker, tuple(points[i] for i in members), seed, stream_tag, gi, ci, size)
        for gi, members in enumerate(groups)
        for ci, size in enumerate(sizes)
    ]
    # a pool forks all its workers up front, so never ask for more than the
    # tasks or the CPUs this process may run on
    workers = min(workers, len(tasks), _cpu_count())
    if workers <= 1:
        _keep_freed_memory()
        outputs = map(_run_one, tasks)
    else:
        # an initializer, not inheritance, so any start method sets it
        with ProcessPoolExecutor(max_workers=workers, initializer=_keep_freed_memory) as pool:
            outputs = list(pool.map(_run_one, tasks, chunksize=1))

    # both maps yield in task order, so each point's chunks arrive in order
    reduced = [{} for _ in points]
    for group_index, parts in outputs:
        for point_index, part in zip(groups[group_index], parts):
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
