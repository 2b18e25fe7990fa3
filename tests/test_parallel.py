"""The chunk processes' allocator thresholds: page faults and results."""

import ctypes
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

from evalsim.experiments import parallel
from evalsim.experiments.efficiency import efficiency_grid
from evalsim.experiments.kernels import efficiency_worker
from evalsim.experiments.parallel import run_points

SRC = Path(__file__).resolve().parents[1] / "src"

GLIBC = sys.platform.startswith("linux") and platform.libc_ver()[0] == "glibc"

# Runs one benchmark chunk shape through ``run_points`` and prints how many
# chunks ran after their process's warm-up and how many of those took more
# minor page faults than the shape's limit.  A file, not ``python -c``, so
# that pool workers can import ``counted`` under any start method.
_FAULT_GATE = """
import ctypes
import json
import resource
import sys
from collections import Counter
from functools import partial

import numpy as np

from evalsim.experiments import kernels
from evalsim.experiments.bias import BIAS_CHUNK, BIAS_DEFAULTS
from evalsim.experiments.efficiency import EFFICIENCY_CHUNK, efficiency_grid
from evalsim.experiments.parallel import _M_MMAP_THRESHOLD, run_points
from evalsim.experiments.theorem import THEOREM_CHUNK

# A shape's first two chunks in a process are its warm-up: the first grows
# the heap from nothing, and the second, which starts among the first's
# freed holes, can grow it again (efficiency: by about 200 pages).  After
# that a theorem or efficiency chunk takes 0 to 3 minor faults, and a bias
# chunk up to about 13 serially; a bias pool worker's third chunk can still
# grow the heap to a data-dependent record, by up to about 55 pages.  Each
# limit is under the 64 pages of one freshly mapped (8192, 4) float array,
# or for bias the 200 of one (2048, 20, 20) bool array; without
# run_points' setting, checked chunks took about 1000 (theorem, bias) to
# 5400 (efficiency) faults each.
WARM_UP = 2
LIMITS = {"bias": 96, "efficiency": 32, "theorem": 32}
_chunks = Counter()  # chunks each worker has run in this process


def counted(worker, limit, members, rng, size):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    out = worker(members, rng, size)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    _chunks[worker] += 1
    checked = _chunks[worker] > WARM_UP
    out[0]["checked"] = np.array([float(checked)])
    out[0]["over"] = np.array([float(checked and faults > limit)])
    out[0]["faults"] = np.array([float(faults if checked else 0)])
    return out


CASES = {  # the benchmark workloads' chunk shapes, 6 chunks each
    "bias": (
        kernels.bias_worker,
        [{**BIAS_DEFAULTS, "sigma": 0.5, "delta": d} for d in (0.5, 1.0, 2.0)],
        6 * BIAS_CHUNK,
        BIAS_CHUNK,
        kernels.bias_draw_key,
    ),
    "efficiency": (
        kernels.efficiency_worker,
        efficiency_grid((0.05, 0.1, 0.2, 0.5, 1.0), (0.5,), 200, 1.0, 1).points(),
        6 * EFFICIENCY_CHUNK,
        EFFICIENCY_CHUNK,
        kernels.efficiency_draw_key,
    ),
    "theorem": (
        kernels.theorem_worker,
        [{"n": 1000, "delta": d, "beta": 0.0, "gamma": 0.5, "lambda": 1.0} for d in (0.3, 0.9)],
        3 * THEOREM_CHUNK,
        THEOREM_CHUNK,
        None,
    ),
}

if __name__ == "__main__":
    shape, workers = sys.argv[1], int(sys.argv[2])
    worker, points, runs, chunk, draw_key = CASES[shape]
    if "sigma" in points[0]:  # import ndtr before forking, as run_bias_grid does
        kernels.load_ndtr(points)
    # Pin glibc's default mmap threshold, 128 KiB, before the run: any earlier
    # free of a mapped block (importing a module can do it) would have raised
    # the dynamic one, and spared the chunks their faults without run_points'
    # own setting.  Pool workers inherit the pin when forked.
    ctypes.CDLL(None).mallopt(_M_MMAP_THRESHOLD, 128 << 10)
    limited = partial(counted, worker, LIMITS[shape])
    moments = run_points(limited, points, runs, 1, (99,), chunk, workers, draw_key)
    keys = ("checked", "over", "faults")
    print(json.dumps({key: sum(m[key][0] for m in moments if key in m) for key in keys}))
"""


@pytest.mark.skipif(not GLIBC, reason="the thresholds are set through glibc's mallopt")
@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("shape", ["bias", "efficiency", "theorem"])
def test_chunks_take_no_page_faults_after_warm_up(tmp_path, shape, workers):
    # each shape in a fresh interpreter, as the benchmark runs it, which also
    # keeps the script's pinned threshold out of this process; at 2 workers
    # the parent runs no chunk, so the pool's initializer must set them, and
    # 6 chunks leave at least 2 after the two workers' warm-ups
    script = tmp_path / "fault_gate.py"
    script.write_text(_FAULT_GATE)
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(script), shape, str(workers)],
        capture_output=True, text=True, timeout=300, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    counts = json.loads(proc.stdout)
    assert counts["checked"] >= 2, counts
    assert counts["over"] == 0, counts


# a small efficiency sweep: two draw groups of five chunks each
_POINTS = efficiency_grid((0.1, 0.5), (0.0, 0.5), 20, 1.0, 1).points()
_CASE = (efficiency_worker, _POINTS, 300, 4, (7, 5), 64)


def test_run_points_runs_without_mallopt(monkeypatch):
    expected = run_points(*_CASE)

    class NoMallopt:  # a C library without mallopt, as on macOS
        def __init__(self, name):
            pass

    monkeypatch.setattr(ctypes, "CDLL", NoMallopt)
    assert run_points(*_CASE) == expected


def test_a_refused_threshold_sets_nothing_more(monkeypatch):
    calls = []

    class Refusing:  # a C library whose mallopt takes no value
        def __init__(self, name):
            self.mallopt = self

        def __call__(self, param, value):
            calls.append((param, value))
            return 0

    expected = run_points(*_CASE)
    monkeypatch.setattr(ctypes, "CDLL", Refusing)
    assert run_points(*_CASE) == expected
    assert calls == [(parallel._M_MMAP_THRESHOLD, parallel.MMAP_THRESHOLD)]


@pytest.mark.skipif(not GLIBC, reason="the thresholds are set through glibc's mallopt")
def test_glibc_accepts_both_thresholds():
    libc = ctypes.CDLL(None)
    libc.mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    libc.mallopt.restype = ctypes.c_int
    assert libc.mallopt(parallel._M_MMAP_THRESHOLD, parallel.MMAP_THRESHOLD) == 1
    assert libc.mallopt(parallel._M_TRIM_THRESHOLD, parallel.TRIM_THRESHOLD) == 1
