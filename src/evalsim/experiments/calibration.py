"""Calibration of the local-quantile binner as the pool grows.

A single binning evaluator sees all ``n`` applicants of a pool, ranks them
on one attribute, and reports quantile bins.  The miscalibration of a run is
the mean absolute gap between those local bins and the population bins of
the true percentiles.  Both depend only on the percentiles, so the error is
distribution-free, and the sweep draws percentiles.  It estimates this error
for a range of pool sizes and fits the log-log decay slope (close to -1/2:
local ranks converge to percentiles at the usual root-n rate).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..rng import STREAM_CALIBRATION
from .kernels import calibration_worker
from .parallel import run_points
from .results import check_distinct, rows_from_moments

CALIBRATION_CHUNK = 4096
DEFAULT_POOL_SIZES = (5, 10, 20, 50, 100, 200, 500, 1000)


@dataclass(frozen=True)
class CalibrationSweep:
    """Per-size error estimates plus the fitted log-log decay slope.

    The slope is nan when any size's mean error is 0.
    """

    results: tuple
    loglog_slope: float


def run_calibration_sweep(
    n_values=DEFAULT_POOL_SIZES,
    num_bins: int = 5,
    runs: int = 1000,
    seed: int = 0,
    workers: int = 1,
) -> CalibrationSweep:
    n_values = tuple(int(n) for n in n_values)
    if len(n_values) < 2:
        raise ValueError("need at least two pool sizes to fit a slope")
    check_distinct(n_values, "n_values")
    if any(n < 2 for n in n_values):
        raise ValueError("pool sizes must be at least 2")
    if num_bins < 2:
        raise ValueError("num_bins must be at least 2")
    if any(n < num_bins for n in n_values):
        raise ValueError("every pool size must be at least num_bins")

    points = [{"n": n, "num_bins": num_bins} for n in n_values]
    moments = run_points(
        calibration_worker,
        points,
        runs,
        seed,
        STREAM_CALIBRATION,
        CALIBRATION_CHUNK,
        workers,
    )

    results = rows_from_moments([{"n": n} for n in n_values], moments, runs, seed)

    means = np.array([r.estimate for r in results])
    slope = np.nan  # a zero mean error has no logarithm
    if np.all(means > 0.0):
        slope = float(np.polyfit(np.log(n_values), np.log(means), 1)[0])
    return CalibrationSweep(results=tuple(results), loglog_slope=slope)
