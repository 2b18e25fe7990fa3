"""Outcome metrics: top-choice accuracy and bin calibration error."""

from __future__ import annotations

import numpy as np

from .population import AttributeMatrix, true_best

# Bin labels are plain ints in [1, num_bins]; top-choice outcomes are floats
# in [0, 1] (fractional under ties).


def percentile_bin(p, num_bins: int = 5):
    """Population bin label for percentile ``p``: ``ceil(num_bins * p)``.

    ``p = 0`` maps to bin 1 so labels always lie in ``[1, num_bins]``.
    Accepts scalars or arrays.
    """
    if num_bins < 2:
        raise ValueError("num_bins must be at least 2")
    arr = np.asarray(p, dtype=float)
    if np.any(arr < 0.0) or np.any(arr > 1.0):
        raise ValueError("percentiles must lie in [0, 1]")
    out = np.ceil(num_bins * arr).astype(np.int64)
    out = np.maximum(out, 1)
    return int(out) if out.ndim == 0 else out


def mean_bin_error(reported_bins, true_percentiles, num_bins: int = 5) -> float:
    """Mean absolute gap between reported and population bin labels."""
    reported = np.asarray(reported_bins, dtype=np.int64)
    truth = percentile_bin(np.asarray(true_percentiles, dtype=float), num_bins)
    if reported.shape != truth.shape:
        raise ValueError("reported bins and percentiles must align")
    if reported.size == 0:
        raise ValueError("nothing to score")
    if np.any(reported < 1) or np.any(reported > num_bins):
        raise ValueError("bin labels must lie in [1, num_bins]")
    return float(np.mean(np.abs(reported - truth)))


def top1_accuracy(scores: np.ndarray, pool: AttributeMatrix) -> float:
    """Probability the committee's top choice is the true best applicant.

    The estimated score of an applicant is the sum of reported values, and
    only applicants with every attribute evaluated are eligible.  If several
    eligible applicants tie for the top estimated score with exactly equal
    floats, the committee picks uniformly among them, contributing
    ``1 / |tie|`` when the true best is in the tie set.  A true best that was
    screened out scores 0.
    """
    if scores.shape != pool.values.shape:
        raise ValueError("score sheet does not match the pool")
    eligible = ~np.isnan(scores).any(axis=1)
    if not eligible.any():
        raise ValueError("no applicant was fully evaluated")
    estimates = scores.sum(axis=1)
    top = estimates[eligible].max()
    best = true_best(pool)
    if not (eligible[best] and estimates[best] == top):
        return 0.0
    ties = int(np.count_nonzero(eligible & (estimates == top)))
    return 1.0 / ties
