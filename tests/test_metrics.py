"""Scoring metrics: percentile bins, bin error, top-1 accuracy."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from evalsim.allocation import allocate_blocked, allocate_holistic
from evalsim.distributions import PowerLaw
from evalsim.evaluators import (
    ScoreMatrix,
    local_quantile_bins,
    merge_scores,
    report_truthful,
)
from evalsim.experiments.kernels import build_pool, calibration_worker
from evalsim.metrics import mean_bin_error, percentile_bin, top1_accuracy
from evalsim.population import AttributeMatrix, true_best
from evalsim.rng import derive_stream

# Average |local bin - population bin| for five bins over pools of five, with a
# continuous value distribution.  The local bin of the r-th smallest value is r,
# the population percentile of that value follows a Beta(r, 6 - r) law, and the
# population bin is the ceiling of five times the percentile.  Summing
# |k - r| * P(bin k) over r and k with the Beta CDF at the bin edges gives
# 1856/3125 exactly, independent of the value distribution.
MEAN_BIN_ERROR_M5 = Fraction(1856, 3125)


def _pool(values):
    values = np.asarray(values, dtype=float)
    n, d = values.shape
    return AttributeMatrix(values, np.zeros(n, dtype=bool), np.zeros(d, dtype=bool))


def _sheet(values):
    values = np.asarray(values, dtype=float)
    return ScoreMatrix(values, ~np.isnan(values))


# ---------------------------------------------------------------------------
# percentile_bin


def test_percentile_bin_examples():
    assert percentile_bin(0.0, 5) == 1
    assert percentile_bin(0.2, 5) == 1
    assert percentile_bin(0.2000001, 5) == 2
    assert percentile_bin(0.95, 5) == 5
    assert percentile_bin(1.0, 5) == 5


def test_percentile_bin_arrays():
    out = percentile_bin(np.array([0.0, 0.1, 0.5, 0.500001, 1.0]), 2)
    assert out.dtype == np.int64
    assert np.array_equal(out, [1, 1, 1, 2, 2])


def test_percentile_bin_validation():
    with pytest.raises(ValueError):
        percentile_bin(-0.01, 5)
    with pytest.raises(ValueError):
        percentile_bin(1.01, 5)
    with pytest.raises(ValueError):
        percentile_bin(0.5, 1)


@given(
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    st.integers(min_value=2, max_value=50),
)
def test_percentile_bin_stays_in_range(p, num_bins):
    b = percentile_bin(p, num_bins)
    assert 1 <= b <= num_bins


@given(
    st.lists(st.floats(min_value=0.0, max_value=1.0, allow_nan=False), min_size=2, max_size=20),
    st.integers(min_value=2, max_value=10),
)
def test_percentile_bin_is_monotone(ps, num_bins):
    ps = np.sort(np.asarray(ps))
    bins = percentile_bin(ps, num_bins)
    assert np.all(np.diff(bins) >= 0)


# ---------------------------------------------------------------------------
# mean_bin_error


def test_mean_bin_error_hand_values():
    assert mean_bin_error([1, 3, 5], [0.1, 0.5, 0.9], 5) == 0.0
    assert mean_bin_error([1], [0.95], 5) == 4.0
    assert mean_bin_error([1, 2], [0.95, 0.05], 5) == 2.5


def test_mean_bin_error_validation():
    with pytest.raises(ValueError):
        mean_bin_error([1, 2], [0.5], 5)
    with pytest.raises(ValueError):
        mean_bin_error([0], [0.5], 5)
    with pytest.raises(ValueError):
        mean_bin_error([6], [0.5], 5)
    with pytest.raises(ValueError):
        mean_bin_error([], [], 5)
    with pytest.raises(ValueError):
        mean_bin_error([1], [1.5], 5)


def test_mean_bin_error_pool_of_five_matches_order_statistics():
    # distribution-free: the Beta order-statistic value holds for any
    # continuous marginal, so the kernel draws percentiles
    pools = 100_000
    (out,) = calibration_worker(({"n": 5, "num_bins": 5},), derive_stream(0, 31), pools)
    errors = out["binner"]
    # the kernel scores each pool as the object route does on real marginals
    u = derive_stream(0, 31).random((1000, 5))
    for delta in (0.3, 1.0, 3.0):
        law = PowerLaw(delta)
        for row, error in zip(law.inv_cdf(u), errors):
            assert mean_bin_error(local_quantile_bins(row, 5), law.cdf(row), 5) == error
    # per-pool errors lie in [0, 4], so 4/sqrt(pools) is a generous SE bound
    assert abs(errors.mean() - float(MEAN_BIN_ERROR_M5)) <= 3.0 * 4.0 / np.sqrt(pools)


# ---------------------------------------------------------------------------
# top1_accuracy


def test_top1_accuracy_picks_the_true_best():
    pool = _pool([[3.0, 2.0], [5.0, 4.0], [1.0, 6.0]])
    assert true_best(pool) == 1
    assert top1_accuracy(_sheet(pool.values), pool) == 1.0

    # committee ranks by reported sums, so a wrong sheet can miss the best
    wrong = _sheet([[9.0, 9.0], [1.0, 1.0], [1.0, 1.0]])
    assert top1_accuracy(wrong, pool) == 0.0


def test_top1_accuracy_splits_exact_ties():
    pool = _pool([[4.0, 2.0], [4.0, 1.9], [1.0, 1.0]])
    tied = _sheet([[4.0, 2.0], [4.0, 2.0], [1.0, 1.0]])
    assert top1_accuracy(tied, pool) == 0.5


def test_top1_accuracy_is_scale_invariant():
    pool = _pool([[3.0, 1.0], [2.0, 1.5]])
    sheet = _sheet([[3.0, 1.0], [2.0, 1.5]])
    scaled = _sheet(10.0 * sheet.scores)
    assert top1_accuracy(sheet, pool) == top1_accuracy(scaled, pool) == 1.0


def test_top1_accuracy_screened_out_best_scores_zero():
    pool = _pool([[5.0, 9.0], [2.0, 1.0]])
    sheet = _sheet([[np.nan, 9.0], [2.0, 1.0]])
    assert true_best(pool) == 0
    assert top1_accuracy(sheet, pool) == 0.0


def test_top1_accuracy_zeroed_reports_share_credit():
    # every report discounted to zero: all applicants tie at the top
    pool = _pool([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0], [7.0, 8.0]])
    assert top1_accuracy(_sheet(np.zeros((4, 2))), pool) == 0.25


def test_top1_accuracy_validation():
    pool = _pool([[1.0, 2.0], [3.0, 4.0]])
    nothing = _sheet([[np.nan, 1.0], [2.0, np.nan]])
    with pytest.raises(ValueError):
        top1_accuracy(nothing, pool)
    with pytest.raises(ValueError):
        top1_accuracy(_sheet([[1.0, 2.0]]), pool)


def test_noiseless_committee_is_always_right():
    rng = derive_stream(27, 31)
    for _ in range(30):
        pool = build_pool(8, 4, 0.5, 0.5, 1.0, PowerLaw(1.0), rng)
        plans = (
            allocate_holistic(8, 4, 2, rng),
            allocate_blocked(8, 4, 4, 2, rng),
        )
        for plan in plans:
            merged = merge_scores(
                [report_truthful(rows, cols, pool) for rows, cols in plan.blocks]
            )
            assert top1_accuracy(merged, pool) == 1.0
