"""Evaluator behaviors: truth, discounting, local binning, screening."""

import numpy as np
import pytest

from evalsim.distributions import PowerLaw
from evalsim.evaluators import (
    ScoreMatrix,
    local_quantile_bins,
    merge_scores,
    report_biased,
    report_screened,
    report_truthful,
    screening_cutoff,
)
from evalsim.experiments.kernels import draw_correlated_values
from evalsim.metrics import percentile_bin
from evalsim.population import AttributeMatrix
from evalsim.rng import derive_stream


def _pool(values, disadvantaged=None, protected=None):
    values = np.asarray(values, dtype=float)
    n, d = values.shape
    if disadvantaged is None:
        disadvantaged = np.zeros(n, dtype=bool)
    if protected is None:
        protected = np.zeros(d, dtype=bool)
    return AttributeMatrix(values, np.asarray(disadvantaged), np.asarray(protected))


# ---------------------------------------------------------------------------
# truthful and biased reports


def test_truthful_report_covers_block_only():
    pool = _pool(np.arange(12.0).reshape(4, 3) + 1.0)
    out = report_truthful([0, 2], [1, 2], pool)
    assert out.evaluated.sum() == 4
    assert np.array_equal(out.scores[np.ix_([0, 2], [1, 2])], pool.values[np.ix_([0, 2], [1, 2])])
    assert np.isnan(out.scores[1, 1])


def test_biased_report_discounts_exactly_the_conjunction():
    values = np.arange(1.0, 13.0).reshape(4, 3)
    pool = _pool(values, disadvantaged=[True, False, True, False], protected=[True, False, True])
    out = report_biased(range(4), range(3), pool, beta=0.25)
    for i in range(4):
        for j in range(3):
            expected = 0.25 * values[i, j] if (pool.disadvantaged[i] and pool.protected[j]) else values[i, j]
            assert out.scores[i, j] == expected


def test_biased_report_never_raises_a_score():
    rng = derive_stream(22, 9)
    values = PowerLaw(1.0).inv_cdf(rng.random((6, 4)))
    pool = _pool(values, disadvantaged=rng.random(6) < 0.5, protected=rng.random(4) < 0.5)
    out = report_biased(range(6), range(4), pool, beta=0.7)
    assert np.all(out.scores <= pool.values)
    hit = np.outer(pool.disadvantaged, pool.protected)
    assert np.array_equal(out.scores < pool.values, hit)


def test_biased_report_validates_beta():
    pool = _pool(np.ones((2, 2)))
    with pytest.raises(ValueError):
        report_biased(range(2), range(2), pool, beta=1.0)
    with pytest.raises(ValueError):
        report_biased(range(2), range(2), pool, beta=-0.1)


def test_merge_scores_combines_disjoint_blocks():
    pool = _pool(np.arange(12.0).reshape(4, 3) + 1.0)
    left = report_truthful([0, 1], [0, 1, 2], pool)
    right = report_truthful([2, 3], [0, 1, 2], pool)
    merged = merge_scores([left, right])
    assert merged.evaluated.all()
    assert np.array_equal(merged.scores, pool.values)


def test_merge_scores_rejects_overlap_and_empty():
    pool = _pool(np.ones((2, 2)))
    a = report_truthful([0], [0, 1], pool)
    with pytest.raises(ValueError):
        merge_scores([a, a])
    with pytest.raises(ValueError):
        merge_scores([])
    with pytest.raises(ValueError):
        merge_scores([a, ScoreMatrix.empty(3, 2)])


# ---------------------------------------------------------------------------
# local quantile binning


def test_local_bins_rank_formula_m7():
    # seven applicants, five bins: labels follow ceil(5 r / 7) of the rank r
    values = np.array([10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0])
    bins = local_quantile_bins(values, 5)
    assert np.array_equal(bins, [1, 2, 3, 3, 4, 5, 5])
    counts = np.bincount(bins, minlength=6)[1:]
    assert np.array_equal(counts, [1, 1, 2, 1, 2])


def test_local_bins_divisible_cases():
    bins5 = local_quantile_bins(np.array([3.0, 1.0, 4.0, 1.5, 5.0]), 5)
    assert np.array_equal(bins5, [3, 1, 4, 2, 5])
    bins20 = local_quantile_bins(np.arange(20.0), 5)
    assert np.array_equal(np.bincount(bins20, minlength=6)[1:], [4, 4, 4, 4, 4])


def test_local_bins_ties_go_to_the_earlier_index():
    bins = local_quantile_bins(np.array([2.0, 2.0, 1.0]), 3)
    # the first 2.0 outranks nothing extra: stable order puts it below the second
    assert np.array_equal(bins, [2, 3, 1])


def test_local_bins_validation():
    with pytest.raises(ValueError):
        local_quantile_bins(np.array([]), 5)
    with pytest.raises(ValueError):
        local_quantile_bins(np.ones((2, 2)), 5)
    with pytest.raises(ValueError):
        local_quantile_bins(np.arange(5.0), 1)


def test_binner_agrees_with_population_bins_on_large_samples():
    law = PowerLaw(1.0)
    rng = derive_stream(23, 9)
    values = law.inv_cdf(rng.random(10_000))
    local = local_quantile_bins(values, 5)
    truth = percentile_bin(law.cdf(values), 5)
    assert (local == truth).mean() >= 0.95


# ---------------------------------------------------------------------------
# screening


def test_screening_cutoff_values():
    assert screening_cutoff(1.0, 7) == 7
    assert screening_cutoff(0.1, 100) == 10
    assert screening_cutoff(0.05, 10) == 1
    assert screening_cutoff(0.2, 7) == 2
    assert screening_cutoff(1e-9, 1000) == 1
    with pytest.raises(ValueError):
        screening_cutoff(0.0, 10)
    with pytest.raises(ValueError):
        screening_cutoff(1.1, 10)
    with pytest.raises(ValueError):
        screening_cutoff(0.5, 0)


def test_screened_report_cell_count():
    rng = derive_stream(25, 9)
    values = PowerLaw(1.0).inv_cdf(rng.random((20, 2)))
    pool = _pool(values)
    for tau in (0.05, 0.1, 0.5, 1.0):
        out = report_screened(np.arange(20), np.array([0, 1]), pool, tau)
        expected = 20 + screening_cutoff(tau, 20)
        assert int(out.evaluated.sum()) == expected
        assert out.evaluated[:, 0].all()


def test_screened_report_keeps_top_first_attribute():
    values = np.array(
        [[5.0, 1.0], [9.0, 2.0], [7.0, 3.0], [9.0, 4.0], [1.0, 5.0], [8.0, 6.0]]
    )
    pool = _pool(values)
    out = report_screened(np.arange(6), np.array([0, 1]), pool, tau=0.5)
    # top three by first attribute: the 9.0 pair (tie resolved to index 1) and 8.0
    assert set(np.flatnonzero(out.evaluated[:, 1])) == {1, 3, 5}

    out2 = report_screened(np.arange(6), np.array([0, 1]), pool, tau=1 / 3)
    assert set(np.flatnonzero(out2.evaluated[:, 1])) == {1, 3}


def test_screened_report_screens_on_the_lower_column():
    values = np.array([[1.0, 9.0], [2.0, 8.0], [3.0, 7.0], [4.0, 6.0]])
    pool = _pool(values)
    # column order handed in reversed; screening still ranks by column 0
    out = report_screened(np.arange(4), np.array([1, 0]), pool, tau=0.25)
    assert set(np.flatnonzero(out.evaluated[:, 1])) == {3}


def test_screened_report_on_a_subset_of_rows():
    values = np.array([[9.0, 1.0], [1.0, 2.0], [5.0, 3.0], [7.0, 4.0]])
    pool = _pool(values)
    rows = np.array([1, 2, 3])
    out = report_screened(rows, np.array([0, 1]), pool, tau=0.4)
    assert not out.evaluated[0].any()
    assert set(np.flatnonzero(out.evaluated[:, 1])) == {2, 3}


def test_screener_owns_exactly_two_columns():
    pool = _pool(np.ones((4, 3)))
    with pytest.raises(ValueError):
        report_screened(np.arange(4), np.array([0, 1, 2]), pool, tau=0.5)


def test_perfect_proxy_keeps_the_best_applicant():
    # fully correlated attributes: the top applicant always survives screening
    rng = derive_stream(26, 9)
    for _ in range(20):
        values = draw_correlated_values(rng, 1, 10, 2, 1.0, PowerLaw(1.0))[0]
        pool = _pool(values)
        out = report_screened(np.arange(10), np.array([0, 1]), pool, tau=0.1)
        best = int(values.sum(axis=1).argmax())
        assert out.evaluated[best].all()
