"""Vectorized kernels must reproduce the object layer bit for bit.

Every scoring core is driven twice on identical inputs: once directly and
once through build-a-pool / report / merge / top1_accuracy.  Agreement is
asserted with exact float equality, not tolerances — the kernels are written
to evaluate the same expressions in the same order.  Committee sizes use a
power-of-two number of attributes so ranking by row sum and by row mean are
exactly interchangeable.  The theorem kernel draws class maxima instead of
whole pools; the full-pool draw kept here is the oracle it is checked against.
The kernels give evaluator 0 the first half of a committee's work, and so do
the object routes here; a law test checks the kernels against the object
layer's plans, which draw the halves at random.
"""

import itertools
import json
import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import stats

from evalsim.allocation import allocate_holistic, allocate_segmented
from evalsim.distributions import PowerLaw, power_law_inv_cdf
from evalsim.evaluators import (
    merge_scores,
    report_biased,
    report_screened,
    report_truthful,
)
from evalsim.experiments import kernels
from evalsim.experiments.kernels import (
    MAX_TIE_REDRAWS,
    _best_is_tied,
    _U_BELOW_ONE,
    _columns_best_is_tied,
    _dis0_cdf,
    _dis0_shares,
    _redraw_tied_rows,
    bias_scheme_accuracies,
    bias_worker,
    calibration_worker,
    draw_bias_batch,
    draw_correlated_values,
    draw_efficiency_batch,
    draw_theorem_batch,
    efficiency_accuracies,
    efficiency_cells,
    efficiency_worker,
    max_of_draws,
    random_subset_mask,
    tail_worker,
    theorem_class_sizes,
    theorem_error_pairs,
    theorem_worker,
)
from evalsim.experiments.theorem import MAX_POOL
from evalsim.evaluators import local_quantile_bins, screening_cutoff
from evalsim.metrics import mean_bin_error, top1_accuracy
from evalsim.population import AttributeMatrix, round_half_up
from evalsim.rng import derive_stream

POWER_LAW = PowerLaw(1.0)
BIAS_POINT = {
    "n": 6, "d": 4, "sigma": 0.5, "alpha": 0.5, "lambda": 0.5, "beta": 0.0, "delta": 1.0,
}


def _no_groups(n, d):
    return np.zeros(n, dtype=bool), np.zeros(d, dtype=bool)


# ---------------------------------------------------------------------------
# shared helpers


def test_random_subset_mask_sizes_and_edges():
    rng = derive_stream(41, 8)
    mask = random_subset_mask(rng, 500, 7, 3)
    assert mask.shape == (500, 7)
    assert np.all(mask.sum(axis=1) == 3)
    assert not random_subset_mask(rng, 4, 5, 0).any()
    assert random_subset_mask(rng, 4, 5, 5).all()
    with pytest.raises(ValueError):
        random_subset_mask(rng, 4, 5, 6)
    with pytest.raises(ValueError):
        random_subset_mask(rng, 4, 5, -1)


def _argpartition_mask(u, k):
    """The k positions of each row that ``argpartition`` puts first."""
    mask = np.zeros(u.shape, dtype=bool)
    np.put_along_axis(mask, np.argpartition(u, k - 1, axis=1)[:, :k], True, axis=1)
    return mask


class _FixedUniforms:
    """A stand-in Generator whose ``random`` returns the given uniforms."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=float)

    def random(self, shape):
        assert shape == self.u.shape
        return self.u.copy()


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_random_subset_mask_takes_argpartitions_pick_among_equal_uniforms(k):
    u = [
        [0.1, 0.1, 0.5, 0.7, 0.9, 0.3],  # equal uniforms below the k-th place
        [0.5, 0.2, 0.5, 0.7, 0.1, 0.5],  # at the k-th place
        [0.3, 0.3, 0.3, 0.3, 0.1, 0.3],  # across it
        [0.4, 0.4, 0.4, 0.4, 0.4, 0.4],
        [0.6, 0.2, 0.9, 0.1, 0.4, 0.8],
    ]
    mask = random_subset_mask(_FixedUniforms(u), 5, 6, k)
    assert np.array_equal(mask, _argpartition_mask(np.array(u), k))
    assert np.all(mask.sum(axis=1) == k)


@pytest.mark.parametrize(
    "total, k", [(200, 100), (20, 10), (2, 1), (200, 1), (200, 199), (20, 1), (20, 19)]
)
def test_random_subset_mask_is_argpartitions_mask(total, k):
    # same uniforms, same stream: the masks are those of an argpartition
    rng, twin = derive_stream(41, 9), derive_stream(41, 9)
    mask = random_subset_mask(rng, 2048, total, k)
    assert np.array_equal(mask, _argpartition_mask(twin.random((2048, total)), k))
    assert rng.random() == twin.random()


def test_random_subset_mask_is_uniform():
    rng = derive_stream(42, 8)
    batch = 20_000
    mask = random_subset_mask(rng, batch, 5, 2)
    # each element is included with probability 2/5
    freq = mask.mean(axis=0)
    se = np.sqrt(0.4 * 0.6 / batch)
    assert np.all(np.abs(freq - 0.4) <= 4.0 * se)
    # and each of the C(5, 2) = 10 subsets appears equally often
    codes = (mask * (1 << np.arange(5))).sum(axis=1)
    _, counts = np.unique(codes, return_counts=True)
    assert counts.size == 10
    se_subset = np.sqrt(0.1 * 0.9 / batch)
    assert np.all(np.abs(counts / batch - 0.1) <= 4.0 * se_subset)


def test_draw_correlated_values_full_correlation_is_exact():
    rng = derive_stream(43, 8)
    values = draw_correlated_values(rng, 10, 6, 3, 1.0, 0.5)
    assert values.shape == (10, 6, 3)
    assert np.all(values == values[:, :, :1])
    assert np.all(values >= 1.0)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda rng: draw_correlated_values(rng, 2, 4, 4, 1.5, 1.0), "sigma must lie in [0, 1], got 1.5"),
        # pool-dump draws odd sizes, so the copula takes any size from 1
        (lambda rng: draw_correlated_values(rng, 2, 0, 3, 0.5, 1.0), "n and d must be at least 1"),
        (lambda rng: efficiency_worker(({"n": 0, "sigma": 0.5, "tau": 0.5, "delta": 1.0},), rng, 4),
         "n must be even and at least 2, got 0"),
        (lambda rng: draw_bias_batch(rng, 4, 0, 2, 0.0, 0.5, 0.5, None),
         "n must be even and at least 2, got 0"),
        (lambda rng: draw_bias_batch(rng, 4, 4, 3, 0.0, 0.5, 0.5, None),
         "d must be even and at least 2, got 3"),
        (lambda rng: draw_theorem_batch(rng, 8, 0, 1.0, 1.0, 0.5), "n must be even and at least 2, got 0"),
    ],
    ids=["sigma", "copula-size", "efficiency-n", "bias-n", "bias-d", "theorem-n"],
)
def test_kernels_word_a_bad_value_as_the_drivers_do(call, message):
    with pytest.raises(ValueError) as info:
        call(derive_stream(43, 10))
    assert str(info.value) == message


@pytest.mark.parametrize("sigma", [0.0, 1.0])
def test_extreme_correlations_draw_uniform_copulas(sigma):
    # sigma = 0 draws the uniforms directly and sigma = 1 one uniform per
    # applicant; every column must still be Uniform(0, 1)
    u = draw_correlated_values(derive_stream(43, 9), 4000, 5, 3, sigma, None)
    assert u.shape == (4000, 5, 3) and u.flags.writeable
    for column in range(3):
        assert stats.kstest(u[:, :, column].ravel(), "uniform").pvalue > 0.001
    if sigma == 1.0:
        assert np.all(u == u[:, :, :1])
        u[0, 0, 1] = 2.0  # columns are copies, so a tie redraw can write one
        assert u[0, 0, 0] != 2.0
    else:
        # independent attributes: no correlation between columns
        r = np.corrcoef(u[:, :, 0].ravel(), u[:, :, 1].ravel())[0, 1]
        assert abs(r) < 4.0 / np.sqrt(u[:, :, 0].size)


def test_redraw_tied_rows_replaces_only_tied_runs():
    values = np.array([[1.0, 2.0, 2.0], [3.0, 1.0, 2.0]])
    _redraw_tied_rows(values, lambda k: np.tile([5.0, 1.0, 1.0], (k, 1)), (1.0,))
    assert np.array_equal(values, [[5.0, 1.0, 1.0], [3.0, 1.0, 2.0]])
    # (batch, n, d) values are ranked by row total
    cube = np.array([[[1.0, 2.0], [2.0, 1.0], [0.0, 1.0]]])
    fresh = [[9.0, 9.0], [1.0, 1.0], [1.0, 1.0]]
    _redraw_tied_rows(cube, lambda k: np.tile(fresh, (k, 1, 1)), (1.0,))
    assert np.array_equal(cube[0], fresh)
    # a custom test picks the runs; here the ones whose first entry is 0
    flat = np.array([[0.0, 1.0], [2.0, 1.0]])
    _redraw_tied_rows(flat, lambda k: np.full((k, 2), 7.0), (1.0,), lambda v: v[:, 0] == 0.0)
    assert np.array_equal(flat, [[7.0, 7.0], [2.0, 1.0]])


def test_redraw_tied_rows_is_bounded():
    calls = []

    def constant(k):
        calls.append(k)
        return np.ones((k, 3))

    with pytest.raises(ValueError, match="delta=1e"):
        _redraw_tied_rows(np.ones((2, 3)), constant, (1e300,))
    assert calls == [2] * MAX_TIE_REDRAWS
    # a huge delta makes every power-law draw 1.0, so every run ties
    with pytest.raises(ValueError, match="delta=1e"):
        draw_theorem_batch(derive_stream(52, 8), 8, 4, 1e300, 1.0, 0.5)
    # in a draw group a run is redrawn when it ties under any member's values,
    # and only the deltas whose values still tie are named
    for deltas in ((1e300,), (1.0, 1e300, 2.0)):
        members = tuple({**BIAS_POINT, "delta": de} for de in deltas)
        with pytest.raises(ValueError, match=r"delta=1e\+300") as info:
            bias_worker(members, derive_stream(52, 8), 8)
        assert "delta=1.0" not in str(info.value) and "delta=2.0" not in str(info.value)


_TIE_PRONE = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, math.inf, -math.inf]), st.floats(allow_nan=False)
)


@settings(deadline=None, max_examples=100)
@given(data=st.data(), width=st.sampled_from([1, 2, 4, 20, 200]), runs=st.integers(1, 8))
def test_best_is_tied_counts_the_row_maximum(data, width, runs):
    # the top found by argmax flags the same runs as the top found by max,
    # with signed zeros and infinities among the values and ties planted;
    # at the theorem draw's widths, so does its tie check on the transpose
    total = data.draw(arrays(np.float64, (runs, width), elements=_TIE_PRONE))
    plant = np.flatnonzero(data.draw(arrays(bool, runs)))
    cols = data.draw(arrays(np.intp, runs, elements=st.integers(0, width - 1)))
    total[plant, cols[plant]] = total[plant].max(axis=1)
    want = (total == total.max(axis=1)[:, None]).sum(axis=1) > 1
    assert np.array_equal(_best_is_tied(total), want)
    if width <= 4:
        assert np.array_equal(_columns_best_is_tied(total), want)


# ---------------------------------------------------------------------------
# calibration kernel


class _CoarseRng:
    """Percentiles on a 16-point grid that misses every fifth and quarter
    edge, so rows repeat values and ``cdf(inv_cdf(u))`` keeps each bin."""

    def __init__(self, index):
        self._rng = derive_stream(44, index)

    def random(self, shape):
        return (np.floor(self._rng.random(shape) * 16) + 0.5) / 16


def test_calibration_worker_matches_object_route():
    # the worker bins the percentiles it draws; the object route bins the
    # values those percentiles map to, under marginals from heavy to light,
    # with and without tied percentiles and at n that num_bins does not divide
    for n, num_bins, coarse, index in [(7, 5, False, 8), (10, 5, True, 9), (23, 4, True, 10)]:
        make_rng = _CoarseRng if coarse else lambda index: derive_stream(44, index)
        (out,) = calibration_worker(({"n": n, "num_bins": num_bins},), make_rng(index), 200)
        u = make_rng(index).random((200, n))
        assert (np.diff(np.sort(u, axis=1), axis=1) == 0).any() == coarse
        for delta in (0.3, 1.0, 3.0):
            law = PowerLaw(delta)
            errors = np.array(
                [
                    mean_bin_error(local_quantile_bins(row, num_bins), law.cdf(row), num_bins)
                    for row in law.inv_cdf(u)
                ]
            )
            assert np.array_equal(out["binner"], errors), (n, num_bins, delta)


# ---------------------------------------------------------------------------
# screening-efficiency kernel


def _efficiency_object_route(values, tau):
    # evaluator 0 owns the first half of the applicants, as in the kernel;
    # (batch, n, 1) values stand for both attributes
    batch, n, _ = values.shape
    values = np.broadcast_to(values, (batch, n, 2))
    cols = np.array([0, 1])
    halves = (np.arange(n // 2), np.arange(n // 2, n))
    acc = np.empty(batch)
    for b in range(batch):
        pool = AttributeMatrix(values[b], *_no_groups(n, 2))
        parts = [report_screened(rows, cols, pool, tau) for rows in halves]
        acc[b] = top1_accuracy(merge_scores(parts), pool)
    return acc


@pytest.mark.parametrize("tau", [0.25, 0.5, 1.0])
def test_efficiency_kernel_matches_object_route(tau):
    rng = derive_stream(45, 8)
    values = draw_efficiency_batch(rng, 64, 8, 0.5, 1.0)
    (fast,) = efficiency_accuracies(values, (tau,))
    slow = _efficiency_object_route(values, tau)
    assert np.array_equal(fast, slow)


@pytest.mark.parametrize("sigma", [0.0, 0.5])
def test_grouped_efficiency_worker_matches_object_route(sigma):
    # one draw scored at every tau of the group, each against the object route
    taus = (0.2, 0.25, 0.5, 0.75, 1.0)
    members = tuple(
        {"n": 10, "sigma": sigma, "tau": tau, "delta": 1.0} for tau in taus
    )
    out = efficiency_worker(members, derive_stream(45, 9), 64)
    values = draw_efficiency_batch(derive_stream(45, 9), 64, 10, sigma, 1.0)
    for tau, scores in zip(taus, out):
        assert np.array_equal(scores["holistic"], _efficiency_object_route(values, tau))


_LOG_UNIFORM_DELTA = st.floats(math.log(0.05), math.log(20.0)).map(math.exp)


@settings(deadline=None, max_examples=60)
@given(
    n=st.integers(1, 20).map(lambda k: 2 * k),
    sigma=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.01, 0.99)),
    delta=_LOG_UNIFORM_DELTA,
    taus=st.lists(st.floats(0.0, 1.0, exclude_min=True), min_size=1, max_size=5, unique=True),
    seed=st.integers(0, 2**32 - 1),
)
def test_efficiency_worker_matches_object_route_at_random_points(n, sigma, delta, taus, seed):
    # a random draw group of taus: every member's scores are the object
    # route's on the shared draw, bit for bit
    size = 24
    members = tuple({"n": n, "sigma": sigma, "delta": delta, "tau": tau} for tau in taus)
    out = efficiency_worker(members, derive_stream(seed, 8), size)
    values = draw_efficiency_batch(derive_stream(seed, 8), size, n, sigma, delta)
    for tau, scores in zip(taus, out):
        assert np.array_equal(scores["holistic"], _efficiency_object_route(values, tau))


def test_efficiency_first_attribute_ties_match_object_route():
    # drawn pools almost never tie on the first attribute, so these are built
    # by hand: evaluator 0 owns applicants 0 to 3, and the best applicant 2
    # ties applicants 0 and 3 of its own half on the first attribute while
    # applicant 1 is ahead of all three.  Ties go to the lower index, so 2 is
    # third in its half: cutoffs 1 and 2 screen it out, 3 and 4 keep it
    first = [5.0, 6.0, 5.0, 5.0, 9.0, 5.0, 1.0, 2.0]
    second = [1.0, 1.0, 10.0, 1.0, 1.0, 2.0, 3.0, 4.0]
    values = np.array([np.column_stack([first, second])])
    taus = (0.25, 0.5, 0.75, 1.0)
    assert [screening_cutoff(tau, 4) for tau in taus] == [1, 2, 3, 4]
    fast = efficiency_accuracies(values, taus)
    assert [list(acc) for acc in fast] == [[0.0], [0.0], [1.0], [1.0]]
    for tau, acc in zip(taus, fast):
        assert np.array_equal(acc, _efficiency_object_route(values, tau))

    # first attributes from a small set of integers tie often; the seconds
    # are continuous, so each run's best row total is unique
    rng = derive_stream(45, 10)
    batch, n = 256, 12
    values = np.stack([rng.integers(1, 4, (batch, n)) * 1.0, rng.random((batch, n))], axis=2)
    assert not _best_is_tied(values).any()
    best = np.argmax(values.sum(axis=2), axis=1)[:, None]
    mates = ((np.arange(n) < n // 2) == (best < n // 2)) & (
        values[:, :, 0] == np.take_along_axis(values[:, :, 0], best, axis=1)
    )
    below = (mates & (np.arange(n) < best)).any(axis=1)
    above = (mates & (np.arange(n) > best)).any(axis=1)
    assert (below & above).sum() > batch // 10
    taus = tuple(k / 6 for k in range(1, 7))
    fast = efficiency_accuracies(values, taus)
    for tau, acc in zip(taus, fast):
        assert np.array_equal(acc, _efficiency_object_route(values, tau)), tau
    # the cutoffs fall on both sides of the tied runs' best
    tied_runs = below & above
    assert (fast[0][tied_runs] == 0.0).any() and (fast[-2][tied_runs] == 1.0).any()


def test_efficiency_tie_check_sums_the_two_columns(monkeypatch):
    # for two columns a + b is bit for bit the sum over the last axis
    for sigma in (0.0, 0.5, 0.9, 1.0):
        values = draw_correlated_values(derive_stream(47, 8), 512, 20, 2, sigma, 1.0)
        assert np.array_equal(values[..., 0] + values[..., 1], values.sum(axis=2)), sigma

    # a run whose best total is tied is still redrawn: the first draw ties
    # applicants 0 and 1 of run 0, and the redraw gives a unique best
    tied = np.array([[[2.0, 1.0], [1.0, 2.0], [1.0, 1.0], [1.0, 1.5]],
                     [[1.0, 1.0], [4.0, 1.0], [1.0, 2.0], [1.0, 1.5]]])
    fresh = np.array([[[1.0, 1.0], [1.0, 1.0], [3.0, 3.0], [1.0, 1.5]]])
    draws = iter([tied, fresh])
    calls = []

    def stub(rng, batch, n, d, sigma, delta):
        calls.append(batch)
        return next(draws).copy()

    monkeypatch.setattr(kernels, "draw_correlated_values", stub)
    values = draw_efficiency_batch(derive_stream(47, 9), 2, 4, 0.5, 1.0)
    assert calls == [2, 1]
    assert np.array_equal(values, [fresh[0], tied[1]])


def test_efficiency_tie_redraw_at_full_correlation_writes_the_one_column(monkeypatch):
    # at sigma = 1 the pools are (k, n, 1), and the scorer takes them so; a
    # redraw writes the one column.  The first draw ties applicants 0 and 2
    # of run 1, and the redraw gives a unique best
    tied = np.array([[[2.0], [1.0], [1.5], [1.0]],
                     [[3.0], [1.0], [3.0], [2.0]]])
    fresh = np.array([[[1.0], [4.0], [2.0], [3.0]]])
    draws = iter([tied, fresh])
    calls = []

    def stub(rng, batch, n, d, sigma, delta):
        calls.append((batch, d))
        return next(draws).copy()

    monkeypatch.setattr(kernels, "draw_correlated_values", stub)
    values = draw_efficiency_batch(derive_stream(47, 10), 2, 4, 1.0, 1.0)
    assert calls == [(2, 1), (1, 1)]
    assert values.shape == (2, 4, 1)
    assert np.array_equal(values[..., 0], [tied[0, :, 0], fresh[0, :, 0]])


@pytest.mark.parametrize("sigma", [0.0, 1.0])
def test_extreme_correlations_never_call_ndtr(monkeypatch, sigma):
    # sigma 0 and 1 draw their uniforms directly; only 0 < sigma < 1 needs
    # the normal CDF, and with it SciPy
    def no_ndtr(x, out=None):
        raise AssertionError("ndtr called")

    monkeypatch.setattr(kernels, "ndtr", no_ndtr)
    rng = derive_stream(48, 8)
    bias_worker(({**BIAS_POINT, "sigma": sigma},), rng, 16)
    efficiency_worker(({"n": 6, "sigma": sigma, "tau": 0.5, "delta": 1.0},), rng, 16)
    kernels.build_pool(6, 4, sigma, 0.5, 0.5, 1.0, rng)
    with pytest.raises(AssertionError, match="ndtr called"):
        draw_correlated_values(rng, 2, 3, 2, 0.5, 1.0)


def test_efficiency_cells_counts_reports():
    assert efficiency_cells(20, 0.1) == 20 + 2 * screening_cutoff(0.1, 10)
    assert efficiency_cells(20, 1.0) == 40


def test_efficiency_worker_full_budget_is_perfect():
    params = {"n": 10, "sigma": 0.3, "tau": 1.0, "delta": 1.0}
    (out,) = efficiency_worker((params,), derive_stream(46, 8), 300)
    # tau = 1 screens nobody: the committee sees everything and cannot miss
    assert np.array_equal(out["holistic"], np.ones(300))
    with pytest.raises(ValueError):
        efficiency_worker(({**params, "n": 9},), derive_stream(46, 8), 10)


# ---------------------------------------------------------------------------
# bias-grid kernel


def _bias_object_route(batch_arrays, beta):
    # evaluator 0 owns the first half of the rows (holistic) or of the
    # columns (segmented), as in the kernels
    values, disadvantaged, protected, coin0, coin1 = batch_arrays
    batch, n, d = values.shape
    all_rows = np.arange(n)
    all_cols = np.arange(d)
    acc_h = np.empty(batch)
    acc_s = np.empty(batch)
    for b in range(batch):
        pool = AttributeMatrix(values[b], disadvantaged[b], protected[b])

        def committee(blocks):
            # an evaluator discounts only when its own coin came up True
            return merge_scores(
                report_biased(rows, cols, pool, beta) if coin else report_truthful(rows, cols, pool)
                for (rows, cols), coin in zip(blocks, (coin0[b], coin1[b]))
            )

        hol = committee([(all_rows[: n // 2], all_cols), (all_rows[n // 2 :], all_cols)])
        seg = committee([(all_rows, all_cols[: d // 2]), (all_rows, all_cols[d // 2 :])])
        acc_h[b] = top1_accuracy(hol, pool)
        acc_s[b] = top1_accuracy(seg, pool)
    return acc_h, acc_s


@pytest.mark.parametrize("beta", [0.0, 0.3])
@pytest.mark.parametrize("gamma", [None, 0.5])
def test_bias_kernel_matches_object_route(beta, gamma):
    rng = derive_stream(47, 8)
    u, *labels = draw_bias_batch(rng, 48, 6, 4, 0.5, 0.5, 0.5, gamma)
    batch_arrays = (POWER_LAW.inv_cdf(u), *labels)
    fast_h, fast_s = bias_scheme_accuracies(*batch_arrays, beta)
    slow_h, slow_s = _bias_object_route(batch_arrays, beta)
    assert np.array_equal(fast_h, slow_h)
    assert np.array_equal(fast_s, slow_s)


@pytest.mark.parametrize("beta", [1e-300, 0.999999])
@pytest.mark.parametrize("delta", [0.05, 50.0])
@pytest.mark.parametrize("gamma", [None, 0.5])
def test_bias_factor_scorer_matches_object_route_at_extremes(beta, delta, gamma):
    # each discounted row is its values times a factor of beta or 1.0, which
    # rounds exactly as the object layer's beta * x and x, even where beta * x
    # is subnormal or a heavy tail's values span many orders of magnitude
    u, *labels = draw_bias_batch(derive_stream(47, 11), 48, 6, 4, 0.5, 0.5, 0.5, gamma)
    values = PowerLaw(delta).inv_cdf(u)
    fast = bias_scheme_accuracies(values, *labels, beta)
    slow = _bias_object_route((values, *labels), beta)
    assert np.array_equal(fast[0], slow[0])
    assert np.array_equal(fast[1], slow[1])
    # the worker passes the row totals it has already summed
    given = bias_scheme_accuracies(values, *labels, beta, total=values.sum(axis=2))
    assert np.array_equal(given[0], fast[0])
    assert np.array_equal(given[1], fast[1])


@pytest.mark.parametrize("gamma", [None, 0.5])
def test_grouped_bias_worker_matches_object_route(gamma):
    # one draw scored under every member's delta and beta
    shared = BIAS_POINT if gamma is None else {**BIAS_POINT, "gamma": gamma}
    settings = [(0.5, 0.0), (0.5, 0.3), (2.0, 0.0), (1.0, 0.7)]
    members = tuple(
        {**shared, "delta": de, "beta": beta} for de, beta in settings
    )
    out = bias_worker(members, derive_stream(47, 9), 48)
    u, *labels = draw_bias_batch(derive_stream(47, 9), 48, 6, 4, 0.5, 0.5, 0.5, gamma)
    for (de, beta), scores in zip(settings, out):
        slow_h, slow_s = _bias_object_route((PowerLaw(de).inv_cdf(u), *labels), beta)
        assert np.array_equal(scores["holistic"], slow_h)
        assert np.array_equal(scores["segmented"], slow_s)
        assert np.array_equal(scores["difference"], slow_s - slow_h)


@pytest.mark.parametrize("n", [6, 20])
@pytest.mark.parametrize("alpha", [0.5, 1.0])
@pytest.mark.parametrize("lam", [0.5, 1.0])
@pytest.mark.parametrize("gamma", [None, 0.5])
@pytest.mark.parametrize("beta", [0.0, 0.3])
def test_bias_worker_at_sigma_one_scores_like_the_full_pool(n, alpha, lam, gamma, beta):
    # at sigma = 1 the worker scores (size, n, 1) values broadcast against the
    # d columns, which must give the repeated full pool's accuracies, also
    # where every estimate is 0 and ties n ways
    d, size = 20, 512
    point = {
        "n": n, "d": d, "sigma": 1.0, "alpha": alpha, "lambda": lam, "beta": beta,
        "delta": 1.0, **({} if gamma is None else {"gamma": gamma}),
    }
    u, *labels = draw_bias_batch(derive_stream(58, 8), size, n, d, 1.0, alpha, lam, gamma)
    assert u.shape == (size, n, 1)
    values = POWER_LAW.inv_cdf(u)
    assert not _best_is_tied(values).any()  # so the worker redraws nothing
    full = (np.repeat(values, d, axis=2), *labels)
    want = bias_scheme_accuracies(*full, beta)

    (out,) = bias_worker((point,), derive_stream(58, 8), size)
    assert np.array_equal(out["holistic"], want[0])
    assert np.array_equal(out["segmented"], want[1])


@pytest.mark.parametrize(
    "sigma, shared",
    [
        (0.0, {}),
        (1.0, {}),
        (1.0, {"gamma": 0.5}),
        # every estimate of a run can be 0 and tie n ways
        (1.0, {"gamma": 0.5, "alpha": 1.0, "lambda": 1.0}),
    ],
)
def test_bias_worker_at_extreme_correlations_matches_object_route(sigma, shared):
    settings = [(0.5, 0.0), (2.0, 0.3)]
    members = tuple(
        {**BIAS_POINT, **shared, "sigma": sigma, "delta": de, "beta": beta}
        for de, beta in settings
    )
    out = bias_worker(members, derive_stream(47, 10), 48)
    point = members[0]
    u, *labels = draw_bias_batch(
        derive_stream(47, 10), 48, 6, 4, sigma, point["alpha"], point["lambda"], shared.get("gamma")
    )
    for (de, beta), scores in zip(settings, out):
        values = np.broadcast_to(PowerLaw(de).inv_cdf(u), (48, 6, 4))
        slow_h, slow_s = _bias_object_route((values, *labels), beta)
        assert np.array_equal(scores["holistic"], slow_h)
        assert np.array_equal(scores["segmented"], slow_s)


_EVEN_SIZE = st.sampled_from([2, 4, 6, 8, 10])
_SHARE = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.01, 0.99))
_BIAS_MEMBERS = st.lists(
    st.tuples(_LOG_UNIFORM_DELTA, st.floats(0.0, 0.999)),
    min_size=1,
    max_size=4,
    unique=True,
)


@settings(deadline=None, max_examples=60)
@given(
    n=_EVEN_SIZE,
    d=_EVEN_SIZE,
    sigma=_SHARE,
    alpha=_SHARE,
    lam=_SHARE,
    gamma=st.one_of(st.none(), st.floats(0.01, 0.99)),
    pairs=_BIAS_MEMBERS,
    seed=st.integers(0, 2**32 - 1),
)
def test_bias_worker_matches_object_route_at_random_points(
    n, d, sigma, alpha, lam, gamma, pairs, seed
):
    # a random draw group of (delta, beta) pairs: every member's scores are
    # the object route's on the shared draw, bit for bit
    size = 24
    u, *labels = draw_bias_batch(derive_stream(seed, 8), size, n, d, sigma, alpha, lam, gamma)
    values = [np.broadcast_to(PowerLaw(de).inv_cdf(u), (size, n, d)) for de, _ in pairs]
    # the worker would redraw a run whose best ties, and score other values
    assume(not any(_best_is_tied(v).any() for v in values))
    shared = {"n": n, "d": d, "sigma": sigma, "alpha": alpha, "lambda": lam}
    if gamma is not None:
        shared["gamma"] = gamma
    members = tuple({**shared, "delta": de, "beta": beta} for de, beta in pairs)
    out = bias_worker(members, derive_stream(seed, 8), size)
    for (_, beta), v, scores in zip(pairs, values, out):
        slow_h, slow_s = _bias_object_route((v, *labels), beta)
        assert np.array_equal(scores["holistic"], slow_h)
        assert np.array_equal(scores["segmented"], slow_s)
        assert np.array_equal(scores["difference"], slow_s - slow_h)


@pytest.mark.parametrize("sigma", [0.0, 0.5, 1.0])
def test_bias_worker_scores_own_their_memory(sigma):
    # every delta of a chunk is inverted into one reused buffer, so no score
    # may be a view of it: each member's scores stay those it gets alone
    members = tuple(
        {**BIAS_POINT, "sigma": sigma, "delta": de, "beta": beta}
        for de in (0.5, 1.0, 2.0)
        for beta in (0.0, 0.3)
    )
    out = bias_worker(members, derive_stream(47, 13), 48)
    arrays = [scores[key] for scores in out for key in ("holistic", "segmented", "difference")]
    for i, a in enumerate(arrays):
        for b in arrays[i + 1 :]:
            assert not np.shares_memory(a, b)
    for point, scores in zip(members, out):
        (alone,) = bias_worker((point,), derive_stream(47, 13), 48)
        for key in ("holistic", "segmented", "difference"):
            assert np.array_equal(scores[key], alone[key])


# Worker groups run one after another in one process, as a pool worker runs
# its chunks: array shapes change back and forth, sigma = 1 draws one column,
# and chunk sizes differ.  (worker, members, chunk size, stream index)
_CHUNK_SEQUENCE = (
    ("bias", (BIAS_POINT, {**BIAS_POINT, "delta": 2.0, "beta": 0.3}), 48, 1),
    ("bias", ({**BIAS_POINT, "sigma": 1.0, "beta": 0.3, "gamma": 0.5},), 64, 2),
    ("efficiency", ({"n": 10, "sigma": 0.5, "delta": 1.0, "tau": 0.3},), 80, 3),
    ("bias", ({**BIAS_POINT, "n": 8, "d": 6, "sigma": 0.0},), 96, 4),
    ("bias", (BIAS_POINT, {**BIAS_POINT, "delta": 2.0, "beta": 0.3}), 48, 1),
    ("efficiency", ({"n": 6, "sigma": 1.0, "delta": 2.0, "tau": 0.5},), 32, 5),
    ("bias", ({**BIAS_POINT, "sigma": 1.0, "beta": 0.3, "gamma": 0.5},), 64, 2),
    ("efficiency", ({"n": 10, "sigma": 0.5, "delta": 1.0, "tau": 0.3},), 80, 3),
)

_RUN_FIRST = """
import json, sys
from evalsim.experiments import kernels
from evalsim.rng import derive_stream
kind, members, size, index = json.loads(sys.argv[1])
out = getattr(kernels, kind + "_worker")(tuple(members), derive_stream(52, index), size)
print(json.dumps([{name: x.tolist() for name, x in scores.items()} for scores in out]))
"""


def test_workers_carry_no_state_between_chunks():
    # each distinct group, run first in a fresh interpreter, against the
    # same group run here after the others
    env = {**os.environ, "PYTHONPATH": str(Path(kernels.__file__).parents[2])}
    distinct = list(dict.fromkeys(json.dumps(group) for group in _CHUNK_SEQUENCE))
    procs = {
        key: subprocess.Popen(
            [sys.executable, "-c", _RUN_FIRST, key], stdout=subprocess.PIPE, text=True, env=env
        )
        for key in distinct
    }
    fresh = {}
    for key, proc in procs.items():
        stdout, _ = proc.communicate(timeout=120)
        assert proc.returncode == 0
        fresh[key] = json.loads(stdout)

    for group in _CHUNK_SEQUENCE:
        kind, members, size, index = group
        worker = bias_worker if kind == "bias" else efficiency_worker
        out = worker(members, derive_stream(52, index), size)
        assert len(out) == len(members)
        for scores, want in zip(out, fresh[json.dumps(group)]):
            assert scores.keys() == want.keys()
            for name, x in scores.items():
                assert x.tolist() == want[name], (group, name)


def test_bias_worker_scores_the_redrawn_values(monkeypatch):
    # the first draw ties applicants 0 and 1 of run 0 under both deltas;
    # the worker redraws run 0, and every kept score is the object route's on
    # the redrawn values, so the scorer never meets a tied best
    tied = np.array([[[0.9, 0.5], [0.5, 0.9], [0.1, 0.2], [0.3, 0.1]],
                     [[0.1, 0.2], [0.8, 0.7], [0.3, 0.3], [0.2, 0.6]]])
    fresh = np.array([[[0.2, 0.3], [0.1, 0.1], [0.4, 0.5], [0.95, 0.3]]])
    calls = []

    def stub(rng, batch, n, d, sigma, delta):
        calls.append(batch)
        return (tied if len(calls) % 2 else fresh).copy()

    settings = [(1.0, 0.0), (2.0, 0.3)]
    members = tuple(
        {**BIAS_POINT, "n": 4, "d": 2, "gamma": 0.5, "delta": de, "beta": beta}
        for de, beta in settings
    )
    for de, _ in settings:
        assert list(_best_is_tied(PowerLaw(de).inv_cdf(tied))) == [True, False]
    monkeypatch.setattr(kernels, "draw_correlated_values", stub)
    out = bias_worker(members, derive_stream(47, 12), 2)
    assert calls == [2, 1]
    _, *labels = draw_bias_batch(derive_stream(47, 12), 2, 4, 2, 0.5, 0.5, 0.5, 0.5)
    redrawn = np.stack([fresh[0], tied[1]])
    for (de, beta), scores in zip(settings, out):
        slow_h, slow_s = _bias_object_route((PowerLaw(de).inv_cdf(redrawn), *labels), beta)
        assert np.array_equal(scores["holistic"], slow_h)
        assert np.array_equal(scores["segmented"], slow_s)
        # both evaluators of run 0 are biased, so both schemes discount the
        # redrawn best below row 2
        assert list(slow_h) == [0.0, 1.0] and list(slow_s) == [0.0, 1.0]


@pytest.mark.parametrize("sigma", [0.0, 0.5, 1.0])
def test_bias_worker_scores_power_law_inv_cdf_of_its_uniforms(monkeypatch, sigma):
    # the worker maps one log-survival per chunk at each delta; what it
    # scores is power_law_inv_cdf of the chunk's uniforms, bit for bit
    drawn, scored = [], []

    def draw(*args, **kwargs):
        u, *labels = draw_bias_batch(*args, **kwargs)
        drawn.append(u.copy())
        return (u, *labels)

    def score(values, *args):
        scored.append((args[-2], values.copy()))
        return bias_scheme_accuracies(values, *args)

    monkeypatch.setattr(kernels, "draw_bias_batch", draw)
    monkeypatch.setattr(kernels, "bias_scheme_accuracies", score)
    settings = [(0.5, 0.0), (2.0, 0.3), (0.5, 0.7), (1.0, 0.9)]
    members = tuple(
        {**BIAS_POINT, "sigma": sigma, "delta": de, "beta": beta} for de, beta in settings
    )
    bias_worker(members, derive_stream(47, 13), 64)
    (u,) = drawn
    assert u.shape == (64, 6, 1 if sigma == 1.0 else 4)
    # one score per member, so no run was redrawn
    assert sorted(beta for beta, _ in scored) == sorted(beta for _, beta in settings)
    delta_of = {beta: de for de, beta in settings}
    for beta, values in scored:
        want = power_law_inv_cdf(u, delta_of[beta])
        assert np.array_equal(values.view(np.int64), want.view(np.int64))


T, F = True, False


def _hand_run(values, disadvantaged, protected=(T, T), coins=(T, F)):
    """One run of four applicants and two attributes, shaped as ``draw_bias_batch``.

    Evaluator 0 owns rows 0 and 1 (holistic) and column 0 (segmented); by
    default it is the biased one.
    """
    return (
        np.array([values], dtype=float),
        np.array([disadvantaged]),
        np.array([protected]),
        np.array([coins[0]]),
        np.array([coins[1]]),
    )


# Each way the bias scorer settles a run: values, disadvantaged rows,
# protected columns, beta and the (holistic, segmented) accuracies.  Row 0
# holds the best total, which is unique, as after a tie redraw.
_DECISION_CASES = {
    # the best is not discounted and its total is the unique top
    "best-not-hit": ([[5, 5], [1, 1], [2, 2], [3, 3]], [F, T, T, F], (T, T), 0.0, (1.0, 1.0)),
    # the best is discounted below a row that is not: 0 and 5 against 8
    "best-beaten": ([[5, 5], [1, 1], [2, 2], [4, 4]], [T, F, F, F], (T, T), 0.0, (0.0, 0.0)),
    # nothing protected, so the discounted best reports its total: open
    "best-hit-open-wins": (
        [[5, 5], [1, 1], [2, 2], [4, 4]], [T, F, F, F], (F, F), 0.999999, (1.0, 1.0)
    ),
    # open, then beaten by another discounted row: 3 against 8
    "best-hit-open-loses": (
        [[9, 3], [2, 8], [1, 1], [1, 1]], [T, T, F, F], (T, F), 0.0, (0.0, 0.0)
    ),
    # the best's estimate equals the top total that is not discounted: 4 and 4
    "own-equals-rest": ([[4, 4], [1, 1], [1, 2], [2, 2]], [T, F, F, F], (T, T), 0.5, (0.5, 1.0)),
    # alpha = 1: every segmented row is discounted, so none bounds the best
    "all-hit": ([[4, 6], [1, 1], [2, 2], [5, 1]], [T, T, T, T], (T, T), 0.0, (0.0, 1.0)),
    # open, and the other discounted row's estimate ties the best's and a
    # total that is not discounted: 2 + 4, 1 + 5 and 3 + 3
    "open-hit-rows-tie": (
        [[4, 4], [2, 5], [1, 1], [3, 3]], [T, T, F, F], (T, F), 0.5, (1 / 3, 1 / 3)
    ),
    # open, and the other discounted row's total, 2, lies below the best's
    # estimate, 6, so its own estimate is never built
    "open-hit-row-below-best": (
        [[4, 4], [1, 1], [2, 2], [3, 3]], [T, T, F, F], (T, F), 0.5, (0.5, 0.5)
    ),
    # open, and the other discounted row's total equals the best's estimate,
    # 6, but its own estimate, 1 + 4, does not
    "open-hit-row-at-best": (
        [[4, 4], [2, 4], [1, 1], [2, 2]], [T, T, F, F], (T, F), 0.5, (1.0, 1.0)
    ),
}


@pytest.mark.parametrize("case", list(_DECISION_CASES))
def test_bias_scorer_decisions_match_object_route(case):
    values, disadvantaged, protected, beta, want = _DECISION_CASES[case]
    run = _hand_run(values, disadvantaged, protected)
    got = bias_scheme_accuracies(*run, beta)
    slow = _bias_object_route(run, beta)
    assert np.array_equal(got[0], slow[0]) and np.array_equal(got[1], slow[1])
    assert (got[0][0], got[1][0]) == want


def test_bias_scorer_decides_class_maxima_like_the_full_pool():
    # sigma = 1 pools.  Run 0 has alpha = 1, both evaluators biased, beta = 0
    # and every attribute protected: every estimate is 0 and ties 4 ways.
    # In run 1 evaluator 0 owns both disadvantaged rows and only advantaged
    # rows are left for evaluator 1.
    runs = (
        _hand_run([[3, 3], [1, 1], [4, 4], [2, 2]], [T, T, T, T], coins=(T, T)),
        _hand_run([[5, 5], [1, 1], [2, 2], [1, 1]], [T, T, F, F]),
    )
    full = tuple(np.concatenate(parts) for parts in zip(*runs))
    got = bias_scheme_accuracies(*full, 0.0)
    slow = _bias_object_route(full, 0.0)
    assert np.array_equal(got[0], slow[0]) and np.array_equal(got[1], slow[1])
    assert np.array_equal(got[0], [0.25, 0.0]) and np.array_equal(got[1], [0.25, 1.0])


@pytest.mark.parametrize("gamma", [None, 0.5])
def test_bias_scorer_open_runs_at_sigma_one(gamma):
    # at sigma = 1 with 0 < beta < 1 a discounted best keeps most of its
    # total, so both schemes leave many runs open, each with several
    # discounted rows whose estimates are built or skipped
    n, d, size, beta = 6, 4, 256, 0.6
    u, *labels = draw_bias_batch(derive_stream(47, 14), size, n, d, 1.0, 0.5, 0.5, gamma)
    values = np.repeat(POWER_LAW.inv_cdf(u), d, axis=2)
    assert not _best_is_tied(values).any()
    fast = bias_scheme_accuracies(values, *labels, beta)
    slow = _bias_object_route((values, *labels), beta)
    assert np.array_equal(fast[0], slow[0]) and np.array_equal(fast[1], slow[1])

    # a run whose best is discounted scores above 0 only when it is open
    disadvantaged, _, coin0, coin1 = labels
    runs = np.arange(size)
    best = values.sum(axis=2).argmax(axis=1)
    best_dis = disadvantaged[runs, best]
    owner_coin = np.where(best < n // 2, coin0, coin1)
    for hit_b, acc in ((best_dis & owner_coin, fast[0]), (best_dis, fast[1])):
        assert (hit_b & (acc > 0.0)).sum() >= 10
        assert (hit_b & (acc == 0.0)).any()


def test_bias_batch_fixed_committee_and_validation():
    rng = derive_stream(48, 8)
    out = draw_bias_batch(rng, 16, 4, 2, 0.0, 0.5, 0.5, None)
    assert len(out) == 5
    assert out[0].shape == (16, 4, 2) and np.all((0.0 <= out[0]) & (out[0] < 1.0))
    coin0, coin1 = out[3], out[4]
    assert coin0.all() and not coin1.any()
    with pytest.raises(ValueError):
        draw_bias_batch(rng, 4, 5, 2, 0.0, 0.5, 0.5, None)
    with pytest.raises(ValueError):
        draw_bias_batch(rng, 4, 4, 3, 0.0, 0.5, 0.5, None)


# ---------------------------------------------------------------------------
# theorem kernel


def _draw_full_pool_theorem_batch(rng, size, n, delta, lam, gamma):
    """Every applicant of every run: the oracle for the class-maxima draw.

    Same layout as ``draw_theorem_batch`` but with ``(size, n)`` values and a
    per-applicant group mask; half the pool is disadvantaged, and evaluator 0
    owns applicants ``0 ... n/2 - 1``.
    """
    values = power_law_inv_cdf(rng.random((size, n)), delta)
    _redraw_tied_rows(values, lambda k: power_law_inv_cdf(rng.random((k, n)), delta), (delta,))
    disadvantaged = random_subset_mask(rng, size, n, n // 2)
    protected2 = random_subset_mask(rng, size, 2, round_half_up(lam * 2))
    coin0 = rng.random(size) < gamma
    coin1 = rng.random(size) < gamma
    return values, disadvantaged, protected2, coin0, coin1


def _class_maxima(batch_arrays):
    """Reduce a full-pool batch to the four class maxima ``draw_theorem_batch`` samples."""
    values, disadvantaged, protected2, coin0, coin1 = batch_arrays
    owner0 = np.arange(values.shape[1]) < values.shape[1] // 2
    class_dis = [True, False, True, False]
    class_owner0 = [True, True, False, False]
    maxima = np.stack(
        [
            np.where((disadvantaged == dis) & (owner0 == own0), values, 0.0).max(axis=1)
            for dis, own0 in zip(class_dis, class_owner0)
        ],
        axis=1,
    )
    return maxima, np.broadcast_to(class_dis, maxima.shape), protected2, coin0, coin1


def _theorem_object_route(batch_arrays, beta):
    # the theorem pool is the bias pool with each value in both columns
    values, *labels = batch_arrays
    acc_h, acc_s = _bias_object_route((np.repeat(values[:, :, None], 2, axis=2), *labels), beta)
    return 1.0 - acc_h, 1.0 - acc_s


@pytest.mark.parametrize("beta", [0.0, 0.25, 1e-300, 0.999999])
@pytest.mark.parametrize("lam", [0.0, 0.5, 1.0])
def test_theorem_kernel_matches_object_route(beta, lam):
    # also where beta * x is subnormal or a heavy tail's values span many
    # orders of magnitude, as in the bias scorer's extremes test
    for delta in (1.0, 0.05, 50.0):
        rng = derive_stream(49, 8)
        batch_arrays = _draw_full_pool_theorem_batch(rng, 64, 4, delta, lam, 0.5)
        fast_h, fast_s, best_is_dis = theorem_error_pairs(*batch_arrays, beta)
        slow_h, slow_s = _theorem_object_route(batch_arrays, beta)
        assert np.array_equal(fast_h, slow_h), delta
        assert np.array_equal(fast_s, slow_s), delta

        values, disadvantaged = batch_arrays[0], batch_arrays[1]
        best = values.argmax(axis=1)
        assert np.array_equal(best_is_dis, disadvantaged[np.arange(64), best])


@settings(deadline=None, max_examples=60)
@given(
    n=st.integers(1, 20).map(lambda k: 2 * k),
    lam=st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0)),
    gamma=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    beta=st.floats(0.0, 1.0, exclude_max=True),
    delta=_LOG_UNIFORM_DELTA,
    seed=st.integers(0, 2**32 - 1),
)
def test_theorem_kernel_matches_object_route_at_random_points(n, lam, gamma, beta, delta, seed):
    # a random theorem point: the kernel's errors on whole pools, and on
    # their class maxima, are the object route's bit for bit
    batch_arrays = _draw_full_pool_theorem_batch(derive_stream(seed, 8), 24, n, delta, lam, gamma)
    slow_h, slow_s = _theorem_object_route(batch_arrays, beta)
    for scored in (batch_arrays, _class_maxima(batch_arrays)):
        fast_h, fast_s, _ = theorem_error_pairs(*scored, beta)
        assert np.array_equal(fast_h, slow_h)
        assert np.array_equal(fast_s, slow_s)


def test_theorem_errors_only_hit_disadvantaged_bests():
    # discounts only lower scores, so an advantaged best applicant never
    # loses, under either scheme: the exact per-run half of the symmetry the
    # closed form rests on, which the formula check does not gate
    rng = derive_stream(50, 8)
    for n, lam, gamma in itertools.product((2, 6, 20, 1000), (0.5, 1.0), (0.2, 0.5, 0.8)):
        batch_arrays = draw_theorem_batch(rng, 4096, n, 0.5, lam, gamma)
        for beta in (0.0, 0.7):
            err_h, err_s, best_is_dis = theorem_error_pairs(*batch_arrays, beta)
            assert np.all(err_h[~best_is_dis] == 0.0), (n, lam, gamma, beta)
            assert np.all(err_s[~best_is_dis] == 0.0), (n, lam, gamma, beta)
            assert err_h.any() and (~best_is_dis).any(), (n, lam, gamma, beta)


def test_theorem_worker_sums_are_consistent():
    params = {"n": 4, "delta": 1.0, "lambda": 1.0, "gamma": 0.5, "beta": 0.0}
    (out,) = theorem_worker((params,), derive_stream(51, 8), 400)
    assert all(x.shape == (400,) for x in out.values())
    assert np.all((0.0 <= out["hol"]) & (out["hol"] <= 1.0))
    assert np.all((0.0 <= out["seg"]) & (out["seg"] <= 1.0))
    assert np.array_equal(out["diff"], out["hol"] - out["seg"])
    # errors can strike only disadvantaged bests
    assert not out["hol"][~out["dis"]].any()
    assert not out["seg"][~out["dis"]].any()
    assert out["hol"].any() and not out["dis"].all()
    assert out["dis"].dtype == bool
    with pytest.raises(ValueError):
        draw_theorem_batch(derive_stream(51, 8), 8, 5, 1.0, 1.0, 0.5)


@pytest.mark.parametrize("n", [2, 4, 20])
@pytest.mark.parametrize("lam", [0.5, 1.0])
@pytest.mark.parametrize("beta", [0.0, 0.25])
def test_class_maxima_score_like_the_full_pool(n, lam, beta):
    # an estimate is a per-class constant times the value, so only each
    # class's best applicant can be picked: scoring the maxima is exact
    rng = derive_stream(53, 8)
    full = _draw_full_pool_theorem_batch(rng, 2048, n, 0.5, lam, 0.5)
    maxima = _class_maxima(full)
    for got, want in zip(theorem_error_pairs(*maxima, beta), theorem_error_pairs(*full, beta)):
        assert np.array_equal(got, want)
    # the production draw labels its columns with the same classes, and
    # returns no ownership: evaluator 0 owns the first two classes
    drawn = draw_theorem_batch(derive_stream(53, 9), 8, n, 0.5, lam, 0.5)
    assert len(drawn) == 5
    assert np.array_equal(drawn[1], maxima[1][:8])


@pytest.mark.parametrize("k", [1, 7, 250])
def test_max_of_draws_follows_the_max_cdf(k):
    law = PowerLaw(0.5)
    sample = max_of_draws(derive_stream(54, 8, k), np.full(20_000, k), law.delta)
    assert stats.kstest(sample, lambda t: law.cdf(t) ** k).pvalue > 0.001


def test_max_of_draws_empty_classes():
    counts = np.array([[0, 3], [1, 0], [0, 0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        top = max_of_draws(derive_stream(55, 8), counts, 1.0)
    assert top.shape == (3, 2)
    assert np.array_equal(top == 0.0, counts == 0)
    assert np.all(top[counts > 0] >= 1.0)


def test_theorem_class_sizes_partition_the_pool():
    n, size = 20, 200_000
    counts = theorem_class_sizes(derive_stream(56, 8), size, n)
    assert counts.shape == (size, 4) and counts.min() >= 0
    assert np.all(counts.sum(axis=1) == n)
    assert np.all(counts[:, 0] + counts[:, 2] == n // 2)  # disadvantaged
    assert np.all(counts[:, 0] + counts[:, 1] == n // 2)  # owned by evaluator 0
    # evaluator 0's disadvantaged share: n/2 draws from n/2 + n/2; shares 0
    # and 10, about one draw each, are pooled with their neighbours
    observed = np.bincount(counts[:, 0], minlength=n // 2 + 1)
    expected = size * stats.hypergeom(n, n // 2, n // 2).pmf(np.arange(n // 2 + 1))
    observed = np.r_[observed[:2].sum(), observed[2:-2], observed[-2:].sum()]
    expected = np.r_[expected[:2].sum(), expected[2:-2], expected[-2:].sum()]
    assert stats.chisquare(observed, expected).pvalue > 0.001
    # with one applicant per group the share is 0 or 1, and takes both
    pair = theorem_class_sizes(derive_stream(56, 9), 1000, 2)
    assert set(np.unique(pair[:, 0])) == {0, 1}


@pytest.mark.parametrize("half", [1, 2, 3, 10, 50, 500])
def test_dis0_table_is_the_exact_law(half):
    # at these sizes the window is all of 0..half; the exact pmf is
    # comb(half, k)**2 / comb(2 * half, half), in rationals
    lo, cdf, _ = _dis0_cdf(half)
    assert lo == 0 and cdf.size == half + 1
    total = math.comb(2 * half, half)
    exact = [Fraction(math.comb(half, k) ** 2, total) for k in range(half + 1)]
    tv = sum(abs(Fraction(p) - q) for p, q in zip(np.diff(cdf, prepend=0.0), exact)) / 2
    assert tv <= 1e-12


def test_dis0_table_at_a_large_pool():
    half = 10**6
    lo, cdf, _ = _dis0_cdf(half)
    assert cdf[-1] == 1.0 and np.all(np.diff(cdf) >= 0.0)
    # the window drops only shares whose pmf is 0 in float64
    law = stats.hypergeom(2 * half, half, half)
    inside = law.pmf(np.arange(lo, lo + cdf.size))
    tv = (np.abs(np.diff(cdf, prepend=0.0) - inside).sum() + (1.0 - inside.sum())) / 2
    assert tv <= 1e-9
    # about 28 * sqrt(half) entries: never a table over all of 0..half
    assert _dis0_cdf(MAX_POOL // 2)[1].size < 10**6


_GUIDE_HALVES = [1, 2, 3, 10, 500, 10**6, MAX_POOL // 2]


def _searched_shares(half, u):
    lo, cdf, _ = _dis0_cdf(half)
    return lo + np.searchsorted(cdf, u, side="right")


@pytest.mark.parametrize("half", _GUIDE_HALVES)
def test_guided_shares_are_the_binary_search_at_planted_keys(half):
    # every table entry and bucket edge j / M, each with its two neighbours,
    # and both ends of [0, 1): the keys where a guided step could go wrong
    _, cdf, guide = _dis0_cdf(half)
    m = cdf.size
    assert guide.shape == (m + 1,) and guide[0] == 0 and guide[-1] <= m - 1
    edges = np.arange(m + 1) / m
    keys = np.concatenate([
        np.r_[0.0, np.nextafter(1.0, 0.0)],
        *(np.nextafter(x, to) for x in (cdf, edges) for to in (0.0, x, 2.0)),
    ])
    u = keys[(keys >= 0.0) & (keys < 1.0)]
    # u * M stays below M for every u < 1, so guide[j + 1] is in range
    assert (u * m).astype(np.intp).max() < m
    assert np.array_equal(_dis0_shares(half, u), _searched_shares(half, u))


@settings(max_examples=50, deadline=None)
@given(
    half=st.sampled_from(_GUIDE_HALVES),
    u=arrays(float, st.integers(0, 64), elements=st.floats(0.0, 1.0, exclude_max=True)),
)
def test_guided_shares_are_the_binary_search(half, u):
    assert np.array_equal(_dis0_shares(half, u), _searched_shares(half, u))


def test_guided_shares_search_few_keys(monkeypatch):
    # at n = 1000 a chunk's keys nearly all land in buckets of one entry or
    # none, so the binary search sees at most 2% of them
    _dis0_cdf(500)  # built before the count, with its own search
    searched, search = [], np.searchsorted

    def counting(a, v, *args, **kwargs):
        searched.append(np.size(v))
        return search(a, v, *args, **kwargs)

    monkeypatch.setattr(np, "searchsorted", counting)
    sizes = theorem_class_sizes(derive_stream(58, 8), 8192, 1000)
    assert sizes.shape == (8192, 4) and 0 < sum(searched) <= 0.02 * 8192


def _max_of_draws_by_where(rng, counts, delta):
    k = np.asarray(counts)
    u = rng.random(k.shape) ** (1.0 / np.maximum(k, 1))
    return np.where(k > 0, power_law_inv_cdf(np.minimum(u, _U_BELOW_ONE), delta), 0.0)


@pytest.mark.parametrize("delta", [0.3, 0.9, 1.0])
@pytest.mark.parametrize(
    "counts",
    [
        np.array([[0, 3], [1, 0], [0, 0]]),
        np.full(2000, 10_000),
        np.ones(500, dtype=int),
        np.array(7),
        theorem_class_sizes(derive_stream(59, 8), 4096, 6),
        theorem_class_sizes(derive_stream(59, 9), 4096, 1000),
    ],
    ids=["empty-classes", "tail-groups", "single-draws", "scalar", "classes-n6", "classes-n1000"],
)
def test_max_of_draws_in_place_keeps_the_bits(counts, delta):
    got = max_of_draws(derive_stream(60, 8), counts, delta)
    want = _max_of_draws_by_where(derive_stream(60, 8), counts, delta)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_tail_worker_single_draw_matches_the_full_draw():
    # U ** (1/1) == U, so at one applicant per group the maximum is the draw
    params = {"n_per_group": 1, "delta": 0.7}
    rng = derive_stream(57, 8)
    dis_best = power_law_inv_cdf(rng.random((500, 1)), 0.7).max(axis=1)
    adv_best = power_law_inv_cdf(rng.random((500, 1)), 0.7).max(axis=1)
    (out,) = tail_worker((params,), derive_stream(57, 8), 500)
    assert np.array_equal(out["below"], dis_best < 2.0 * adv_best)
    assert np.array_equal(max_of_draws(derive_stream(57, 8), np.ones(500, dtype=int), 0.7), dis_best)


# ---------------------------------------------------------------------------
# the fixed split against the object layer's random plans


# (kernel, point): the fixed one-biased committee, bias coins at both extreme
# correlations, one theorem point and one efficiency point
_LAW_BIAS = {**BIAS_POINT, "n": 4, "beta": 0.3}
_LAW_POINTS = {
    "bias-fixed-committee": ("bias", _LAW_BIAS),
    "bias-gamma-sigma0": ("bias", {**_LAW_BIAS, "d": 2, "sigma": 0.0, "gamma": 0.5}),
    "bias-gamma-sigma1": ("bias", {**_LAW_BIAS, "d": 2, "sigma": 1.0, "gamma": 0.5}),
    "theorem": ("theorem", {"n": 6, "lambda": 0.5, "gamma": 0.5, "beta": 0.3, "delta": 1.0}),
    "efficiency": ("efficiency", {"n": 8, "sigma": 0.5, "tau": 0.25, "delta": 1.0}),
}


def _kernel_accuracies(kind, point, runs):
    """Per-run accuracies of the kernel, which gives evaluator 0 the first half."""
    worker = {"bias": bias_worker, "theorem": theorem_worker, "efficiency": efficiency_worker}[kind]
    (out,) = worker((point,), derive_stream(60, 8), runs)
    if kind == "theorem":
        return {"holistic": 1.0 - out["hol"], "segmented": 1.0 - out["seg"]}
    return {name: out[name] for name in ("holistic", "segmented") if name in out}


def _random_plan_accuracies(kind, point, pools):
    """Per-pool accuracies of the object layer, whose plans draw random halves."""
    rng = derive_stream(60, 9)
    n, d = point["n"], point.get("d", 2)
    if kind == "efficiency":
        labels = (point["sigma"], 0.0, 0.0)
    else:  # the theorem pool is fully correlated and half disadvantaged
        labels = (point.get("sigma", 1.0), point.get("alpha", 0.5), point["lambda"])
    acc = {"holistic": [], "segmented": []}
    owned = set()
    for _ in range(pools):
        pool = kernels.build_pool(n, d, *labels, point["delta"], rng)
        plans = {"holistic": allocate_holistic(n, d, 2, rng)}
        owned.add(tuple(plans["holistic"].blocks[0][0]))
        if kind == "efficiency":
            blocks = plans["holistic"].blocks
            parts = (report_screened(rows, cols, pool, point["tau"]) for rows, cols in blocks)
            acc["holistic"].append(top1_accuracy(merge_scores(parts), pool))
            continue
        plans["segmented"] = allocate_segmented(n, d, 2, rng)
        gamma = point.get("gamma")
        coins = (True, False) if gamma is None else rng.random(2) < gamma
        for name, plan in plans.items():
            parts = (
                report_biased(rows, cols, pool, point["beta"])
                if coin
                else report_truthful(rows, cols, pool)
                for (rows, cols), coin in zip(plan.blocks, coins)
            )
            acc[name].append(top1_accuracy(merge_scores(parts), pool))
    assert len(owned) == math.comb(n, n // 2)  # every half of the pool was evaluator 0's
    return {name: np.array(x) for name, x in acc.items() if x}


@pytest.mark.parametrize("case", list(_LAW_POINTS))
def test_fixed_split_has_the_law_of_random_plans(case):
    # applicants are i.i.d. and attributes exchangeable, so the kernels'
    # fixed halves give the accuracies of the object layer's random ones
    kind, point = _LAW_POINTS[case]
    fast = _kernel_accuracies(kind, point, 100_000)
    slow = _random_plan_accuracies(kind, point, 3000)
    assert fast.keys() == slow.keys()
    for name, x in fast.items():
        y = slow[name]
        se = math.hypot(x.std(ddof=1) / math.sqrt(x.size), y.std(ddof=1) / math.sqrt(y.size))
        assert abs(x.mean() - y.mean()) <= 4.0 * se, (name, x.mean(), y.mean(), se)
