"""Vectorized kernels must reproduce the object layer bit for bit.

Every scoring core is driven twice on identical inputs: once directly and
once through build-a-pool / report / merge / top1_accuracy.  Agreement is
asserted with exact float equality, not tolerances — the kernels are written
to evaluate the same expressions in the same order.  Committee sizes use a
power-of-two number of attributes so ranking by row sum and by row mean are
exactly interchangeable.  The theorem kernel draws class maxima instead of
whole pools; the full-pool draw kept here is the oracle it is checked against.
"""

import warnings

import numpy as np
import pytest
from scipy import stats

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
from evalsim.evaluators import local_quantile_bins, screening_cutoff
from evalsim.metrics import mean_bin_error, top1_accuracy
from evalsim.population import AttributeMatrix, round_half_up
from evalsim.rng import derive_stream

POWER_LAW = PowerLaw(1.0)
BIAS_POINT = {
    "n": 6, "d": 4, "sigma": 0.5, "alpha": 0.5, "lambda": 0.5, "beta": 0.0,
    "marginal": POWER_LAW,
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
    values = draw_correlated_values(rng, 10, 6, 3, 1.0, PowerLaw(0.5))
    assert values.shape == (10, 6, 3)
    assert np.all(values == values[:, :, :1])
    assert np.all(values >= 1.0)


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
    _redraw_tied_rows(values, lambda k: np.tile([5.0, 1.0, 1.0], (k, 1)), (POWER_LAW,))
    assert np.array_equal(values, [[5.0, 1.0, 1.0], [3.0, 1.0, 2.0]])
    # (batch, n, d) values are ranked by row total
    cube = np.array([[[1.0, 2.0], [2.0, 1.0], [0.0, 1.0]]])
    fresh = [[9.0, 9.0], [1.0, 1.0], [1.0, 1.0]]
    _redraw_tied_rows(cube, lambda k: np.tile(fresh, (k, 1, 1)), (POWER_LAW,))
    assert np.array_equal(cube[0], fresh)
    # a custom test picks the runs; here the ones whose first entry is 0
    flat = np.array([[0.0, 1.0], [2.0, 1.0]])
    _redraw_tied_rows(flat, lambda k: np.full((k, 2), 7.0), (POWER_LAW,), lambda v: v[:, 0] == 0.0)
    assert np.array_equal(flat, [[7.0, 7.0], [2.0, 1.0]])


def test_redraw_tied_rows_is_bounded():
    calls = []

    def constant(k):
        calls.append(k)
        return np.ones((k, 3))

    with pytest.raises(ValueError, match="delta=1e"):
        _redraw_tied_rows(np.ones((2, 3)), constant, (PowerLaw(1e300),))
    assert calls == [2] * MAX_TIE_REDRAWS
    # a huge delta makes every power-law draw 1.0, so every run ties
    with pytest.raises(ValueError, match="delta=1e"):
        draw_theorem_batch(derive_stream(52, 8), 8, 4, 1e300, 1.0, 0.5)
    # in a draw group a run is redrawn when it ties under any member's values
    for deltas in ((1e300,), (1.0, 1e300, 2.0)):
        members = tuple({**BIAS_POINT, "marginal": PowerLaw(de)} for de in deltas)
        with pytest.raises(ValueError, match=r"PowerLaw\(delta=1e\+300\)"):
            bias_worker(members, derive_stream(52, 8), 8)


# ---------------------------------------------------------------------------
# calibration kernel


def test_calibration_worker_matches_object_route():
    # the worker bins the percentiles it draws; the object route bins the
    # values those percentiles map to, under marginals from heavy to light
    (out,) = calibration_worker(({"n": 7, "num_bins": 5},), derive_stream(44, 8), 200)
    u = derive_stream(44, 8).random((200, 7))
    for delta in (0.3, 1.0, 3.0):
        law = PowerLaw(delta)
        errors = np.array(
            [mean_bin_error(local_quantile_bins(row, 5), law.cdf(row), 5) for row in law.inv_cdf(u)]
        )
        assert np.array_equal(out["binner"], errors), delta


# ---------------------------------------------------------------------------
# screening-efficiency kernel


def _efficiency_object_route(values, rows0, tau):
    batch, n, _ = values.shape
    cols = np.array([0, 1])
    acc = np.empty(batch)
    for b in range(batch):
        pool = AttributeMatrix(values[b], *_no_groups(n, 2))
        parts = [
            report_screened(np.flatnonzero(rows0[b]), cols, pool, tau),
            report_screened(np.flatnonzero(~rows0[b]), cols, pool, tau),
        ]
        acc[b] = top1_accuracy(merge_scores(parts), pool)
    return acc


@pytest.mark.parametrize("tau", [0.25, 0.5, 1.0])
def test_efficiency_kernel_matches_object_route(tau):
    rng = derive_stream(45, 8)
    values, rows0 = draw_efficiency_batch(rng, 64, 8, 0.5, PowerLaw(1.0))
    (fast,) = efficiency_accuracies(values, rows0, (tau,))
    slow = _efficiency_object_route(values, rows0, tau)
    assert np.array_equal(fast, slow)


@pytest.mark.parametrize("sigma", [0.0, 0.5])
def test_grouped_efficiency_worker_matches_object_route(sigma):
    # one draw scored at every tau of the group, each against the object route
    taus = (0.2, 0.25, 0.5, 0.75, 1.0)
    members = tuple(
        {"n": 10, "sigma": sigma, "tau": tau, "marginal": POWER_LAW} for tau in taus
    )
    out = efficiency_worker(members, derive_stream(45, 9), 64)
    values, rows0 = draw_efficiency_batch(derive_stream(45, 9), 64, 10, sigma, POWER_LAW)
    for tau, scores in zip(taus, out):
        assert np.array_equal(scores["holistic"], _efficiency_object_route(values, rows0, tau))


def test_efficiency_first_attribute_ties_match_object_route():
    # drawn pools almost never tie on the first attribute, so these are built
    # by hand: evaluator 0 owns the even applicants, and the best applicant 4
    # ties applicants 0 and 6 of its own half on the first attribute while
    # applicant 2 is ahead of all three.  Ties go to the lower index, so 4 is
    # third in its half: cutoffs 1 and 2 screen it out, 3 and 4 keep it
    first = [5.0, 9.0, 6.0, 5.0, 5.0, 1.0, 5.0, 2.0]
    second = [1.0, 1.0, 1.0, 2.0, 10.0, 3.0, 1.0, 4.0]
    values = np.array([np.column_stack([first, second])])
    rows0 = (np.arange(8) % 2 == 0)[None, :]
    taus = (0.25, 0.5, 0.75, 1.0)
    assert [screening_cutoff(tau, 4) for tau in taus] == [1, 2, 3, 4]
    fast = efficiency_accuracies(values, rows0, taus)
    assert [list(acc) for acc in fast] == [[0.0], [0.0], [1.0], [1.0]]
    for tau, acc in zip(taus, fast):
        assert np.array_equal(acc, _efficiency_object_route(values, rows0, tau))

    # first attributes from a small set of integers tie often; the seconds
    # are continuous, so each run's best row total is unique
    rng = derive_stream(45, 10)
    batch, n = 256, 12
    values = np.stack([rng.integers(1, 4, (batch, n)) * 1.0, rng.random((batch, n))], axis=2)
    assert not _best_is_tied(values).any()
    rows0 = random_subset_mask(rng, batch, n, n // 2)
    best = np.argmax(values.sum(axis=2), axis=1)[:, None]
    mates = (rows0 == np.take_along_axis(rows0, best, axis=1)) & (
        values[:, :, 0] == np.take_along_axis(values[:, :, 0], best, axis=1)
    )
    below = (mates & (np.arange(n) < best)).any(axis=1)
    above = (mates & (np.arange(n) > best)).any(axis=1)
    assert (below & above).sum() > batch // 10
    taus = tuple(k / 6 for k in range(1, 7))
    fast = efficiency_accuracies(values, rows0, taus)
    for tau, acc in zip(taus, fast):
        assert np.array_equal(acc, _efficiency_object_route(values, rows0, tau)), tau
    # the cutoffs fall on both sides of the tied runs' best
    tied_runs = below & above
    assert (fast[0][tied_runs] == 0.0).any() and (fast[-2][tied_runs] == 1.0).any()


def test_efficiency_tie_check_sums_the_two_columns(monkeypatch):
    # for two columns a + b is bit for bit the sum over the last axis
    for sigma in (0.0, 0.5, 0.9, 1.0):
        values = draw_correlated_values(derive_stream(47, 8), 512, 20, 2, sigma, POWER_LAW)
        assert np.array_equal(values[..., 0] + values[..., 1], values.sum(axis=2)), sigma

    # a run whose best total is tied is still redrawn: the first draw ties
    # applicants 0 and 1 of run 0, and the redraw gives a unique best
    tied = np.array([[[2.0, 1.0], [1.0, 2.0], [1.0, 1.0], [1.0, 1.5]],
                     [[1.0, 1.0], [4.0, 1.0], [1.0, 2.0], [1.0, 1.5]]])
    fresh = np.array([[[1.0, 1.0], [1.0, 1.0], [3.0, 3.0], [1.0, 1.5]]])
    draws = iter([tied, fresh])
    calls = []

    def stub(rng, batch, n, d, sigma, marginal):
        calls.append(batch)
        return next(draws).copy()

    monkeypatch.setattr(kernels, "draw_correlated_values", stub)
    values, rows0 = draw_efficiency_batch(derive_stream(47, 9), 2, 4, 0.5, POWER_LAW)
    assert calls == [2, 1]
    assert np.array_equal(values, [fresh[0], tied[1]])
    assert rows0.shape == (2, 4) and (rows0.sum(axis=1) == 2).all()


def test_efficiency_cells_counts_reports():
    assert efficiency_cells(20, 0.1) == 20 + 2 * screening_cutoff(0.1, 10)
    assert efficiency_cells(20, 1.0) == 40


def test_efficiency_worker_full_budget_is_perfect():
    params = {"n": 10, "sigma": 0.3, "tau": 1.0, "marginal": POWER_LAW}
    (out,) = efficiency_worker((params,), derive_stream(46, 8), 300)
    # tau = 1 screens nobody: the committee sees everything and cannot miss
    assert np.array_equal(out["holistic"], np.ones(300))
    with pytest.raises(ValueError):
        efficiency_worker(({**params, "n": 9},), derive_stream(46, 8), 10)


# ---------------------------------------------------------------------------
# bias-grid kernel


def _bias_object_route(batch_arrays, beta):
    values, disadvantaged, protected, hol_rows0, seg_cols0, coin0, coin1 = batch_arrays
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

        hol = committee(
            [(np.flatnonzero(hol_rows0[b]), all_cols), (np.flatnonzero(~hol_rows0[b]), all_cols)]
        )
        seg = committee(
            [(all_rows, np.flatnonzero(seg_cols0[b])), (all_rows, np.flatnonzero(~seg_cols0[b]))]
        )
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
    # one draw scored under every member's marginal and beta
    shared = BIAS_POINT if gamma is None else {**BIAS_POINT, "gamma": gamma}
    settings = [(0.5, 0.0), (0.5, 0.3), (2.0, 0.0), (1.0, 0.7)]
    members = tuple(
        {**shared, "marginal": PowerLaw(de), "beta": beta} for de, beta in settings
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
        "marginal": POWER_LAW, **({} if gamma is None else {"gamma": gamma}),
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
        {**BIAS_POINT, **shared, "sigma": sigma, "marginal": PowerLaw(de), "beta": beta}
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


def test_bias_worker_scores_the_redrawn_values(monkeypatch):
    # the first draw ties applicants 0 and 1 of run 0 under both marginals;
    # the worker redraws run 0, and every kept score is the object route's on
    # the redrawn values, so the scorer never meets a tied best
    tied = np.array([[[0.9, 0.5], [0.5, 0.9], [0.1, 0.2], [0.3, 0.1]],
                     [[0.1, 0.2], [0.8, 0.7], [0.3, 0.3], [0.2, 0.6]]])
    fresh = np.array([[[0.2, 0.3], [0.1, 0.1], [0.4, 0.5], [0.95, 0.3]]])
    calls = []

    def stub(rng, batch, n, d, sigma, marginal):
        calls.append(batch)
        return (tied if len(calls) % 2 else fresh).copy()

    settings = [(1.0, 0.0), (2.0, 0.3)]
    members = tuple(
        {**BIAS_POINT, "n": 4, "d": 2, "gamma": 0.5, "marginal": PowerLaw(de), "beta": beta}
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
        # the redrawn best is discounted below row 2 by the holistic scheme only
        assert list(slow_h) == [0.0, 1.0] and list(slow_s) == [1.0, 1.0]


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
        np.array([[T, T, F, F]]),
        np.array([[T, F]]),
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


def test_bias_batch_fixed_committee_and_validation():
    rng = derive_stream(48, 8)
    out = draw_bias_batch(rng, 16, 4, 2, 0.0, 0.5, 0.5, None)
    assert out[0].shape == (16, 4, 2) and np.all((0.0 <= out[0]) & (out[0] < 1.0))
    coin0, coin1 = out[5], out[6]
    assert coin0.all() and not coin1.any()
    with pytest.raises(ValueError):
        draw_bias_batch(rng, 4, 5, 2, 0.0, 0.5, 0.5, None)
    with pytest.raises(ValueError):
        draw_bias_batch(rng, 4, 4, 3, 0.0, 0.5, 0.5, None)


# ---------------------------------------------------------------------------
# theorem kernel


def _draw_full_pool_theorem_batch(rng, size, n, delta, lam, gamma):
    """Every applicant of every run: the oracle for the class-maxima draw.

    Same layout as ``draw_theorem_batch`` but with ``(size, n)`` values and
    per-applicant group and ownership masks; half the pool is disadvantaged.
    """
    values = power_law_inv_cdf(rng.random((size, n)), delta)
    _redraw_tied_rows(
        values, lambda k: power_law_inv_cdf(rng.random((k, n)), delta), PowerLaw(delta)
    )
    disadvantaged = random_subset_mask(rng, size, n, n // 2)
    protected2 = random_subset_mask(rng, size, 2, round_half_up(lam * 2))
    hol_rows0 = random_subset_mask(rng, size, n, n // 2)
    seg_first = rng.random(size) < 0.5
    coin0 = rng.random(size) < gamma
    coin1 = rng.random(size) < gamma
    return values, disadvantaged, protected2, hol_rows0, seg_first, coin0, coin1


def _class_maxima(batch_arrays):
    """Reduce a full-pool batch to the four class maxima ``draw_theorem_batch`` samples."""
    values, disadvantaged, protected2, hol_rows0, seg_first, coin0, coin1 = batch_arrays
    class_dis = [True, True, False, False]
    class_owner0 = [True, False, True, False]
    maxima = np.stack(
        [
            np.where((disadvantaged == dis) & (hol_rows0 == own0), values, 0.0).max(axis=1)
            for dis, own0 in zip(class_dis, class_owner0)
        ],
        axis=1,
    )
    return (
        maxima,
        np.broadcast_to(class_dis, maxima.shape),
        protected2,
        np.broadcast_to(class_owner0, maxima.shape),
        seg_first,
        coin0,
        coin1,
    )


def _theorem_object_route(batch_arrays, beta):
    # the theorem pool is the bias pool with each value in both columns; the
    # segmented coin hands column 0 to evaluator 0 exactly when seg_first
    values, disadvantaged, protected2, hol_rows0, seg_first, coin0, coin1 = batch_arrays
    two_col = np.repeat(values[:, :, None], 2, axis=2)
    seg_cols0 = np.stack([seg_first, ~seg_first], axis=1)
    acc_h, acc_s = _bias_object_route(
        (two_col, disadvantaged, protected2, hol_rows0, seg_cols0, coin0, coin1), beta
    )
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


def test_theorem_errors_only_hit_disadvantaged_bests():
    # discounts only lower scores, so an advantaged best applicant never loses
    rng = derive_stream(50, 8)
    batch_arrays = draw_theorem_batch(rng, 512, 6, 0.5, 1.0, 0.5)
    err_h, err_s, best_is_dis = theorem_error_pairs(*batch_arrays, 0.0)
    assert np.all(err_h[~best_is_dis] == 0.0)
    assert np.all(err_s[~best_is_dis] == 0.0)


def test_theorem_worker_sums_are_consistent():
    params = {"n": 4, "delta": 1.0, "lambda": 1.0, "gamma": 0.5, "beta": 0.0}
    (out,) = theorem_worker((params,), derive_stream(51, 8), 400)
    assert all(x.shape == (400,) for x in out.values())
    assert np.all((0.0 <= out["hol"]) & (out["hol"] <= 1.0))
    assert np.all((0.0 <= out["seg"]) & (out["seg"] <= 1.0))
    assert np.array_equal(out["diff"], out["hol"] - out["seg"])
    # errors can strike only disadvantaged bests, which is why the driver reads
    # the conditional errors off hol and seg
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
    # the production draw labels its columns with the same class patterns
    drawn = draw_theorem_batch(derive_stream(53, 9), 8, n, 0.5, lam, 0.5)
    for i in (1, 3):
        assert np.array_equal(drawn[i], maxima[i][:8])


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
    n, size = 20, 100_000
    counts = theorem_class_sizes(derive_stream(56, 8), size, n)
    assert counts.shape == (size, 4) and counts.min() >= 0
    assert np.all(counts.sum(axis=1) == n)
    assert np.all(counts[:, 0] + counts[:, 1] == n // 2)  # disadvantaged
    assert np.all(counts[:, 0] + counts[:, 2] == n // 2)  # owned by evaluator 0
    # evaluator 0's disadvantaged share: n/2 draws from n/2 + n/2
    law = stats.hypergeom(n, n // 2, n // 2)
    assert abs(counts[:, 0].mean() - law.mean()) <= 3.0 * law.std() / np.sqrt(size)


def test_tail_worker_single_draw_matches_the_full_draw():
    # U ** (1/1) == U, so at one applicant per group the maximum is the draw
    params = {"n_per_group": 1, "delta": 0.7}
    rng = derive_stream(57, 8)
    dis_best = power_law_inv_cdf(rng.random((500, 1)), 0.7).max(axis=1)
    adv_best = power_law_inv_cdf(rng.random((500, 1)), 0.7).max(axis=1)
    (out,) = tail_worker((params,), derive_stream(57, 8), 500)
    assert np.array_equal(out["below"], dis_best < 2.0 * adv_best)
    assert np.array_equal(max_of_draws(derive_stream(57, 8), np.ones(500, dtype=int), 0.7), dis_best)
