"""Vectorized Monte Carlo kernels behind the experiment drivers.

Each kernel separates drawing from scoring.  ``draw_*`` helpers consume a
Generator and return batched input arrays; the scoring cores are pure
functions of those explicit arrays.  The cores reproduce, run for run and
bit for bit, what the object layer (report_truthful, report_biased,
report_screened, merge_scores, top1_accuracy, local_quantile_bins,
mean_bin_error) computes, and the test suite drives both routes on
identical inputs and requires exact agreement.
The bias scorer multiplies each row by a per-column factor, ``beta`` where
the cell is discounted and 1.0 elsewhere: ``x * 1.0`` is ``x`` and ``x *
beta`` is ``beta * x``, so each row holds the object layer's reported
values, summed along the same axis, and equality is exact, not approximate.

Every top-choice scorer takes runs whose true best, the top row total, is
unique: ``_redraw_tied_rows`` redraws each tied run before a score is kept.
The screening scorer, ``efficiency_accuracies``, is the one rank count: a run
scores 1.0 when the best's place in its owner's screening order is below the
cutoff and 0.0 otherwise, with no sort.  The bias scorer,
``bias_scheme_accuracies``, first decides each run from the true best's own
estimate (``_decide_then_score``): discounting never raises an estimate, so
the best wins outright when it is not discounted, and loses when it is
discounted below the top total that is not.  Only the runs this cannot
settle build every applicant's estimate and compare each with the top one
(``_tie_adjusted_hits``), since discounted estimates can tie there.  The
theorem scorer, ``theorem_error_pairs``, is the same core at ``d = 2``.

The two extreme correlations skip the Gaussian copula:
``draw_correlated_values`` draws plain uniforms at ``sigma = 0`` and one
value per applicant at ``sigma = 1``.  In a fully correlated pool an
estimate is a per-class constant times the value, so only each class's best
applicant can be picked.  ``draw_theorem_batch`` therefore samples just the
best value in each of four classes; its scorer is unchanged, and on the
class maxima of a full pool it returns that pool's results bit for bit.
``bias_worker`` at ``sigma = 1`` scores the pool itself, its one value per
applicant broadcast against the ``d`` columns.

``draw_correlated_values`` is the package's one copula sampler, and
``_redraw_tied_rows`` its one tie policy: ``build_pool``, which draws the
object layer's single pool for ``pool-dump``, takes both from here.

A worker takes the params of one draw group (see ``parallel.run_points``)
and returns one dict of per-run arrays per member.  Efficiency points that
differ only in ``tau``, and bias points that differ only in ``delta`` and
``beta``, share a group and so one draw; ``efficiency_draw_key`` and
``bias_draw_key`` say which points those are.  Every other worker takes a
group of one.

Workers take their marginal as an object in ``params["marginal"]``; the
marginals are frozen module-level dataclasses, so they pickle intact to pool
workers.  ``calibration_worker`` draws percentiles and reads no marginal.

Sweeps run millions of pools on one core, so everything is vectorized over
the batch axis, and the chunked runner keeps per-chunk memory modest.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import ndtr

from ..distributions import PowerLaw, _U_BELOW_ONE, power_law_inv_cdf
from ..evaluators import screening_cutoff
from ..metrics import percentile_bin
from ..population import AttributeMatrix, round_half_up

# A tie for the best applicant has probability zero under a continuous
# marginal, so a run still tied after this many redraws means the marginal
# is numerically constant, as a power law with a huge delta is.
MAX_TIE_REDRAWS = 10


def random_subset_mask(
    rng: np.random.Generator, batch: int, total: int, k: int
) -> np.ndarray:
    """Batched uniform random k-subsets of ``range(total)`` as bool masks.

    Each row holds the positions of its k smallest uniforms: those at or
    below the row's k-th smallest.  A row where equal uniforms straddle the
    k-th place has more than k of them, and takes the k positions that
    ``argpartition`` puts first, so the masks are those of an
    ``argpartition`` of every row.
    """
    if not 0 <= k <= total:
        raise ValueError("k must lie in [0, total]")
    if k == 0 or k == total:
        return np.full((batch, total), k == total)
    u = rng.random((batch, total))
    mask = u <= np.partition(u, k - 1, axis=1)[:, k - 1 : k]
    tied = np.flatnonzero(np.count_nonzero(mask, axis=1) != k)
    if tied.size:
        idx = np.argpartition(u[tied], k - 1, axis=1)[:, :k]
        mask[tied] = False
        mask[tied[:, None], idx] = True
    return mask


def draw_correlated_values(
    rng: np.random.Generator, batch: int, n: int, d: int, sigma: float, marginal
) -> np.ndarray:
    """Draw ``batch`` pools of attribute values, ``(batch, n, d)``.

    Within an applicant, latent normals follow the one-factor construction
    ``z_j = sqrt(sigma) * w + sqrt(1 - sigma) * e_j`` with ``w`` and ``e_j``
    independent standard normals, which realizes the equicorrelated
    covariance exactly; each is mapped through the normal CDF and then the
    marginal's inverse CDF.  With ``marginal`` None it returns the copula's
    uniforms, to which a caller can apply several marginals.  The normals
    become the uniforms in place, so one ``(batch, n, d)`` array is alive
    until the inverse CDF.

    The two extreme correlations take exact shortcuts.  At ``sigma = 0`` the
    copula's uniforms are independent, so they are drawn directly.  At
    ``sigma = 1`` every attribute of an applicant is the same number, so one
    normal is drawn per applicant and its value copied into the ``d``
    columns of a writable array.
    """
    if n < 1 or d < 1:
        raise ValueError("n and d must be at least 1")
    if not 0.0 <= sigma <= 1.0:
        raise ValueError("sigma must lie in [0, 1]")
    if sigma == 0.0:
        u = rng.random((batch, n, d))
        return u if marginal is None else marginal.inv_cdf(u)
    if sigma == 1.0:
        z = rng.standard_normal((batch, n, 1))
        u = ndtr(z, out=z)
        np.minimum(u, _U_BELOW_ONE, out=u)
        return np.repeat(u if marginal is None else marginal.inv_cdf(u), d, axis=2)
    common = rng.standard_normal((batch, n))
    z = rng.standard_normal((batch, n, d))
    z *= math.sqrt(1.0 - sigma)
    z += math.sqrt(sigma) * common[..., None]
    u = ndtr(z, out=z)
    np.minimum(u, _U_BELOW_ONE, out=u)
    return u if marginal is None else marginal.inv_cdf(u)


def _tie_adjusted_hits(estimates: np.ndarray, best: np.ndarray) -> np.ndarray:
    """Per-run probability that a uniform top pick lands on ``best``."""
    top = estimates.max(axis=1)
    ties = (estimates == top[:, None]).sum(axis=1)
    hit = estimates[np.arange(estimates.shape[0]), best] == top
    return hit / ties


def _best_is_tied(values: np.ndarray) -> np.ndarray:
    """Per run, whether the best row total is attained more than once.

    ``values`` is ``(batch, n)`` or ``(batch, n, d)``, ranked by row total.
    """
    total = values if values.ndim == 2 else values.sum(axis=2)
    return (total == total.max(axis=1)[:, None]).sum(axis=1) > 1


def _redraw_tied_rows(draws: np.ndarray, draw, marginals, tied=_best_is_tied) -> None:
    """Redraw, in place, every run whose true best applicant is tied.

    ``tied(draws)`` flags those runs; by default ``draws`` are the values
    themselves.  ``draw(k)`` returns ``k`` fresh runs, and ``marginals`` are
    named if the ties persist.  Only the tied runs are redrawn, at most
    ``MAX_TIE_REDRAWS`` times.
    """
    for attempt in range(MAX_TIE_REDRAWS + 1):
        flags = tied(draws)
        if not flags.any():
            return
        if attempt == MAX_TIE_REDRAWS:
            raise ValueError(
                f"the best applicant stayed tied through {MAX_TIE_REDRAWS} redraws:"
                f" {' or '.join(map(str, marginals))} gives numerically constant"
                " values (is delta too large?)"
            )
        draws[flags] = draw(int(flags.sum()))


def build_pool(
    n: int,
    d: int,
    sigma: float,
    alpha: float,
    lam: float,
    marginal,
    rng: np.random.Generator,
) -> AttributeMatrix:
    """Draw one complete applicant pool for the object layer.

    The values are one run of ``draw_correlated_values``, redrawn while the
    best row total is tied.  Then ``round_half_up(alpha * n)`` applicants are
    labeled disadvantaged and ``round_half_up(lam * d)`` attributes flagged
    protected, both chosen uniformly at random.
    """
    if n < 2:
        raise ValueError("a pool needs at least 2 applicants")
    if d < 1:
        raise ValueError("a pool needs at least 1 attribute")
    if not 0.0 <= sigma <= 1.0:
        raise ValueError("sigma must lie in [0, 1]")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lambda must lie in [0, 1]")

    values = draw_correlated_values(rng, 1, n, d, sigma, marginal)
    _redraw_tied_rows(
        values,
        lambda k: draw_correlated_values(rng, k, n, d, sigma, marginal),
        (marginal,),
    )
    disadvantaged = np.zeros(n, dtype=bool)
    disadvantaged[: round_half_up(alpha * n)] = True
    perm = rng.permutation(n)
    protected = np.zeros(d, dtype=bool)
    protected[rng.choice(d, size=round_half_up(lam * d), replace=False)] = True
    return AttributeMatrix(values[0][perm], disadvantaged[perm], protected)


# ---------------------------------------------------------------------------
# calibration: local quantile bins versus population bins


def calibration_worker(members, rng: np.random.Generator, size: int) -> list:
    (params,) = members
    n = int(params["n"])
    num_bins = int(params["num_bins"])

    u = rng.random((size, n))  # the percentiles F(x): ranks and bins read nothing else
    ranks = np.argsort(np.argsort(u, axis=1, kind="stable"), axis=1) + 1
    local = -(-num_bins * ranks // n)
    truth = percentile_bin(u, num_bins)
    return [{"binner": np.abs(local - truth).mean(axis=1)}]


# ---------------------------------------------------------------------------
# screening efficiency: two holistic screeners, two attributes


def efficiency_accuracies(values: np.ndarray, rows0: np.ndarray, taus) -> list:
    """Top-choice accuracy per run for the two-screener committee, per tau.

    ``values`` is ``(batch, n, 2)``; ``rows0`` marks the n/2 applicants owned
    by evaluator 0.  Each evaluator ranks its half by the first attribute and
    evaluates the second only for its top ``ceil(tau * n/2)``; an applicant
    missing the second attribute is ineligible for the top pick.

    Each run's best row total must be unique, as ``draw_efficiency_batch``
    makes it.  Then the committee picks the true best ``b`` exactly when
    ``b`` is screened in, so a run scores 1.0 or 0.0 by a rank count: ``b``
    is screened in when fewer than the cutoff applicants of its own half
    come before it, by a higher first attribute or by an equal one at a
    lower index (the object route's tie-break).
    """
    n = values.shape[1]
    first = values[:, :, 0]
    best = np.argmax(first + values[:, :, 1], axis=1)[:, None]
    first_b = np.take_along_axis(first, best, axis=1)
    ahead = (first > first_b) | ((first == first_b) & (np.arange(n) < best))
    ahead &= rows0 == np.take_along_axis(rows0, best, axis=1)
    place = np.count_nonzero(ahead, axis=1)
    return [(place < screening_cutoff(tau, n // 2)).astype(float) for tau in taus]


def efficiency_cells(n: int, tau: float) -> int:
    """Cells evaluated per run: every first attribute plus screened seconds."""
    return n + 2 * screening_cutoff(tau, n // 2)


def draw_efficiency_batch(
    rng: np.random.Generator, size: int, n: int, sigma: float, marginal
):
    """Draw pools (redrawing any run whose true best is tied) and ownership."""
    values = draw_correlated_values(rng, size, n, 2, sigma, marginal)
    _redraw_tied_rows(
        values,
        lambda k: draw_correlated_values(rng, k, n, 2, sigma, marginal),
        (marginal,),
        # a + b is the row total's bits, and much faster than sum(axis=2)
        lambda v: _best_is_tied(v[..., 0] + v[..., 1]),
    )
    rows0 = random_subset_mask(rng, size, n, n // 2)
    return values, rows0


def efficiency_draw_key(params: dict):
    """What an efficiency draw reads: the points of one key differ only in tau."""
    return params["n"], params["sigma"], params["marginal"]


def efficiency_worker(members, rng: np.random.Generator, size: int) -> list:
    shared = members[0]
    n = int(shared["n"])
    if n % 2:
        raise ValueError("the two-screener committee needs an even pool")

    values, rows0 = draw_efficiency_batch(
        rng, size, n, float(shared["sigma"]), shared["marginal"]
    )
    taus = [float(params["tau"]) for params in members]
    return [{"holistic": acc} for acc in efficiency_accuracies(values, rows0, taus)]


# ---------------------------------------------------------------------------
# bias grids: holistic versus segmented committees of two, shared pools


def _decide_then_score(values, total, best, hit, factor):
    """One scheme's accuracies: decide each run from ``best``'s own estimate.

    ``hit (B, n)`` marks the discounted rows and ``factor (B, d)`` holds each
    column's factor in them; every other row reports its total.  ``best`` is
    the row of each run's unique top total.  A run is open when ``best`` is hit but
    reports at least the largest total of the rows that are not; open runs
    alone build every row's estimate.
    """
    runs = np.arange(best.size)
    hit_b = hit[runs, best]
    own = (values[runs, best] * factor).sum(axis=1)
    rest = np.where(hit, -np.inf, total).max(axis=1)
    acc = np.where(hit_b, 0.0, 1.0)
    open_runs = np.flatnonzero(hit_b & ~(own < rest))
    if open_runs.size:
        est = np.where(
            hit[open_runs],
            (values[open_runs] * factor[open_runs, None, :]).sum(axis=2),
            total[open_runs],
        )
        acc[open_runs] = _tie_adjusted_hits(est, best[open_runs])
    return acc


def bias_scheme_accuracies(
    values: np.ndarray,
    disadvantaged: np.ndarray,
    protected: np.ndarray,
    hol_rows0: np.ndarray,
    seg_cols0: np.ndarray,
    coin0: np.ndarray,
    coin1: np.ndarray,
    beta: float,
    total=None,
):
    """Paired top-choice accuracies ``(holistic, segmented)`` per run.

    Shapes: ``values (B, n, d)``, ``disadvantaged (B, n)``, ``protected
    (B, d)``, ``hol_rows0 (B, n)`` and ``seg_cols0 (B, d)`` mark evaluator
    0's share under each scheme, ``coin0`` and ``coin1`` are the realized
    bias coins.  Both schemes score the same pools (common random numbers),
    so the per-run difference is a low-variance paired estimate.  ``values``
    may be ``(B, n, 1)`` when its d columns are equal, and ``total (B, n)``
    passes row totals already summed.  Each run's best row total must be
    unique, as ``bias_worker`` makes it by redrawing tied runs.

    Each run is first decided from the true best ``b``'s own estimate.  A
    row is hit when it is discounted: disadvantaged and owned by a biased
    evaluator (holistic), or disadvantaged (segmented).  Values are >= 0 and
    ``0 <= beta < 1``, so ``beta * x <= x`` after rounding, and rounded
    addition is monotone; a hit row's estimate is therefore never above its
    total, and a row that is not hit reports its total.  So the run scores
    1.0 when ``b`` is not hit and its total is the unique maximum, and 0.0
    when ``b`` is hit and its estimate is below the largest total of a row
    that is not.  ``b``'s estimate is the same products summed along the
    same contiguous axis as the full computation, so it has the same bits.
    Every other run is scored in full, so the result is the object layer's
    bit for bit.
    """
    if total is None:
        total = np.broadcast_to(values, disadvantaged.shape + protected.shape[1:]).sum(axis=2)
    best = np.argmax(total, axis=1)

    # holistic: a row's owner reports every attribute of that row
    row_coin = np.where(hol_rows0, coin0[:, None], coin1[:, None])
    acc_h = _decide_then_score(
        values, total, best, disadvantaged & row_coin,
        np.where(protected, beta, 1.0),
    )

    # segmented: a column's owner reports that attribute for every row
    col_coin = np.where(seg_cols0, coin0[:, None], coin1[:, None])
    acc_s = _decide_then_score(
        values, total, best, disadvantaged,
        np.where(protected & col_coin, beta, 1.0),
    )
    return acc_h, acc_s


def draw_bias_batch(
    rng: np.random.Generator,
    size: int,
    n: int,
    d: int,
    sigma: float,
    alpha: float,
    lam: float,
    gamma: float | None,
):
    """Draw what one bias-grid chunk shares across its draw group, in a fixed order.

    Returns the copula uniforms ``u (size, n, d)``, of which a member's
    values are ``marginal.inv_cdf(u)``, then the masks and coins that
    ``bias_scheme_accuracies`` takes after the values.  At ``sigma = 1``
    every attribute of an applicant is the same value, so ``u`` has one
    column, ``(size, n, 1)``.  With ``gamma`` None the committee is the
    fixed one-biased, one-unbiased pair (evaluator 0 biased); otherwise each
    evaluator's coin is an independent Bernoulli(gamma).  Ties depend on the
    members' marginals, so ``bias_worker`` redraws them.
    """
    if n % 2 or d % 2:
        raise ValueError("two-evaluator committees need even n and d")
    u = draw_correlated_values(rng, size, n, 1 if sigma == 1.0 else d, sigma, None)
    disadvantaged = random_subset_mask(rng, size, n, round_half_up(alpha * n))
    protected = random_subset_mask(rng, size, d, round_half_up(lam * d))
    hol_rows0 = random_subset_mask(rng, size, n, n // 2)
    seg_cols0 = random_subset_mask(rng, size, d, d // 2)
    if gamma is None:
        coin0 = np.ones(size, dtype=bool)
        coin1 = np.zeros(size, dtype=bool)
    else:
        coin0 = rng.random(size) < gamma
        coin1 = rng.random(size) < gamma
    return u, disadvantaged, protected, hol_rows0, seg_cols0, coin0, coin1


def bias_draw_key(params: dict):
    """What a bias draw reads: the points of one key differ only in delta and beta."""
    return tuple(params.get(name) for name in ("n", "d", "sigma", "alpha", "lambda", "gamma"))


def bias_worker(members, rng: np.random.Generator, size: int) -> list:
    """Score every member of a draw group on one shared draw.

    Each distinct marginal's values are computed once and scored at the beta
    of every member that has it, so one ``(size, n, d)`` values array is
    alive at a time.  A run whose best applicant ties under any member's
    values gets fresh uniforms, and every member is scored again.

    At ``sigma = 1`` the values are ``(size, n, 1)``, one per applicant, and
    broadcast against the ``d`` columns in the row totals and the scorer.
    """
    shared = members[0]
    n = int(shared["n"])
    d = int(shared["d"])
    sigma = float(shared["sigma"])
    gamma = shared.get("gamma")
    u, *labels = draw_bias_batch(
        rng,
        size,
        n,
        d,
        sigma,
        float(shared["alpha"]),
        float(shared["lambda"]),
        None if gamma is None else float(gamma),
    )
    by_marginal = {}
    for index, params in enumerate(members):
        by_marginal.setdefault(params["marginal"], []).append(index)
    scores = [None] * len(members)

    def score_all(u):
        tied = np.zeros(size, dtype=bool)
        for marginal, indices in by_marginal.items():
            values = marginal.inv_cdf(u)
            total = np.broadcast_to(values, (size, n, d)).sum(axis=2)
            tied |= _best_is_tied(total)
            for index in indices:
                beta = float(members[index]["beta"])
                acc_h, acc_s = bias_scheme_accuracies(values, *labels, beta, total)
                scores[index] = {
                    "holistic": acc_h,
                    "segmented": acc_s,
                    "difference": acc_s - acc_h,
                }
        return tied

    _redraw_tied_rows(
        u,
        lambda k: draw_correlated_values(rng, k, n, u.shape[2], sigma, None),
        tuple(by_marginal),
        score_all,
    )
    return scores


# ---------------------------------------------------------------------------
# theorem setting: two attributes, sigma = 1, committee of two


# Class patterns of a fully correlated pool's four classes, in which an
# estimate is a per-class constant times the value: (disadvantaged, owner 0),
# (disadvantaged, owner 1), (advantaged, owner 0), (advantaged, owner 1).
# The theorem draw scores one column per class.
_CLASS_DISADVANTAGED = np.array([True, True, False, False])
_CLASS_OWNER0 = np.array([True, False, True, False])


def theorem_error_pairs(
    values: np.ndarray,
    disadvantaged: np.ndarray,
    protected2: np.ndarray,
    hol_rows0: np.ndarray,
    seg_first: np.ndarray,
    coin0: np.ndarray,
    coin1: np.ndarray,
    beta: float,
):
    """Paired top-choice errors for the fully correlated two-attribute case.

    ``values (B, n)`` is the single value shared by both attributes of each
    applicant (sigma = 1).  ``protected2 (B, 2)`` flags protected attributes,
    ``seg_first`` is True where evaluator 0 owns attribute 0 under the
    segmented scheme.  Returns ``(err_hol, err_seg, best_is_dis)``.

    This is the bias scorer at ``d = 2``: each scheme is one
    ``_decide_then_score`` call on ``values`` as one broadcast column, whose
    two-column row total is ``values + values``.  Each run's best value must
    be unique, as ``draw_theorem_batch`` makes it.  The columns may be whole
    pools or the four class maxima of ``draw_theorem_batch``: an estimate is
    a per-class positive constant times the value, so only a class's best
    applicant can be picked.
    """
    total = values + values
    best = np.argmax(values, axis=1)
    values = values[..., None]
    row_coin = np.where(hol_rows0, coin0[:, None], coin1[:, None])
    acc_h = _decide_then_score(
        values, total, best, disadvantaged & row_coin, np.where(protected2, beta, 1.0)
    )
    col_coin = np.stack([np.where(seg_first, coin0, coin1), np.where(seg_first, coin1, coin0)], 1)
    acc_s = _decide_then_score(
        values, total, best, disadvantaged, np.where(protected2 & col_coin, beta, 1.0)
    )
    best_is_dis = disadvantaged[np.arange(best.size), best]
    return 1.0 - acc_h, 1.0 - acc_s, best_is_dis


def max_of_draws(rng: np.random.Generator, counts, delta: float) -> np.ndarray:
    """Maximum of ``counts`` i.i.d. power-law draws, elementwise.

    The maximum of k i.i.d. draws has CDF ``F(t)**k``, so it is
    ``F^-1(U**(1/k))`` for a single uniform U (David & Nagaraja, *Order
    Statistics*, sec. 2.1): one uniform per maximum, whatever k.  Where k is 0
    the result is 0.0, below the support minimum 1, so an empty class is
    never the best and never ties the top.
    """
    k = np.asarray(counts)
    u = rng.random(k.shape) ** (1.0 / np.maximum(k, 1))
    return np.where(k > 0, power_law_inv_cdf(np.minimum(u, _U_BELOW_ONE), delta), 0.0)


def theorem_class_sizes(rng: np.random.Generator, size: int, n: int) -> np.ndarray:
    """Applicants per class, ``(size, 4)``, in the order of the class patterns.

    Half of the ``n`` applicants are disadvantaged and evaluator 0 owns a
    uniformly random half, so its disadvantaged share is hypergeometric.
    """
    half = n // 2
    dis0 = rng.hypergeometric(half, half, half, size)
    return np.stack([dis0, half - dis0, half - dis0, dis0], axis=1)


def draw_theorem_batch(
    rng: np.random.Generator,
    size: int,
    n: int,
    delta: float,
    lam: float,
    gamma: float,
):
    """Draw one chunk of the theorem experiment in a fixed order.

    A run is drawn as its four class sizes and the best value in each class,
    so its cost does not grow with ``n``.
    """
    if n % 2:
        raise ValueError("the theorem setting needs an even pool")

    def draw(k):
        return max_of_draws(rng, theorem_class_sizes(rng, k, n), delta)

    values = draw(size)
    _redraw_tied_rows(values, draw, (PowerLaw(delta),))
    disadvantaged = np.broadcast_to(_CLASS_DISADVANTAGED, values.shape)
    hol_rows0 = np.broadcast_to(_CLASS_OWNER0, values.shape)
    protected2 = random_subset_mask(rng, size, 2, round_half_up(lam * 2))
    seg_first = rng.random(size) < 0.5
    coin0 = rng.random(size) < gamma
    coin1 = rng.random(size) < gamma
    return values, disadvantaged, protected2, hol_rows0, seg_first, coin0, coin1


def theorem_worker(members, rng: np.random.Generator, size: int) -> list:
    (params,) = members
    n = int(params["n"])
    beta = float(params["beta"])
    batch = draw_theorem_batch(
        rng,
        size,
        n,
        float(params["delta"]),
        float(params["lambda"]),
        float(params["gamma"]),
    )
    err_h, err_s, best_is_dis = theorem_error_pairs(*batch, beta)
    return [{"hol": err_h, "seg": err_s, "diff": err_h - err_s, "dis": best_is_dis}]


# ---------------------------------------------------------------------------
# tail comparison: best of one group versus twice the best of another


def tail_worker(members, rng: np.random.Generator, size: int) -> list:
    (params,) = members
    counts = np.full(size, int(params["n_per_group"]))
    delta = float(params["delta"])
    dis_best = max_of_draws(rng, counts, delta)
    adv_best = max_of_draws(rng, counts, delta)
    return [{"below": dis_best < 2.0 * adv_best}]
