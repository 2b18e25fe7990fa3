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
settle build further estimates, since discounted estimates can tie there,
and only for the discounted rows whose totals reach the best's estimate:
no other row can tie or beat it.  The theorem scorer,
``theorem_error_pairs``, takes the bias scorer's arguments at ``d = 2``, as
``draw_theorem_batch`` returns them, and scores the same committees with
its own class-major core: it builds every row's estimate, which gives the
bias scorer's bits only because each run's best is unique, and reduces over
the short class axis of ``(n, B)`` arrays.

The committee scorers fix the split: evaluator 0 owns the first half of the
applicants (holistic) or attributes (segmented).  Applicants are i.i.d. and
attributes exchangeable, so no draw spends numbers on the random halves of
the object layer's plans: a fixed half has their law.

The two extreme correlations skip the Gaussian copula:
``draw_correlated_values`` draws plain uniforms at ``sigma = 0`` and one
uniform per applicant at ``sigma = 1``.  In a fully correlated pool an
estimate is a per-class constant times the value, so only each class's best
applicant can be picked.  ``draw_theorem_batch`` therefore samples just the
best value in each of four classes; its scorer is unchanged, and on the
class maxima of a full pool it returns that pool's results bit for bit.
``bias_worker`` and ``efficiency_worker`` at ``sigma = 1`` score the pool
itself, its one value per applicant broadcast against the ``d`` columns.

``draw_correlated_values`` is the package's one copula sampler, and
``_redraw_tied_rows`` its one tie policy: ``build_pool``, which draws the
object layer's single pool for ``pool-dump``, takes both from here.
Its normal CDF, ``ndtr``, is the package's one use of SciPy, and
``scipy.special`` is imported at its first call rather than with this
module: importing it is most of the CLI's start-up, and ``calibration``,
``theorem-verify`` and every point at ``sigma`` 0 or 1 never call it.
``run_bias_grid`` and ``run_efficiency_sweep`` make that import themselves,
through ``load_ndtr``, before they run their points when some point has
``0 < sigma < 1``, so that forked pool workers inherit it: a sweep makes
its own pool, so a worker that imported it would import it again in every
sweep.

A worker takes the params of one draw group (see ``parallel.run_points``)
and returns one dict of per-run arrays per member.  Efficiency points that
differ only in ``tau``, and bias points that differ only in ``delta`` and
``beta``, share a group and so one draw; ``efficiency_draw_key`` and
``bias_draw_key`` say which points those are.  Every other worker takes a
group of one.

The one marginal is the power law, so a worker reads its ``params["delta"]``
and maps its uniforms through the power law itself.  ``bias_worker`` maps
one draw at several deltas, so it takes the inverse CDF's two halves apart:
one ``log_survival`` per chunk, then one ``power_law_from_log_survival`` per
delta.  The other workers call ``power_law_inv_cdf``, the same bits in one
call.  ``calibration_worker`` draws percentiles and reads no delta.

Sweeps run millions of pools on one core, so everything is vectorized over
the batch axis.  A chunk's temporaries under 32 MiB reuse heap memory that
the last chunk freed, by the allocator thresholds that ``parallel`` sets;
larger ones are mapped afresh on every chunk.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from ..distributions import (
    _U_BELOW_ONE,
    log_survival,
    power_law_from_log_survival,
    power_law_inv_cdf,
)
from ..evaluators import screening_cutoff
from ..metrics import percentile_bin
from ..population import AttributeMatrix, round_half_up
from .results import check_params

# A tie for the best applicant has probability zero under a continuous
# marginal, so a run still tied after this many redraws means the marginal
# is numerically constant, as a power law with a huge delta is.
MAX_TIE_REDRAWS = 10


def ndtr(x, out=None):
    """The standard normal CDF: ``scipy.special.ndtr``, imported at the first call."""
    from scipy.special import ndtr as normal_cdf

    return normal_cdf(x, out=out)


def load_ndtr(points) -> None:
    """Import ``ndtr`` now if any point's copula calls it (``0 < sigma < 1``).

    A driver calls this before ``parallel.run_points``, so that the pool
    workers it forks inherit the import.
    """
    if any(0.0 < point["sigma"] < 1.0 for point in points):
        ndtr(0.0)


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
    rng: np.random.Generator, batch: int, n: int, d: int, sigma: float, delta
) -> np.ndarray:
    """Draw ``batch`` pools of attribute values, ``(batch, n, d)``.

    Within an applicant, latent normals follow the one-factor construction
    ``z_j = sqrt(sigma) * w + sqrt(1 - sigma) * e_j`` with ``w`` and ``e_j``
    independent standard normals, which realizes the equicorrelated
    covariance exactly; each is mapped through the normal CDF and then the
    power law's inverse CDF at ``delta``.  With ``delta`` None it returns the
    copula's uniforms, which a caller can map at several deltas.  The normals
    become the uniforms and the uniforms the values, each in place, in the
    one array the call draws.

    The two extreme correlations take exact shortcuts, with no normal and no
    ``ndtr``.  At ``sigma = 0`` the copula's uniforms are independent, so
    they are drawn directly.  At ``sigma = 1`` every attribute of an
    applicant is the same number, and the normal CDF of a standard normal is
    Uniform(0, 1), so one uniform is drawn per applicant and its value
    copied into the ``d`` columns.
    """
    if n < 1 or d < 1:
        raise ValueError("n and d must be at least 1")
    check_params({"sigma": sigma})
    if sigma == 0.0:
        u = rng.random((batch, n, d))
    elif sigma == 1.0:
        u = rng.random((batch, n, 1))
    else:
        z = np.empty((batch, n, d))  # before common, so freeing it leaves no heap hole under z
        common = rng.standard_normal((batch, n))
        rng.standard_normal(out=z)
        z *= math.sqrt(1.0 - sigma)
        z += math.sqrt(sigma) * common[..., None]
        u = ndtr(z, out=z)
        np.minimum(u, _U_BELOW_ONE, out=u)
    values = u if delta is None else power_law_inv_cdf(u, delta, out=u)
    return np.repeat(values, d, axis=2) if values.shape[2] != d else values


def _best_is_tied(values: np.ndarray) -> np.ndarray:
    """Per run, whether the best row total is attained more than once.

    ``values`` is ``(batch, n)`` or ``(batch, n, d)``, ranked by row total.
    """
    total = values if values.ndim == 2 else values.sum(axis=2)
    top = total[np.arange(total.shape[0]), np.argmax(total, axis=1)]
    return np.count_nonzero(total == top[:, None], axis=1) > 1


def _redraw_tied_rows(draws: np.ndarray, draw, deltas, tied=_best_is_tied) -> None:
    """Redraw, in place, every run whose true best applicant is tied.

    ``tied(draws)`` flags those runs; by default ``draws`` are the values
    themselves.  ``draw(k)`` returns ``k`` fresh runs.  If the ties persist,
    the power law's ``deltas`` are named, read after the last ``tied`` call.
    Only the tied runs are redrawn, at most ``MAX_TIE_REDRAWS`` times.
    """
    for attempt in range(MAX_TIE_REDRAWS + 1):
        flags = tied(draws)
        if not flags.any():
            return
        if attempt == MAX_TIE_REDRAWS:
            raise ValueError(
                f"the best applicant stayed tied through {MAX_TIE_REDRAWS} redraws:"
                f" the power law at {' or '.join(f'delta={de!r}' for de in deltas)}"
                " gives numerically constant values (is delta too large?)"
            )
        draws[flags] = draw(int(flags.sum()))


def build_pool(
    n: int,
    d: int,
    sigma: float,
    alpha: float,
    lam: float,
    delta: float,
    rng: np.random.Generator,
) -> AttributeMatrix:
    """Draw one complete applicant pool for the object layer.

    The values are one run of ``draw_correlated_values``, redrawn while the
    best row total is tied.  Then ``round_half_up(alpha * n)`` applicants are
    labeled disadvantaged and ``round_half_up(lam * d)`` attributes flagged
    protected, both chosen uniformly at random.
    """
    if n < 2:
        raise ValueError(f"n must be at least 2, got {n!r}")
    if d < 1:
        raise ValueError(f"d must be at least 1, got {d!r}")
    check_params({"sigma": sigma, "alpha": alpha, "lambda": lam, "delta": delta})

    values = draw_correlated_values(rng, 1, n, d, sigma, delta)
    _redraw_tied_rows(
        values, lambda k: draw_correlated_values(rng, k, n, d, sigma, delta), (delta,)
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

    u = rng.random((size, n))  # the percentiles F(x): the bins read nothing else
    # a run's error is a mean of small integers, exact in any order, so the
    # row is sorted and its r-th smallest percentile takes local bin ceil(K r / n)
    u.sort(axis=1)
    local = -(-num_bins * np.arange(1, n + 1) // n)
    truth = percentile_bin(u, num_bins)
    return [{"binner": np.abs(local - truth).mean(axis=1)}]


# ---------------------------------------------------------------------------
# screening efficiency: two holistic screeners, two attributes


def efficiency_accuracies(values: np.ndarray, taus) -> list:
    """Top-choice accuracy per run for the two-screener committee, per tau.

    ``values`` is ``(batch, n, 2)``, or ``(batch, n, 1)`` when an applicant's
    two attributes are equal; evaluator 0 owns applicants ``0 ... n/2 - 1``.
    Each evaluator ranks its half by the first attribute and evaluates the
    second only for its top ``ceil(tau * n/2)``; an applicant missing the
    second attribute is ineligible for the top pick.

    Each run's best row total must be unique, as ``draw_efficiency_batch``
    makes it.  Then the committee picks the true best ``b`` exactly when
    ``b`` is screened in, so a run scores 1.0 or 0.0 by a rank count: ``b``
    is screened in when fewer than the cutoff applicants of its own half
    come before it, by a higher first attribute or by an equal one at a
    lower index (the object route's tie-break).
    """
    n = values.shape[1]
    first = values[:, :, 0]
    best = np.argmax(first + values[:, :, -1], axis=1)[:, None]
    first_b = np.take_along_axis(first, best, axis=1)
    ahead = (first > first_b) | ((first == first_b) & (np.arange(n) < best))
    ahead &= (np.arange(n) < n // 2) == (best < n // 2)
    place = np.count_nonzero(ahead, axis=1)
    return [(place < screening_cutoff(tau, n // 2)).astype(float) for tau in taus]


def efficiency_cells(n: int, tau: float) -> int:
    """Cells evaluated per run: every first attribute plus screened seconds."""
    return n + 2 * screening_cutoff(tau, n // 2)


def draw_efficiency_batch(
    rng: np.random.Generator, size: int, n: int, sigma: float, delta: float
):
    """Draw pools, redrawing any run whose true best is tied.

    The pools are ``(size, n, 2)``, or ``(size, n, 1)`` at ``sigma = 1``,
    where both attributes of an applicant are the same value.  No ownership
    is drawn: evaluator 0 owns the first half.
    """
    d = 1 if sigma == 1.0 else 2
    values = draw_correlated_values(rng, size, n, d, sigma, delta)
    _redraw_tied_rows(
        values,
        lambda k: draw_correlated_values(rng, k, n, d, sigma, delta),
        (delta,),
        # a + b is the row total's bits, and much faster than sum(axis=2)
        lambda v: _best_is_tied(v[..., 0] + v[..., -1]),
    )
    return values


def efficiency_draw_key(params: dict):
    """What an efficiency draw reads: the points of one key differ only in tau."""
    return params["n"], params["sigma"], params["delta"]


def efficiency_worker(members, rng: np.random.Generator, size: int) -> list:
    shared = members[0]
    n = int(shared["n"])
    check_params({"n": n})
    sigma, delta = float(shared["sigma"]), float(shared["delta"])
    values = draw_efficiency_batch(rng, size, n, sigma, delta)
    taus = [float(params["tau"]) for params in members]
    return [{"holistic": acc} for acc in efficiency_accuracies(values, taus)]


# ---------------------------------------------------------------------------
# bias grids: holistic versus segmented committees of two, shared pools


def _decide_then_score(values, total, best, hit, factor):
    """One scheme's accuracies: decide each run from ``best``'s own estimate.

    ``hit (B, n)`` marks the discounted rows and ``factor (B, d)`` holds each
    column's factor in them; every other row reports its total.  ``best`` is
    the row of each run's unique top total.  A run where ``best`` is not hit
    scores 1.0, and only the others are looked at further.  Such a run is
    open when ``best`` reports at least the largest total of the rows that
    are not hit; open runs score the chance that a uniform pick among the
    top estimates lands on ``best``.  A hit row's estimate is never above
    its total, so a hit row whose total is below ``best``'s estimate can
    neither top nor tie it, and keeps its total: only the other hit rows'
    estimates are built, each summed along its row as in ``best``'s.
    """
    acc = np.ones(best.size)
    runs = np.flatnonzero(hit[np.arange(best.size), best])
    acc[runs] = 0.0
    own = (values[runs, best[runs]] * factor[runs]).sum(axis=1)
    hit, total = hit[runs], total[runs]
    is_open = ~(own < np.where(hit, -np.inf, total).max(axis=1))
    if is_open.any():
        runs, own, hit, est = runs[is_open], own[is_open], hit[is_open], total[is_open]
        r, c = np.nonzero(hit & (est >= own[:, None]))
        rows = runs[r]
        est[r, c] = (values[rows, c] * factor[rows]).sum(axis=1)
        top = est.max(axis=1)
        ties = (est == top[:, None]).sum(axis=1)
        acc[runs] = (est[np.arange(runs.size), best[runs]] == top) / ties
    return acc


def bias_scheme_accuracies(
    values: np.ndarray,
    disadvantaged: np.ndarray,
    protected: np.ndarray,
    coin0: np.ndarray,
    coin1: np.ndarray,
    beta: float,
    total=None,
):
    """Paired top-choice accuracies ``(holistic, segmented)`` per run.

    Shapes: ``values (B, n, d)``, ``disadvantaged (B, n)``, ``protected
    (B, d)``; ``coin0`` and ``coin1`` are the realized bias coins, and
    evaluator 0 owns the first half of the rows (holistic) or the columns
    (segmented).  Both schemes score the same pools (common random numbers),
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
    Every other run builds the estimate of each hit row whose total reaches
    ``b``'s estimate, in the same way; the remaining hit rows lie below it
    whatever they report.  So the result is the object layer's bit for bit.
    """
    if total is None:
        total = np.broadcast_to(values, disadvantaged.shape + protected.shape[1:]).sum(axis=2)
    best = np.argmax(total, axis=1)
    # holistic: a row's owner reports every attribute of that row
    half = np.arange(disadvantaged.shape[1]) < disadvantaged.shape[1] // 2
    row_coin = (half & coin0[:, None]) | (~half & coin1[:, None])
    acc_h = _decide_then_score(
        values, total, best, disadvantaged & row_coin, np.where(protected, beta, 1.0)
    )
    # segmented: a column's owner reports that attribute for every row
    half = np.arange(protected.shape[1]) < protected.shape[1] // 2
    col_coin = (half & coin0[:, None]) | (~half & coin1[:, None])
    acc_s = _decide_then_score(
        values, total, best, disadvantaged, np.where(protected & col_coin, beta, 1.0)
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
    values are ``power_law_inv_cdf(u, delta)``, then the random labels and
    the coins that ``bias_scheme_accuracies`` takes after the values; no
    ownership is drawn, as evaluator 0 owns the first half.  At ``sigma = 1``
    every attribute of an applicant is the same value, so ``u`` has one
    column, ``(size, n, 1)``.  With ``gamma`` None the committee is the
    fixed one-biased, one-unbiased pair (evaluator 0 biased); otherwise each
    evaluator's coin is an independent Bernoulli(gamma).  Ties depend on the
    members' deltas, so ``bias_worker`` redraws them.
    """
    check_params({"n": n, "d": d})
    u = draw_correlated_values(rng, size, n, 1 if sigma == 1.0 else d, sigma, None)
    disadvantaged = random_subset_mask(rng, size, n, round_half_up(alpha * n))
    protected = random_subset_mask(rng, size, d, round_half_up(lam * d))
    if gamma is None:
        coin0 = np.ones(size, dtype=bool)
        coin1 = np.zeros(size, dtype=bool)
    else:
        coin0 = rng.random(size) < gamma
        coin1 = rng.random(size) < gamma
    return u, disadvantaged, protected, coin0, coin1


def bias_draw_key(params: dict):
    """What a bias draw reads: the points of one key differ only in delta and beta."""
    return tuple(params.get(name) for name in ("n", "d", "sigma", "alpha", "lambda", "gamma"))


def bias_worker(members, rng: np.random.Generator, size: int) -> list:
    """Score every member of a draw group on one shared draw.

    The uniforms are turned, in place, into their log-survivals ``log(1 -
    u)``: the one range check, subtraction and ``log`` of the chunk.  Each
    distinct ``delta``'s values, ``power_law_inv_cdf(u, delta)`` bit for bit,
    then cost one multiply and one ``exp`` into one buffer that every delta
    of a scoring pass reuses, and are scored at the beta of every member that
    has it; no score is a view of that buffer.  A run whose best applicant
    ties under any member's values gets fresh uniforms, whose log-survivals
    replace its rows, and every member is scored again.

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
    log_surv = log_survival(u, out=u)
    by_delta = {}
    for index, params in enumerate(members):
        by_delta.setdefault(float(params["delta"]), []).append(index)
    scores = [None] * len(members)
    tied_deltas = []  # those whose values tie in the last scoring pass

    def score_all(log_surv):
        tied = {}
        values = np.empty_like(log_surv)
        for delta, indices in by_delta.items():
            power_law_from_log_survival(log_surv, delta, out=values)
            total = np.broadcast_to(values, (size, n, d)).sum(axis=2)
            tied[delta] = _best_is_tied(total)
            for index in indices:
                beta = float(members[index]["beta"])
                acc_h, acc_s = bias_scheme_accuracies(values, *labels, beta, total)
                scores[index] = {
                    "holistic": acc_h,
                    "segmented": acc_s,
                    "difference": acc_s - acc_h,
                }
        tied_deltas[:] = [delta for delta, flags in tied.items() if flags.any()]
        return np.any(list(tied.values()), axis=0)

    def draw(k):
        fresh = draw_correlated_values(rng, k, n, log_surv.shape[2], sigma, None)
        return log_survival(fresh, out=fresh)

    _redraw_tied_rows(log_surv, draw, tied_deltas, score_all)
    return scores


# ---------------------------------------------------------------------------
# theorem setting: two attributes, sigma = 1, committee of two


# A fully correlated pool's four classes, in which an estimate is a per-class
# constant times the value: (disadvantaged, owner 0), (advantaged, owner 0),
# (disadvantaged, owner 1), (advantaged, owner 1).  The theorem draw scores
# one column per class, and evaluator 0 owns the first half.
_CLASS_DISADVANTAGED = np.array([True, False, True, False])


def _columns_best_is_tied(values: np.ndarray) -> np.ndarray:
    """``_best_is_tied`` of ``values (batch, n)``, reduced over a ``(n, batch)`` copy.

    Over rows only a few values wide, numpy's reductions pay per row; on the
    transposed copy each reduction is a few elementwise passes over the batch.
    """
    cols = np.ascontiguousarray(values.T)
    return np.count_nonzero(cols == cols.max(axis=0), axis=0) > 1


def _committee_errors(v, total, is_best, hit, factor):
    """One scheme's errors over class-major ``(n, B)`` arrays.

    ``hit`` marks the discounted rows and ``factor (2, B)`` holds each
    column's factor in them; a hit row's estimate is ``v * f0 + v * f1``,
    the object layer's two-term row sum, and every other row reports its
    total.  A run errs by the chance that a uniform pick among the top
    estimates misses its best row, ``is_best``.
    """
    est = np.where(hit, v * factor[0] + v * factor[1], total)
    at_top = est == est.max(axis=0)
    return 1.0 - (at_top & is_best).any(axis=0) / np.count_nonzero(at_top, axis=0)


def theorem_error_pairs(
    values: np.ndarray,
    disadvantaged: np.ndarray,
    protected2: np.ndarray,
    coin0: np.ndarray,
    coin1: np.ndarray,
    beta: float,
):
    """Paired top-choice errors for the fully correlated two-attribute case.

    Takes ``bias_scheme_accuracies``' arguments at ``d = 2``, except that
    ``values (B, n)`` is the single value shared by both attributes of each
    applicant (sigma = 1), and evaluator 0 takes column 0 under segmented
    allocation.  Returns ``(err_hol, err_seg, best_is_dis)``.

    The committees are the bias scorer's, on ``values`` as one broadcast
    column whose two-column row total is ``values + values``.  Each run's
    best value must be unique, as ``draw_theorem_batch`` makes it.  Then
    every row's estimate can be built, not only those ``_decide_then_score``
    looks at: a hit row's estimate is never above its total, so a row that
    scorer leaves at its total stays below the best's estimate either way,
    and the top estimates, their count and whether the best is among them
    are the same.  So the errors are the bias scorer's, bit for bit.  The
    arrays are transposed once to ``(n, B)`` and reduced over axis 0: the
    rows are as narrow as four, and a reduction along so short an axis
    costs numpy far more than the arithmetic.  The columns may be whole
    pools or the four class maxima of ``draw_theorem_batch``: an estimate is
    a per-class positive constant times the value, so only a class's best
    applicant can be picked.
    """
    v, dis, protected = (np.ascontiguousarray(a.T) for a in (values, disadvantaged, protected2))
    total = v + v
    is_best = total == total.max(axis=0)
    coins = np.stack([coin0, coin1])  # evaluator e's coin in row e
    # holistic: a row's owner reports every attribute of that row
    row_coin = np.repeat(coins, v.shape[0] // 2, axis=0)
    err_h = _committee_errors(v, total, is_best, dis & row_coin, np.where(protected, beta, 1.0))
    # segmented: a column's owner reports that attribute for every row
    err_s = _committee_errors(v, total, is_best, dis, np.where(protected & coins, beta, 1.0))
    return err_h, err_s, (dis & is_best).any(axis=0)


def max_of_draws(rng: np.random.Generator, counts, delta: float) -> np.ndarray:
    """Maximum of ``counts`` i.i.d. power-law draws, elementwise.

    The maximum of k i.i.d. draws has CDF ``F(t)**k``, so it is
    ``F^-1(U**(1/k))`` for a single uniform U (David & Nagaraja, *Order
    Statistics*, sec. 2.1): one uniform per maximum, whatever k.  Where k is 0
    the result is 0.0, below the support minimum 1, so an empty class is
    never the best and never ties the top.  The map works in the one array
    it draws.
    """
    k = np.asarray(counts)
    u = rng.random(k.shape)
    u **= 1.0 / np.maximum(k, 1)
    np.minimum(u, _U_BELOW_ONE, out=u)
    power_law_inv_cdf(u, delta, out=u)
    u[k == 0] = 0.0
    return u


@functools.cache
def _dis0_cdf(half: int) -> tuple:
    """``(lo, cdf, guide)``: the CDF of Hypergeometric(half, half, half) at ``lo, lo + 1, ...``.

    The pmf is ``comb(half, k)**2 / comb(2 * half, half)``, so ``log p(k + 1)
    - log p(k) = 2 * log((half - k) / (k + 1))``, summed outward from the
    mode, where the mass is.  The variance is ``half**2 / (4 * (2 * half -
    1))``, and more than 40 SD from the mode the pmf is below ``2 * half *
    exp(-800)``, which is 0 in float64, so the table spans the mode +- 40 SD
    only.  With ``M = cdf.size``, entry i lies in bucket ``floor(cdf[i] *
    M)``, and ``guide[j]`` counts the entries in the buckets below j, for j
    in 0..M.  Built at first use, once per ``half``.
    """
    mode = half // 2
    reach = math.ceil(40.0 * math.sqrt(half * half / (4.0 * (2 * half - 1))))
    lo, hi = max(mode - reach, 0), min(mode + reach, half)
    k = np.arange(lo, hi, dtype=float)
    step = 2.0 * np.log((half - k) / (k + 1.0))  # log p(k + 1) - log p(k)
    m = mode - lo
    log_pmf = np.zeros(hi - lo + 1)
    np.cumsum(step[m:], out=log_pmf[m + 1 :])
    log_pmf[:m] = -np.cumsum(step[:m][::-1])[::-1]
    cdf = np.cumsum(np.exp(log_pmf))
    cdf /= cdf[-1]
    guide = np.searchsorted((cdf * cdf.size).astype(np.intp), np.arange(cdf.size + 1))
    return lo, cdf, guide


def _dis0_shares(half: int, u: np.ndarray) -> np.ndarray:
    """``lo + np.searchsorted(cdf, u, side="right")`` for uniforms ``u``, by the guide table.

    ``floor(u * M)``, with the product rounded, never decreases as u grows
    and is below M for u < 1, so every entry in a bucket below u's bucket j
    is at most u and every entry above it exceeds u: the count is
    ``guide[j]`` plus bucket j's entries that are at most u.  Only the keys
    whose bucket holds more than one entry are searched.
    """
    lo, cdf, guide = _dis0_cdf(half)
    j = (u * cdf.size).astype(np.intp)
    first = guide[j]
    shares = first + (cdf[first] <= u)
    crowded = guide[j + 1] - first > 1
    shares[crowded] = np.searchsorted(cdf, u[crowded], side="right")
    return lo + shares


def theorem_class_sizes(rng: np.random.Generator, size: int, n: int) -> np.ndarray:
    """Applicants per class, ``(size, 4)``, in the order of the theorem's classes.

    Half of the ``n`` applicants are disadvantaged; evaluator 0 owns a fixed
    half, and the disadvantaged half is random, so evaluator 0's
    disadvantaged share ``dis0`` is Hypergeometric(n/2, n/2, n/2).  It is
    drawn by inversion (Devroye, *Non-Uniform Random Variate Generation*,
    sec. III.2), one uniform per run, against the CDF table of ``_dis0_cdf``.
    The inversion is guided by a bucket table (Chen and Asau, *AIIE
    Transactions* 6(2), 1974), which finds most shares in one step; the
    shares are a binary search's, bit for bit.  Against the exact law in
    30-digit arithmetic, its total-variation distance is 7e-14 at n/2 =
    10**6 and 2.1e-12 at ``theorem.MAX_POOL``.  The tables span about 28 *
    sqrt(n/2) values, 14.3 MB at ``theorem.MAX_POOL``: their size is what
    bounds the pool.
    """
    half = n // 2
    dis0 = _dis0_shares(half, rng.random(size))
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
    so its cost does not grow with ``n``.  Returns the arrays that
    ``theorem_error_pairs`` takes before ``beta``; evaluator 0 owns the first
    two classes, so no ownership is drawn.
    """
    check_params({"n": n})

    def draw(k):
        return max_of_draws(rng, theorem_class_sizes(rng, k, n), delta)

    values = draw(size)
    _redraw_tied_rows(values, draw, (delta,), _columns_best_is_tied)
    disadvantaged = np.broadcast_to(_CLASS_DISADVANTAGED, values.shape)
    protected2 = random_subset_mask(rng, size, 2, round_half_up(lam * 2))
    coin0 = rng.random(size) < gamma
    coin1 = rng.random(size) < gamma
    return values, disadvantaged, protected2, coin0, coin1


def theorem_worker(members, rng: np.random.Generator, size: int) -> list:
    (params,) = members
    delta, lam, gamma = (float(params[name]) for name in ("delta", "lambda", "gamma"))
    batch = draw_theorem_batch(rng, size, int(params["n"]), delta, lam, gamma)
    err_h, err_s, best_is_dis = theorem_error_pairs(*batch, float(params["beta"]))
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
