"""Empirical verification of the two-attribute error-gap prediction.

In the fully correlated two-attribute setting (both attributes of an
applicant carry the same value), with half the pool disadvantaged and a
committee of two evaluators whose bias coins are independent Bernoulli(gamma),
the error gap between the schemes admits a closed form.  Writing p for the
probability that the best disadvantaged applicant scores more than twice the
best advantaged one (groups of m = n/2 each),

    err_holistic - err_segmented = gamma * (1 - gamma) / 2 * (4 * p - 1)

when every attribute is protected and the discount floor is 0.  Segmentation
helps exactly when p > 1/4; as the pool grows, p tends to
``2**-(1+delta) / (1 + 2**-(1+delta))``, which crosses 1/4 at
``delta = log2(3) - 1``.  Heavier tails than that favor segmentation, lighter
tails favor holistic review.  When only half the attributes are protected
(one of two), segmentation never hurts, whatever the discount.

This module estimates the gaps by paired Monte Carlo, computes p by a fixed
64-node Gauss-Laguerre rule (and checks it against simulated maxima), and
packages the comparisons as checks that decide and summarise themselves: a
check holds only its evidence, and its verdict, its margin in SE
(``margin_se``, positive on the passing side), derived values, summary
line and result rows are all computed from that evidence.  The closed form rests on a
symmetry with two parts.  An error needs a disadvantaged true best applicant:
an exact per-run fact (reports never raise a disadvantaged score or touch an
advantaged one), which the kernel tests check run by run.  And the best is
disadvantaged in half the runs: the formula check gates that share within
3 SE of 1/2.

There is one gap check: the formula and threshold families share their
evidence and differ only in their verdict.  The threshold verdict is the
one-sided sign gate alone, since the benchmark judges it at fresh seeds,
where a two-sided 3 SE gate would fail about 1% of correct runs.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from ..rng import STREAM_THEOREM
from .parallel import mean_and_se, run_points
from .results import ExperimentResult, GridSpec, check_distinct, check_params, sig4
from .kernels import tail_worker, theorem_worker

THEOREM_CHUNK = 8192

# Sub-stream tags for the individual checks.
_PART_A, _FORMULA, _THRESHOLD, _TAIL = 1, 2, 3, 4

# The class-size draw holds a CDF table and its guide table of about
# 28 * sqrt(n/2) entries each, 14.3 MB at MAX_POOL, and max_of_draws's
# U**(1/k) rounds toward 1 as k grows: at 200 000 pools the simulated tail
# is 2.5 SE off its prediction at k = 10**14, 30 SE at 10**15.
MAX_POOL = 2 * (10**9 - 1)
MAX_TAIL_GROUP = 10**12


def check_pool_size(n: int) -> None:
    """Reject a pool larger than the class-size draw takes."""
    if n > MAX_POOL:
        raise ValueError(f"n must be at most {MAX_POOL} to draw class sizes, got {n}")


def check_tail_group(n_per_group: int) -> None:
    """Reject a group size too large for the simulated maxima to be right."""
    if n_per_group > MAX_TAIL_GROUP:
        raise ValueError(
            f"group size must be at most {MAX_TAIL_GROUP}, as U**(1/k) rounds toward 1"
            f" beyond it, got {n_per_group}"
        )


def tail_above_limit(delta: float) -> float:
    """Large-pool limit of P(best disadvantaged > 2 * best advantaged)."""
    w = 2.0 ** -(1.0 + delta)
    return w / (1.0 + w)


@functools.cache
def _laguerre_rule() -> tuple:
    """Nodes and weights of the 64-point Gauss-Laguerre rule.

    Built at first use, not at import: importing ``laggauss`` and building
    the nodes take a few ms, which only the theorem's predictions need.
    """
    from numpy.polynomial.laguerre import laggauss

    return laggauss(64)


def predicted_tail_above(m: int, delta: float) -> float:
    """P(max of m draws > 2 * max of m other draws), by Gauss-Laguerre.

    With q the CDF of the second group's maximum,

        P = integral_0^1 (1 - F(2 * F^-1(q**(1/m)))**m) dq.

    For the power law ``F(2 * F^-1(v)) = 1 - w * (1 - v)`` with ``w =
    2**-(1 + delta)``, so substituting ``q = exp(-t)`` gives

        P = integral_0^inf g(t) exp(-t) dt,
        g(t) = -expm1(m * log1p(w * expm1(-t / m))),

    with ``g`` smooth, bounded by 1 and tending to ``1 - exp(-w * t)`` as m
    grows, so a fixed 64-node Gauss-Laguerre rule (Abramowitz and Stegun,
    sec. 25.4) evaluates it.  Nothing adapts, so nothing warns at a huge m;
    the rule lies within 5e-12 of adaptive quadrature from m = 1 to 10**6.
    """
    if m < 1:
        raise ValueError("group size must be positive")
    check_params({"delta": delta})
    nodes, weights = _laguerre_rule()
    w = 2.0 ** -(1.0 + delta)
    return float(weights @ -np.expm1(m * np.log1p(w * np.expm1(-nodes / m))))


def predicted_gap(gamma: float, p_above: float) -> float:
    """Closed-form err_holistic - err_segmented from the tail probability."""
    return gamma * (1.0 - gamma) / 2.0 * (4.0 * p_above - 1.0)


@dataclass(frozen=True)
class PairEstimate:
    """Paired Monte Carlo estimates for one theorem-setting parameter point."""

    err_hol: float
    se_hol: float
    err_seg: float
    se_seg: float
    diff: float  # err_hol - err_seg, estimated run by run (paired)
    se_diff: float
    p_best_dis: float  # share of runs whose true best is disadvantaged
    se_best_dis: float
    runs: int

    def rows(self, params: dict, seed: int, schemes=("holistic", "segmented", "difference")):
        """Result rows at ``params`` for the named estimates, in that order."""
        values = {
            "holistic": (self.err_hol, self.se_hol),
            "segmented": (self.err_seg, self.se_seg),
            "difference": (self.diff, self.se_diff),
        }
        return [ExperimentResult(params, s, *values[s], self.runs, seed) for s in schemes]


def run_error_pairs(
    grid: GridSpec,
    seed: int,
    sub_tag: int,
    workers: int = 1,
) -> list:
    """Paired estimates at each point of a theorem-setting grid, in point order.

    Each point sets n, delta, beta, gamma and lambda (alpha is fixed at 1/2,
    sigma at 1, d at 2, the setting the closed form covers), and gets
    ``grid.runs`` runs.
    """
    points = grid.points()
    for point in points:
        check_pool_size(point["n"])
    moments = run_points(
        theorem_worker,
        points,
        grid.runs,
        seed,
        (STREAM_THEOREM, sub_tag),
        THEOREM_CHUNK,
        workers,
    )
    # each mean_and_se gives an estimate and its SE, in PairEstimate's field order
    return [
        PairEstimate(
            *mean_and_se(*sums["hol"]),
            *mean_and_se(*sums["seg"]),
            *mean_and_se(*sums["diff"]),
            *mean_and_se(*sums["dis"]),
            runs=sums["hol"][2],
        )
        for sums in moments
    ]


# ---------------------------------------------------------------------------
# the packaged checks


def _verdict(ok: bool) -> str:
    return "PASS" if ok else "FAIL"


def _margin_se(ok: bool, lead: float, se: float, offset: float) -> float:
    """A gate's slack, ``lead / se + offset`` SE; at SE 0, +-inf as the gate is ``ok`` or not."""
    if se == 0.0:
        return np.inf if ok else -np.inf
    return lead / se + offset


@dataclass(frozen=True)
class PartACheck:
    """Half-protected case: segmentation should never be worse."""

    n: int
    delta: float
    beta: float
    gamma: float
    pair: PairEstimate

    @property
    def passed(self) -> bool:
        return self.pair.err_seg <= self.pair.err_hol + 3.0 * self.pair.se_diff

    @property
    def margin_se(self) -> float:
        return _margin_se(self.passed, self.pair.err_hol - self.pair.err_seg, self.pair.se_diff, 3.0)

    def summary(self) -> str:
        return (
            f"part_a n={self.n} delta={sig4(self.delta)} beta={sig4(self.beta)}"
            f" gamma={sig4(self.gamma)}: err_hol {sig4(self.pair.err_hol)}"
            f" err_seg {sig4(self.pair.err_seg)} {_verdict(self.passed)}"
        )

    def rows(self, seed: int) -> list:
        params = {"n": self.n, "delta": self.delta, "beta": self.beta, "gamma": self.gamma}
        return self.pair.rows(params, seed)


@dataclass(frozen=True)
class FormulaCheck:
    """Fully protected case: the gap should match the closed form."""

    n: int
    delta: float
    gamma: float
    pair: PairEstimate
    p_above: float  # predicted tail probability at m = n/2

    family = "formula"

    @property
    def predicted(self) -> float:
        """Closed-form gap at ``p_above``."""
        return predicted_gap(self.gamma, self.p_above)

    @property
    def expect_positive(self) -> bool:
        """The predicted gap's sign at this pool size: positive where ``p_above`` > 1/4."""
        return self.predicted > 0.0

    @property
    def matches(self) -> bool:
        """The formula gate alone: the paired gap within 3 SE of ``predicted``."""
        return abs(self.pair.diff - self.predicted) <= 3.0 * self.pair.se_diff

    @property
    def symmetric(self) -> bool:
        """The symmetry gate: the best is disadvantaged in half the runs, within 3 SE."""
        return abs(self.pair.p_best_dis - 0.5) <= 3.0 * self.pair.se_best_dis

    @property
    def signed(self) -> bool:
        """The sign gate: the paired gap more than 3 SE from 0, on the predicted side."""
        side = 1.0 if self.expect_positive else -1.0
        return side * self.pair.diff > 3.0 * self.pair.se_diff

    @property
    def passed(self) -> bool:
        """The formula gate and the symmetry gate."""
        return self.matches and self.symmetric

    @property
    def margin_se(self) -> float:
        """The smaller of the formula gate's and the symmetry gate's slack, in SE."""
        pair = self.pair
        formula = _margin_se(self.matches, -abs(pair.diff - self.predicted), pair.se_diff, 3.0)
        symmetry = _margin_se(self.symmetric, -abs(pair.p_best_dis - 0.5), pair.se_best_dis, 3.0)
        return min(formula, symmetry)

    def verdicts(self) -> str:
        """The verdict text that ends the summary line."""
        return f"{_verdict(self.matches)} symmetry {_verdict(self.symmetric)}"

    def summary(self) -> str:
        return (
            f"{self.family} n={self.n} delta={sig4(self.delta)}: diff {sig4(self.pair.diff)}"
            f" predicted {sig4(self.predicted)} (se {sig4(self.pair.se_diff)}) {self.verdicts()}"
        )

    def rows(self, seed: int) -> list:
        params = {"n": self.n, "delta": self.delta, "gamma": self.gamma}
        predicted = ExperimentResult(params, "predicted", self.predicted, 0.0, self.pair.runs, seed)
        return [*self.pair.rows(params, seed, ("difference",)), predicted]


class ThresholdCheck(FormulaCheck):
    """The formula check's evidence, judged by the sign of the gap alone."""

    family = "threshold"

    @property
    def passed(self) -> bool:
        return self.signed

    @property
    def margin_se(self) -> float:
        side = 1.0 if self.expect_positive else -1.0
        return _margin_se(self.signed, side * self.pair.diff, self.pair.se_diff, -3.0)

    def verdicts(self) -> str:
        side = "positive" if self.expect_positive else "negative"
        return f"expected {side} {_verdict(self.passed)}"


@dataclass(frozen=True)
class TailCheck:
    """Simulated tail probability against its predicted value and its limit."""

    n_per_group: int
    delta: float
    pools: int
    p_below: float
    se: float
    predicted_below: float

    @property
    def limit_below(self) -> float:
        return 1.0 - tail_above_limit(self.delta)

    @property
    def passed(self) -> bool:
        return abs(self.p_below - self.predicted_below) <= 3.0 * self.se

    @property
    def margin_se(self) -> float:
        return _margin_se(self.passed, -abs(self.p_below - self.predicted_below), self.se, 3.0)

    def summary(self) -> str:
        return (
            f"tail m={self.n_per_group} delta={sig4(self.delta)}: below {sig4(self.p_below)}"
            f" predicted {sig4(self.predicted_below)} limit {sig4(self.limit_below)}"
            f" {_verdict(self.passed)}"
        )

    def rows(self, seed: int) -> list:
        params = {"n": self.n_per_group, "delta": self.delta}
        return [
            ExperimentResult(params, "below", self.p_below, self.se, self.pools, seed),
            ExperimentResult(params, "predicted", self.predicted_below, 0.0, self.pools, seed),
        ]


def run_part_a(
    beta_values=(0.0, 0.3, 0.7),
    gamma_values=(0.2, 0.5, 0.8),
    delta_values=(0.3, 1.0),
    n_values=(4, 20),
    runs: int = 100_000,
    seed: int = 0,
    workers: int = 1,
) -> tuple:
    """Check err_seg <= err_hol + 3 SE with one of two attributes protected."""
    axes = (("beta", beta_values), ("gamma", gamma_values), ("delta", delta_values), ("n", n_values))
    grid = GridSpec(axes=axes, fixed={"lambda": 0.5}, runs=runs)
    pairs = run_error_pairs(grid, seed, _PART_A, workers)
    return tuple(
        PartACheck(p["n"], p["delta"], p["beta"], p["gamma"], pair)
        for p, pair in zip(grid.points(), pairs)
    )


def _run_gap_checks(check, n_values, delta_values, gamma, runs, seed, sub_tag, workers):
    """One ``check`` per (n, delta), fully protected at beta = 0.

    The tail probability entering the prediction is ``predicted_tail_above``,
    so the paired runs carry all the uncertainty.
    """
    fixed = {"beta": 0.0, "gamma": gamma, "lambda": 1.0}
    grid = GridSpec(axes=(("n", n_values), ("delta", delta_values)), fixed=fixed, runs=runs)
    pairs = run_error_pairs(grid, seed, sub_tag, workers)
    return tuple(
        check(p["n"], p["delta"], gamma, pair, predicted_tail_above(p["n"] // 2, p["delta"]))
        for p, pair in zip(grid.points(), pairs)
    )


def run_formula_check(
    n_values=(2, 20),
    delta_values=(0.3, 1.0),
    gamma: float = 0.5,
    runs: int = 1_000_000,
    seed: int = 0,
    workers: int = 1,
) -> tuple:
    """Check the closed-form gap with both attributes protected, beta = 0."""
    return _run_gap_checks(FormulaCheck, n_values, delta_values, gamma, runs, seed, _FORMULA, workers)


def run_threshold_check(
    delta_values=(0.3, 0.9),
    n: int = 1000,
    gamma: float = 0.5,
    runs: int = 100_000,
    seed: int = 0,
    workers: int = 1,
) -> tuple:
    """Check the gap's sign at pool size ``n``, on either side of the critical exponent."""
    return _run_gap_checks(ThresholdCheck, (n,), delta_values, gamma, runs, seed, _THRESHOLD, workers)


def run_tail_check(
    delta_values=(1.0,),
    n_per_group: int = 10_000,
    pools: int = 10_000,
    seed: int = 0,
    workers: int = 1,
) -> tuple:
    """Check the simulated tail probability against ``predicted_tail_above``."""
    check_distinct(delta_values, "delta_values")
    check_tail_group(n_per_group)
    # predicting checks the group size and every delta before any run
    predicted = [1.0 - predicted_tail_above(n_per_group, delta) for delta in delta_values]
    # P(best of one group < 2 * best of the other): each delta is a point, so
    # its chunks draw from (seed, theorem tag, tail tag, point index, chunk index)
    points = [{"n_per_group": n_per_group, "delta": delta} for delta in delta_values]
    moments = run_points(
        tail_worker,
        points,
        pools,
        seed,
        (STREAM_THEOREM, _TAIL),
        THEOREM_CHUNK,
        workers,
    )
    return tuple(
        TailCheck(n_per_group, delta, pools, *mean_and_se(*sums["below"]), predicted_below)
        for delta, predicted_below, sums in zip(delta_values, predicted, moments)
    )
