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

This module estimates the gaps by paired Monte Carlo, computes p by
quadrature (and checks it against simulated maxima), and packages the
comparisons as checks that decide and summarise themselves: a check holds
only its evidence, and its verdict, derived values, summary line and result
rows are all computed from that evidence.  It also
verifies the symmetry identity behind the closed form: an error can only
occur when the true best applicant is disadvantaged, which happens with
probability 1/2, so the unconditional error must equal half the error
conditioned on that event.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.integrate import quad

from ..distributions import PowerLaw, _U_BELOW_ONE
from ..rng import STREAM_THEOREM
from .parallel import mean_and_se, run_points
from .results import ExperimentResult, check_distinct, sig4
from .kernels import tail_worker, theorem_worker

THEOREM_CHUNK = 8192

# Sub-stream tags for the individual checks.
_PART_A, _FORMULA, _THRESHOLD, _TAIL = 1, 2, 3, 4


def threshold_delta() -> float:
    """Tail exponent where the asymptotic error gap changes sign."""
    return math.log2(3.0) - 1.0


def tail_above_limit(delta: float) -> float:
    """Large-pool limit of P(best disadvantaged > 2 * best advantaged)."""
    w = 2.0 ** -(1.0 + delta)
    return w / (1.0 + w)


def predicted_tail_above(m: int, delta: float) -> float:
    """Quadrature value of P(max of m draws > 2 * max of m other draws).

    Substituting q for the CDF of the second group's maximum turns the
    integral into a smooth one over (0, 1):

        P = integral_0^1 (1 - F(2 * F^-1(q^(1/m)))^m) dq

    At very large m, ``q^(1/m)`` rounds to 1 near q = 1, so it is clipped
    below 1 as the sampled maxima are.
    """
    if m < 1:
        raise ValueError("group size must be positive")
    law = PowerLaw(delta)

    def integrand(q):
        y = law.inv_cdf(min(q ** (1.0 / m), _U_BELOW_ONE))
        return 1.0 - law.cdf(2.0 * y) ** m

    value, _ = quad(integrand, 0.0, 1.0, limit=200, epsabs=1e-12, epsrel=1e-12)
    return float(value)


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
    p_best_dis: float
    gap_hol: float  # unconditional minus half the conditional error
    gap_hol_se: float
    gap_seg: float
    gap_seg_se: float
    runs: int

    def rows(self, params: dict, seed: int, schemes=("holistic", "segmented", "difference")):
        """Result rows at ``params`` for the named estimates, in that order."""
        values = {
            "holistic": (self.err_hol, self.se_hol),
            "segmented": (self.err_seg, self.se_seg),
            "difference": (self.diff, self.se_diff),
        }
        return [ExperimentResult(params, s, *values[s], self.runs, seed) for s in schemes]


def _conditional_gap(err: tuple, b: float):
    """Delta-method estimate of mean(err) - mean(err | best dis) / 2.

    ``err`` holds the ``(sum, sumsq, runs)`` of the per-run errors and ``b``
    is the fraction of runs whose best applicant is disadvantaged.  Errors
    vanish whenever the true best applicant is advantaged (reports never
    raise a disadvantaged score or touch an advantaged one), so err equals
    err * indicator run by run and the gap reduces to a function of two
    correlated sample means.
    """
    sum_ei, sumsq_ei, count = err
    a = sum_ei / count
    if not 0.0 < b < 1.0:
        return 0.0, 0.0
    gap = a * (1.0 - 1.0 / (2.0 * b))
    var_a = max(0.0, sumsq_ei / count - a * a) / count
    var_b = b * (1.0 - b) / count
    cov_ab = a * (1.0 - b) / count
    da = 1.0 - 1.0 / (2.0 * b)
    db = a / (2.0 * b * b)
    var_gap = da * da * var_a + db * db * var_b + 2.0 * da * db * cov_ab
    return gap, math.sqrt(max(0.0, var_gap))


def _pair_from_sums(sums: dict) -> PairEstimate:
    err_hol, se_hol = mean_and_se(*sums["hol"])
    err_seg, se_seg = mean_and_se(*sums["seg"])
    diff, se_diff = mean_and_se(*sums["diff"])
    sum_dis, _, count = sums["dis"]
    p_best_dis = sum_dis / count
    gap_hol, gap_hol_se = _conditional_gap(sums["hol"], p_best_dis)
    gap_seg, gap_seg_se = _conditional_gap(sums["seg"], p_best_dis)
    return PairEstimate(
        err_hol=err_hol,
        se_hol=se_hol,
        err_seg=err_seg,
        se_seg=se_seg,
        diff=diff,
        se_diff=se_diff,
        p_best_dis=p_best_dis,
        gap_hol=gap_hol,
        gap_hol_se=gap_hol_se,
        gap_seg=gap_seg,
        gap_seg_se=gap_seg_se,
        runs=count,
    )


def validate_setting(n: int, gamma: float, beta: float, lam: float) -> None:
    """Raise ``ValueError`` unless the point lies in the theorem setting."""
    if n < 2 or n % 2:
        raise ValueError("the theorem setting needs an even pool of >= 2")
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must lie in (0, 1)")
    if not 0.0 <= beta < 1.0:
        raise ValueError("beta must lie in [0, 1)")
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lambda must lie in [0, 1]")


def run_error_pairs(
    points,
    runs: int,
    seed: int,
    sub_tag: int,
    workers: int = 1,
) -> list:
    """Paired estimates for a list of theorem-setting parameter points.

    Each point is a dict with keys n, delta, beta, gamma, lambda (alpha is
    fixed at 1/2, sigma at 1, d at 2, the setting the closed form covers).
    """
    for point in points:
        validate_setting(
            int(point["n"]),
            float(point["gamma"]),
            float(point["beta"]),
            float(point["lambda"]),
        )
    moments = run_points(
        theorem_worker,
        points,
        runs,
        seed,
        (STREAM_THEOREM, sub_tag),
        THEOREM_CHUNK,
        workers,
    )
    return [_pair_from_sums(sums) for sums in moments]


def tail_probability(
    n_per_group: int,
    delta: float,
    pools: int,
    seed: int,
    workers: int = 1,
    *,
    stream_tag,
):
    """Monte Carlo P(best of one group < 2 * best of the other) and its SE."""
    if n_per_group < 1:
        raise ValueError("group size must be positive")
    below, _, count = run_points(
        tail_worker,
        [{"n_per_group": n_per_group, "delta": delta}],
        pools,
        seed,
        stream_tag,
        THEOREM_CHUNK,
        workers,
    )[0]["below"]
    p = below / count
    se = math.sqrt(max(0.0, p * (1.0 - p)) / count)
    return p, se


# ---------------------------------------------------------------------------
# the packaged checks


def _verdict(ok: bool) -> str:
    return "PASS" if ok else "FAIL"


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
    p_above: float  # quadrature tail probability at m = n/2

    @property
    def predicted(self) -> float:
        """Closed-form gap at ``p_above``."""
        return predicted_gap(self.gamma, self.p_above)

    @property
    def matches(self) -> bool:
        """The formula gate alone: the paired gap within 3 SE of ``predicted``."""
        return abs(self.pair.diff - self.predicted) <= 3.0 * self.pair.se_diff

    @property
    def symmetry_hol_ok(self) -> bool:
        return abs(self.pair.gap_hol) <= 3.0 * self.pair.gap_hol_se

    @property
    def symmetry_seg_ok(self) -> bool:
        return abs(self.pair.gap_seg) <= 3.0 * self.pair.gap_seg_se

    @property
    def passed(self) -> bool:
        """The formula gate and both conditional symmetry identities."""
        return self.matches and self.symmetry_hol_ok and self.symmetry_seg_ok

    def summary(self) -> str:
        symmetry = self.symmetry_hol_ok and self.symmetry_seg_ok
        return (
            f"formula n={self.n} delta={sig4(self.delta)}: diff {sig4(self.pair.diff)}"
            f" predicted {sig4(self.predicted)} (se {sig4(self.pair.se_diff)})"
            f" {_verdict(self.matches)} symmetry {_verdict(symmetry)}"
        )

    def rows(self, seed: int) -> list:
        params = {"n": self.n, "delta": self.delta, "gamma": self.gamma}
        predicted = ExperimentResult(params, "predicted", self.predicted, 0.0, self.pair.runs, seed)
        return [*self.pair.rows(params, seed, ("difference",)), predicted]


@dataclass(frozen=True)
class ThresholdCheck:
    """Sign of the gap on either side of the critical tail exponent."""

    n: int
    delta: float
    gamma: float
    pair: PairEstimate

    @property
    def expect_positive(self) -> bool:
        return self.delta < threshold_delta()

    @property
    def passed(self) -> bool:
        if self.expect_positive:
            return self.pair.diff > 3.0 * self.pair.se_diff
        return self.pair.diff < -3.0 * self.pair.se_diff

    def summary(self) -> str:
        side = "positive" if self.expect_positive else "negative"
        return (
            f"threshold n={self.n} delta={sig4(self.delta)}: diff {sig4(self.pair.diff)}"
            f" (se {sig4(self.pair.se_diff)}), expected {side} {_verdict(self.passed)}"
        )

    def rows(self, seed: int) -> list:
        params = {"n": self.n, "delta": self.delta, "gamma": self.gamma}
        return self.pair.rows(params, seed, ("difference",))


@dataclass(frozen=True)
class TailCheck:
    """Simulated tail probability against quadrature and its limit."""

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
    check_distinct(beta_values, "beta_values")
    check_distinct(gamma_values, "gamma_values")
    check_distinct(delta_values, "delta_values")
    check_distinct(n_values, "n_values")
    points = [
        {"n": n, "delta": de, "beta": be, "gamma": ga, "lambda": 0.5}
        for be in beta_values
        for ga in gamma_values
        for de in delta_values
        for n in n_values
    ]
    pairs = run_error_pairs(points, runs, seed, _PART_A, workers)
    return tuple(
        PartACheck(p["n"], p["delta"], p["beta"], p["gamma"], pair)
        for p, pair in zip(points, pairs)
    )


def run_formula_check(
    n_values=(2, 20),
    delta_values=(0.3, 1.0),
    gamma: float = 0.5,
    runs: int = 1_000_000,
    seed: int = 0,
    workers: int = 1,
) -> tuple:
    """Check the closed-form gap with both attributes protected, beta = 0.

    The tail probability entering the prediction is the quadrature value,
    so the paired runs carry all the uncertainty.
    """
    check_distinct(n_values, "n_values")
    check_distinct(delta_values, "delta_values")
    points = [
        {"n": n, "delta": de, "beta": 0.0, "gamma": gamma, "lambda": 1.0}
        for n in n_values
        for de in delta_values
    ]
    pairs = run_error_pairs(points, runs, seed, _FORMULA, workers)
    return tuple(
        FormulaCheck(
            p["n"], p["delta"], gamma, pair, predicted_tail_above(p["n"] // 2, p["delta"])
        )
        for p, pair in zip(points, pairs)
    )


def run_threshold_check(
    delta_values=(0.3, 0.9),
    n: int = 1000,
    gamma: float = 0.5,
    runs: int = 100_000,
    seed: int = 0,
    workers: int = 1,
) -> tuple:
    """Check the gap's sign flips across the critical tail exponent."""
    check_distinct(delta_values, "delta_values")
    points = [
        {"n": n, "delta": de, "beta": 0.0, "gamma": gamma, "lambda": 1.0}
        for de in delta_values
    ]
    pairs = run_error_pairs(points, runs, seed, _THRESHOLD, workers)
    return tuple(
        ThresholdCheck(p["n"], p["delta"], gamma, pair) for p, pair in zip(points, pairs)
    )


def run_tail_check(
    delta_values=(1.0,),
    n_per_group: int = 10_000,
    pools: int = 10_000,
    seed: int = 0,
    workers: int = 1,
) -> tuple:
    """Check the simulated tail probability against its quadrature value."""
    check_distinct(delta_values, "delta_values")
    checks = []
    for index, delta in enumerate(delta_values):
        p, se = tail_probability(
            n_per_group,
            delta,
            pools,
            seed,
            workers,
            stream_tag=(STREAM_THEOREM, _TAIL, index),
        )
        predicted_below = 1.0 - predicted_tail_above(n_per_group, delta)
        checks.append(TailCheck(n_per_group, delta, pools, p, se, predicted_below))
    return tuple(checks)
