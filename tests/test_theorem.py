"""Closed-form pieces and packaged checks of the error-gap analysis.

Quadrature values are frozen from an independent high-precision evaluation
(40-digit arithmetic) of the tail integral, and the m = 1 case has the exact
closed form 2**-(2 + delta).
"""

import math
import warnings
from dataclasses import fields, replace

import pytest

from evalsim.cli import sig4
from evalsim.experiments import theorem
from evalsim.experiments.results import GridSpec
from evalsim.experiments.theorem import (
    PairEstimate,
    predicted_gap,
    predicted_tail_above,
    run_error_pairs,
    run_formula_check,
    run_part_a,
    run_tail_check,
    run_threshold_check,
    tail_above_limit,
)

# P(max of m draws > 2 * max of m independent draws) for the heavy-tailed
# marginal with exponent delta, frozen from 40-digit quadrature.
TAIL_ABOVE = {
    (1, 1.0): 0.125,
    (10, 0.3): 0.279966237597423,
    (10, 1.0): 0.19047145029076376,
    (500, 0.3): 0.28865269374284955,
    (500, 0.9): 0.21112879124334715,
    (500, 1.0): 0.19980801562427549,
}


# ---------------------------------------------------------------------------
# closed forms


def test_threshold_constant():
    critical = math.log2(3.0) - 1.0
    assert abs(critical - 0.5849625007211562) <= 1e-15
    # exactly the exponent where the limiting tail probability is 1/4
    assert abs(tail_above_limit(critical) - 0.25) <= 1e-15


def test_tail_above_limit_values():
    assert abs(tail_above_limit(1.0) - 0.2) <= 1e-15
    assert abs(tail_above_limit(0.3) - (1.0 - 0.7111737206060699)) <= 1e-12
    assert abs(tail_above_limit(0.9) - (1.0 - 0.7886787589285740)) <= 1e-12


@pytest.mark.parametrize("m, delta", sorted(TAIL_ABOVE))
def test_quadrature_matches_frozen_values(m, delta):
    assert predicted_tail_above(m, delta) == pytest.approx(TAIL_ABOVE[(m, delta)], abs=1e-9)


@pytest.mark.parametrize("delta", [0.3, 0.5849625007211562, 1.0, 2.0])
def test_quadrature_single_draw_closed_form(delta):
    # with one applicant per group the tail probability is 2**-(2 + delta)
    assert predicted_tail_above(1, delta) == pytest.approx(2.0 ** -(2.0 + delta), abs=1e-9)


def test_quadrature_approaches_its_limit():
    assert predicted_tail_above(10_000, 1.0) == pytest.approx(0.2, abs=1e-4)
    with pytest.raises(ValueError):
        predicted_tail_above(0, 1.0)


@pytest.mark.parametrize("delta", [0.3, 0.5, 1.0, 2.0])
def test_quadrature_at_a_huge_group(delta):
    # at m = 10**12 the group maxima sit at the large-pool limit; the rule
    # reaches it without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        p = predicted_tail_above(10**12, delta)
    assert abs(p - tail_above_limit(delta)) <= 1e-12


# delta*(n), where the predicted gap changes sign: P(above) = 1/4 at n // 2
CRITICAL_DELTA = {
    4: 0.2555, 10: 0.4449, 20: 0.5138, 100: 0.5706, 1000: 0.5835, 10**4: 0.58482, 10**6: 0.584961,
}


def _critical_delta(n, lo=1e-6, hi=2.0):
    """The root of ``predicted_tail_above(n // 2, delta) = 1/4`` by bisection, or None.

    The tail probability falls as delta grows, so the root is bracketed when
    it lies above 1/4 at ``lo`` and below it at ``hi``.
    """
    def above(delta):
        return predicted_tail_above(n // 2, delta) > 0.25

    if not above(lo) or above(hi):
        return None
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if above(mid) else (lo, mid)
    return 0.5 * (lo + hi)


def test_critical_delta_rises_toward_its_limit():
    # with one applicant per group P(above) = 2**-(2 + delta) < 1/4: no root
    assert _critical_delta(2) is None
    roots = [_critical_delta(n) for n in sorted(CRITICAL_DELTA)]
    for n, root in zip(sorted(CRITICAL_DELTA), roots):
        assert root == pytest.approx(CRITICAL_DELTA[n], abs=5e-5), n
    limit = math.log2(3.0) - 1.0
    assert all(a < b for a, b in zip(roots, roots[1:]))
    assert roots[-1] < limit and limit - roots[-1] < 1e-5


def test_predicted_gap_values():
    assert predicted_gap(0.5, 0.125) == -0.0625
    assert predicted_gap(0.5, 0.25) == 0.0
    assert predicted_gap(0.2, 0.5) == pytest.approx(0.2 * 0.8 / 2.0, abs=1e-15)


# ---------------------------------------------------------------------------
# Monte Carlo pieces


def test_tail_probability_single_draw():
    (check,) = run_tail_check((1.0,), n_per_group=1, pools=200_000, seed=3)
    p, se = check.p_below, check.se
    assert se == pytest.approx(math.sqrt(0.875 * 0.125 / 200_000), rel=0.05)
    assert abs(p - 0.875) <= 3.0 * se


def test_tail_check_rejects_an_empty_group_before_any_run(monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("run_points was called")

    monkeypatch.setattr(theorem, "run_points", no_run)
    with pytest.raises(ValueError, match="group size must be positive"):
        run_tail_check((1.0,), n_per_group=0, pools=100, seed=3)
    # U**(1/k) rounds toward 1 beyond 10**12: the simulated maxima are 30 SE
    # off at 10**15
    with pytest.raises(ValueError, match="group size must be at most 1000000000000, as U"):
        run_tail_check((1.0,), n_per_group=10**12 + 1, pools=100, seed=3)


def test_tail_check_holds_at_the_largest_group():
    (check,) = run_tail_check((1.0,), n_per_group=theorem.MAX_TAIL_GROUP, pools=50_000, seed=3)
    assert check.passed


def _grid(runs, **overrides):
    """The one-point theorem-setting grid, with ``overrides`` set."""
    point = {"n": 4, "delta": 1.0, "beta": 0.0, "gamma": 0.5, "lambda": 1.0}
    point.update(overrides)
    return GridSpec(axes=(("n", (point.pop("n"),)),), fixed=point, runs=runs)


def test_run_error_pairs_validation():
    for bad in (
        {"n": 5},
        {"n": 0},
        {"gamma": 0.0},
        {"gamma": 1.0},
        {"beta": 1.0},
        {"lambda": 1.5},
        # the class-size draw's CDF table holds about 28 * sqrt(n/2)
        # entries, about 7 MB at the limit
        {"n": theorem.MAX_POOL + 2},
        {"n": 10**30},
    ):
        with pytest.raises(ValueError):
            run_error_pairs(_grid(10, **bad), seed=5, sub_tag=1)
    (pair,) = run_error_pairs(_grid(10, n=theorem.MAX_POOL), seed=5, sub_tag=1)
    assert pair.runs == 10


def test_drivers_check_every_delta_before_any_run(monkeypatch):
    # part A would otherwise spend its delta = 1 runs before reaching -1
    def fail(*_):
        raise AssertionError("run_points was called")

    monkeypatch.setattr(theorem, "run_points", fail)
    message = r"^delta must lie in \(0, inf\), got -1.0$"
    with pytest.raises(ValueError, match=message):
        run_part_a(delta_values=(1.0, -1.0))
    with pytest.raises(ValueError, match=message):
        run_tail_check(delta_values=(-1.0,))


def test_run_error_pairs_estimates():
    # half-protected setting: segmentation can only help, so the estimated
    # errors should come out ordered at this sample size
    (pair,) = run_error_pairs(_grid(30_000, **{"lambda": 0.5}), seed=5, sub_tag=1)
    assert isinstance(pair, PairEstimate)
    assert pair.runs == 30_000
    assert 0.0 <= pair.err_seg <= pair.err_hol <= 1.0
    assert pair.diff == pytest.approx(pair.err_hol - pair.err_seg, abs=1e-12)
    # paired differences on shared pools beat independent ones
    assert pair.se_diff < math.hypot(pair.se_hol, pair.se_seg)
    # half the pool is disadvantaged, so the best is disadvantaged half the time
    assert abs(pair.p_best_dis - 0.5) <= 4.0 / math.sqrt(30_000)

    (other,) = run_error_pairs(_grid(30_000, **{"lambda": 0.5}), seed=5, sub_tag=2)
    assert other != pair  # sub-streams do not overlap


# ---------------------------------------------------------------------------
# packaged checks at reduced scale


def test_part_a_small():
    checks = run_part_a(
        beta_values=(0.0, 0.5),
        gamma_values=(0.5,),
        delta_values=(1.0,),
        n_values=(4,),
        runs=20_000,
        seed=5,
    )
    assert len(checks) == 2
    assert all(c.passed for c in checks)
    assert {c.beta for c in checks} == {0.0, 0.5}


def test_formula_check_small():
    (check,) = run_formula_check(
        n_values=(2,),
        delta_values=(1.0,),
        gamma=0.5,
        runs=50_000,
        seed=5,
    )
    assert check.p_above == predicted_tail_above(1, 1.0) == pytest.approx(0.125, abs=1e-9)
    assert check.predicted == predicted_gap(0.5, check.p_above)
    # the prediction is exact, so the paired runs carry all the uncertainty
    assert abs(check.pair.diff - check.predicted) <= 3.0 * check.pair.se_diff
    assert check.passed and check.symmetric

    # the verdicts follow the evidence: a diff 4 SE off the prediction fails
    # the formula gate, a best-disadvantaged share 3.5 SE off one half fails
    # only the symmetry gate, on either side
    pair = check.pair
    off = replace(check, pair=replace(pair, diff=check.predicted + 4.0 * pair.se_diff))
    assert not off.matches and not off.passed
    for sign in (1.0, -1.0):
        asym = replace(check, pair=replace(pair, p_best_dis=0.5 + sign * 3.5 * pair.se_best_dis))
        assert asym.matches and not asym.symmetric and not asym.passed


def test_symmetry_gate_fails_without_evidence():
    # one run has its best disadvantaged or not, a share of 0 or 1 with SE 0,
    # which says nothing of one half
    (check,) = run_formula_check(n_values=(2,), delta_values=(1.0,), runs=1, seed=1)
    assert check.pair.p_best_dis in (0.0, 1.0) and check.pair.se_best_dis == 0.0
    assert not check.symmetric and not check.passed


def test_threshold_check_flags():
    checks = run_threshold_check(
        delta_values=(0.3, 0.9), n=100, runs=5_000, seed=5
    )
    assert [c.expect_positive for c in checks] == [True, False]
    assert all(c.delta in (0.3, 0.9) for c in checks)
    assert [c.p_above for c in checks] == [predicted_tail_above(50, d) for d in (0.3, 0.9)]
    # a bool on each side of p = 1/4, where the predicted gap is 0, so `is`
    # comparisons hold
    for p_above, side in ((0.25 + 1e-12, True), (0.25, False)):
        assert replace(checks[0], p_above=p_above).expect_positive is side


def test_threshold_check_expects_the_finite_pool_sign():
    # at n = 4 the gap changes sign near delta 0.26, not at log2(3) - 1: at
    # delta 0.4 the formula predicts -0.01066, and the asymptotic sign failed
    # this correct simulation (diff -0.01118, SE 0.00079)
    (check,) = run_threshold_check(delta_values=(0.4,), n=4, runs=200_000, seed=5)
    assert 0.4 < math.log2(3.0) - 1.0
    assert predicted_gap(0.5, check.p_above) == pytest.approx(-0.01066, abs=1e-5)
    assert check.expect_positive is False
    assert check.pair.diff < -3.0 * check.pair.se_diff
    assert check.passed


def test_threshold_check_sign_flips_across_the_critical_delta_at_twenty():
    # at n = 20 the predicted gap changes sign at delta*(20), not at
    # log2(3) - 1; 0.1 below it the simulated gap is significantly positive,
    # and 0.1 above it significantly negative
    root = _critical_delta(20)
    assert root == pytest.approx(0.51381, abs=1e-5)
    below, above = run_threshold_check(
        delta_values=(root - 0.1, root + 0.1), n=20, gamma=0.5, runs=200_000, seed=1
    )
    assert below.expect_positive is True and above.expect_positive is False
    assert below.passed and above.passed


@pytest.mark.parametrize("delta", [0.01, 0.3, math.log2(3.0) - 1.0, 1.0, 5.0])
def test_threshold_check_expects_a_negative_gap_at_two_applicants(delta):
    # with one applicant per group p = 2**-(2 + delta) < 1/4 at every delta
    (check,) = run_threshold_check(delta_values=(delta,), n=2, runs=10, seed=5)
    assert check.p_above == pytest.approx(2.0 ** -(2.0 + delta), abs=1e-12)
    assert check.expect_positive is False


def test_each_family_judges_the_shared_evidence_by_its_own_verdict():
    # evidence of the benchmark's size, built by hand: the gap at delta 0.3
    # lies 3.03 SE below its prediction, yet 6.9 SE above 0, so the sign
    # check passes and the formula check on the same pair fails
    p_above = predicted_tail_above(500, 0.3)
    se_diff = 0.00193
    diff = predicted_gap(0.5, p_above) - 3.03 * se_diff
    pair = PairEstimate(
        err_hol=0.25, se_hol=0.0024, err_seg=0.25 - diff, se_seg=0.0023, diff=diff,
        se_diff=se_diff, p_best_dis=0.5, se_best_dis=0.0028, runs=32768,
    )
    positive = theorem.ThresholdCheck(1000, 0.3, 0.5, pair, p_above)
    assert fields(theorem.ThresholdCheck) == fields(theorem.FormulaCheck)
    formula = theorem.FormulaCheck(*(getattr(positive, f.name) for f in fields(positive)))
    assert positive.pair.diff - positive.predicted < -3.0 * positive.pair.se_diff
    assert positive.pair.diff > 6.9 * positive.pair.se_diff
    assert positive.expect_positive is formula.expect_positive is True
    assert positive.signed and positive.passed
    assert not formula.matches and not formula.passed
    assert positive.rows(7) == formula.rows(7)
    assert positive.summary() == (
        f"threshold n=1000 delta=0.3: diff {sig4(positive.pair.diff)}"
        f" predicted {sig4(positive.predicted)} (se {sig4(positive.pair.se_diff)})"
        " expected positive PASS"
    )

    # the other way round: a gap of 0 matches a prediction of 0 but shows no sign
    level = replace(formula, pair=replace(formula.pair, diff=0.0), p_above=0.25)
    assert level.predicted == 0.0 and level.matches and not level.signed
    assert level.passed
    assert not theorem.ThresholdCheck(*(getattr(level, f.name) for f in fields(level))).passed


def _evidence(se=0.01, **fields_):
    base = dict(
        err_hol=0.2, se_hol=se, err_seg=0.2, se_seg=se, diff=0.0, se_diff=se,
        p_best_dis=0.5, se_best_dis=se, runs=1000,
    )
    return PairEstimate(**{**base, **fields_})


# (check, margin in SE): each gate 2.9 and 3.1 SE from its edge, on both
# sides, beside the same evidence at SE 0, where the margin is infinite
_P = 0.3
_GAP = predicted_gap(0.5, _P)  # 0.025, to rounding
_MARGIN_CASES = [
    (theorem.PartACheck(20, 1.0, 0.3, 0.5, _evidence(err_seg=0.2 + 0.029)), 0.1),
    (theorem.PartACheck(20, 1.0, 0.3, 0.5, _evidence(err_seg=0.2 + 0.031)), -0.1),
    (theorem.PartACheck(20, 1.0, 0.3, 0.5, _evidence(err_seg=0.15)), 8.0),
    (theorem.PartACheck(20, 1.0, 0.3, 0.5, _evidence(se=0.0)), math.inf),
    (theorem.PartACheck(20, 1.0, 0.3, 0.5, _evidence(se=0.0, err_seg=0.2001)), -math.inf),
    (theorem.FormulaCheck(20, 1.0, 0.5, _evidence(diff=_GAP - 0.029), _P), 0.1),
    (theorem.FormulaCheck(20, 1.0, 0.5, _evidence(diff=_GAP + 0.031), _P), -0.1),
    (theorem.FormulaCheck(20, 1.0, 0.5, _evidence(diff=_GAP, p_best_dis=0.5 + 0.029), _P), 0.1),
    (theorem.FormulaCheck(20, 1.0, 0.5, _evidence(diff=_GAP, p_best_dis=0.5 - 0.031), _P), -0.1),
    (theorem.FormulaCheck(20, 1.0, 0.5, _evidence(se=0.0, diff=_GAP), _P), math.inf),
    (theorem.FormulaCheck(20, 1.0, 0.5, _evidence(se=0.0, diff=0.03), _P), -math.inf),
    (theorem.FormulaCheck(20, 1.0, 0.5, _evidence(se=0.0, diff=_GAP, p_best_dis=1.0), _P), -math.inf),
    (theorem.ThresholdCheck(20, 1.0, 0.5, _evidence(diff=0.031), _P), 0.1),
    (theorem.ThresholdCheck(20, 1.0, 0.5, _evidence(diff=0.029), _P), -0.1),
    (theorem.ThresholdCheck(20, 1.0, 0.5, _evidence(diff=-0.031), 0.2), 0.1),
    (theorem.ThresholdCheck(20, 1.0, 0.5, _evidence(diff=0.031), 0.2), -6.1),
    (theorem.ThresholdCheck(20, 1.0, 0.5, _evidence(se=0.0, diff=0.001), _P), math.inf),
    (theorem.ThresholdCheck(20, 1.0, 0.5, _evidence(se=0.0, diff=0.0), _P), -math.inf),
    (theorem.TailCheck(10, 1.0, 1000, 0.8 + 0.029, 0.01, 0.8), 0.1),
    (theorem.TailCheck(10, 1.0, 1000, 0.8 - 0.031, 0.01, 0.8), -0.1),
    (theorem.TailCheck(10, 1.0, 1000, 0.8, 0.0, 0.8), math.inf),
    (theorem.TailCheck(10, 1.0, 1000, 0.9, 0.0, 0.8), -math.inf),
]


@pytest.mark.parametrize("check, margin", _MARGIN_CASES)
def test_margin_in_se_is_positive_exactly_where_the_check_passes(check, margin):
    assert (check.margin_se > 0.0) is check.passed is (margin > 0.0)
    assert check.margin_se == pytest.approx(margin, abs=1e-9)


def test_tail_check_small():
    (check,) = run_tail_check(delta_values=(1.0,), n_per_group=500, pools=20_000, seed=5)
    assert check.predicted_below == pytest.approx(1.0 - TAIL_ABOVE[(500, 1.0)], abs=1e-9)
    assert check.limit_below == pytest.approx(0.8, abs=1e-15)
    assert abs(check.p_below - check.predicted_below) <= 3.0 * check.se
    assert check.passed


def test_tail_check_runs_its_deltas_as_one_sweep(monkeypatch):
    # each delta is a point of one run_points call, as in every other driver
    calls = []
    run_points = theorem.run_points

    def counted(worker, points, *args, **kwargs):
        calls.append(points)
        return run_points(worker, points, *args, **kwargs)

    monkeypatch.setattr(theorem, "run_points", counted)
    checks = run_tail_check(delta_values=(0.3, 1.0), n_per_group=10, pools=100, seed=3)
    assert [c.delta for c in checks] == [0.3, 1.0]
    assert calls == [[{"n_per_group": 10, "delta": 0.3}, {"n_per_group": 10, "delta": 1.0}]]


def test_pooled_tail_check_matches_one_worker():
    # two deltas of 5000 pools are two tasks, so two workers run them on a pool
    kwargs = {"n_per_group": 100, "pools": 5000, "seed": 3}
    pooled = run_tail_check((0.3, 1.0), **kwargs, workers=2)
    assert pooled == run_tail_check((0.3, 1.0), **kwargs, workers=1)


@pytest.mark.parametrize(
    "driver, kwargs, name",
    [
        (run_part_a, {"n_values": (2, 2), "delta_values": (1.0,)}, "n_values"),
        (run_part_a, {"beta_values": (0.0, 0.3, 0.0)}, "beta_values"),
        (run_part_a, {"gamma_values": (0.5, 0.5)}, "gamma_values"),
        (run_part_a, {"delta_values": (1.0, 1.0)}, "delta_values"),
        (run_formula_check, {"n_values": (2, 2)}, "n_values"),
        (run_formula_check, {"delta_values": (1.0, 1.0)}, "delta_values"),
        (run_threshold_check, {"delta_values": (0.3, 0.3)}, "delta_values"),
        (run_tail_check, {"delta_values": (1.0, 1.0)}, "delta_values"),
    ],
    ids=lambda v: v.__name__ if callable(v) else None,
)
def test_drivers_reject_repeated_values(driver, kwargs, name):
    # each copy would be its own check, so a repeat is rejected before any run;
    # a driver that sweeps a grid names the axis, as bias grids do
    what = name if driver is run_tail_check else f"axis {name.removesuffix('_values')!r}"
    value = kwargs[name][-1]
    with pytest.raises(ValueError, match=f"^{what} repeats the value {value}$"):
        driver(**kwargs, seed=1)


@pytest.mark.parametrize(
    "driver, kwargs, name",
    [
        (run_part_a, {"beta_values": ()}, "beta"),
        (run_part_a, {"n_values": ()}, "n"),
        (run_formula_check, {"delta_values": ()}, "delta"),
        (run_threshold_check, {"delta_values": ()}, "delta"),
        (run_tail_check, {"delta_values": ()}, "delta"),
    ],
    ids=lambda v: v.__name__ if callable(v) else None,
)
def test_drivers_reject_an_empty_sweep(driver, kwargs, name):
    # an empty list used to return no checks at all; the tail check names its
    # argument, as it does for a repeat
    what = f"{name}_values" if driver is run_tail_check else f"axis {name!r}"
    with pytest.raises(ValueError, match=f"^{what} has no values$"):
        driver(**kwargs, seed=1)


def test_tail_check_limit_prints_as_before():
    # 1 - tail_above_limit(delta) can differ from 1 / (1 + 2**-(1 + delta)) in
    # the last ulp (at delta = 0.5), never in the four digits the CLI prints
    checks = run_tail_check(delta_values=(0.3, 0.5, 1.0, 2.0), n_per_group=4, pools=16, seed=5)
    assert [sig4(c.limit_below) for c in checks] == ["0.7112", "0.7388", "0.8", "0.8889"]
    assert all(c.limit_below == 1.0 - tail_above_limit(c.delta) for c in checks)


def test_checks_hold_in_the_asymptotic_regime():
    # a run costs the same at any pool size, so the checks reach n = 10**6,
    # where the tail probability sits at its large-pool limit
    positive, negative = run_threshold_check(
        delta_values=(0.3, 0.9), n=10**6, runs=100_000, seed=5
    )
    assert positive.passed and negative.passed
    assert positive.pair.runs == 100_000

    checks = run_formula_check(
        n_values=(10**6,),
        delta_values=(0.3, 1.0),
        gamma=0.5,
        runs=200_000,
        seed=5,
    )
    for check in checks:
        assert check.passed and check.symmetric
        assert check.p_above == pytest.approx(tail_above_limit(check.delta), abs=1e-6)

    # simulated maxima of m = 5 * 10**5 draws agree with the quadrature there
    for check in run_tail_check(
        delta_values=(0.3, 1.0), n_per_group=500_000, pools=200_000, seed=5
    ):
        assert check.passed
        assert check.predicted_below == pytest.approx(check.limit_below, abs=1e-6)


def test_checks_render_their_rows():
    part_a = run_part_a(
        beta_values=(0.0, 0.3), gamma_values=(0.5,), delta_values=(1.0,), n_values=(2,),
        runs=2_000, seed=5,
    )
    (formula,) = run_formula_check(n_values=(2,), delta_values=(1.0,), runs=2_000, seed=5)
    (threshold,) = run_threshold_check(delta_values=(0.3,), n=200, runs=2_000, seed=5)
    (tail,) = run_tail_check(delta_values=(1.0,), n_per_group=100, pools=3_000, seed=5)

    def rendered(checks, seed=7):
        rows = [row for c in checks for row in c.rows(seed)]
        assert all(r.seed == seed for r in rows)
        return [(r.scheme, list(r.params), r.estimate, r.std_error, r.runs) for r in rows]

    pair_rows = []
    for c in part_a:
        p = c.pair
        assert [*c.rows(7)[0].params.values()] == [c.n, c.delta, c.beta, c.gamma]
        pair_rows += [
            ("holistic", ["n", "delta", "beta", "gamma"], p.err_hol, p.se_hol, p.runs),
            ("segmented", ["n", "delta", "beta", "gamma"], p.err_seg, p.se_seg, p.runs),
            ("difference", ["n", "delta", "beta", "gamma"], p.diff, p.se_diff, p.runs),
        ]
    assert rendered(part_a) == pair_rows
    assert part_a[0].pair.runs == 2_000

    p = formula.pair
    # the closed form at the quadrature tail probability is exact: SE 0.0
    predicted = predicted_gap(0.5, predicted_tail_above(1, 1.0))
    assert rendered([formula]) == [
        ("difference", ["n", "delta", "gamma"], p.diff, p.se_diff, 2_000),
        ("predicted", ["n", "delta", "gamma"], predicted, 0.0, 2_000),
    ]
    assert formula.rows(7)[0].params == {"n": 2, "delta": 1.0, "gamma": 0.5}

    p = threshold.pair
    # the threshold family shares the formula check's rows
    assert rendered([threshold]) == [
        ("difference", ["n", "delta", "gamma"], p.diff, p.se_diff, 2_000),
        ("predicted", ["n", "delta", "gamma"], threshold.predicted, 0.0, 2_000),
    ]
    assert threshold.predicted == predicted_gap(0.5, predicted_tail_above(100, 0.3))
    assert threshold.rows(7)[0].params == {"n": 200, "delta": 0.3, "gamma": 0.5}

    assert rendered([tail]) == [
        ("below", ["n", "delta"], tail.p_below, tail.se, 3_000),
        ("predicted", ["n", "delta"], tail.predicted_below, 0.0, 3_000),
    ]
    assert tail.rows(7)[0].params == {"n": 100, "delta": 1.0}
