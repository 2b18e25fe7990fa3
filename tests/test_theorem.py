"""Closed-form pieces and packaged checks of the error-gap analysis.

Quadrature values are frozen from an independent high-precision evaluation
(40-digit arithmetic) of the tail integral, and the m = 1 case has the exact
closed form 2**-(2 + delta).
"""

import math
from dataclasses import replace

import pytest

from evalsim.cli import sig4
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
    tail_probability,
    threshold_delta,
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
    assert abs(threshold_delta() - 0.5849625007211562) <= 1e-15
    # exactly the exponent where the limiting tail probability is 1/4
    assert abs(tail_above_limit(threshold_delta()) - 0.25) <= 1e-15


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
    # q ** (1/m) rounds to 1.0 near q = 1 at m = 10**12; the quadrature used to
    # raise there, after every Monte Carlo check of theorem-verify had run
    assert predicted_tail_above(10**12, delta) == pytest.approx(tail_above_limit(delta), abs=1e-5)


def test_predicted_gap_values():
    assert predicted_gap(0.5, 0.125) == -0.0625
    assert predicted_gap(0.5, 0.25) == 0.0
    assert predicted_gap(0.2, 0.5) == pytest.approx(0.2 * 0.8 / 2.0, abs=1e-15)


# ---------------------------------------------------------------------------
# Monte Carlo pieces


def test_tail_probability_single_draw():
    p, se = tail_probability(1, 1.0, 200_000, seed=3, stream_tag=5)
    assert se == pytest.approx(math.sqrt(0.875 * 0.125 / 200_000), rel=0.05)
    assert abs(p - 0.875) <= 3.0 * se
    with pytest.raises(ValueError):
        tail_probability(0, 1.0, 100, seed=3, stream_tag=5)


def _point(**overrides):
    point = {"n": 4, "delta": 1.0, "beta": 0.0, "gamma": 0.5, "lambda": 1.0}
    point.update(overrides)
    return point


def test_run_error_pairs_validation():
    for bad in (
        _point(n=5),
        _point(n=0),
        _point(gamma=0.0),
        _point(gamma=1.0),
        _point(beta=1.0),
        _point(**{"lambda": 1.5}),
    ):
        with pytest.raises(ValueError):
            run_error_pairs([bad], runs=10, seed=5, sub_tag=1)


def test_run_error_pairs_estimates():
    # half-protected setting: segmentation can only help, so the estimated
    # errors should come out ordered at this sample size
    (pair,) = run_error_pairs([_point(**{"lambda": 0.5})], runs=30_000, seed=5, sub_tag=1)
    assert isinstance(pair, PairEstimate)
    assert pair.runs == 30_000
    assert 0.0 <= pair.err_seg <= pair.err_hol <= 1.0
    assert pair.diff == pytest.approx(pair.err_hol - pair.err_seg, abs=1e-12)
    # paired differences on shared pools beat independent ones
    assert pair.se_diff < math.hypot(pair.se_hol, pair.se_seg)
    # half the pool is disadvantaged, so the best is disadvantaged half the time
    assert abs(pair.p_best_dis - 0.5) <= 4.0 / math.sqrt(30_000)

    (other,) = run_error_pairs([_point(**{"lambda": 0.5})], runs=30_000, seed=5, sub_tag=2)
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
    assert check.passed and check.symmetry_hol_ok and check.symmetry_seg_ok

    # the verdicts follow the evidence: a diff 4 SE off the prediction fails
    # the formula gate, a conditional gap beyond 3 SE fails only the symmetry
    pair = check.pair
    off = replace(check, pair=replace(pair, diff=check.predicted + 4.0 * pair.se_diff))
    assert not off.matches and not off.passed
    asym_hol = replace(check, pair=replace(pair, gap_hol=3.5 * pair.gap_hol_se))
    assert asym_hol.matches and not asym_hol.symmetry_hol_ok and not asym_hol.passed
    asym_seg = replace(check, pair=replace(pair, gap_seg=-3.5 * pair.gap_seg_se))
    assert asym_seg.matches and not asym_seg.symmetry_seg_ok and not asym_seg.passed


def test_threshold_check_flags():
    checks = run_threshold_check(
        delta_values=(0.3, 0.9), n=100, runs=5_000, seed=5
    )
    assert [c.expect_positive for c in checks] == [True, False]
    assert all(c.delta in (0.3, 0.9) for c in checks)
    # a bool on each side of the critical exponent, so `is` comparisons hold
    for delta, side in ((threshold_delta() - 1e-9, True), (threshold_delta(), False)):
        assert replace(checks[0], delta=delta).expect_positive is side


def test_tail_check_small():
    (check,) = run_tail_check(delta_values=(1.0,), n_per_group=500, pools=20_000, seed=5)
    assert check.predicted_below == pytest.approx(1.0 - TAIL_ABOVE[(500, 1.0)], abs=1e-9)
    assert check.limit_below == pytest.approx(0.8, abs=1e-15)
    assert abs(check.p_below - check.predicted_below) <= 3.0 * check.se
    assert check.passed


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
    # each copy would be its own check, so a repeat is rejected before any run
    with pytest.raises(ValueError, match=f"{name} repeats the value"):
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
        assert check.passed and check.symmetry_hol_ok and check.symmetry_seg_ok
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
    assert rendered([threshold]) == [
        ("difference", ["n", "delta", "gamma"], p.diff, p.se_diff, 2_000)
    ]
    assert threshold.rows(7)[0].params == {"n": 200, "delta": 0.3, "gamma": 0.5}

    assert rendered([tail]) == [
        ("below", ["n", "delta"], tail.p_below, tail.se, 3_000),
        ("predicted", ["n", "delta"], tail.predicted_below, 0.0, 3_000),
    ]
    assert tail.rows(7)[0].params == {"n": 100, "delta": 1.0}
