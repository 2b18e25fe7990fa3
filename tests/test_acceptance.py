"""Acceptance gate: one test per shipped claim, one PASS/FAIL line each.

Each test pins its seed, runs the full-scale experiment it vouches for, and
prints a single ``ACCEPTANCE <k>: PASS/FAIL`` summary line (run pytest with
``-s`` to see the lines as they appear).  Statistical assertions use the
stated tolerance — typically three standard errors — and exact anchors use
exact float equality.
"""

import math
import time

import numpy as np
import pytest
from scipy import stats

from evalsim.allocation import allocate_blocked, allocate_holistic, allocate_segmented
from evalsim.distributions import PowerLaw
from evalsim.experiments.bias import run_bias_grid
from evalsim.experiments.calibration import run_calibration_sweep
from evalsim.experiments.efficiency import run_efficiency_sweep
from evalsim.experiments.kernels import draw_correlated_values
from evalsim.experiments.results import GridSpec, write_results_csv
from evalsim.experiments.theorem import (
    run_formula_check,
    run_part_a,
    run_tail_check,
    run_threshold_check,
)
from evalsim.rng import derive_stream


def _finish(criterion: str, failures: list, detail: str) -> None:
    verdict = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {criterion}: {verdict} — {detail}")
    assert not failures, "; ".join(failures)


def _gap_se(row_a, row_b) -> float:
    return math.hypot(row_a.std_error, row_b.std_error)


def _by_point(rows, axis_names):
    table = {}
    for row in rows:
        key = tuple(row.params[name] for name in axis_names) + (row.scheme,)
        table[key] = row
    return table


# ---------------------------------------------------------------------------
# 1. binner calibration decays like a power of the pool size


def test_criterion_1_calibration_rate():
    start = time.perf_counter()
    sweep = run_calibration_sweep(runs=1000, seed=7)
    elapsed = time.perf_counter() - start

    errors = [r.estimate for r in sweep.results]
    failures = []
    if not all(a > b for a, b in zip(errors, errors[1:])):
        failures.append(f"errors not strictly decreasing: {errors}")
    if not -0.60 <= sweep.loglog_slope <= -0.40:
        failures.append(f"log-log slope {sweep.loglog_slope:.4f} outside [-0.60, -0.40]")
    if elapsed >= 10.0:
        failures.append(f"took {elapsed:.1f}s, budget 10s")
    _finish(
        "1 (calibration rate)",
        failures,
        f"slope {sweep.loglog_slope:.4f}, errors {errors[0]:.3f} -> {errors[-1]:.4f}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 2. screening efficiency: exact anchors and the correlation gradient


def test_criterion_2_efficiency_anchors():
    start = time.perf_counter()
    taus = (0.05, 0.1, 0.2, 0.5, 1.0)
    sigmas = (0.0, 0.5, 0.9, 1.0)
    rows = run_efficiency_sweep(taus, sigmas, n=200, delta=1.0, runs=10_000, seed=11)
    elapsed = time.perf_counter() - start
    acc = {
        (r.params["tau"], r.params["sigma"]): r
        for r in rows
        if r.scheme == "holistic"
    }

    failures = []
    for tau in taus:
        if acc[(tau, 1.0)].estimate != 1.0:
            failures.append(f"sigma=1 tau={tau}: accuracy {acc[(tau, 1.0)].estimate} != 1.0")
    for sigma in sigmas:
        if acc[(1.0, sigma)].estimate != 1.0:
            failures.append(f"tau=1 sigma={sigma}: accuracy {acc[(1.0, sigma)].estimate} != 1.0")
    gaps = []
    for lo, hi in zip(sigmas, sigmas[1:]):
        gap = acc[(0.1, hi)].estimate - acc[(0.1, lo)].estimate
        se = _gap_se(acc[(0.1, hi)], acc[(0.1, lo)])
        gaps.append(f"{lo}->{hi}: {gap:+.4f} ({gap / se:.1f} se)")
        if gap <= 3.0 * se:
            failures.append(f"tau=0.1 gap sigma {lo}->{hi} not significant: {gap:.4f} vs 3x{se:.4f}")
    if elapsed >= 30.0:
        failures.append(f"took {elapsed:.1f}s, budget 30s")
    _finish(
        "2 (efficiency anchors)",
        failures,
        f"exact anchors hold, tau=0.1 sigma gaps {'; '.join(gaps)}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 3. half-protected inequality at every grid point


def test_criterion_3_half_protected_inequality():
    start = time.perf_counter()
    checks = run_part_a(runs=100_000, seed=5)
    elapsed = time.perf_counter() - start

    failures = [
        f"n={c.n} delta={c.delta} beta={c.beta} gamma={c.gamma}:"
        f" err_seg {c.pair.err_seg:.5f} > err_hol {c.pair.err_hol:.5f} + 3 se"
        for c in checks
        if not c.passed
    ]
    if len(checks) != 36:
        failures.append(f"expected 36 grid points, got {len(checks)}")
    if elapsed >= 300.0:
        failures.append(f"took {elapsed:.1f}s, budget 300s")
    _finish(
        "3 (half-protected inequality)",
        failures,
        f"{len(checks)}/36 points satisfy err_seg <= err_hol + 3 se, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 4. closed-form gap, fully protected case


def test_criterion_4_formula_match():
    checks = run_formula_check(
        n_values=(2, 20),
        delta_values=(0.3, 1.0),
        gamma=0.5,
        runs=1_000_000,
        seed=5,
    )

    failures = []
    for c in checks:
        if not c.matches:
            failures.append(
                f"n={c.n} delta={c.delta}: diff {c.pair.diff:.6f} vs"
                f" predicted {c.predicted:.6f} beyond 3x{c.pair.se_diff:.6f}"
            )
        if not (c.symmetry_hol_ok and c.symmetry_seg_ok):
            failures.append(f"n={c.n} delta={c.delta}: conditional symmetry violated")
    anchor = next(c for c in checks if c.n == 2 and c.delta == 1.0)
    if abs(anchor.pair.diff - (-0.0625)) > 3.0 * anchor.pair.se_diff:
        failures.append(
            f"n=2 delta=1 anchor: diff {anchor.pair.diff:.6f} vs exact -0.0625"
            f" beyond 3x{anchor.pair.se_diff:.6f}"
        )
    if abs(anchor.pair.diff - (-0.0625)) > 0.002:
        failures.append(f"n=2 delta=1 anchor off by {anchor.pair.diff + 0.0625:.6f} > 0.002")
    _finish(
        "4 (formula match)",
        failures,
        f"all {len(checks)} points match the closed form; n=2 delta=1 diff"
        f" {anchor.pair.diff:.6f} vs -0.0625",
    )


# ---------------------------------------------------------------------------
# 5. sign flip across the critical tail exponent


def test_criterion_5_threshold_sign_flip():
    checks = run_threshold_check(delta_values=(0.3, 0.9), n=1000, runs=100_000, seed=5)

    failures = []
    expected = {0.3: True, 0.9: False}
    for c in checks:
        if c.expect_positive is not expected[c.delta]:
            failures.append(f"delta={c.delta}: wrong expected sign")
        if not c.passed:
            failures.append(
                f"delta={c.delta}: diff {c.pair.diff:.5f} (se {c.pair.se_diff:.5f})"
                f" not significantly {'positive' if c.expect_positive else 'negative'}"
            )
    detail = ", ".join(
        f"delta={c.delta}: diff {c.pair.diff:+.5f} ({c.pair.diff / c.pair.se_diff:+.1f} se)"
        for c in checks
    )
    _finish("5 (threshold sign flip)", failures, detail)


# ---------------------------------------------------------------------------
# 6. large-pool tail probability


def test_criterion_6_tail_probability():
    (check,) = run_tail_check(delta_values=(1.0,), n_per_group=10_000, pools=10_000, seed=5)

    failures = []
    if abs(check.p_below - 0.800) > 0.015:
        failures.append(f"p_below {check.p_below:.4f} outside 0.800 +- 0.015")
    if not check.passed:
        failures.append(
            f"p_below {check.p_below:.4f} vs quadrature {check.predicted_below:.4f}"
            f" beyond 3x{check.se:.4f}"
        )
    _finish(
        "6 (tail probability)",
        failures,
        f"p_below {check.p_below:.4f} vs quadrature {check.predicted_below:.4f}"
        f" and limit {check.limit_below:.4f}",
    )


# ---------------------------------------------------------------------------
# 7. bias-grid qualitative structure


def test_criterion_7_bias_grid_structure():
    start = time.perf_counter()
    runs = 50_000
    seed = 3
    failures = []

    # (a) + (b): lambda = 1, beta = 0 over a (delta, sigma) grid
    deltas = (0.5, 1.0, 2.0)
    sigmas = (0.0, 0.5, 0.9, 1.0)
    grid_a = GridSpec(axes=(("delta", deltas), ("sigma", sigmas)), runs=runs)
    table_a = _by_point(run_bias_grid(grid_a, seed=seed), ("delta", "sigma"))

    # (a) holistic accuracy is flat along both axes
    slices = [[(de, si) for si in sigmas] for de in deltas]
    slices += [[(de, si) for de in deltas] for si in sigmas]
    for cells in slices:
        rows = [table_a[(de, si, "holistic")] for de, si in cells]
        hi = max(rows, key=lambda r: r.estimate)
        lo = min(rows, key=lambda r: r.estimate)
        gap = hi.estimate - lo.estimate
        if gap > 3.0 * _gap_se(hi, lo):
            failures.append(f"(a) holistic not flat over {cells}: range {gap:.4f}")

    # (b) segmented accuracy increases with the attribute correlation
    for de in deltas:
        rows = [table_a[(de, si, "segmented")] for si in sigmas]
        for lo, hi in zip(rows, rows[1:]):
            if hi.estimate - lo.estimate < -3.0 * _gap_se(hi, lo):
                failures.append(
                    f"(b) delta={de}: segmented drops {lo.params['sigma']}->{hi.params['sigma']}"
                )
        span = rows[-1].estimate - rows[0].estimate
        if span <= 3.0 * _gap_se(rows[-1], rows[0]):
            failures.append(f"(b) delta={de}: no significant rise in sigma (span {span:.4f})")

    # (c) both schemes' accuracy increases with the discount floor beta
    betas = (0.0, 0.3, 0.7)
    grid_b = GridSpec(axes=(("delta", (0.5, 1.0)), ("beta", betas)), runs=runs)
    table_b = _by_point(run_bias_grid(grid_b, seed=seed), ("delta", "beta"))
    for de in (0.5, 1.0):
        for scheme in ("holistic", "segmented"):
            rows = [table_b[(de, be, scheme)] for be in betas]
            for lo, hi in zip(rows, rows[1:]):
                if hi.estimate - lo.estimate < -3.0 * _gap_se(hi, lo):
                    failures.append(
                        f"(c) delta={de} {scheme}: drops {lo.params['beta']}->{hi.params['beta']}"
                    )
            span = rows[-1].estimate - rows[0].estimate
            if span <= 3.0 * _gap_se(rows[-1], rows[0]):
                failures.append(f"(c) delta={de} {scheme}: no significant rise in beta")

    # (d) segmentation wins with few protected attributes ...
    grid_d = GridSpec(axes=(("delta", (0.5, 1.0)), ("lambda", (0.1, 1.0))), runs=runs)
    table_d = _by_point(run_bias_grid(grid_d, seed=seed), ("delta", "lambda"))
    for de in (0.5, 1.0):
        row = table_d[(de, 0.1, "difference")]
        if row.estimate <= 3.0 * row.std_error:
            failures.append(
                f"(d) delta={de} lambda=0.1: difference {row.estimate:.4f}"
                f" (se {row.std_error:.4f}) not significantly positive"
            )

    # ... and when everyone is disadvantaged and attributes are redundant
    grid_e = GridSpec(
        axes=(("delta", (0.5, 1.0)), ("sigma", (0.5, 0.9))),
        fixed={"alpha": 1.0},
        runs=runs,
    )
    table_e = _by_point(run_bias_grid(grid_e, seed=seed), ("delta", "sigma"))
    for de in (0.5, 1.0):
        row = table_e[(de, 0.9, "difference")]
        if row.estimate <= 3.0 * row.std_error:
            failures.append(
                f"(d) delta={de} alpha=1 sigma=0.9: difference {row.estimate:.4f}"
                f" (se {row.std_error:.4f}) not significantly positive"
            )

    elapsed = time.perf_counter() - start
    if elapsed >= 600.0:
        failures.append(f"took {elapsed:.1f}s, budget 600s")
    _finish(
        "7 (bias-grid structure)",
        failures,
        f"flat holistic, sigma-monotone segmented, beta-monotone both,"
        f" segmentation wins at low lambda and at alpha=1 high sigma, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 8. determinism, exhaustive partitions, copula marginals


def test_criterion_8_determinism_and_partitions(tmp_path):
    failures = []

    # identical seeds give byte-identical CSVs whatever the worker count
    grid = GridSpec(
        axes=(("delta", (0.5, 1.0)), ("sigma", (0.0, 0.9))),
        fixed={"n": 6, "d": 4},
        runs=512,
    )
    for name, runner in (
        ("bias", lambda w: run_bias_grid(grid, seed=3, chunk_size=128, workers=w)),
        (
            "efficiency",
            lambda w: run_efficiency_sweep(
                (0.2, 1.0), (0.0, 0.5), n=10, runs=512, seed=3, chunk_size=128, workers=w
            ),
        ),
    ):
        paths = []
        for workers in (1, 2, 3):
            path = tmp_path / f"{name}_w{workers}.csv"
            write_results_csv(runner(workers), ["delta", "sigma"] if name == "bias" else ["tau", "sigma"], path)
            paths.append(path.read_bytes())
        if not (paths[0] == paths[1] == paths[2]):
            failures.append(f"{name} CSVs differ across worker counts")

    # every allocation plan partitions the grid: each cell owned exactly once
    rng = derive_stream(3, 99)
    plans = 0
    try:
        for n in range(1, 7):
            for d in range(1, 7):
                for e in range(1, n + 1):
                    if n % e == 0:
                        allocate_holistic(n, d, e, rng).cell_map()
                        plans += 1
                for e in range(1, d + 1):
                    if d % e == 0:
                        allocate_segmented(n, d, e, rng).cell_map()
                        plans += 1
                for rpe in range(1, n + 1):
                    if n % rpe:
                        continue
                    for cpe in range(1, d + 1):
                        if d % cpe:
                            continue
                        allocate_blocked(n, d, rpe, cpe, rng).cell_map()
                        plans += 1
    except ValueError as exc:
        failures.append(f"partition check failed: {exc}")

    # copula samples keep the requested marginal at every correlation
    law = PowerLaw(1.0)
    ks_stats = {}
    for sigma in (0.0, 0.5, 1.0):
        values = draw_correlated_values(derive_stream(3, 98), 1, 100_000, 2, sigma, law)[0]
        for col in (0, 1):
            stat = stats.kstest(values[:, col], law.cdf).statistic
            ks_stats[(sigma, col)] = stat
            if stat > 0.01:
                failures.append(f"sigma={sigma} column {col}: KS distance {stat:.4f} > 0.01")

    worst = max(ks_stats.values())
    _finish(
        "8 (determinism and partitions)",
        failures,
        f"CSVs bitwise-stable over 1-3 workers, {plans} plans partition cleanly,"
        f" worst marginal KS {worst:.4f}",
    )
