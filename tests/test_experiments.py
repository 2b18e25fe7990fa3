"""Experiment plumbing: chunked reduction, grids, result tables, drivers."""

import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evalsim.distributions import PowerLaw
from evalsim.experiments import bias, parallel
from evalsim.experiments.bias import run_bias_grid
from evalsim.experiments.calibration import run_calibration_sweep
from evalsim.experiments.efficiency import efficiency_grid, run_efficiency_sweep
from evalsim.experiments.kernels import (
    bias_draw_key,
    bias_worker,
    calibration_worker,
    efficiency_cells,
    efficiency_draw_key,
    efficiency_worker,
)
from evalsim.experiments.parallel import chunk_sizes, mean_and_se, run_points
from evalsim.experiments.results import (
    ExperimentResult,
    GridSpec,
    write_metadata_json,
    write_results_csv,
)
from evalsim.rng import derive_stream

CAL_POINT = {"n": 10, "num_bins": 5}


# ---------------------------------------------------------------------------
# chunked map-reduce


def test_chunk_sizes_cover_the_runs():
    assert chunk_sizes(10, 4) == [4, 4, 2]
    assert chunk_sizes(8, 4) == [4, 4]
    assert chunk_sizes(3, 100) == [3]
    with pytest.raises(ValueError):
        chunk_sizes(0, 4)
    with pytest.raises(ValueError):
        chunk_sizes(4, 0)


def test_mean_and_se_matches_numpy():
    rng = np.random.default_rng(3)
    x = rng.random(100)
    mean, se = mean_and_se(float(x.sum()), float((x * x).sum()), x.size)
    assert mean == pytest.approx(x.mean(), abs=1e-12)
    assert se == pytest.approx(x.std(ddof=1) / np.sqrt(x.size), abs=1e-12)
    assert mean_and_se(2.5, 6.25, 1) == (2.5, 0.0)


def test_run_points_is_worker_count_invariant():
    points = [CAL_POINT, {**CAL_POINT, "n": 20}]
    serial = run_points(calibration_worker, points, 300, 9, (7, 3), chunk_size=64)
    pooled = run_points(
        calibration_worker, points, 300, 9, (7, 3), chunk_size=64, workers=2
    )
    assert serial == pooled
    assert [s["binner"][2] for s in serial] == [300, 300]


def test_run_points_starts_no_more_workers_than_tasks(monkeypatch):
    # a pool forks every worker it is asked for, so an oversized --workers is
    # cut to the task count; the fake maps serially and starts no process
    asked = []

    class FakePool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    monkeypatch.setattr(parallel, "ProcessPoolExecutor", FakePool)
    points = [CAL_POINT, {**CAL_POINT, "n": 20}]
    serial = run_points(calibration_worker, points, 300, 9, (7, 3), chunk_size=64)
    wide = run_points(
        calibration_worker, points, 300, 9, (7, 3), chunk_size=64, workers=100_000
    )
    assert asked == [10]  # 2 points x 5 chunks
    assert wide == serial
    # one task runs in-process whatever the worker count
    run_points(calibration_worker, [CAL_POINT], 64, 9, (7, 3), chunk_size=64, workers=8)
    assert asked == [10]


def test_run_points_reduces_per_run_arrays_in_chunk_order():
    # the worker's per-run arrays, summed chunk by chunk from 0.0
    (out,) = run_points(calibration_worker, [CAL_POINT], 150, 9, (7, 3), chunk_size=64)
    total = total_sq = 0.0
    for chunk_index, size in enumerate((64, 64, 22)):
        (out_chunk,) = calibration_worker((CAL_POINT,), derive_stream(9, 7, 3, 0, chunk_index), size)
        err = out_chunk["binner"]
        total += float(err.sum())
        total_sq += float((err * err).sum())
    assert out == {"binner": (total, total_sq, 150)}


def test_run_points_layout_is_part_of_the_stream():
    args = (calibration_worker, [CAL_POINT], 256, 9)
    base = run_points(*args, (7, 3), chunk_size=64)
    assert run_points(*args, (7, 3), chunk_size=64) == base
    # a different tag, seed, or chunk grouping draws different numbers
    assert run_points(*args, (7, 4), chunk_size=64) != base
    assert run_points(calibration_worker, [CAL_POINT], 256, 10, (7, 3), chunk_size=64) != base
    assert run_points(*args, (7, 3), chunk_size=128) != base
    with pytest.raises(ValueError):
        run_points(*args, (7, 3), chunk_size=64, workers=0)


# ---------------------------------------------------------------------------
# draw groups


def _efficiency_point(tau, sigma):
    return {"n": 10, "sigma": sigma, "tau": tau, "delta": 1.0, "marginal": PowerLaw(1.0)}


def _bias_point(delta, beta, sigma=0.5):
    return {
        **bias.BIAS_DEFAULTS, "n": 6, "d": 4, "sigma": sigma, "delta": delta, "beta": beta,
        "marginal": PowerLaw(delta),
    }


# interleaved, so that group order (first appearance) differs from point order
MIXED_EFFICIENCY = [
    _efficiency_point(tau, sigma)
    for tau, sigma in [(0.2, 0.5), (0.2, 0.0), (0.5, 0.5), (1.0, 0.0), (0.5, 1.0), (1.0, 0.5)]
]
MIXED_BIAS = [
    _bias_point(delta, beta, sigma)
    for delta, beta, sigma in [(0.5, 0.0, 0.0), (1.0, 0.0, 0.9), (2.0, 0.3, 0.0), (1.0, 0.3, 0.0)]
]


def test_draw_groups_are_numbered_by_first_appearance():
    # sigma 0.5 is group 0, 0.0 group 1, 1.0 group 2; each chunk of a group
    # draws from (seed, tag, group index, chunk index)
    moments = run_points(
        efficiency_worker, MIXED_EFFICIENCY, 100, 9, 7, chunk_size=64,
        draw_key=efficiency_draw_key,
    )
    groups = {0: [0, 2, 5], 1: [1, 3], 2: [4]}
    for group_index, members in groups.items():
        expected = [{"holistic": (0.0, 0.0, 0)} for _ in members]
        for chunk_index, size in enumerate((64, 36)):
            rng = derive_stream(9, 7, group_index, chunk_index)
            outputs = efficiency_worker(tuple(MIXED_EFFICIENCY[i] for i in members), rng, size)
            for acc, out in zip(expected, outputs):
                x = out["holistic"]
                total, total_sq, count = acc["holistic"]
                acc["holistic"] = (total + float(x.sum()), total_sq + float((x * x).sum()), count + size)
        assert [moments[i] for i in members] == expected


@pytest.mark.parametrize(
    "worker, points, draw_key",
    [
        (efficiency_worker, MIXED_EFFICIENCY, efficiency_draw_key),
        (bias_worker, MIXED_BIAS, bias_draw_key),
    ],
    ids=["efficiency", "bias"],
)
def test_mixed_groups_are_worker_count_invariant(worker, points, draw_key):
    args = (worker, points, 300, 9, (7, 3))
    serial = run_points(*args, chunk_size=64, draw_key=draw_key)
    pooled = run_points(*args, chunk_size=64, workers=2, draw_key=draw_key)
    assert serial == pooled
    assert all(len(moments) > 0 for moments in serial)


@settings(deadline=None, max_examples=30)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 20).map(lambda h: 2 * h),
    sigma=st.floats(0.0, 1.0),
    taus=st.lists(st.floats(0.01, 1.0), min_size=1, max_size=6),
)
def test_efficiency_accuracy_is_non_decreasing_in_tau(seed, n, sigma, taus):
    # a larger tau keeps a longer prefix of the same order, run by run
    taus = sorted(taus)
    members = tuple(
        {"n": n, "sigma": sigma, "tau": tau, "marginal": PowerLaw(1.0)} for tau in taus
    )
    accuracies = [out["holistic"] for out in efficiency_worker(members, derive_stream(seed), 64)]
    for lower, higher in zip(accuracies, accuracies[1:]):
        assert np.all(lower <= higher)


@pytest.mark.parametrize("sigma", [0.0, 0.5])
def test_efficiency_row_is_the_same_alone_or_in_its_group(sigma):
    # the tau = 0.2 point is group 0 either way
    alone = run_efficiency_sweep((0.2,), (sigma,), n=10, runs=300, seed=9, chunk_size=128)
    grouped = run_efficiency_sweep((0.1, 0.2, 0.5), (sigma,), n=10, runs=300, seed=9, chunk_size=128)
    assert [r for r in grouped if r.params["tau"] == 0.2] == alone


@pytest.mark.parametrize(
    "second", [("sigma", (0.0, 0.9)), ("beta", (0.0, 0.5)), ("sigma", (1.0, 0.0))]
)
def test_bias_row_is_the_same_alone_or_in_its_group(second):
    # grids group by everything but delta and beta; the delta = 1 rows sit at
    # the same group index in both grids
    def grid(deltas):
        return GridSpec(axes=(("delta", deltas), second), fixed={"n": 6, "d": 4}, runs=300)

    alone = run_bias_grid(grid((1.0,)), seed=9, chunk_size=128)
    grouped = run_bias_grid(grid((0.5, 1.0, 2.0)), seed=9, chunk_size=128)
    assert [r for r in grouped if r.params["delta"] == 1.0] == alone


def test_fully_correlated_bias_row_is_the_same_alone_or_in_its_group():
    # with beta = 0 in the group every estimate of a run can be 0, so the
    # group is scored on the full pool; alone, beta = 0.3 is scored on class
    # maxima.  Both routes must give the same rows.
    fixed = {"n": 6, "d": 4, "sigma": 1.0, "alpha": 1.0, "lambda": 1.0, "gamma": 0.5}

    def grid(betas):
        return GridSpec(axes=(("delta", (1.0, 2.0)), ("beta", betas)), fixed=fixed, runs=300)

    alone = run_bias_grid(grid((0.3,)), seed=9, chunk_size=128)
    grouped = run_bias_grid(grid((0.0, 0.3)), seed=9, chunk_size=128)
    assert [r for r in grouped if r.params["beta"] == 0.3] == alone


# ---------------------------------------------------------------------------
# grids and result rows


def test_grid_points_are_row_major():
    grid = GridSpec(
        axes=(("delta", (0.5, 1.0)), ("sigma", (0.0, 0.9))), fixed={"n": 4}, runs=10
    )
    assert grid.axis_names == ("delta", "sigma")
    assert grid.points() == [
        {"n": 4, "delta": 0.5, "sigma": 0.0},
        {"n": 4, "delta": 0.5, "sigma": 0.9},
        {"n": 4, "delta": 1.0, "sigma": 0.0},
        {"n": 4, "delta": 1.0, "sigma": 0.9},
    ]


def test_grid_validation():
    with pytest.raises(ValueError):
        GridSpec(axes=(), runs=10)
    with pytest.raises(ValueError):
        GridSpec(axes=(("voltage", (1.0,)),), runs=10)
    with pytest.raises(ValueError):
        GridSpec(axes=(("delta", (1.0,)), ("delta", (2.0,))), runs=10)
    with pytest.raises(ValueError):
        GridSpec(axes=(("delta", ()),), runs=10)
    with pytest.raises(ValueError):
        GridSpec(axes=(("delta", (1.0,)),), fixed={"delta": 2.0}, runs=10)
    with pytest.raises(ValueError):
        GridSpec(axes=(("delta", (1.0,)),), fixed={"flux": 1}, runs=10)
    with pytest.raises(ValueError):
        GridSpec(axes=(("delta", (1.0,)),), runs=0)
    with pytest.raises(TypeError):
        GridSpec(axes=(("delta", (1.0,)),))  # the run count is required


def test_repeated_sweep_values_are_rejected():
    # 1 and 1.0 name one point; each copy would be written as its own row
    with pytest.raises(ValueError, match="axis 'delta' repeats the value 1.0"):
        GridSpec(axes=(("delta", (1, 2.0, 1.0)),), runs=10)
    with pytest.raises(ValueError, match="axis 'tau' repeats the value 0.5"):
        run_efficiency_sweep((0.5, 0.5), (0.0,), n=4, runs=10)
    with pytest.raises(ValueError, match="n_values repeats the value 5"):
        run_calibration_sweep(n_values=(5, 5, 10), runs=10)


def test_grid_json_dict():
    grid = GridSpec(axes=(("delta", (0.5,)),), fixed={"n": 4}, runs=100)
    assert grid.to_json_dict() == {
        "axes": [["delta", [0.5]]],
        "fixed": {"n": 4},
        "runs": 100,
    }


def test_result_row_validation():
    row = ExperimentResult({"n": 4}, "holistic", 0.5, 0.01, 100, 0)
    assert row.estimate == 0.5
    with pytest.raises(ValueError):
        ExperimentResult({"volume": 4}, "holistic", 0.5, 0.01, 100, 0)
    with pytest.raises(ValueError):
        ExperimentResult({"n": 4}, "holistic", 0.5, 0.01, 0, 0)
    with pytest.raises(ValueError):
        ExperimentResult({"n": 4}, "holistic", 0.5, -0.01, 100, 0)


def test_results_csv_golden(tmp_path):
    rows = [
        ExperimentResult({"tau": 0.1, "sigma": 1.0}, "holistic", 1.0, 0.0, 10, 3),
        ExperimentResult({"tau": 0.1, "sigma": 1.0}, "workload", 24.0, 0.0, 10, 3),
    ]
    path = tmp_path / "table.csv"
    write_results_csv(rows, ["tau", "sigma"], path)
    assert path.read_text() == (
        "tau,sigma,scheme,estimate,std_error,runs,seed\n"
        "0.1,1.0,holistic,1.0,0.0,10,3\n"
        "0.1,1.0,workload,24.0,0.0,10,3\n"
    )


def test_metadata_json_round_trip(tmp_path):
    grid = GridSpec(axes=(("delta", (0.5, 1.0)),), fixed={"n": 4}, runs=10)
    path = tmp_path / "meta.json"
    write_metadata_json(path, "bias-grid", 3, {"runs": "10"}, "1.0", grid=grid)
    payload = json.loads(path.read_text())
    assert payload == {
        "experiment": "bias-grid",
        "seed": 3,
        "version": "1.0",
        "config": {"runs": "10"},
        "grid": {"axes": [["delta", [0.5, 1.0]]], "fixed": {"n": 4}, "runs": 10},
    }

    bare = tmp_path / "bare.json"
    write_metadata_json(bare, "calibration", 3, {}, "1.0")
    assert "grid" not in json.loads(bare.read_text())


# ---------------------------------------------------------------------------
# calibration driver


def test_calibration_sweep_shrinks_with_pool_size():
    sweep = run_calibration_sweep(n_values=(5, 50), runs=400, seed=9)
    assert [r.params["n"] for r in sweep.results] == [5, 50]
    assert sweep.results[0].estimate > sweep.results[1].estimate
    assert sweep.loglog_slope < 0
    assert all(r.scheme == "binner" and r.runs == 400 for r in sweep.results)


def test_calibration_slope_is_nan_when_a_mean_error_is_zero():
    # one pool of ten in two bins happens to bin exactly: the fit has no log
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sweep = run_calibration_sweep(n_values=(5, 10), num_bins=2, runs=1, seed=5)
    assert [r.estimate for r in sweep.results] == [0.4, 0.0]
    assert np.isnan(sweep.loglog_slope)


def test_calibration_sweep_validation():
    with pytest.raises(ValueError):
        run_calibration_sweep(n_values=(50,), runs=10)
    with pytest.raises(ValueError):
        run_calibration_sweep(n_values=(3, 50), num_bins=5, runs=10)
    with pytest.raises(ValueError):
        run_calibration_sweep(n_values=(5, 50), num_bins=1, runs=10)
    with pytest.raises(ValueError):
        run_calibration_sweep(n_values=(5, 50), runs=0)


# ---------------------------------------------------------------------------
# efficiency driver


def test_efficiency_sweep_rows_and_workload():
    rows = run_efficiency_sweep((0.1, 1.0), (0.0, 1.0), n=20, runs=64, seed=9)
    assert len(rows) == 8
    # row-major over (tau, sigma), two schemes per point
    assert [(r.params["tau"], r.params["sigma"], r.scheme) for r in rows[:4]] == [
        (0.1, 0.0, "holistic"),
        (0.1, 0.0, "workload"),
        (0.1, 1.0, "holistic"),
        (0.1, 1.0, "workload"),
    ]
    workloads = {r.params["tau"]: r.estimate for r in rows if r.scheme == "workload"}
    assert workloads == {0.1: float(efficiency_cells(20, 0.1)), 1.0: 40.0}
    assert all(r.std_error == 0.0 for r in rows if r.scheme == "workload")

    # perfectly correlated attributes: screening cannot lose the best
    perfect = [r for r in rows if r.scheme == "holistic" and r.params["sigma"] == 1.0]
    assert all(r.estimate == 1.0 and r.std_error == 0.0 for r in perfect)


def test_efficiency_sweep_validation():
    with pytest.raises(ValueError):
        run_efficiency_sweep((0.1,), (0.5,), n=9, runs=10)
    with pytest.raises(ValueError):
        run_efficiency_sweep((0.0,), (0.5,), n=10, runs=10)
    with pytest.raises(ValueError):
        run_efficiency_sweep((0.1,), (1.5,), n=10, runs=10)


def test_efficiency_grid_is_the_grid_the_sweep_runs():
    grid = efficiency_grid((0.5, 1), (0,), n=10, delta=2.0, runs=20)
    assert grid.to_json_dict() == {
        "axes": [["tau", [0.5, 1.0]], ["sigma", [0.0]]],
        "fixed": {"n": 10, "delta": 2.0},
        "runs": 20,
    }
    rows = run_efficiency_sweep((0.5, 1), (0,), n=10, delta=2.0, runs=20, seed=1)
    assert [r.params for r in rows if r.scheme == "holistic"] == [
        {"tau": p["tau"], "sigma": p["sigma"]} for p in grid.points()
    ]
    with pytest.raises(ValueError, match="even pool"):
        efficiency_grid((0.5,), (0.0,), n=9, delta=1.0, runs=10)


# ---------------------------------------------------------------------------
# bias-grid driver


def _small_grid(**kwargs):
    return GridSpec(
        axes=(("delta", (0.5, 1.0)), ("sigma", (0.0, 0.9))),
        fixed={"n": 4, "d": 4},
        **kwargs,
    )


def test_bias_grid_rows_are_paired():
    rows = run_bias_grid(_small_grid(runs=512), seed=9)
    assert len(rows) == 12
    by_point = {}
    for row in rows:
        key = (row.params["delta"], row.params["sigma"])
        by_point.setdefault(key, {})[row.scheme] = row
    for point, schemes in by_point.items():
        assert set(schemes) == {"holistic", "segmented", "difference"}
        gap = schemes["segmented"].estimate - schemes["holistic"].estimate
        assert schemes["difference"].estimate == pytest.approx(gap, abs=1e-12)


def test_bias_grid_reproduces_and_honors_grid_runs():
    rows = run_bias_grid(_small_grid(runs=256), seed=9)
    assert all(r.runs == 256 for r in rows)
    again = run_bias_grid(_small_grid(runs=256), seed=9)
    assert rows == again
    shifted = run_bias_grid(_small_grid(runs=256), seed=10)
    assert rows != shifted


def test_bias_grid_worker_count_invariance():
    one = run_bias_grid(_small_grid(runs=256), seed=9, chunk_size=64, workers=1)
    two = run_bias_grid(_small_grid(runs=256), seed=9, chunk_size=64, workers=2)
    assert one == two


def test_bias_grid_gamma_selects_coin_mode():
    # without gamma, evaluator 0 is always biased; with a tiny gamma nobody
    # ever is, so both schemes see the truth and always pick the best
    def grid(second_axis, **fixed):
        return GridSpec(
            axes=(("delta", (1.0,)), second_axis), fixed={"n": 4, "d": 4, **fixed}, runs=64
        )

    pair = run_bias_grid(grid(("sigma", (0.5,))), seed=9)
    assert pair[0].scheme == "holistic" and pair[0].estimate < 1.0
    coins = run_bias_grid(grid(("sigma", (0.5,)), gamma=1e-12), seed=9)
    assert [r.scheme for r in coins] == ["holistic", "segmented", "difference"]
    assert [r.estimate for r in coins] == [1.0, 1.0, 0.0]
    # gamma as an axis selects coin mode the same way
    axis = run_bias_grid(grid(("gamma", (1e-12,))), seed=9)
    assert [r.estimate for r in axis] == [1.0, 1.0, 0.0]


def test_bias_grid_validation():
    with pytest.raises(ValueError):
        run_bias_grid(GridSpec(axes=(("sigma", (0.5,)),), runs=64), seed=9)
    no_delta = GridSpec(
        axes=(("sigma", (0.5,)), ("beta", (0.0,))), fixed={"n": 4, "d": 4}, runs=64
    )
    assert len(run_bias_grid(no_delta, seed=9)) == 3
    # the committee is always two, so no parameter names its size
    with pytest.raises(ValueError, match="unknown parameter name 'evaluators'"):
        GridSpec(
            axes=(("delta", (1.0,)), ("sigma", (0.5,))),
            fixed={"n": 4, "d": 4, "evaluators": 2},
            runs=64,
        )


def test_bias_grid_rejects_a_parameter_it_does_not_read():
    # tau is a sweep parameter, but only the screening model reads it
    as_axis = GridSpec(axes=(("delta", (1.0,)), ("tau", (0.1, 0.9))), runs=16)
    as_fixed = GridSpec(axes=(("delta", (1.0,)), ("sigma", (0.5,))), fixed={"tau": 5}, runs=16)
    for grid in (as_axis, as_fixed):
        with pytest.raises(ValueError, match="'tau'"):
            run_bias_grid(grid, seed=9)


@pytest.mark.parametrize(
    "name, values",
    [
        ("n", (4, 0)),
        ("d", (-2,)),
        ("sigma", (0.5, float("nan"))),
        ("sigma", (1.5,)),
        ("alpha", (-0.1,)),
        ("lambda", (2.0,)),
        ("beta", (1.0,)),
        ("beta", (5.0,)),
        ("beta", (-1.0,)),
        ("gamma", (0.0,)),
        ("gamma", (1.0,)),
        ("gamma", (2.0,)),
        ("gamma", (float("nan"),)),
    ],
)
def test_bias_grid_rejects_out_of_range_points(name, values):
    fixed = {key: 4 for key in ("n", "d") if key != name}
    grid = GridSpec(axes=(("delta", (1.0,)), (name, values)), fixed=fixed, runs=16)
    with pytest.raises(ValueError, match=f"^{name} must"):
        run_bias_grid(grid, seed=9)


@pytest.mark.parametrize("name, values", [("n", (20, 21)), ("d", (3,))])
def test_bias_grid_rejects_odd_counts_before_any_run(monkeypatch, name, values):
    # the committee of two halves rows and columns: an odd count must fail
    # before the valid points spend their runs
    def fail(*_):
        raise AssertionError("run_points was called")

    monkeypatch.setattr(bias, "run_points", fail)
    grid = GridSpec(axes=(("sigma", (0.5,)), (name, values)), runs=16)
    with pytest.raises(ValueError, match=f"^{name} must be even and at least 2, got {values[-1]}$"):
        run_bias_grid(grid, seed=9)
