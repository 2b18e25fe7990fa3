"""Allocation plans: partition property, workloads, assignment uniformity."""

import csv

import numpy as np
import pytest

from evalsim.allocation import (
    AllocationPlan,
    allocate_blocked,
    allocate_holistic,
    allocate_segmented,
    _split_indices,
)
from evalsim.rng import derive_stream


def _rng(seed=0):
    return derive_stream(seed, 77)


def test_holistic_shape_and_partition():
    plan = allocate_holistic(6, 4, 3, _rng())
    assert len(plan.blocks) == 3
    owner = plan.cell_map()
    assert owner.shape == (6, 4)
    for rows, cols in plan.blocks:
        assert rows.shape == (2,)
        assert np.array_equal(cols, np.arange(4))
    # every evaluator owns whole rows
    assert np.all(owner == owner[:, :1])


def test_segmented_shape_and_partition():
    plan = allocate_segmented(5, 6, 2, _rng())
    owner = plan.cell_map()
    for rows, cols in plan.blocks:
        assert np.array_equal(rows, np.arange(5))
        assert cols.shape == (3,)
    # every evaluator owns whole columns
    assert np.all(owner == owner[:1, :])


def test_blocked_tiles_the_grid():
    plan = allocate_blocked(6, 6, 2, 3, _rng())
    assert len(plan.blocks) == 6
    plan.cell_map()
    for rows, cols in plan.blocks:
        assert rows.shape == (2,)
        assert cols.shape == (3,)


def test_equal_workloads():
    for plan in (
        allocate_holistic(8, 5, 4, _rng(1)),
        allocate_segmented(7, 8, 4, _rng(2)),
        allocate_blocked(6, 4, 3, 2, _rng(3)),
    ):
        sizes = {len(rows) * len(cols) for rows, cols in plan.blocks}
        assert len(sizes) == 1


def test_partition_is_exhaustive_on_small_grids():
    # Every valid generator call on small grids must tile each cell once.
    seed = 0
    for n in range(1, 7):
        for d in range(1, 7):
            for e in range(1, 7):
                seed += 1
                if e <= n and n % e == 0:
                    allocate_holistic(n, d, e, _rng(seed)).cell_map()
                if e <= d and d % e == 0:
                    allocate_segmented(n, d, e, _rng(seed)).cell_map()
            for rpe in range(1, n + 1):
                for cpe in range(1, d + 1):
                    if n % rpe == 0 and d % cpe == 0:
                        seed += 1
                        allocate_blocked(n, d, rpe, cpe, _rng(seed)).cell_map()


def test_committee_plans_are_their_blocked_tilings():
    # holistic is the tiling with every column, segmented the one with every
    # row: same blocks, and the same draws taken from the stream
    for n in range(1, 7):
        for d in range(1, 7):
            for e in range(1, 7):
                cases = []
                if e <= n and n % e == 0:
                    cases.append((allocate_holistic, (n, d, e), (n, d, n // e, d)))
                if e <= d and d % e == 0:
                    cases.append((allocate_segmented, (n, d, e), (n, d, n, d // e)))
                for allocate, args, tiling in cases:
                    seed = 100 * n + 10 * d + e
                    rng, twin = _rng(seed), _rng(seed)
                    plan = allocate(*args, rng)
                    want = allocate_blocked(*tiling, twin)
                    assert len(plan.blocks) == len(want.blocks) == e
                    for (rows, cols), (want_rows, want_cols) in zip(plan.blocks, want.blocks):
                        assert np.array_equal(rows, want_rows)
                        assert np.array_equal(cols, want_cols)
                    assert rng.bit_generator.state == twin.bit_generator.state


def test_a_single_group_draws_nothing():
    rng = _rng(5)
    before = rng.bit_generator.state
    (group,) = _split_indices(7, 7, rng)
    assert np.array_equal(group, np.arange(7))
    assert rng.bit_generator.state == before


def test_assignment_uniformity():
    # With 4 evaluators each applicant lands with any one of them 1/4 of the
    # time over repeated draws.
    rng = _rng(9)
    draws = 2000
    counts = np.zeros((8, 4))
    for _ in range(draws):
        owner = allocate_holistic(8, 2, 4, rng).cell_map()
        counts[np.arange(8), owner[:, 0]] += 1
    freq = counts / draws
    se = np.sqrt(0.25 * 0.75 / draws)
    assert np.all(np.abs(freq - 0.25) <= 4.0 * se)


def test_divisibility_and_bounds_errors():
    with pytest.raises(ValueError):
        allocate_holistic(6, 4, 4, _rng())
    with pytest.raises(ValueError):
        allocate_holistic(3, 4, 5, _rng())
    with pytest.raises(ValueError):
        allocate_segmented(4, 6, 4, _rng())
    with pytest.raises(ValueError):
        allocate_segmented(4, 3, 5, _rng())
    with pytest.raises(ValueError):
        allocate_blocked(6, 4, 4, 2, _rng())
    with pytest.raises(ValueError):
        allocate_blocked(6, 4, 2, 3, _rng())
    with pytest.raises(ValueError):
        allocate_blocked(6, 4, 0, 2, _rng())
    with pytest.raises(ValueError):
        allocate_holistic(0, 4, 1, _rng())
    with pytest.raises(ValueError, match="need at least one evaluator"):
        allocate_holistic(4, 2, 0, _rng())
    for cols_per_eval in (0, 5):
        with pytest.raises(ValueError, match=r"cols_per_eval must lie in \[1, d\]"):
            allocate_blocked(6, 4, 2, cols_per_eval, _rng())


def test_overlapping_blocks_rejected():
    rows = np.arange(2)
    cols = np.arange(2)
    plan = AllocationPlan(2, 2, ((rows, cols), (rows[:1], cols)))
    with pytest.raises(ValueError):
        plan.cell_map()


def test_uncovered_cells_rejected():
    plan = AllocationPlan(2, 2, ((np.arange(1), np.arange(2)),))
    with pytest.raises(ValueError):
        plan.cell_map()


def test_plan_validation():
    with pytest.raises(ValueError):
        AllocationPlan(2, 2, ())


def test_plan_csv_schema(tmp_path):
    plan = allocate_segmented(3, 2, 2, _rng(4))
    path = tmp_path / "plan.csv"
    plan.to_csv(path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["applicant", "attribute", "evaluator"]
    assert len(rows) == 1 + 3 * 2
    owner = plan.cell_map()
    for row in rows[1:]:
        i, j, e = map(int, row)
        assert owner[i, j] == e
