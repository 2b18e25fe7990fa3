"""Pool construction: group labels, protected attributes, ground truth."""

import csv
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from evalsim.experiments import kernels
from evalsim.experiments.kernels import build_pool
from evalsim.population import AttributeMatrix, pool_to_csv, round_half_up, true_best
from evalsim.rng import derive_stream


def test_round_half_up_basics():
    assert round_half_up(0.0) == 0
    assert round_half_up(0.4) == 0
    assert round_half_up(0.5) == 1
    assert round_half_up(1.5) == 2
    assert round_half_up(2.5) == 3
    assert round_half_up(2.49999999) == 2
    assert round_half_up(-0.5) == 0


def test_round_half_up_absorbs_product_noise():
    # 0.15 * 20 is 3.0000000000000004 in binary; 0.5 * 21 must go up to 11.
    assert round_half_up(0.15 * 20) == 3
    assert round_half_up(0.5 * 21) == 11
    assert round_half_up(0.1 * 30) == 3


@given(
    alpha=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    n=st.integers(min_value=2, max_value=60),
)
def test_round_half_up_stays_within_half_of_target(alpha, n):
    k = round_half_up(alpha * n)
    assert 0 <= k <= n
    assert abs(k - alpha * n) <= 0.5 + 1e-6


def _pool(n=10, d=4, sigma=0.5, alpha=0.5, lam=0.5, seed=11):
    rng = derive_stream(seed, 6)
    return build_pool(n, d, sigma, alpha, lam, 1.0, rng)


def test_build_pool_group_counts():
    for n, alpha, expected in [(10, 0.5, 5), (21, 0.5, 11), (10, 0.0, 0), (10, 1.0, 10)]:
        pool = _pool(n=n, alpha=alpha)
        assert int(pool.disadvantaged.sum()) == expected
    for d, lam, expected in [(4, 0.5, 2), (5, 0.5, 3), (4, 0.0, 0), (4, 1.0, 4)]:
        pool = _pool(d=d, lam=lam)
        assert int(pool.protected.sum()) == expected


def test_build_pool_shapes_and_support():
    pool = _pool(n=12, d=3)
    assert pool.values.shape == (12, 3)
    assert pool.values.shape == (12, 3)
    assert np.all(pool.values >= 1.0)
    assert pool.disadvantaged.dtype == bool
    assert pool.protected.dtype == bool


def test_build_pool_label_positions_are_random():
    # Each applicant should be disadvantaged in roughly alpha of the pools.
    rng = derive_stream(12, 6)
    hits = np.zeros(8)
    draws = 2000
    for _ in range(draws):
        pool = build_pool(8, 2, 0.0, 0.5, 0.5, 1.0, rng)
        hits += pool.disadvantaged
    freq = hits / draws
    se = np.sqrt(0.5 * 0.5 / draws)
    assert np.all(np.abs(freq - 0.5) <= 4.0 * se)


def test_build_pool_top_row_mean_is_unique():
    for seed in range(5):
        pool = _pool(seed=seed)
        means = pool.values.mean(axis=1)
        assert int((means == means.max()).sum()) == 1


def test_build_pool_validation():
    rng = derive_stream(1, 6)
    with pytest.raises(ValueError):
        build_pool(1, 2, 0.5, 0.5, 0.5, 1.0, rng)
    with pytest.raises(ValueError):
        build_pool(4, 0, 0.5, 0.5, 0.5, 1.0, rng)
    with pytest.raises(ValueError):
        build_pool(4, 2, 0.5, 1.5, 0.5, 1.0, rng)
    with pytest.raises(ValueError):
        build_pool(4, 2, 0.5, 0.5, -0.1, 1.0, rng)
    for sigma in (-0.1, 1.5, math.nan):
        with pytest.raises(ValueError, match="sigma"):
            build_pool(4, 2, sigma, 0.5, 0.5, 1.0, rng)


@pytest.mark.parametrize("delta", [0.0, -1.0, math.inf, math.nan])
def test_build_pool_checks_delta_before_any_draw(monkeypatch, delta):
    def fail(*_):
        raise AssertionError("draw_correlated_values was called")

    monkeypatch.setattr(kernels, "draw_correlated_values", fail)
    with pytest.raises(ValueError, match=rf"^delta must lie in \(0, inf\), got {delta!r}$"):
        build_pool(4, 2, 0.5, 0.5, 0.5, delta, derive_stream(1, 6))


def test_build_pool_gives_up_on_a_constant_marginal():
    # every power-law draw is 1.0 at a huge delta, so every pool is tied
    with pytest.raises(ValueError, match="delta=1e"):
        build_pool(4, 2, 0.5, 0.5, 0.5, 1e300, derive_stream(1, 6))


def test_attribute_matrix_shape_validation():
    values = np.ones((3, 2))
    good_dis = np.zeros(3, dtype=bool)
    good_prot = np.zeros(2, dtype=bool)
    AttributeMatrix(values, good_dis, good_prot)
    with pytest.raises(ValueError):
        AttributeMatrix(values, np.zeros(2, dtype=bool), good_prot)
    with pytest.raises(ValueError):
        AttributeMatrix(values, good_dis, np.zeros(3, dtype=bool))
    with pytest.raises(ValueError):
        AttributeMatrix(np.ones(3), good_dis, good_prot)


def test_true_best_is_argmax_of_row_means():
    values = np.array([[1.0, 5.0], [2.0, 2.0], [3.0, 2.9]])
    pool = AttributeMatrix(values, np.zeros(3, dtype=bool), np.zeros(2, dtype=bool))
    assert true_best(pool) == 0


def test_pool_csv_round_trips(tmp_path):
    pool = _pool(n=6, d=3, lam=0.5)
    path = tmp_path / "pool.csv"
    pool_to_csv(pool, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["applicant", "group", "attr_0", "attr_1", "attr_2", "protected_mask"]
    assert len(rows) == 7
    mask = rows[1][-1]
    assert len(mask) == 3 and set(mask) <= {"0", "1"}
    for i, row in enumerate(rows[1:]):
        assert int(row[0]) == i
        expected_group = "disadvantaged" if pool.disadvantaged[i] else "advantaged"
        assert row[1] == expected_group
        assert row[-1] == mask
        back = np.array([float(cell) for cell in row[2:-1]])
        assert np.array_equal(back, pool.values[i])
