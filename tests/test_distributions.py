"""Marginals and the equicorrelated copula sampler."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.special import ndtr

from evalsim.distributions import (
    PowerLaw,
    log_survival,
    power_law_from_log_survival,
    power_law_inv_cdf,
)
from evalsim.experiments import kernels
from evalsim.experiments.kernels import draw_correlated_values
from evalsim.rng import derive_stream

# Reference values computed independently with 40-digit arithmetic.
NDTR_1959964 = 0.9750000009035576
NDTR_M1959964 = 0.024999999096442404
NDTR_HALF = 0.6914624612740131
INV_CDF_HALF_058 = 1.550691169256758
SPEARMAN_SIGMA_HALF = 0.48258373953099746

_BELOW_ONE = float(np.nextafter(1.0, 0.0))
# u = 0, the median, and two u next to 1, where log(1 - u) is largest
_EDGE_U = (0.0, 0.5, 1.0 - 2.0**-40, _BELOW_ONE)


def test_ndtr_reference_values():
    # the copula's normal CDF is scipy's ndtr, used directly
    assert ndtr(1.959964) == pytest.approx(NDTR_1959964, abs=1e-15)
    assert ndtr(-1.959964) == pytest.approx(NDTR_M1959964, abs=1e-15)
    assert ndtr(0.5) == pytest.approx(NDTR_HALF, abs=1e-15)
    assert ndtr(0.0) == pytest.approx(0.5, abs=1e-16)


def test_kernels_ndtr_is_scipys_bit_for_bit():
    # the kernels import scipy's ndtr at the first call; scalars, arrays and
    # out= (the copula writes its uniforms over its normals) all pass through
    z = np.linspace(-40.0, 40.0, 1001).reshape(7, 11, 13)
    assert kernels.ndtr(0.5) == ndtr(0.5)
    expected = ndtr(z)
    assert np.array_equal(kernels.ndtr(z), expected)
    assert kernels.ndtr(z, out=z) is z
    assert np.array_equal(z, expected)


def test_power_law_inv_cdf_reference_values():
    assert power_law_inv_cdf(0.0, 1.0) == 1.0
    assert power_law_inv_cdf(0.5, 0.58) == pytest.approx(INV_CDF_HALF_058, rel=1e-14)
    # median of the delta=1 law: F(t) = 1 - t**-2 = 1/2 at t = sqrt(2)
    assert power_law_inv_cdf(0.5, 1.0) == pytest.approx(math.sqrt(2.0), rel=1e-14)


def test_power_law_inv_cdf_domain_errors():
    for bad in (1.0, -0.1):
        with pytest.raises(ValueError, match=r"u must lie in \[0, 1\)"):
            power_law_inv_cdf(bad, 1.0)
        with pytest.raises(ValueError, match=r"u must lie in \[0, 1\)"):
            log_survival(bad)
    with pytest.raises(ValueError):
        power_law_inv_cdf(0.5, 0.0)
    with pytest.raises(ValueError):
        PowerLaw(-0.2)


@pytest.mark.parametrize(
    "u, bad",
    [
        (np.array(0.5), False),
        (np.array([]), False),
        (np.array([np.nan]), False),
        (np.array([np.nan, -5e-324]), True),
        (np.array([-0.0]), False),
        (np.array([np.inf]), True),
        (np.array([-np.inf]), True),
        (np.array([np.nextafter(1.0, 0.0)]), False),
        (np.array([1.0]), True),
    ],
)
def test_power_law_inv_cdf_checks_u_like_the_comparisons(u, bad):
    # the verdicts any cheaper check must keep: NaN passes, as it passes
    # u < 0 and u >= 1, and an empty u passes
    assert bool(np.any(u < 0.0) or np.any(u >= 1.0)) is bad
    for out in (None, np.empty_like(u)):
        if bad:
            with pytest.raises(ValueError, match=r"u must lie in \[0, 1\)"):
                power_law_inv_cdf(u, 1.0, out=out)
        else:
            power_law_inv_cdf(u, 1.0, out=out)


@given(
    hnp.arrays(
        np.float64,
        hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4),
        elements=st.one_of(
            st.floats(allow_nan=True, allow_infinity=True),
            st.sampled_from([-0.0, -5e-324, 0.5, _BELOW_ONE, 1.0]),
        ),
        fill=st.nothing(),  # draw every element, so NaN mixes with the rest
    )
)
def test_log_survival_rejects_exactly_what_the_comparisons_reject(u):
    # the check reduces u with fmin and fmax instead of building two bool
    # arrays; NaN, 0-d and empty u must get the comparisons' verdict
    if np.any(u < 0.0) or np.any(u >= 1.0):
        with pytest.raises(ValueError, match=r"u must lie in \[0, 1\)"):
            log_survival(u)
    else:
        log_survival(u)


@pytest.mark.parametrize("delta", [0.001, 0.3, 0.5, 0.9, 1.0, 2.0, 7.0])
def test_power_law_inv_cdf_into_a_buffer_is_bit_equal(delta):
    u = derive_stream(103, 1).random((64, 5, 3))
    u[0, 0, 0] = 0.0
    u[0, 0, 1] = np.nextafter(1.0, 0.0)
    want = power_law_inv_cdf(u, delta)
    buf = np.empty_like(u)
    assert power_law_inv_cdf(u, delta, out=buf) is buf
    assert np.array_equal(buf.view(np.int64), want.view(np.int64))
    # in place, the uniforms become the values
    assert power_law_inv_cdf(u, delta, out=u) is u
    assert np.array_equal(u.view(np.int64), want.view(np.int64))


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


@pytest.mark.parametrize("delta", [0.01, 0.5, 1.0, 2.0, 10.0])
def test_split_map_is_power_law_inv_cdf_bit_for_bit(delta):
    # bias_worker takes log_survival once per chunk and maps it at each delta
    u = derive_stream(109, 1).random((2048, 20, 20))
    u[0, 0, : len(_EDGE_U)] = _EDGE_U
    want = power_law_inv_cdf(u, delta)
    assert np.array_equal(_bits(power_law_from_log_survival(log_survival(u), delta)), _bits(want))
    for i, x in enumerate(_EDGE_U + (float(u[1, 2, 3]),)):
        expected = want[0, 0, i] if i < len(_EDGE_U) else want[1, 2, 3]
        for scalar in (x, np.array(x)):
            got = power_law_from_log_survival(log_survival(scalar), delta)
            assert type(got) is float and _bits(got) == _bits(expected)
            assert _bits(power_law_inv_cdf(scalar, delta)) == _bits(expected)
    buf = np.empty_like(u)
    assert log_survival(u, out=buf) is buf
    assert power_law_from_log_survival(buf, delta, out=buf) is buf
    assert np.array_equal(_bits(buf), _bits(want))
    # in place, the uniforms become log-survivals and then the values
    assert log_survival(u, out=u) is u
    assert power_law_from_log_survival(u, delta, out=u) is u
    assert np.array_equal(_bits(u), _bits(want))


@pytest.mark.parametrize("delta", [0.01, 0.5, 1.0, 2.0, 10.0])
def test_power_law_inv_cdf_is_within_40_ulps_of_exact(delta):
    # exp(log(1 - u) * c) carries log's and the multiply's rounding into
    # exp's argument, -log(1 - u) / (1 + delta), which is at most 36.7, so
    # the error is largest next to u = 1 and at small delta
    rng = derive_stream(110, 1)
    u = np.concatenate([
        rng.random(1000),
        np.minimum(1.0 - rng.random(1000) ** 8, _BELOW_ONE),
        _EDGE_U,
    ])
    got = power_law_inv_cdf(u, delta)
    with mpmath.workprec(120):
        exponent = -1 / (1 + mpmath.mpf(delta))
        for x, t in zip(u.tolist(), got.tolist()):
            exact = (1 - mpmath.mpf(x)) ** exponent
            ulps = abs(t - exact) / np.spacing(float(exact))
            assert ulps <= 40, (x, t, float(ulps))
    assert power_law_inv_cdf(0.0, delta) == 1.0
    assert math.isfinite(power_law_inv_cdf(_BELOW_ONE, delta))


@pytest.mark.parametrize("u, delta", [(1.0, 1.0), (-0.1, 1.0), (0.5, 0.0), (0.5, -1.0)])
def test_power_law_inv_cdf_into_a_buffer_checks_its_domain(u, delta):
    arr = np.full((2, 3), 0.5)
    arr[1, 2] = u
    with pytest.raises(ValueError):
        power_law_inv_cdf(arr, delta, out=np.empty_like(arr))
    with pytest.raises(ValueError):
        power_law_inv_cdf(arr, delta, out=arr)
    # a rejected call writes nothing into out
    assert np.array_equal(arr, np.where(np.arange(6).reshape(2, 3) == 5, u, 0.5))


def test_power_law_rejects_an_infinite_exponent():
    # every draw of an infinite exponent is 1.0, a constant that ties every pool
    with pytest.raises(ValueError, match="finite"):
        PowerLaw(math.inf)
    with pytest.raises(ValueError, match="finite"):
        power_law_inv_cdf(0.5, math.inf)


@given(
    u=st.floats(min_value=0.0, max_value=0.999999, allow_nan=False),
    delta=st.floats(min_value=0.05, max_value=5.0, allow_nan=False),
)
def test_power_law_round_trip(u, delta):
    law = PowerLaw(delta)
    t = law.inv_cdf(u)
    assert t >= 1.0
    assert law.cdf(t) == pytest.approx(u, abs=1e-9)


def test_power_law_cdf_below_support_is_zero():
    law = PowerLaw(1.0)
    assert law.cdf(0.5) == 0.0
    assert law.cdf(1.0) == 0.0
    assert law.cdf(np.array([0.0, 1.0, 2.0]))[2] == pytest.approx(0.75)


def test_power_law_tail_mass_matches_survival_law():
    # P[Z >= t] = t**-(1 + delta); check empirically at a few thresholds.
    delta = 1.0
    law = PowerLaw(delta)
    rng = derive_stream(101, 1)
    sample = law.inv_cdf(rng.random(200_000))
    for t in (2.0, 4.0, 8.0):
        expected = t ** -(1.0 + delta)
        observed = float((sample >= t).mean())
        se = math.sqrt(expected * (1.0 - expected) / sample.size)
        assert abs(observed - expected) <= 3.0 * se


def test_fully_correlated_rows_are_identical_floats():
    law = PowerLaw(1.0)
    rng = derive_stream(103, 1)
    values = draw_correlated_values(rng, 1, 50, 6, 1.0, law.delta)[0]
    assert np.all(values == values[:, :1])


def test_correlated_matrix_respects_marginal_support():
    law = PowerLaw(0.3)
    rng = derive_stream(104, 1)
    values = draw_correlated_values(rng, 1, 200, 4, 0.5, law.delta)[0]
    assert values.shape == (200, 4)
    assert np.all(values >= 1.0)
    assert np.isfinite(values).all()


def test_correlated_matrix_columns_are_exchangeable():
    # Every column sees the same marginal: compare empirical deciles.
    law = PowerLaw(1.0)
    rng = derive_stream(105, 1)
    values = draw_correlated_values(rng, 1, 40_000, 3, 0.5, law.delta)[0]
    probs = np.linspace(0.1, 0.9, 9)
    q = np.quantile(values, probs, axis=0)
    expected = law.inv_cdf(probs)
    assert np.allclose(q, expected[:, None], rtol=0.05)


def test_empirical_spearman_matches_prediction():
    from scipy.stats import spearmanr

    law = PowerLaw(1.0)
    rng = derive_stream(106, 1)
    values = draw_correlated_values(rng, 1, 40_000, 2, 0.5, law.delta)[0]
    rho = spearmanr(values[:, 0], values[:, 1]).statistic
    # SE of the Spearman estimate at this size is about 1/sqrt(n) ~ 0.005
    assert rho == pytest.approx(SPEARMAN_SIGMA_HALF, abs=0.02)


def test_independent_columns_at_sigma_zero():
    from scipy.stats import spearmanr

    law = PowerLaw(1.0)
    rng = derive_stream(107, 1)
    values = draw_correlated_values(rng, 1, 40_000, 2, 0.0, law.delta)[0]
    rho = spearmanr(values[:, 0], values[:, 1]).statistic
    assert abs(rho) < 0.02


def test_sample_correlated_matrix_validation():
    # the one copula sampler checks its pool shape and correlation
    law = PowerLaw(1.0)
    rng = derive_stream(108, 1)
    with pytest.raises(ValueError):
        draw_correlated_values(rng, 1, 0, 2, 0.5, law.delta)
    with pytest.raises(ValueError):
        draw_correlated_values(rng, 1, 4, 0, 0.5, law.delta)
    for sigma in (-0.1, 1.5, math.nan):
        with pytest.raises(ValueError, match="sigma"):
            draw_correlated_values(rng, 1, 4, 2, sigma, law.delta)
