"""Marginals and the equicorrelated copula sampler."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import ndtr

from evalsim.distributions import PowerLaw, power_law_inv_cdf
from evalsim.experiments.kernels import draw_correlated_values
from evalsim.rng import derive_stream

# Reference values computed independently with 40-digit arithmetic.
NDTR_1959964 = 0.9750000009035576
NDTR_M1959964 = 0.024999999096442404
NDTR_HALF = 0.6914624612740131
INV_CDF_HALF_058 = 1.550691169256758
SPEARMAN_SIGMA_HALF = 0.48258373953099746


def test_ndtr_reference_values():
    # the copula's normal CDF is scipy's ndtr, used directly
    assert ndtr(1.959964) == pytest.approx(NDTR_1959964, abs=1e-15)
    assert ndtr(-1.959964) == pytest.approx(NDTR_M1959964, abs=1e-15)
    assert ndtr(0.5) == pytest.approx(NDTR_HALF, abs=1e-15)
    assert ndtr(0.0) == pytest.approx(0.5, abs=1e-16)


def test_power_law_inv_cdf_reference_values():
    assert power_law_inv_cdf(0.0, 1.0) == 1.0
    assert power_law_inv_cdf(0.5, 0.58) == pytest.approx(INV_CDF_HALF_058, rel=1e-14)
    # median of the delta=1 law: F(t) = 1 - t**-2 = 1/2 at t = sqrt(2)
    assert power_law_inv_cdf(0.5, 1.0) == pytest.approx(math.sqrt(2.0), rel=1e-14)


def test_power_law_inv_cdf_domain_errors():
    with pytest.raises(ValueError):
        power_law_inv_cdf(1.0, 1.0)
    with pytest.raises(ValueError):
        power_law_inv_cdf(-0.1, 1.0)
    with pytest.raises(ValueError):
        power_law_inv_cdf(0.5, 0.0)
    with pytest.raises(ValueError):
        PowerLaw(-0.2)


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
    values = draw_correlated_values(rng, 1, 50, 6, 1.0, law)[0]
    assert np.all(values == values[:, :1])


def test_correlated_matrix_respects_marginal_support():
    law = PowerLaw(0.3)
    rng = derive_stream(104, 1)
    values = draw_correlated_values(rng, 1, 200, 4, 0.5, law)[0]
    assert values.shape == (200, 4)
    assert np.all(values >= 1.0)
    assert np.isfinite(values).all()


def test_correlated_matrix_columns_are_exchangeable():
    # Every column sees the same marginal: compare empirical deciles.
    law = PowerLaw(1.0)
    rng = derive_stream(105, 1)
    values = draw_correlated_values(rng, 1, 40_000, 3, 0.5, law)[0]
    probs = np.linspace(0.1, 0.9, 9)
    q = np.quantile(values, probs, axis=0)
    expected = law.inv_cdf(probs)
    assert np.allclose(q, expected[:, None], rtol=0.05)


def test_empirical_spearman_matches_prediction():
    from scipy.stats import spearmanr

    law = PowerLaw(1.0)
    rng = derive_stream(106, 1)
    values = draw_correlated_values(rng, 1, 40_000, 2, 0.5, law)[0]
    rho = spearmanr(values[:, 0], values[:, 1]).statistic
    # SE of the Spearman estimate at this size is about 1/sqrt(n) ~ 0.005
    assert rho == pytest.approx(SPEARMAN_SIGMA_HALF, abs=0.02)


def test_independent_columns_at_sigma_zero():
    from scipy.stats import spearmanr

    law = PowerLaw(1.0)
    rng = derive_stream(107, 1)
    values = draw_correlated_values(rng, 1, 40_000, 2, 0.0, law)[0]
    rho = spearmanr(values[:, 0], values[:, 1]).statistic
    assert abs(rho) < 0.02


def test_sample_correlated_matrix_validation():
    # the one copula sampler checks its pool shape and correlation
    law = PowerLaw(1.0)
    rng = derive_stream(108, 1)
    with pytest.raises(ValueError):
        draw_correlated_values(rng, 1, 0, 2, 0.5, law)
    with pytest.raises(ValueError):
        draw_correlated_values(rng, 1, 4, 0, 0.5, law)
    for sigma in (-0.1, 1.5, math.nan):
        with pytest.raises(ValueError, match="sigma"):
            draw_correlated_values(rng, 1, 4, 2, sigma, law)
