"""Attribute-value distributions of the population model.

True attribute values are drawn from a heavy-tailed power law, the one
marginal of the population model, and coupled across attributes through a
Gaussian copula with equicorrelation sigma: latent scores are jointly normal
with unit variance and a common pairwise correlation, and each is pushed
through the marginal's inverse CDF.  At ``sigma = 0`` attributes are
independent; at ``sigma = 1`` every attribute of an applicant is the same
number.

This module holds the marginal.  The copula has one sampler,
``experiments.kernels.draw_correlated_values``, which every experiment and
``pool-dump`` draw through.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Largest double strictly below 1.0.  Copula uniforms are clipped here before
# inversion: the normal CDF rounds to exactly 1.0 for arguments above ~8.3,
# and the power-law inverse CDF diverges at 1.
_U_BELOW_ONE = float(np.nextafter(1.0, 0.0))


def power_law_inv_cdf(u, delta: float, out=None):
    """Invert the power-law CDF ``F(t) = 1 - t**-(1 + delta)`` on [1, inf).

    Accepts scalars or arrays in ``[0, 1)`` and returns values of matching
    shape.  ``u = 0`` maps to the support minimum 1.  A float array ``out``
    of ``u``'s shape, which may be ``u`` itself, receives the values and is
    returned, so no float array is allocated; the bits are the same.
    """
    if not 0.0 < delta < math.inf:
        raise ValueError("delta must be positive and finite")
    arr = np.asarray(u, dtype=float)
    if np.any(arr < 0.0) or np.any(arr >= 1.0):
        raise ValueError("u must lie in [0, 1)")
    if out is not None:
        np.subtract(1.0, arr, out=out)
        return np.power(out, -1.0 / (1.0 + delta), out=out)
    out = (1.0 - arr) ** (-1.0 / (1.0 + delta))
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class PowerLaw:
    """Heavy-tailed marginal with survival ``P[Z >= t] = t**-(1 + delta)``.

    Supported on ``[1, inf)``; smaller ``delta`` means a heavier tail.  The
    mean is finite only for ``delta > 0``, which is required; an infinite
    ``delta`` would make every draw 1.0, so it is rejected too.
    """

    delta: float

    def __post_init__(self):
        if not 0.0 < self.delta < math.inf:
            raise ValueError("delta must be positive and finite")

    def cdf(self, t):
        arr = np.asarray(t, dtype=float)
        out = 1.0 - np.maximum(arr, 1.0) ** (-(1.0 + self.delta))
        out = np.where(arr < 1.0, 0.0, out)
        return float(out) if out.ndim == 0 else out

    def inv_cdf(self, u):
        return power_law_inv_cdf(u, self.delta)
