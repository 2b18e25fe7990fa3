"""Attribute-value distributions and the correlated sampling model.

True attribute values are drawn from a heavy-tailed power law, the one
marginal of the population model, and coupled across attributes through a
Gaussian copula with equicorrelation sigma: latent scores are jointly normal
with unit variance and a common pairwise correlation, and each is pushed
through the marginal's inverse CDF.  At ``sigma = 0`` attributes are
independent; at ``sigma = 1`` every attribute of an applicant is the same
number.

``sample_correlated_matrix`` is the object layer's sampler and goes through
the copula at every ``sigma``.  The batched sampler in
``experiments.kernels`` takes exact shortcuts at the two extremes: it draws
the uniforms directly at ``sigma = 0``, and one uniform per applicant at
``sigma = 1``.  Both draw the same distribution from different random
numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

# Largest double strictly below 1.0.  Copula uniforms are clipped here before
# inversion: the normal CDF rounds to exactly 1.0 for arguments above ~8.3,
# and the power-law inverse CDF diverges at 1.
_U_BELOW_ONE = float(np.nextafter(1.0, 0.0))


def power_law_inv_cdf(u, delta: float):
    """Invert the power-law CDF ``F(t) = 1 - t**-(1 + delta)`` on [1, inf).

    Accepts scalars or arrays in ``[0, 1)`` and returns values of matching
    shape.  ``u = 0`` maps to the support minimum 1.
    """
    if not 0.0 < delta < math.inf:
        raise ValueError("delta must be positive and finite")
    arr = np.asarray(u, dtype=float)
    if np.any(arr < 0.0) or np.any(arr >= 1.0):
        raise ValueError("u must lie in [0, 1)")
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

    def sample(self, rng: np.random.Generator, size=None):
        """Draw by inverse-transform from ``rng``."""
        return power_law_inv_cdf(rng.random(size), self.delta)


def sample_correlated_matrix(
    n: int,
    d: int,
    sigma: float,
    marginal,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw an ``(n, d)`` matrix of attribute values for ``n`` applicants.

    Rows are independent applicants.  Within a row, latent normals follow the
    one-factor construction ``z_j = sqrt(sigma) * w + sqrt(1 - sigma) * e_j``
    with ``w`` and ``e_j`` independent standard normals, which realizes the
    equicorrelated covariance exactly.  Each latent score is mapped through
    the normal CDF and then the marginal's inverse CDF.

    At ``sigma = 1`` the noise coefficient is exactly zero, so the columns of
    each row are identical floats, not merely close.
    """
    if n < 1 or d < 1:
        raise ValueError("n and d must be at least 1")
    if not 0.0 <= sigma <= 1.0:
        raise ValueError("sigma must lie in [0, 1]")
    common = rng.standard_normal(n)
    noise = rng.standard_normal((n, d))
    z = math.sqrt(sigma) * common[:, None] + math.sqrt(1.0 - sigma) * noise
    u = np.minimum(ndtr(z), _U_BELOW_ONE)
    return marginal.inv_cdf(u)
