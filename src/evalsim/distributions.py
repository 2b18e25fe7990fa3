"""Attribute-value distributions of the population model.

True attribute values are drawn from a heavy-tailed power law, the one
marginal of the population model, and coupled across attributes through a
Gaussian copula with equicorrelation sigma: latent scores are jointly normal
with unit variance and a common pairwise correlation, and each is pushed
through the marginal's inverse CDF.  At ``sigma = 0`` attributes are
independent; at ``sigma = 1`` every attribute of an applicant is the same
number.

This module holds the marginal.  Its inverse CDF is computed as
``exp(log(1 - u) * (-1 / (1 + delta)))`` in two halves: ``log_survival``
checks ``u`` and takes ``log(1 - u)``, and ``power_law_from_log_survival``
checks ``delta`` and takes one multiply and one ``exp``.  A caller that maps
one draw at several deltas pays the first half once.  The rounding of
``log`` and of the multiply is carried into the argument of ``exp``, so the
error grows with that argument, ``-log(1 - u) / (1 + delta)``, which is at
most 36.7.  On a grid of delta from 0.01 to 10 and u up to the largest
double below 1, the map lies within 40 ulps of the exact value; a denser
scan next to ``u = 1`` found up to 44 ulps at ``delta = 0.01`` and 96 at
``delta = 0.001``.

The copula has one sampler, ``experiments.kernels.draw_correlated_values``,
which every experiment and ``pool-dump`` draw through.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Largest double strictly below 1.0.  Copula uniforms are clipped here before
# inversion: the normal CDF rounds to exactly 1.0 for arguments above ~8.3,
# and the power-law inverse CDF diverges at 1.
_U_BELOW_ONE = float(np.nextafter(1.0, 0.0))


def _check_delta(delta: float) -> None:
    if not 0.0 < delta < math.inf:
        raise ValueError("delta must be positive and finite")


def log_survival(u, out=None):
    """``log(1 - u)``, the first half of ``power_law_inv_cdf``.

    Checks that ``u`` lies in ``[0, 1)``, so the result is finite and at
    most 0.  ``out`` is as in ``power_law_inv_cdf``.
    """
    arr = np.asarray(u, dtype=float)
    # fmin and fmax skip NaN, as the comparisons do; min and max would not
    if arr.size and (np.fmin.reduce(arr, axis=None) < 0.0 or np.fmax.reduce(arr, axis=None) >= 1.0):
        raise ValueError("u must lie in [0, 1)")
    ls = np.subtract(1.0, arr, out=np.empty_like(arr) if out is None else out)
    np.log(ls, out=ls)
    return float(ls) if out is None and ls.ndim == 0 else ls


def power_law_from_log_survival(ls, delta: float, out=None):
    """The power law's value at log-survival ``ls``, the second half of ``power_law_inv_cdf``.

    ``exp(ls * (-1 / (1 + delta)))``: one multiply and one ``exp``.
    ``ls`` is what ``log_survival`` returns; ``out`` is as in
    ``power_law_inv_cdf``.
    """
    _check_delta(delta)
    arr = np.asarray(ls, dtype=float)
    values = np.multiply(arr, -1.0 / (1.0 + delta), out=np.empty_like(arr) if out is None else out)
    np.exp(values, out=values)
    return float(values) if out is None and values.ndim == 0 else values


def power_law_inv_cdf(u, delta: float, out=None):
    """Invert the power-law CDF ``F(t) = 1 - t**-(1 + delta)`` on [1, inf).

    Computes ``t = exp(log(1 - u) * (-1 / (1 + delta)))`` as
    ``power_law_from_log_survival(log_survival(u), delta)``, with the same
    bits; the module docstring gives its error.  Accepts scalars or arrays in
    ``[0, 1)`` and returns values of matching shape.  ``u = 0`` maps to the
    support minimum 1.0 exactly.  A float array ``out`` of ``u``'s shape,
    which may be ``u`` itself, receives the values and is returned, so no
    float array is allocated; the bits are the same.
    """
    _check_delta(delta)  # before ``out`` is written
    return power_law_from_log_survival(log_survival(u, out), delta, out)


@dataclass(frozen=True)
class PowerLaw:
    """Heavy-tailed marginal with survival ``P[Z >= t] = t**-(1 + delta)``.

    Supported on ``[1, inf)``; smaller ``delta`` means a heavier tail.  The
    mean is finite only for ``delta > 0``, which is required; an infinite
    ``delta`` would make every draw 1.0, so it is rejected too.
    """

    delta: float

    def __post_init__(self):
        _check_delta(self.delta)

    def cdf(self, t):
        arr = np.asarray(t, dtype=float)
        out = 1.0 - np.maximum(arr, 1.0) ** (-(1.0 + self.delta))
        out = np.where(arr < 1.0, 0.0, out)
        return float(out) if out.ndim == 0 else out

    def inv_cdf(self, u):
        return power_law_inv_cdf(u, self.delta)
