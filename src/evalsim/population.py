"""Applicant pools: attribute values, group labels, protected attributes.

A pool is an ``(n, d)`` matrix of true attribute values together with a
per-applicant group label (a fraction ``alpha`` of applicants belong to the
disadvantaged group) and a per-attribute protected flag (a fraction
``lambda`` of attributes can carry evaluator bias).  The ground-truth ranking
is by row mean, and pools are redrawn in the probability-zero event that the
top row mean is tied, so "the best applicant" is always unique.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .distributions import sample_correlated_matrix

# A tie for the best applicant has probability zero under a continuous
# marginal, so a pool still tied after this many redraws means the marginal
# is numerically constant, as a power law with a huge delta is.
MAX_TIE_REDRAWS = 10


def tied_best_error(*marginals) -> ValueError:
    return ValueError(
        f"the best applicant stayed tied through {MAX_TIE_REDRAWS} redraws:"
        f" {' or '.join(map(str, marginals))} gives numerically constant values"
        " (is delta too large?)"
    )


def round_half_up(x: float) -> int:
    """Round to the nearest integer with halves going up.

    Python's built-in ``round`` rounds halves to even, which would make group
    sizes depend on parity; this rule is deterministic and monotone.  A small
    epsilon absorbs float noise in products like ``alpha * n`` so that values
    representing an exact half are not pushed below the boundary.
    """
    return math.floor(x + 0.5 + 1e-9)


@dataclass(frozen=True)
class AttributeMatrix:
    """True state of one applicant pool.

    Attributes
    ----------
    values:
        ``(n, d)`` float array of true attribute values.
    disadvantaged:
        ``(n,)`` bool array, True for disadvantaged-group applicants.
    protected:
        ``(d,)`` bool array, True for attributes subject to bias.
    """

    values: np.ndarray
    disadvantaged: np.ndarray
    protected: np.ndarray

    def __post_init__(self):
        if self.values.ndim != 2:
            raise ValueError("values must be a 2-d array")
        n, d = self.values.shape
        if self.disadvantaged.shape != (n,):
            raise ValueError("disadvantaged must have one entry per applicant")
        if self.protected.shape != (d,):
            raise ValueError("protected must have one entry per attribute")

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def d(self) -> int:
        return self.values.shape[1]


def true_best(pool: AttributeMatrix) -> int:
    """Index of the applicant with the highest mean true attribute value."""
    return int(np.argmax(pool.values.mean(axis=1)))


def build_pool(
    n: int,
    d: int,
    sigma: float,
    alpha: float,
    lam: float,
    marginal,
    rng: np.random.Generator,
) -> AttributeMatrix:
    """Draw a complete applicant pool.

    ``round_half_up(alpha * n)`` applicants are labeled disadvantaged and
    ``round_half_up(lam * d)`` attributes are flagged protected, both chosen
    uniformly at random.  If the maximal row mean is attained by more than
    one applicant (possible only through floating-point coincidence), the
    entire pool is redrawn, at most ``MAX_TIE_REDRAWS`` times.
    """
    if n < 2:
        raise ValueError("a pool needs at least 2 applicants")
    if d < 1:
        raise ValueError("a pool needs at least 1 attribute")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lambda must lie in [0, 1]")

    k_dis = round_half_up(alpha * n)
    k_prot = round_half_up(lam * d)

    for _ in range(MAX_TIE_REDRAWS + 1):
        values = sample_correlated_matrix(n, d, sigma, marginal, rng)
        disadvantaged = np.zeros(n, dtype=bool)
        disadvantaged[:k_dis] = True
        perm = rng.permutation(n)
        values = values[perm]
        disadvantaged = disadvantaged[perm]

        protected = np.zeros(d, dtype=bool)
        protected[rng.choice(d, size=k_prot, replace=False)] = True

        row_means = values.mean(axis=1)
        if np.count_nonzero(row_means == row_means.max()) == 1:
            return AttributeMatrix(values, disadvantaged, protected)
    raise tied_best_error(marginal)


def pool_to_csv(pool: AttributeMatrix, path) -> None:
    """Write a pool to CSV, one applicant per row.

    Columns are ``applicant``, ``group``, ``attr_0`` .. ``attr_{d-1}``, and
    ``protected_mask`` (a d-character 0/1 string, identical on every row).
    Values are written with full repr precision so the file round-trips.
    """
    mask = "".join("1" if p else "0" for p in pool.protected)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        header = ["applicant", "group"]
        header += [f"attr_{j}" for j in range(pool.d)]
        header.append("protected_mask")
        writer.writerow(header)
        for i in range(pool.n):
            group = "disadvantaged" if pool.disadvantaged[i] else "advantaged"
            row = [i, group]
            row += [repr(float(v)) for v in pool.values[i]]
            row.append(mask)
            writer.writerow(row)
