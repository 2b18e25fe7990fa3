"""Applicant pools: attribute values, group labels, protected attributes.

A pool is an ``(n, d)`` matrix of true attribute values together with a
per-applicant group label (a fraction ``alpha`` of applicants belong to the
disadvantaged group) and a per-attribute protected flag (a fraction
``lambda`` of attributes can carry evaluator bias).  The ground-truth ranking
is by row total, as in every kernel.  Pools are drawn by
``experiments.kernels.build_pool``, from the same sampler as every experiment;
this module holds the pool itself, its ground truth and its CSV form.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np


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


def true_best(pool: AttributeMatrix) -> int:
    """Index of the applicant with the highest total true attribute value."""
    return int(np.argmax(pool.values.sum(axis=1)))


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
        header += [f"attr_{j}" for j in range(pool.protected.size)]
        header.append("protected_mask")
        writer.writerow(header)
        for i, values in enumerate(pool.values):
            group = "disadvantaged" if pool.disadvantaged[i] else "advantaged"
            row = [i, group]
            row += [repr(float(v)) for v in values]
            row.append(mask)
            writer.writerow(row)
