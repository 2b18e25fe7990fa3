"""Evaluator behavior: truthful reports, group bias, binning, screening.

Each evaluator owns a block of (applicant, attribute) cells and reports
scores for them.  Behaviors:

* truthful: report the true value of every owned cell.
* biased: as truthful, except values of protected attributes for
  disadvantaged applicants are multiplied by a discount ``beta``; whether a
  given evaluator is biased is decided by an independent coin with
  probability ``gamma``.
* quantile binner: owns a single attribute for ``m`` applicants and reports
  only which local quantile bin each applicant falls in; it reports labels,
  not scores, so it is :func:`local_quantile_bins`.
* screener: owns exactly two attributes; reports the first for everyone but
  evaluates the second only for the top ``ceil(tau * m)`` applicants by
  first-attribute value (ties broken toward the lower applicant index).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .population import AttributeMatrix


@dataclass
class ScoreMatrix:
    """Partially filled score sheet for a pool.

    ``scores`` is ``(n, d)`` float with NaN at unevaluated cells and
    ``evaluated`` the matching bool mask.  Reports from disjoint blocks are
    combined with :func:`merge_scores`.
    """

    scores: np.ndarray
    evaluated: np.ndarray

    @classmethod
    def empty(cls, n: int, d: int) -> "ScoreMatrix":
        return cls(
            scores=np.full((n, d), np.nan),
            evaluated=np.zeros((n, d), dtype=bool),
        )


def merge_scores(parts) -> ScoreMatrix:
    """Combine block reports into one sheet, rejecting any cell overlap."""
    parts = list(parts)
    if not parts:
        raise ValueError("nothing to merge")
    n, d = parts[0].scores.shape
    out = ScoreMatrix.empty(n, d)
    for part in parts:
        if part.scores.shape != (n, d):
            raise ValueError("score sheets have mismatched shapes")
        if (out.evaluated & part.evaluated).any():
            raise ValueError("score sheets overlap")
        np.copyto(out.scores, part.scores, where=part.evaluated)
        out.evaluated |= part.evaluated
    return out


def report_truthful(rows, cols, pool: AttributeMatrix) -> ScoreMatrix:
    """Report true values for the block ``rows x cols``."""
    out = ScoreMatrix.empty(pool.n, pool.d)
    block = np.ix_(rows, cols)
    out.scores[block] = pool.values[block]
    out.evaluated[block] = True
    return out


def report_biased(rows, cols, pool: AttributeMatrix, beta: float) -> ScoreMatrix:
    """Report the block with the group discount applied.

    A cell is discounted to ``beta`` times its true value exactly when the
    applicant is disadvantaged and the attribute is protected; all other
    cells are reported truthfully.
    """
    if not 0.0 <= beta < 1.0:
        raise ValueError("beta must lie in [0, 1)")
    out = ScoreMatrix.empty(pool.n, pool.d)
    block = np.ix_(rows, cols)
    values = pool.values[block]
    hit = np.outer(pool.disadvantaged[rows], pool.protected[cols])
    out.scores[block] = np.where(hit, beta * values, values)
    out.evaluated[block] = True
    return out


def local_quantile_bins(values: np.ndarray, num_bins: int) -> np.ndarray:
    """Bin labels in ``[1, num_bins]`` from within-sample ranks.

    The applicant ranked ``r`` of ``m`` (ascending, 1-based) gets label
    ``ceil(num_bins * r / m)``, so label ``b`` covers local quantiles up to
    ``b / num_bins``.  Pure integer arithmetic, so boundaries are exact.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or values.size == 0:
        raise ValueError("values must be a non-empty 1-d array")
    if num_bins < 2:
        raise ValueError("num_bins must be at least 2")
    m = values.size
    order = np.argsort(values, kind="stable")
    ranks = np.empty(m, dtype=np.int64)
    ranks[order] = np.arange(1, m + 1)
    return -(-num_bins * ranks // m)


def screening_cutoff(tau: float, m: int) -> int:
    """Number of applicants screened in: ``ceil(tau * m)``.

    A small epsilon absorbs float noise in the product (for example
    ``0.1 * 100`` is slightly above 10 in binary) so exact multiples do not
    round up an extra slot.
    """
    if not 0.0 < tau <= 1.0:
        raise ValueError("tau must lie in (0, 1]")
    if m < 1:
        raise ValueError("need at least one applicant")
    return max(1, math.ceil(tau * m - 1e-9))


def report_screened(rows, cols, pool: AttributeMatrix, tau: float) -> ScoreMatrix:
    """Screen on the first owned attribute, then evaluate the second.

    The first attribute (lower column index) is reported truthfully for all
    ``m`` owned applicants.  The second is evaluated only for the
    ``ceil(tau * m)`` applicants with the highest first-attribute values,
    ties going to the lower applicant index; for the rest it is left
    unevaluated.
    """
    rows = np.asarray(rows)
    cols = np.sort(np.asarray(cols))
    if cols.shape != (2,):
        raise ValueError("a screener owns exactly two attributes")
    keep = screening_cutoff(tau, rows.size)
    first = pool.values[rows, cols[0]]
    # lexsort uses the last key as primary: descending first-attribute value,
    # then ascending applicant index.
    order = np.lexsort((rows, -first))
    survivors = rows[order[:keep]]

    out = ScoreMatrix.empty(pool.n, pool.d)
    out.scores[rows, cols[0]] = first
    out.evaluated[rows, cols[0]] = True
    out.scores[survivors, cols[1]] = pool.values[survivors, cols[1]]
    out.evaluated[survivors, cols[1]] = True
    return out
