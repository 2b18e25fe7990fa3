"""Assignment of (applicant, attribute) cells to evaluators.

An allocation plan partitions the ``n x d`` grid of cells into rectangular
blocks, one per evaluator.  Holistic allocation gives each evaluator all
attributes of an equal share of applicants; segmented allocation gives each
evaluator one equal share of attributes for every applicant; the general
blocked scheme tiles the grid with ``rows_per_eval x cols_per_eval``
rectangles.  Shares are drawn uniformly at random from the divisible
partitions.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

@dataclass(frozen=True)
class AllocationPlan:
    """A partition of the evaluation grid into per-evaluator blocks.

    ``blocks[e]`` is a pair ``(rows, cols)`` of sorted index arrays: evaluator
    ``e`` observes exactly the cells ``rows x cols``.  Blocks must tile the
    grid, which :meth:`cell_map` verifies.
    """

    n: int
    d: int
    blocks: tuple

    def __post_init__(self):
        if not self.blocks:
            raise ValueError("a plan needs at least one evaluator")

    def cell_map(self) -> np.ndarray:
        """Return the ``(n, d)`` map from cell to evaluator index.

        Raises ``ValueError`` if any cell is covered zero times or more than
        once, so a successful call certifies the partition property.
        """
        owner = np.full((self.n, self.d), -1, dtype=int)
        count = np.zeros((self.n, self.d), dtype=int)
        for e, (rows, cols) in enumerate(self.blocks):
            block = np.ix_(rows, cols)
            owner[block] = e
            count[block] += 1
        if (count != 1).any():
            raise ValueError("blocks do not partition the evaluation grid")
        return owner

    def to_csv(self, path) -> None:
        """Write the plan as ``applicant,attribute,evaluator`` rows."""
        owner = self.cell_map()
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["applicant", "attribute", "evaluator"])
            for i in range(self.n):
                for j in range(self.d):
                    writer.writerow([i, j, owner[i, j]])


def _split_indices(total: int, per_block: int, rng: np.random.Generator) -> list:
    """Randomly partition ``range(total)`` into sorted groups of equal size."""
    perm = rng.permutation(total)
    return [
        np.sort(perm[start : start + per_block])
        for start in range(0, total, per_block)
    ]


def _check_committee(n: int, d: int, evaluators: int) -> None:
    if n < 1 or d < 1:
        raise ValueError("grid dimensions must be positive")
    if evaluators < 1:
        raise ValueError("need at least one evaluator")


def allocate_holistic(
    n: int, d: int, evaluators: int, rng: np.random.Generator
) -> AllocationPlan:
    """Split applicants evenly among evaluators; each sees all attributes."""
    _check_committee(n, d, evaluators)
    if evaluators > n:
        raise ValueError("more evaluators than applicants")
    if n % evaluators:
        raise ValueError("the evaluator count must divide the number of applicants")
    cols = np.arange(d)
    row_groups = _split_indices(n, n // evaluators, rng)
    blocks = tuple((rows, cols) for rows in row_groups)
    return AllocationPlan(n, d, blocks)


def allocate_segmented(
    n: int, d: int, evaluators: int, rng: np.random.Generator
) -> AllocationPlan:
    """Split attributes evenly among evaluators; each sees all applicants."""
    _check_committee(n, d, evaluators)
    if evaluators > d:
        raise ValueError("more evaluators than attributes")
    if d % evaluators:
        raise ValueError("the evaluator count must divide the number of attributes")
    rows = np.arange(n)
    col_groups = _split_indices(d, d // evaluators, rng)
    blocks = tuple((rows, cols) for cols in col_groups)
    return AllocationPlan(n, d, blocks)


def allocate_blocked(
    n: int,
    d: int,
    rows_per_eval: int,
    cols_per_eval: int,
    rng: np.random.Generator,
) -> AllocationPlan:
    """Tile the grid with ``rows_per_eval x cols_per_eval`` rectangles.

    Row and column shares are drawn independently; evaluator indices run in
    row-major order over (row group, column group).  Holistic and segmented
    allocation are the special cases ``cols_per_eval = d`` and
    ``rows_per_eval = n``.
    """
    _check_committee(n, d, 1)
    if not 1 <= rows_per_eval <= n:
        raise ValueError("rows_per_eval must lie in [1, n]")
    if not 1 <= cols_per_eval <= d:
        raise ValueError("cols_per_eval must lie in [1, d]")
    if n % rows_per_eval:
        raise ValueError("rows_per_eval must divide the number of applicants")
    if d % cols_per_eval:
        raise ValueError("cols_per_eval must divide the number of attributes")
    row_groups = _split_indices(n, rows_per_eval, rng)
    col_groups = _split_indices(d, cols_per_eval, rng)
    blocks = tuple(
        (rows, cols) for rows in row_groups for cols in col_groups
    )
    return AllocationPlan(n, d, blocks)
