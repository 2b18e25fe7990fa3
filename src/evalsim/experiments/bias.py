"""Bias surfaces: holistic versus segmented committees over parameter grids.

A pool is evaluated twice from the same draws, once under holistic and once
under segmented allocation to a committee of two, at least one member of
which may discount protected attributes of disadvantaged applicants.  With
everything else shared, the per-run accuracy difference isolates the effect
of the allocation scheme.  Under holistic allocation one biased evaluator
distorts whole applicants, so its damage is confined to its own share; under
segmented allocation it distorts one attribute slice of everyone, which is
mild when attributes are redundant (high correlation) and severe when each
attribute carries independent signal.
"""

from __future__ import annotations

from ..distributions import PowerLaw
from ..rng import STREAM_BIAS_GRID
from .kernels import bias_draw_key, bias_worker
from .parallel import run_points
from .results import GridSpec, rows_from_moments

BIAS_CHUNK = 2048

# The reference committee: a pool of 20 applicants described by 20
# attributes, moderately correlated, half the applicants disadvantaged,
# every attribute protected, full discount (beta = 0), and a committee of
# two with exactly one biased member.
BIAS_DEFAULTS = {
    "n": 20,
    "d": 20,
    "sigma": 0.5,
    "alpha": 0.5,
    "lambda": 1.0,
    "beta": 0.0,
    "delta": 1.0,
}


def _validate_point(point: dict) -> None:
    """Reject settings the object layer or the committee of two cannot take."""
    for name in ("n", "d"):  # the committee of two splits rows and columns in half
        if point[name] < 2 or point[name] % 2:
            raise ValueError(f"{name} must be even and at least 2, got {point[name]!r}")
    for name in ("sigma", "alpha", "lambda"):
        if not 0.0 <= point[name] <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1], got {point[name]!r}")
    if not 0.0 <= point["beta"] < 1.0:
        raise ValueError(f"beta must lie in [0, 1), got {point['beta']!r}")
    if "gamma" in point and not 0.0 < point["gamma"] < 1.0:
        raise ValueError(f"gamma must lie in (0, 1), got {point['gamma']!r}")


def run_bias_grid(
    grid: GridSpec,
    seed: int = 0,
    workers: int = 1,
    chunk_size: int = BIAS_CHUNK,
) -> list:
    """Run the paired comparison over a two-axis grid.

    ``grid.runs`` runs go to each point.  A grid that sets ``gamma``, as an
    axis or a fixed value, biases each evaluator independently with that
    probability; otherwise the committee is the fixed one-biased,
    one-unbiased pair.  A grid parameter the model does not read, such as
    ``tau``, is rejected.  Points that differ only in ``delta`` and ``beta``
    are scored on shared draws, so their rows are paired.  Returns three rows
    per point: holistic accuracy, segmented accuracy, and their paired
    difference (segmented minus holistic), in the order the worker names
    them.
    """
    if len(grid.axes) != 2:
        raise ValueError("bias grids sweep exactly two parameters")
    for name in (*grid.axis_names, *grid.fixed):
        if name not in BIAS_DEFAULTS and name != "gamma":
            raise ValueError(f"bias grids do not use the parameter {name!r}")

    points = grid.points()
    worker_points = []
    for point in points:
        merged = {**BIAS_DEFAULTS, **point}
        _validate_point(merged)
        merged["marginal"] = PowerLaw(merged["delta"])
        worker_points.append(merged)

    moments = run_points(
        bias_worker,
        worker_points,
        grid.runs,
        seed,
        STREAM_BIAS_GRID,
        chunk_size,
        workers,
        bias_draw_key,
    )
    labels = [{name: point[name] for name in grid.axis_names} for point in points]
    return rows_from_moments(labels, moments, grid.runs, seed)
