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

from ..rng import STREAM_BIAS_GRID
from .kernels import bias_draw_key, bias_worker, load_ndtr
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


def run_bias_grid(
    grid: GridSpec,
    seed: int = 0,
    workers: int = 1,
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
    worker_points = [{**BIAS_DEFAULTS, **point} for point in points]
    load_ndtr(worker_points)
    moments = run_points(
        bias_worker,
        worker_points,
        grid.runs,
        seed,
        (STREAM_BIAS_GRID,),
        BIAS_CHUNK,
        workers,
        bias_draw_key,
    )
    labels = [{name: point[name] for name in grid.axis_names} for point in points]
    return rows_from_moments(labels, moments, grid.runs, seed)
