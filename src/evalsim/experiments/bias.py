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
from .kernels import bias_worker
from .parallel import mean_and_se, run_points
from .results import ExperimentResult, GridSpec

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
    "evaluators": 2,
}


def run_bias_grid(
    grid: GridSpec,
    seed: int = 0,
    runs: int = 50_000,
    workers: int = 1,
    chunk_size: int = BIAS_CHUNK,
    coin_mode: bool = False,
) -> list:
    """Run the paired comparison over a two-axis grid.

    With ``coin_mode`` False the committee is the fixed one-biased,
    one-unbiased pair; with True each evaluator is independently biased with
    probability ``gamma``, which must then be supplied by the grid.  Returns
    three rows per point: holistic accuracy, segmented accuracy, and their
    paired difference (segmented minus holistic), in the order the worker
    names them.
    """
    if len(grid.axes) != 2:
        raise ValueError("bias grids sweep exactly two parameters")
    if grid.runs is not None:
        runs = grid.runs

    points = grid.points()
    worker_points = []
    for point in points:
        merged = dict(BIAS_DEFAULTS)
        merged.update(point)
        if merged["evaluators"] != 2:
            raise ValueError("the paired kernel models committees of exactly two")
        if coin_mode:
            if "gamma" not in merged:
                raise ValueError("coin_mode needs gamma in the grid")
        else:
            merged.pop("gamma", None)
        merged["marginal"] = ("power_law", {"delta": merged["delta"]})
        worker_points.append(merged)

    moments = run_points(
        bias_worker,
        worker_points,
        runs,
        seed,
        STREAM_BIAS_GRID,
        chunk_size,
        workers,
    )

    results = []
    for point, by_scheme in zip(points, moments):
        shared = {name: point[name] for name in grid.axis_names}
        for scheme, sums in by_scheme.items():
            mean, se = mean_and_se(*sums)
            results.append(
                ExperimentResult(
                    params=shared,
                    scheme=scheme,
                    estimate=mean,
                    std_error=se,
                    runs=runs,
                    seed=seed,
                )
            )
    return results
