"""Screening efficiency: accuracy against workload for two screeners.

Two evaluators split a pool of ``n`` applicants holistically.  Each ranks
its half on the first attribute and evaluates the second attribute only for
its top ``ceil(tau * n/2)``.  When attributes are strongly correlated the
first attribute is a reliable guide, so small ``tau`` preserves accuracy at
a fraction of the workload; with independent attributes aggressive screening
discards the true best.
"""

from __future__ import annotations

from ..rng import STREAM_EFFICIENCY
from .kernels import efficiency_cells, efficiency_draw_key, efficiency_worker, load_ndtr
from .parallel import run_points
from .results import ExperimentResult, GridSpec, rows_from_moments

EFFICIENCY_CHUNK = 2048


def efficiency_grid(tau_values, sigma_values, n: int, delta: float, runs: int) -> GridSpec:
    """The (tau, sigma) grid of a sweep, with ``n`` and ``delta`` fixed."""
    tau_values = tuple(float(t) for t in tau_values)
    sigma_values = tuple(float(s) for s in sigma_values)
    return GridSpec(
        axes=(("tau", tau_values), ("sigma", sigma_values)),
        fixed={"n": n, "delta": delta},
        runs=runs,
    )


def run_efficiency_sweep(
    tau_values,
    sigma_values,
    n: int = 200,
    delta: float = 1.0,
    runs: int = 1000,
    seed: int = 0,
    workers: int = 1,
) -> list:
    """Accuracy and workload over the (tau, sigma) grid.

    Returns two rows per grid point: scheme ``"holistic"`` carries the
    top-choice accuracy and scheme ``"workload"`` the cells evaluated per run
    (deterministic given tau, so its standard error is 0).  The taus at one
    sigma are scored on shared pools, so their rows are paired.
    """
    points = efficiency_grid(tau_values, sigma_values, n, delta, runs).points()
    load_ndtr(points)
    moments = run_points(
        efficiency_worker,
        points,
        runs,
        seed,
        (STREAM_EFFICIENCY,),
        EFFICIENCY_CHUNK,
        workers,
        efficiency_draw_key,
    )
    labels = [{name: point[name] for name in ("tau", "sigma")} for point in points]

    results = []
    for point, row in zip(points, rows_from_moments(labels, moments, runs, seed)):
        cells = float(efficiency_cells(n, point["tau"]))
        results += [row, ExperimentResult(row.params, "workload", cells, 0.0, runs, seed)]
    return results
