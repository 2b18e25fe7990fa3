"""Screening efficiency: accuracy against workload for two screeners.

Two evaluators split a pool of ``n`` applicants holistically.  Each ranks
its half on the first attribute and evaluates the second attribute only for
its top ``ceil(tau * n/2)``.  When attributes are strongly correlated the
first attribute is a reliable guide, so small ``tau`` preserves accuracy at
a fraction of the workload; with independent attributes aggressive screening
discards the true best.
"""

from __future__ import annotations

from ..distributions import PowerLaw
from ..rng import STREAM_EFFICIENCY
from .kernels import efficiency_cells, efficiency_draw_key, efficiency_worker
from .parallel import run_points
from .results import ExperimentResult, GridSpec, rows_from_moments

EFFICIENCY_CHUNK = 2048


def efficiency_grid(tau_values, sigma_values, n: int, delta: float, runs: int) -> GridSpec:
    """The (tau, sigma) grid of a sweep, with ``n`` and ``delta`` fixed."""
    if n < 2 or n % 2:
        raise ValueError("the two-screener committee needs an even pool of >= 2")
    tau_values = tuple(float(t) for t in tau_values)
    sigma_values = tuple(float(s) for s in sigma_values)
    if any(not 0.0 < t <= 1.0 for t in tau_values):
        raise ValueError("tau must lie in (0, 1]")
    if any(not 0.0 <= s <= 1.0 for s in sigma_values):
        raise ValueError("sigma must lie in [0, 1]")
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
    chunk_size: int = EFFICIENCY_CHUNK,
) -> list:
    """Accuracy and workload over the (tau, sigma) grid.

    Returns two rows per grid point: scheme ``"holistic"`` carries the
    top-choice accuracy and scheme ``"workload"`` the cells evaluated per run
    (deterministic given tau, so its standard error is 0).  The taus at one
    sigma are scored on shared pools, so their rows are paired.
    """
    points = efficiency_grid(tau_values, sigma_values, n, delta, runs).points()
    worker_points = [
        {**point, "marginal": PowerLaw(point["delta"])}
        for point in points
    ]
    moments = run_points(
        efficiency_worker,
        worker_points,
        runs,
        seed,
        STREAM_EFFICIENCY,
        chunk_size,
        workers,
        efficiency_draw_key,
    )
    labels = [{name: point[name] for name in ("tau", "sigma")} for point in points]

    results = []
    for point, row in zip(points, rows_from_moments(labels, moments, runs, seed)):
        cells = float(efficiency_cells(n, point["tau"]))
        results += [row, ExperimentResult(row.params, "workload", cells, 0.0, runs, seed)]
    return results
