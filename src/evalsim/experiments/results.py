"""Result rows, parameter grids, and the on-disk table formats."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import product

from .parallel import mean_and_se

# The closed vocabulary of sweep parameter names.  Keeping it fixed makes
# result tables self-describing and catches typos in config files early.
PARAM_NAMES = (
    "n",
    "d",
    "sigma",
    "alpha",
    "lambda",
    "beta",
    "gamma",
    "delta",
    "tau",
)


def sig4(x: float) -> str:
    """Format a number to 4 significant figures for summaries."""
    return f"{float(x):.4g}"


@dataclass(frozen=True)
class ExperimentResult:
    """One Monte Carlo estimate at one grid point.

    ``params`` maps parameter names to values; ``scheme`` names the quantity
    (for example ``"holistic"``, ``"segmented"``, ``"difference"``) so one
    grid point can carry several rows.
    """

    params: dict
    scheme: str
    estimate: float
    std_error: float
    runs: int
    seed: int

    def __post_init__(self):
        for name in self.params:
            if name not in PARAM_NAMES:
                raise ValueError(f"unknown parameter name {name!r}")
        if self.runs < 1:
            raise ValueError("runs must be positive")
        if self.std_error < 0:
            raise ValueError("std_error cannot be negative")


def check_distinct(values, what: str) -> None:
    """Reject sweep values that name one value twice: each would be its own row."""
    values = tuple(values)
    for index, value in enumerate(values):
        if value in values[:index]:
            raise ValueError(f"{what} repeats the value {value!r}")


@dataclass(frozen=True)
class GridSpec:
    """A Cartesian parameter grid plus fixed settings.

    ``axes`` is an ordered tuple of ``(name, values)`` pairs; ``fixed`` holds
    parameters shared by every point.  Axis order defines both the CSV column
    order and the point order, from which draw groups take their stream
    indices (see ``parallel.run_points``).  ``runs`` is the per-point run
    count.
    """

    axes: tuple
    runs: int
    fixed: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.axes:
            raise ValueError("a grid needs at least one axis")
        if self.runs < 1:
            raise ValueError("runs must be positive")
        seen = set()
        for name, values in self.axes:
            if name not in PARAM_NAMES:
                raise ValueError(f"unknown parameter name {name!r}")
            if name in seen:
                raise ValueError(f"duplicate axis {name!r}")
            seen.add(name)
            if len(tuple(values)) == 0:
                raise ValueError(f"axis {name!r} has no values")
            check_distinct(values, f"axis {name!r}")
        for name in self.fixed:
            if name not in PARAM_NAMES:
                raise ValueError(f"unknown parameter name {name!r}")
            if name in seen:
                raise ValueError(f"{name!r} is both an axis and fixed")

    @property
    def axis_names(self) -> tuple:
        return tuple(name for name, _ in self.axes)

    def to_json_dict(self) -> dict:
        return {
            "axes": [[name, list(values)] for name, values in self.axes],
            "fixed": dict(self.fixed),
            "runs": self.runs,
        }

    def points(self) -> list:
        """Points in row-major axis order, each a params dict."""
        names = self.axis_names
        value_lists = [tuple(values) for _, values in self.axes]
        return [{**self.fixed, **dict(zip(names, combo))} for combo in product(*value_lists)]


def rows_from_moments(labels, moments, runs: int, seed: int) -> list:
    """Result rows from the per-point moments that ``run_points`` returns.

    ``labels`` holds each point's params as its rows carry them.  Each point
    gives one row per named array, in the worker's order, and the array name
    becomes the row's ``scheme``.
    """
    return [
        ExperimentResult(params, scheme, *mean_and_se(*sums), runs, seed)
        for params, by_scheme in zip(labels, moments)
        for scheme, sums in by_scheme.items()
    ]


def _format_value(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_results_csv(results, param_names, path) -> None:
    """Write result rows with the fixed schema.

    Columns are the given parameter names in order, then ``scheme``,
    ``estimate``, ``std_error``, ``runs``, ``seed``.  Floats are written with
    repr precision so equal results produce byte-identical files.
    """
    param_names = list(param_names)
    lines = [",".join([*param_names, "scheme", "estimate", "std_error", "runs", "seed"])]
    for res in results:
        cells = [_format_value(res.params[name]) for name in param_names]
        cells += [
            res.scheme,
            repr(float(res.estimate)),
            repr(float(res.std_error)),
            str(res.runs),
            str(res.seed),
        ]
        lines.append(",".join(cells))
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def write_metadata_json(
    path, experiment: str, seed: int, config: dict, version: str, grid: GridSpec | None = None
) -> None:
    """Record enough metadata to rerun an experiment exactly.

    The ``config`` block holds the fully resolved settings; feeding it back
    through the command line reproduces the run.  When the experiment is
    grid-shaped, ``grid`` pins down the exact axes as well.
    """
    payload = {
        "experiment": experiment,
        "seed": seed,
        "version": version,
        "config": config,
    }
    if grid is not None:
        payload["grid"] = grid.to_json_dict()
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
