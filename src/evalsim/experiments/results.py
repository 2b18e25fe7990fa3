"""Result rows, parameter grids, and the on-disk table formats."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import product

from .parallel import mean_and_se

# The closed vocabulary of sweep parameter names, each with its valid range
# for the committee of two: the rule text of its message and the predicate
# that decides it.  The committee halves the pool's rows and columns, so n
# and d are even.  A fixed vocabulary makes result tables self-describing
# and catches typos in config files early.
_EVEN = ("be even and at least 2", lambda v: v >= 2 and v % 2 == 0)
_UNIT = ("lie in [0, 1]", lambda v: 0.0 <= v <= 1.0)
PARAM_RANGES = {
    "n": _EVEN,
    "d": _EVEN,
    "sigma": _UNIT,
    "alpha": _UNIT,
    "lambda": _UNIT,
    "beta": ("lie in [0, 1)", lambda v: 0.0 <= v < 1.0),
    "gamma": ("lie in (0, 1)", lambda v: 0.0 < v < 1.0),
    "delta": ("lie in (0, inf)", lambda v: 0.0 < v < math.inf),
    "tau": ("lie in (0, 1]", lambda v: 0.0 < v <= 1.0),
}
PARAM_NAMES = tuple(PARAM_RANGES)


def check_params(point: dict) -> None:
    """Raise ``ValueError`` naming the first parameter of ``point`` out of range."""
    for name, (rule, ok) in PARAM_RANGES.items():
        if name in point and not ok(point[name]):
            raise ValueError(f"{name} must {rule}, got {point[name]!r}")


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
    """Reject sweep values that are empty, or name one value twice (each copy would be a row)."""
    values = tuple(values)
    if not values:
        raise ValueError(f"{what} has no values")
    for index, value in enumerate(values):
        if value in values[:index]:
            raise ValueError(f"{what} repeats the value {value!r}")


@dataclass(frozen=True)
class GridSpec:
    """A Cartesian parameter grid plus fixed settings: a valid sweep by construction.

    ``axes`` is an ordered tuple of ``(name, values)`` pairs; ``fixed`` holds
    parameters shared by every point.  Axis order defines both the CSV column
    order and the point order, from which draw groups take their stream
    indices (see ``parallel.run_points``).  ``runs`` is the per-point run
    count.  Building a grid checks its names, rejects a repeated value on an
    axis and checks every point against ``PARAM_RANGES``.
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
            check_distinct(values, f"axis {name!r}")
        for name in self.fixed:
            if name not in PARAM_NAMES:
                raise ValueError(f"unknown parameter name {name!r}")
            if name in seen:
                raise ValueError(f"{name!r} is both an axis and fixed")
        for point in self.points():
            check_params(point)

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


def format_value(value) -> str:
    """A parameter value as tables and metadata write it: ``repr`` for floats."""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_results_csv(results, path) -> None:
    """Write result rows with the fixed schema.

    Columns are the first row's parameter names in order, then ``scheme``,
    ``estimate``, ``std_error``, ``runs``, ``seed``.  Floats are written with
    repr precision so equal results produce byte-identical files.
    """
    param_names = list(results[0].params)
    lines = [",".join([*param_names, "scheme", "estimate", "std_error", "runs", "seed"])]
    for res in results:
        cells = [format_value(res.params[name]) for name in param_names]
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
