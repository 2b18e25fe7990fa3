"""Command-line front end.

Subcommands mirror the experiment drivers: ``calibration``, ``efficiency``,
``bias-grid``, ``theorem-verify``, and ``pool-dump``.  Options can come from
a flat key=value config file (or a metadata JSON from a previous run) with
explicit flags taking precedence; every run writes result CSVs plus a
metadata JSON whose config block reproduces the run when fed back through
``--config``.

Exit codes: 0 on success, 2 for configuration problems (unknown keys, bad
values, missing seed, settings an experiment rejects with ``ValueError``),
1 for runtime failures.  ``theorem-verify`` also exits 1 when a check fails,
since reporting that is its purpose.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

from . import __version__
from .allocation import allocate_blocked, allocate_holistic, allocate_segmented
from .distributions import PowerLaw
from .experiments.bias import run_bias_grid
from .experiments.calibration import run_calibration_sweep
from .experiments.efficiency import efficiency_grid, run_efficiency_sweep
from .experiments.kernels import build_pool
from .experiments.results import (
    GridSpec,
    check_distinct,
    sig4,
    write_metadata_json,
    write_results_csv,
)
from .experiments.theorem import (
    run_formula_check,
    run_part_a,
    run_tail_check,
    run_threshold_check,
    validate_setting,
)
from .population import pool_to_csv
from .rng import STREAM_POOL, derive_stream

OUTPUT_DIR_ENV = "EVALSIM_OUTPUT_DIR"


class ConfigError(Exception):
    """A problem with options or config files (exit code 2)."""


# ---------------------------------------------------------------------------
# option parsing: one table per subcommand, shared string->value parsers


def _parse_list(parse, text: str, what: str = "the list") -> tuple:
    values = tuple(parse(part) for part in text.split(",") if part.strip())
    if not values:
        raise ValueError(f"expected v1,v2,..., got {text!r}")
    check_distinct(values, what)
    return values


def _parse_int_list(text: str) -> tuple:
    return _parse_list(int, text)


def _parse_float_list(text: str) -> tuple:
    return _parse_list(float, text)


def _parse_count(text: str) -> int:
    value = int(text)
    if value < 1:
        raise ValueError(f"must be positive, got {value}")
    return value


def _parse_even_pool(text: str, setting: str = "the theorem setting") -> int:
    value = int(text)
    if value < 2 or value % 2:
        raise ValueError(f"{setting} needs an even pool of >= 2, got {value}")
    return value


def _parse_committee_pool(text: str) -> int:
    return _parse_even_pool(text, "the two-screener committee")


def _parse_even_pool_list(text: str) -> tuple:
    return _parse_list(_parse_even_pool, text)


def _parse_axis(text: str) -> tuple:
    """Parse ``name=v1,v2,...`` into (name, values); counts must be integers."""
    name, _, rest = text.partition("=")
    name = name.strip()
    if not name or not rest.replace(",", "").strip():
        raise ValueError(f"expected name=v1,v2,..., got {text!r}")
    integer = name in ("n", "d")
    return name, _parse_list(int if integer else float, rest, f"axis {name!r}")


@dataclass(frozen=True)
class Option:
    name: str  # config key; the flag is --name with underscores as hyphens
    parse: object
    default: str | None  # default in string form; None means no default
    help: str


_COMMON = (
    Option("seed", int, None, "master seed (required)"),
    Option("outdir", str, None, f"output directory (default ${OUTPUT_DIR_ENV} or .)"),
)
# pool-dump draws one pool in-process; the experiments can spread runs over a pool
_EXPERIMENT = _COMMON + (Option("workers", int, "1", "worker processes"),)

OPTIONS = {
    "calibration": _EXPERIMENT
    + (
        Option("runs", int, "1000", "pools per pool size"),
        Option("n_values", _parse_int_list, "5,10,20,50,100,200,500,1000", "pool sizes"),
        Option("num_bins", int, "5", "quantile bins"),
    ),
    "efficiency": _EXPERIMENT
    + (
        Option("runs", int, "1000", "pools per grid point"),
        Option("n", _parse_committee_pool, "200", "pool size"),
        Option("delta", float, "1.0", "power-law tail exponent"),
        Option("tau", _parse_float_list, "0.05,0.1,0.2,0.5,1.0", "screening depths"),
        Option("sigma", _parse_float_list, "0,0.5,0.9,1", "attribute correlations"),
    ),
    "bias-grid": _EXPERIMENT
    + (
        Option("runs", int, "50000", "pools per grid point"),
        Option("axis1", _parse_axis, "delta=0.2,0.6,1.0,1.5,2.0", "first grid axis, name=v1,v2,..."),
        Option("axis2", _parse_axis, "sigma=0,0.5,0.9", "second grid axis"),
        Option("n", int, None, "pool size override"),
        Option("d", int, None, "attribute count override"),
        Option("sigma", float, None, "correlation override"),
        Option("alpha", float, None, "disadvantaged fraction override"),
        Option("lambda", float, None, "protected fraction override"),
        Option("beta", float, None, "discount floor override"),
        Option("delta", float, None, "tail exponent override"),
        Option("gamma", float, None, "probability each evaluator is biased (independent coins)"),
    ),
    "theorem-verify": _EXPERIMENT
    + (
        Option("n", _parse_even_pool_list, "2,20", "pool sizes for the paired checks"),
        Option("delta", _parse_float_list, "0.3,1.0", "tail exponents"),
        Option("gamma", float, "0.5", "bias-coin probability"),
        Option("runs", int, "100000", "paired runs per grid point"),
        Option("threshold_n", _parse_even_pool, "1000", "pool size for the sign check"),
        Option("tail_group", _parse_count, "10000", "group size for the tail check"),
        Option("tail_pools", _parse_count, "10000", "pools for the tail check"),
    ),
    "pool-dump": _COMMON
    + (
        Option("n", int, "20", "pool size"),
        Option("d", int, "20", "attribute count"),
        Option("sigma", float, "0.5", "attribute correlation"),
        Option("alpha", float, "0.5", "disadvantaged fraction"),
        Option("lambda", float, "1.0", "protected fraction"),
        Option("delta", float, "1.0", "power-law tail exponent"),
        Option("scheme", str, None, "also write a plan: holistic, segmented, or blocked"),
        Option("evaluators", int, "2", "committee size for holistic or segmented plans"),
        Option("rows_per_eval", int, None, "rows per evaluator (blocked plans)"),
        Option("cols_per_eval", int, None, "columns per evaluator (blocked plans)"),
    ),
}


def read_config_file(path: str) -> dict:
    """Read a flat key=value file, or the config block of a metadata JSON."""
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: malformed JSON: {exc}") from exc
        block = payload.get("config", payload)
        if not isinstance(block, dict):
            raise ConfigError(f"{path}: the config block must be a JSON object")
        return {str(k): str(v) for k, v in block.items()}
    out = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        out[key.strip()] = value.strip()
    return out


def resolve_options(command: str, args: argparse.Namespace) -> dict:
    """Merge flags, config file, and defaults into parsed option values."""
    options = {opt.name: opt for opt in OPTIONS[command]}
    raw = {}
    if args.config:
        raw.update(read_config_file(args.config))
        for key in raw:
            if key not in options:
                raise ConfigError(f"unknown config key: {key!r}")
    for opt in options.values():
        flag_value = getattr(args, opt.name.replace("-", "_"))
        if flag_value is not None:
            raw[opt.name] = flag_value
        elif opt.name not in raw and opt.default is not None:
            raw[opt.name] = opt.default

    if "seed" not in raw:
        raise ConfigError("seed required (pass --seed or set seed in the config file)")

    resolved = {}
    for key, text in raw.items():
        try:
            if not isinstance(text, str):
                # argparse reads --key=-- as an empty list of arguments
                raise ValueError("expected a value, got '--'")
            resolved[key] = options[key].parse(text)
        except ValueError as exc:
            raise ConfigError(f"bad value for {key!r}: {exc}") from exc

    if "outdir" not in resolved:
        resolved["outdir"] = os.environ.get(OUTPUT_DIR_ENV, ".")
    return resolved


def _config_strings(resolved: dict) -> dict:
    """Render resolved options back to strings for the metadata config block."""
    out = {}
    for key, value in sorted(resolved.items()):
        if isinstance(value, tuple):
            if key in ("axis1", "axis2"):
                name, values = value
                out[key] = f"{name}=" + ",".join(repr(v) if isinstance(v, float) else str(v) for v in values)
            else:
                out[key] = ",".join(repr(v) if isinstance(v, float) else str(v) for v in value)
        elif isinstance(value, float):
            out[key] = repr(value)
        else:
            out[key] = str(value)
    return out


def _outpath(cfg: dict, filename: str) -> str:
    os.makedirs(cfg["outdir"], exist_ok=True)
    return os.path.join(cfg["outdir"], filename)


def _write_outputs(cfg: dict, experiment: str, prefix: str, tables: dict, grid=None) -> None:
    """Write each ``{filename: (param_names, rows)}`` table, then the metadata."""
    for filename, (param_names, rows) in tables.items():
        path = _outpath(cfg, filename)
        write_results_csv(rows, param_names, path)
        print(f"wrote {path}")
    write_metadata_json(
        _outpath(cfg, f"{prefix}_metadata.json"),
        experiment,
        cfg["seed"],
        _config_strings(cfg),
        __version__,
        grid=grid,
    )


def _print_rows(results, scheme: str, label: str) -> None:
    """One summary line per ``scheme`` row: its point, estimate and error."""
    for res in results:
        if res.scheme != scheme:
            continue
        point = " ".join(
            f"{k}={v if isinstance(v, int) else sig4(v)}" for k, v in res.params.items()
        )
        print(f"{point}: {label} {sig4(res.estimate)} (se {sig4(res.std_error)})")


# ---------------------------------------------------------------------------
# subcommand runners


def _cmd_calibration(cfg: dict) -> int:
    sweep = run_calibration_sweep(
        n_values=cfg["n_values"],
        num_bins=cfg["num_bins"],
        runs=cfg["runs"],
        seed=cfg["seed"],
        workers=cfg["workers"],
    )
    _print_rows(sweep.results, "binner", "mean bin error")
    print(f"log-log slope: {sig4(sweep.loglog_slope)}")
    _write_outputs(cfg, "calibration", "calibration", {"calibration.csv": (["n"], sweep.results)})
    return 0


def _cmd_efficiency(cfg: dict) -> int:
    settings = {
        "tau_values": cfg["tau"],
        "sigma_values": cfg["sigma"],
        "n": cfg["n"],
        "delta": cfg["delta"],
        "runs": cfg["runs"],
    }
    results = run_efficiency_sweep(**settings, seed=cfg["seed"], workers=cfg["workers"])
    _print_rows(results, "holistic", "accuracy")
    tables = {"efficiency.csv": (["tau", "sigma"], results)}
    _write_outputs(cfg, "efficiency", "efficiency", tables, efficiency_grid(**settings))
    return 0


def _cmd_bias_grid(cfg: dict) -> int:
    names = ("n", "d", "sigma", "alpha", "lambda", "beta", "delta", "gamma")
    fixed = {key: cfg[key] for key in names if key in cfg}
    grid = GridSpec(axes=(cfg["axis1"], cfg["axis2"]), fixed=fixed, runs=cfg["runs"])
    results = run_bias_grid(grid, seed=cfg["seed"], workers=cfg["workers"])
    _print_rows(results, "difference", "seg-hol")
    tables = {"bias_grid.csv": (grid.axis_names, results)}
    _write_outputs(cfg, "bias-grid", "bias_grid", tables, grid)
    return 0


def _cmd_theorem_verify(cfg: dict) -> int:
    common = {"seed": cfg["seed"], "workers": cfg["workers"]}
    paired = {"delta_values": cfg["delta"], "runs": cfg["runs"], **common}
    # part A does not read gamma: check it before part A runs
    validate_setting(cfg["threshold_n"], cfg["gamma"], 0.0, 1.0)
    part_a = run_part_a(n_values=cfg["n"], **paired)
    formula = run_formula_check(n_values=cfg["n"], gamma=cfg["gamma"], **paired)
    # the threshold check reuses --delta at a large fixed pool, and the tail
    # check reuses it at tail_group applicants per group
    threshold = run_threshold_check(n=cfg["threshold_n"], gamma=cfg["gamma"], **paired)
    tail = run_tail_check(
        delta_values=cfg["delta"], n_per_group=cfg["tail_group"], pools=cfg["tail_pools"], **common
    )
    families = {
        "theorem_part_a.csv": (["n", "delta", "beta", "gamma"], part_a),
        "theorem_formula.csv": (["n", "delta", "gamma"], formula),
        "theorem_threshold.csv": (["n", "delta", "gamma"], threshold),
        "theorem_tail.csv": (["n", "delta"], tail),
    }
    tables = {
        name: (param_names, [row for c in checks for row in c.rows(cfg["seed"])])
        for name, (param_names, checks) in families.items()
    }
    _write_outputs(cfg, "theorem-verify", "theorem", tables)

    checks = part_a + formula + threshold + tail
    for c in checks:
        print(c.summary())
    if all(c.passed for c in checks):
        print("ALL CHECKS PASSED")
        return 0
    print("SOME CHECKS FAILED")
    return 1


def _cmd_pool_dump(cfg: dict) -> int:
    rng = derive_stream(cfg["seed"], STREAM_POOL)
    pool = build_pool(
        cfg["n"],
        cfg["d"],
        cfg["sigma"],
        cfg["alpha"],
        cfg["lambda"],
        PowerLaw(cfg["delta"]),
        rng,
    )
    # the plan draws after the pool, and both are checked before anything is written
    plan = None
    scheme = cfg.get("scheme")
    if scheme is not None:
        if scheme == "holistic":
            plan = allocate_holistic(cfg["n"], cfg["d"], cfg["evaluators"], rng)
        elif scheme == "segmented":
            plan = allocate_segmented(cfg["n"], cfg["d"], cfg["evaluators"], rng)
        elif scheme == "blocked":
            if "rows_per_eval" not in cfg or "cols_per_eval" not in cfg:
                raise ConfigError("blocked plans need rows_per_eval and cols_per_eval")
            plan = allocate_blocked(
                cfg["n"], cfg["d"], cfg["rows_per_eval"], cfg["cols_per_eval"], rng
            )
        else:
            raise ConfigError(f"unknown scheme {scheme!r}")

    pool_path = _outpath(cfg, "pool.csv")
    pool_to_csv(pool, pool_path)
    print(f"wrote {pool_path}")
    if plan is not None:
        plan_path = _outpath(cfg, "plan.csv")
        plan.to_csv(plan_path)
        print(f"wrote {plan_path}")

    _write_outputs(cfg, "pool-dump", "pool", {})
    return 0


_RUNNERS = {
    "calibration": _cmd_calibration,
    "efficiency": _cmd_efficiency,
    "bias-grid": _cmd_bias_grid,
    "theorem-verify": _cmd_theorem_verify,
    "pool-dump": _cmd_pool_dump,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evalsim",
        description="Monte Carlo comparison of holistic and segmented evaluation",
    )
    parser.add_argument("--version", action="version", version=f"evalsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, options in OPTIONS.items():
        cmd = sub.add_parser(command, help=f"run the {command} experiment")
        cmd.add_argument("--config", help="key=value file or metadata JSON")
        for opt in options:
            flag = "--" + opt.name.replace("_", "-")
            cmd.add_argument(flag, dest=opt.name, metavar="VALUE", help=opt.help)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _RUNNERS[args.command](resolve_options(args.command, args))
    except (ConfigError, ValueError) as exc:
        # the library rejects bad settings with ValueError: a config problem
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports and exits
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
