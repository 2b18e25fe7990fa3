"""Command-line front end.

Subcommands mirror the experiment drivers: ``calibration``, ``efficiency``,
``bias-grid``, ``theorem-verify``, and ``pool-dump``.  Options can come from
a flat key=value config file (or a metadata JSON from a previous run) with
explicit flags taking precedence; every run writes result CSVs plus a
metadata JSON whose config block reproduces the run when fed back through
``--config``.

Exit codes: 0 on success, 2 for configuration problems (unknown keys, bad
values, missing seed, an output directory that cannot be created, settings
an experiment rejects with ``ValueError``), 1 for runtime failures such as
a write that fails after the run.  The output directory is created before
anything runs, and a run that exits 2 removes the directories it created
while they are empty.  ``theorem-verify`` also exits 1 when a check fails,
since reporting that is its purpose.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import pathlib
import sys
from dataclasses import dataclass

from . import __version__
from .allocation import allocate_blocked, allocate_holistic, allocate_segmented
from .experiments.bias import run_bias_grid
from .experiments.calibration import run_calibration_sweep
from .experiments.efficiency import efficiency_grid, run_efficiency_sweep
from .experiments.kernels import build_pool
from .experiments.results import (
    PARAM_NAMES,
    GridSpec,
    check_distinct,
    check_params,
    format_value,
    sig4,
    write_metadata_json,
    write_results_csv,
)
from .experiments.theorem import (
    check_pool_size,
    check_tail_group,
    run_formula_check,
    run_part_a,
    run_tail_check,
    run_threshold_check,
)
from .population import pool_to_csv
from .rng import STREAM_POOL, derive_stream

OUTPUT_DIR_ENV = "EVALSIM_OUTPUT_DIR"


# ---------------------------------------------------------------------------
# option parsing: one table per subcommand, shared string->value parsers


def _parse_list(parse, text: str, what: str = "the list") -> tuple:
    values = tuple(parse(part) for part in text.split(",") if part.strip())
    if not values:
        raise ValueError(f"expected v1,v2,..., got {text!r}")
    check_distinct(values, what)
    return values


_parse_int_list = functools.partial(_parse_list, int)
_parse_float_list = functools.partial(_parse_list, float)


def _int_at_least(low: int):
    """Return a parser of integers no smaller than ``low``."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise ValueError(f"must be at least {low}, got {value}")
        return value

    return parse


_parse_seed = _int_at_least(0)
_parse_count = _int_at_least(1)
_parse_bins = _int_at_least(2)


def _then_check(parse, check):
    """Return a parser that passes what ``parse`` returns through ``check``."""
    def parse_and_check(text: str):
        value = parse(text)
        check(value)
        return value

    return parse_and_check


_parse_pool = _then_check(int, lambda n: check_params({"n": n}))
_parse_theorem_pool = _then_check(_parse_pool, check_pool_size)
_parse_theorem_pool_list = functools.partial(_parse_list, _parse_theorem_pool)
_parse_tail_group = _then_check(_parse_count, check_tail_group)


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
    Option("seed", _parse_seed, None, "master seed (required)"),
    Option("outdir", str, None, f"output directory (default ${OUTPUT_DIR_ENV} or .)"),
)
# pool-dump draws one pool in-process; the experiments can spread runs over a pool
_EXPERIMENT = _COMMON + (Option("workers", _parse_count, "1", "worker processes"),)

OPTIONS = {
    "calibration": _EXPERIMENT
    + (
        Option("runs", _parse_count, "1000", "pools per pool size"),
        Option("n_values", _parse_int_list, "5,10,20,50,100,200,500,1000", "pool sizes"),
        Option("num_bins", _parse_bins, "5", "quantile bins"),
    ),
    "efficiency": _EXPERIMENT
    + (
        Option("runs", _parse_count, "1000", "pools per grid point"),
        Option("n", _parse_pool, "200", "pool size"),
        Option("delta", float, "1.0", "power-law tail exponent"),
        Option("tau", _parse_float_list, "0.05,0.1,0.2,0.5,1.0", "screening depths"),
        Option("sigma", _parse_float_list, "0,0.5,0.9,1", "attribute correlations"),
    ),
    "bias-grid": _EXPERIMENT
    + (
        Option("runs", _parse_count, "50000", "pools per grid point"),
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
        Option("n", _parse_theorem_pool_list, "2,20", "pool sizes for the paired checks"),
        Option("delta", _parse_float_list, "0.3,1.0", "tail exponents"),
        Option("gamma", float, "0.5", "bias-coin probability"),
        Option("runs", _parse_count, "100000", "paired runs per grid point"),
        Option("threshold_n", _parse_theorem_pool, "1000", "pool size for the sign check"),
        Option("tail_group", _parse_tail_group, "10000", "group size for the tail check"),
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
        Option("evaluators", _parse_count, "2", "committee size for holistic or segmented plans"),
        Option("rows_per_eval", _parse_count, None, "rows per evaluator (blocked plans)"),
        Option("cols_per_eval", _parse_count, None, "columns per evaluator (blocked plans)"),
    ),
}


def read_config_file(path: str) -> dict:
    """Read a flat key=value file, or the config block of a metadata JSON."""
    try:
        with open(path) as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read config file {path}: {exc}") from exc
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: malformed JSON: {exc}") from exc
        block = payload.get("config", payload)
        if not isinstance(block, dict):
            raise ValueError(f"{path}: the config block must be a JSON object")
        return {str(k): str(v) for k, v in block.items()}
    out = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
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
                raise ValueError(f"unknown config key: {key!r}")
    for opt in options.values():
        flag_value = getattr(args, opt.name)
        if flag_value is not None:
            raw[opt.name] = flag_value
        elif opt.name not in raw and opt.default is not None:
            raw[opt.name] = opt.default

    if "seed" not in raw:
        raise ValueError("seed required (pass --seed or set seed in the config file)")

    resolved = {}
    for key, text in raw.items():
        try:
            if not isinstance(text, str):
                # argparse reads --key=-- as an empty list of arguments
                raise ValueError("expected a value, got '--'")
            resolved[key] = options[key].parse(text)
        except ValueError as exc:
            raise ValueError(f"bad value for {key!r}: {exc}") from exc

    if "outdir" not in resolved:
        resolved["outdir"] = os.environ.get(OUTPUT_DIR_ENV, ".")
    return resolved


def _config_strings(resolved: dict) -> dict:
    """Render resolved options back to strings for the metadata config block."""
    out = {}
    for key, value in sorted(resolved.items()):
        prefix = ""
        if key in ("axis1", "axis2"):
            name, value = value
            prefix = f"{name}="
        values = value if isinstance(value, tuple) else (value,)
        out[key] = prefix + ",".join(map(format_value, values))
    return out


def _write_outputs(cfg: dict, experiment: str, prefix: str, tables: dict, grid=None) -> None:
    """Write each ``{filename: rows}`` table, then the metadata."""
    for filename, rows in tables.items():
        path = os.path.join(cfg["outdir"], filename)
        write_results_csv(rows, path)
        print(f"wrote {path}")
    write_metadata_json(
        os.path.join(cfg["outdir"], f"{prefix}_metadata.json"),
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
    _write_outputs(cfg, "calibration", "calibration", {"calibration.csv": sweep.results})
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
    grid = efficiency_grid(**settings)
    _write_outputs(cfg, "efficiency", "efficiency", {"efficiency.csv": results}, grid)
    return 0


def _cmd_bias_grid(cfg: dict) -> int:
    fixed = {key: cfg[key] for key in PARAM_NAMES if key in cfg}
    grid = GridSpec(axes=(cfg["axis1"], cfg["axis2"]), fixed=fixed, runs=cfg["runs"])
    results = run_bias_grid(grid, seed=cfg["seed"], workers=cfg["workers"])
    _print_rows(results, "difference", "seg-hol")
    _write_outputs(cfg, "bias-grid", "bias_grid", {"bias_grid.csv": results}, grid)
    return 0


def _cmd_theorem_verify(cfg: dict) -> int:
    common = {"seed": cfg["seed"], "workers": cfg["workers"]}
    paired = {"delta_values": cfg["delta"], "runs": cfg["runs"], **common}
    # part A does not read gamma: check it before part A runs
    check_params({"gamma": cfg["gamma"]})
    part_a = run_part_a(n_values=cfg["n"], **paired)
    formula = run_formula_check(n_values=cfg["n"], gamma=cfg["gamma"], **paired)
    # the threshold check reuses --delta at a large fixed pool, and the tail
    # check reuses it at tail_group applicants per group
    threshold = run_threshold_check(n=cfg["threshold_n"], gamma=cfg["gamma"], **paired)
    tail = run_tail_check(
        delta_values=cfg["delta"], n_per_group=cfg["tail_group"], pools=cfg["tail_pools"], **common
    )
    families = {
        "theorem_part_a.csv": part_a,
        "theorem_formula.csv": formula,
        "theorem_threshold.csv": threshold,
        "theorem_tail.csv": tail,
    }
    tables = {
        name: [row for c in checks for row in c.rows(cfg["seed"])]
        for name, checks in families.items()
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
        cfg["delta"],
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
                raise ValueError("blocked plans need rows_per_eval and cols_per_eval")
            plan = allocate_blocked(
                cfg["n"], cfg["d"], cfg["rows_per_eval"], cfg["cols_per_eval"], rng
            )
        else:
            raise ValueError(f"unknown scheme {scheme!r}")

    pool_path = os.path.join(cfg["outdir"], "pool.csv")
    pool_to_csv(pool, pool_path)
    print(f"wrote {pool_path}")
    if plan is not None:
        plan_path = os.path.join(cfg["outdir"], "plan.csv")
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
    created = []
    try:
        cfg = resolve_options(args.command, args)
        # an unusable output directory fails here, before anything runs
        outdir = pathlib.Path(cfg["outdir"]).absolute()
        missing = [path for path in (outdir, *outdir.parents) if not os.path.exists(path)]
        try:
            os.makedirs(cfg["outdir"], exist_ok=True)
        except OSError as exc:
            raise ValueError(f"cannot create output directory {cfg['outdir']!r}: {exc}") from exc
        created = missing  # deepest first
        return _RUNNERS[args.command](cfg)
    except ValueError as exc:
        # option parsing and the library both reject bad settings with ValueError,
        # which leaves behind no directory this run made while it is empty
        print(f"error: {exc}", file=sys.stderr)
        for path in created:
            with contextlib.suppress(OSError):
                os.rmdir(path)
        return 2
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports and exits
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
