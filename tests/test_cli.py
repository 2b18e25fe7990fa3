"""End-to-end command-line behavior: options, outputs, exit codes."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from evalsim import __version__, cli
from evalsim.cli import OPTIONS, OUTPUT_DIR_ENV, main, read_config_file, sig4
from evalsim.experiments import theorem
from evalsim.experiments.results import PARAM_NAMES

SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(*argv):
    return main(list(argv))


def run_cli_process(*argv, timeout=60):
    """Run the CLI in a fresh interpreter, so a hang fails instead of blocking."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run(
        [sys.executable, "-m", "evalsim.cli", *argv],
        capture_output=True, text=True, timeout=timeout, env=env,
    )


# ---------------------------------------------------------------------------
# option handling


def test_seed_is_required(capsys, tmp_path):
    code = run_cli("calibration", "--outdir", str(tmp_path))
    assert code == 2
    assert "seed required" in capsys.readouterr().err


def test_unknown_config_key(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed=1\nvolume=11\n")
    code = run_cli("calibration", "--config", str(cfg))
    assert code == 2
    assert "volume" in capsys.readouterr().err


def test_bad_option_value(capsys, tmp_path):
    code = run_cli("calibration", "--seed", "3", "--runs", "many", "--outdir", str(tmp_path))
    assert code == 2
    assert "bad value for 'runs'" in capsys.readouterr().err


def test_malformed_config_line(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed 3\n")
    assert run_cli("calibration", "--config", str(cfg)) == 2
    assert "expected key=value" in capsys.readouterr().err


def test_missing_config_file(capsys, tmp_path):
    assert run_cli("calibration", "--config", str(tmp_path / "none.cfg")) == 2
    assert "cannot read config file" in capsys.readouterr().err


def test_undecodable_config_file(capsys, tmp_path):
    # a UnicodeDecodeError is a ValueError, which used to reach the user
    # without the file's name
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"\xff\xfe=1")
    assert run_cli("calibration", "--config", str(cfg)) == 2
    assert f"cannot read config file {cfg}: 'utf-8' codec" in capsys.readouterr().err


def test_malformed_json_config(capsys, tmp_path):
    cfg = tmp_path / "meta.json"
    cfg.write_text('{"config": {"seed": "3",}')
    assert run_cli("calibration", "--config", str(cfg)) == 2
    assert "malformed JSON" in capsys.readouterr().err
    cfg.write_text('{"config": ["seed=3"]}')
    assert run_cli("calibration", "--config", str(cfg)) == 2
    assert "must be a JSON object" in capsys.readouterr().err


def test_config_file_parsing(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment\n\nseed = 4\nruns= 10\n")
    assert read_config_file(str(cfg)) == {"seed": "4", "runs": "10"}


def test_flags_override_config(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"seed=1\nruns=2\nn_values=5,10\noutdir={tmp_path}\n")
    assert run_cli("calibration", "--config", str(cfg), "--seed", "9") == 0
    meta = json.loads((tmp_path / "calibration_metadata.json").read_text())
    assert meta["seed"] == 9
    assert meta["config"]["runs"] == "2"


def test_output_dir_env_fallback(monkeypatch, tmp_path):
    env_dir = tmp_path / "from-env"
    monkeypatch.setenv(OUTPUT_DIR_ENV, str(env_dir))
    assert run_cli("calibration", "--seed", "3", "--runs", "2", "--n-values", "5,10") == 0
    assert (env_dir / "calibration.csv").exists()

    flag_dir = tmp_path / "from-flag"
    assert (
        run_cli(
            "calibration", "--seed", "3", "--runs", "2", "--n-values", "5,10",
            "--outdir", str(flag_dir),
        )
        == 0
    )
    assert (flag_dir / "calibration.csv").exists()


_FLOATS = st.floats(allow_nan=False)


@st.composite
def _axes(draw):
    name = draw(st.sampled_from(PARAM_NAMES))
    integer = name in ("n", "d")
    return name, tuple(draw(st.lists(st.integers() if integer else _FLOATS, min_size=1, unique=True)))


_VALUES = {
    int: st.integers(),
    cli._parse_seed: st.integers(min_value=0),
    cli._parse_bins: st.integers(min_value=2),
    cli._parse_count: st.integers(min_value=1),
    cli._parse_pool: st.integers(min_value=1).map(lambda k: 2 * k),
    cli._parse_theorem_pool: st.integers(1, 10**9 - 1).map(lambda k: 2 * k),
    cli._parse_theorem_pool_list: st.lists(
        st.integers(1, 10**9 - 1).map(lambda k: 2 * k), min_size=1, unique=True
    ).map(tuple),
    cli._parse_tail_group: st.integers(1, 10**12),
    float: _FLOATS,
    str: st.text(st.characters(blacklist_categories=("Cs",))),
    cli._parse_int_list: st.lists(st.integers(), min_size=1, unique=True).map(tuple),
    cli._parse_float_list: st.lists(_FLOATS, min_size=1, unique=True).map(tuple),
    cli._parse_axis: _axes(),
}


@pytest.mark.parametrize("command", sorted(OPTIONS))
@settings(deadline=None, max_examples=50)
@given(data=st.data())
def test_metadata_config_round_trips(command, data):
    # a metadata JSON's config block, fed back through --config, resolves
    # to the very values that produced it
    values = {opt.name: data.draw(_VALUES[opt.parse], label=opt.name) for opt in OPTIONS[command]}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "metadata.json")
        with open(path, "w") as fh:
            json.dump({"config": cli._config_strings(values)}, fh)
        args = cli.build_parser().parse_args([command, "--config", path])
        assert cli.resolve_options(command, args) == values


def _rejects(parse, text) -> bool:
    try:
        parse(text)
    except ValueError:
        return True
    return False


_PARSED = [
    (command, opt)
    for command in sorted(OPTIONS)
    for opt in OPTIONS[command]
    if opt.parse is not str
]


@pytest.mark.parametrize("command, opt", _PARSED, ids=[f"{c}-{o.name}" for c, o in _PARSED])
@settings(deadline=None, max_examples=25)
@given(data=st.data())
def test_rejected_values_exit_2(command, opt, data):
    text = data.draw(
        st.text(st.characters(blacklist_categories=("Cs",))).filter(
            lambda t: _rejects(opt.parse, t)
        )
    )
    flag = opt.name.replace("_", "-")
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        # the flag comes last so it wins over the --seed every run needs, and
        # the --flag=value form keeps a leading "-" from reading as a flag
        with contextlib.redirect_stderr(err):
            code = main([command, "--seed", "1", "--outdir", tmp, f"--{flag}={text}"])
        assert code == 2
        assert f"bad value for {opt.name!r}" in err.getvalue()
        assert os.listdir(tmp) == []


# tiny in-range settings under which each subcommand runs in a fraction of a second
_TINY = {
    "calibration": ("--runs=2", "--n-values=4,6", "--num-bins=2"),
    "efficiency": ("--runs=2", "--n=4", "--tau=0.5", "--sigma=0.5"),
    "bias-grid": ("--runs=2", "--n=4", "--d=4", "--axis1=delta=1", "--axis2=sigma=0.5"),
    "theorem-verify": (
        "--runs=2", "--n=2", "--delta=1", "--threshold-n=4", "--tail-group=2", "--tail-pools=2",
    ),
    "pool-dump": ("--n=4", "--d=4"),
}
# numbers on both sides of every range; the count parameters n and d stay small
_NUMBER = st.one_of(st.floats(-0.5, 2.5), st.floats(allow_nan=True, allow_infinity=True))
_COUNT = st.integers(-3, 8)


def _numbers(name, max_size=1):
    values = _COUNT if name in ("n", "d") else _NUMBER
    lists = st.lists(values, min_size=1, max_size=max_size, unique_by=str)
    return lists.map(lambda vs: ",".join(map(repr, vs)))


_SMALL = {
    "workers": (1, 2),
    "runs": (1, 3),
    "tail_pools": (1, 3),
    "num_bins": (2, 4),
    "evaluators": (1, 5),
    "rows_per_eval": (1, 5),
    "cols_per_eval": (1, 5),
}


def _setting(opt):
    """Values that parse for ``opt`` but may lie outside its range, or None to keep _TINY's."""
    if opt.parse in (int, float) and opt.name in PARAM_NAMES:
        return _numbers(opt.name)
    if opt.parse is cli._parse_float_list:
        return _numbers(opt.name, 2)
    if opt.parse is cli._parse_axis:
        names = st.sampled_from(PARAM_NAMES)
        return names.flatmap(lambda name: _numbers(name, 2).map(f"{name}={{}}".format))
    if opt.name == "n_values":  # calibration's pool sizes may be odd, but not below 2
        return _numbers("n", 3)
    if opt.name in _SMALL:
        return st.integers(*_SMALL[opt.name]).map(str)
    if opt.name == "scheme":
        return st.sampled_from(["holistic", "segmented", "blocked"])
    return None


@pytest.mark.parametrize("command", sorted(OPTIONS))
@settings(deadline=None, max_examples=50)
@given(data=st.data())
def test_values_out_of_range_exit_2_without_a_traceback(command, data):
    # values that parse but lie outside the model's ranges are rejected by
    # the layer that reads them: whichever it is, the run exits 2 with a
    # message and leaves no directory, and no value ends in a traceback
    argv = [command, "--seed=1", *_TINY[command]]
    for opt in OPTIONS[command]:
        setting = _setting(opt)
        if setting is not None and data.draw(st.booleans()):
            argv.append(f"--{opt.name.replace('_', '-')}={data.draw(setting, label=opt.name)}")
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        outdir = os.path.join(tmp, "out")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*argv, f"--outdir={outdir}"])
        event(f"exit {code}")
        assert "Traceback" not in err.getvalue()
        if code == 1:
            assert command == "theorem-verify", err.getvalue()
            assert "SOME CHECKS FAILED" in out.getvalue(), err.getvalue()
        else:
            assert code in (0, 2)
        assert os.path.exists(outdir) == (code != 2), err.getvalue()


@pytest.mark.parametrize(
    "flag, value, rule",
    [
        ("seed", "-1", "must be at least 0"),
        ("runs", "0", "must be at least 1"),
        ("workers", "0", "must be at least 1"),
    ],
)
def test_rejected_values_name_option_and_value(capsys, tmp_path, flag, value, rule):
    # parsed up front, so the message names the option and its value, not an
    # internal argument such as derive_stream's master_seed
    code = run_cli("calibration", "--seed", "1", "--outdir", str(tmp_path), f"--{flag}={value}")
    assert code == 2
    assert f"bad value for {flag!r}: {rule}, got {value}" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize(
    "argv, flag, value, rule",
    [
        (("calibration",), "num_bins", "1", "must be at least 2"),
        (("pool-dump", "--scheme", "holistic"), "evaluators", "0", "must be at least 1"),
        (("pool-dump", "--scheme", "blocked", "--cols-per-eval", "2"), "rows_per_eval", "-3",
         "must be at least 1"),
        (("pool-dump", "--scheme", "blocked", "--rows-per-eval", "2"), "cols_per_eval", "0",
         "must be at least 1"),
    ],
)
def test_counts_name_option_and_value(capsys, tmp_path, argv, flag, value, rule):
    # parsed up front like --runs, not left to the allocator or the binner,
    # whose messages name no value
    option = "--" + flag.replace("_", "-")
    code = run_cli(*argv, "--seed", "1", "--outdir", str(tmp_path), f"{option}={value}")
    assert code == 2
    assert f"bad value for {flag!r}: {rule}, got {value}" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("command, opt", _PARSED, ids=[f"{c}-{o.name}" for c, o in _PARSED])
def test_double_dash_value_exits_2(capsys, tmp_path, command, opt):
    # argparse hands the parser an empty list, not text, for --flag=--
    flag = opt.name.replace("_", "-")
    code = run_cli(command, "--seed", "1", "--outdir", str(tmp_path), f"--{flag}=--")
    assert code == 2
    assert f"bad value for {opt.name!r}" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("--version")
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == f"evalsim {__version__}"


def test_outdir_collision_exits_2_before_any_run(capsys, tmp_path):
    # a file where the output directory, or one of its parents, should be is
    # a configuration problem, found before the sweep runs and prints anything
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("occupied")
    for outdir in (blocker, blocker / "sub"):
        code = run_cli(
            "calibration", "--seed", "3", "--runs", "2", "--n-values", "5,10",
            "--outdir", str(outdir),
        )
        assert code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: cannot create output directory {str(outdir)!r}")
    assert blocker.read_text() == "occupied"


def test_a_failing_write_exits_1(capsys, tmp_path):
    # a directory where the CSV should go fails after the run: a runtime
    # failure, reported in one line, not a configuration problem
    (tmp_path / "calibration.csv").mkdir()
    code = run_cli(
        "calibration", "--seed", "1", "--runs", "2", "--n-values", "5,10",
        "--outdir", str(tmp_path),
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: [Errno 21] Is a directory: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("bias-grid", "--seed", "1", "--runs", "10", "--axis1", "delta=-1", "--axis2", "sigma=0.5"),
        ("pool-dump", "--seed", "1", "--scheme", "diagonal"),
        ("calibration", "--seed", "-1", "--runs", "2", "--n-values", "5"),
    ],
    ids=["bias-grid", "pool-dump", "calibration"],
)
def test_a_rejected_run_leaves_no_directory_it_created(capsys, tmp_path, argv):
    assert run_cli(*argv, "--outdir", str(tmp_path / "new" / "sub")) == 2
    assert not (tmp_path / "new").exists()
    # a directory that existed before the run is left in place
    existing = tmp_path / "existing"
    existing.mkdir()
    assert run_cli(*argv, "--outdir", str(existing)) == 2
    assert existing.is_dir() and os.listdir(existing) == []
    assert capsys.readouterr().out == ""


def test_calibration_rejects_one_bin(capsys, tmp_path):
    code = run_cli("calibration", "--seed", "3", "--num-bins", "1", "--outdir", str(tmp_path))
    assert code == 2
    assert "num_bins" in capsys.readouterr().err


def test_calibration_takes_no_delta(capsys, tmp_path):
    # the binner error is distribution-free, so no option picks a marginal
    outdir = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        run_cli("calibration", "--seed", "1", "--runs", "10", "--delta", "1",
                "--outdir", str(outdir))
    assert exc.value.code == 2
    # metadata written while calibration still took --delta
    old = tmp_path / "calibration_metadata.json"
    old.write_text(json.dumps({"config": {"seed": "1", "runs": "10", "delta": "1.0"}}))
    code = run_cli("calibration", "--config", str(old), "--outdir", str(outdir))
    assert code == 2
    assert "'delta'" in capsys.readouterr().err
    assert not outdir.exists()


# ---------------------------------------------------------------------------
# replay: a run's metadata fed back through --config rewrites the same files

REPLAY_CASES = [
    ("calibration", ("--runs", "30", "--n-values", "5,20"), None),
    (
        "efficiency",
        ("--sigma", "0,1", "--tau", "0.2,1.0", "--runs", "40", "--n", "10"),
        {
            "axes": [["tau", [0.2, 1.0]], ["sigma", [0.0, 1.0]]],
            "fixed": {"n": 10, "delta": 1.0},
            "runs": 40,
        },
    ),
    (
        "bias-grid",
        ("--runs", "64", "--axis1", "delta=0.5,1.0", "--axis2", "beta=0,0.3", "--n", "4", "--d", "4"),
        {
            "axes": [["delta", [0.5, 1.0]], ["beta", [0.0, 0.3]]],
            "fixed": {"n": 4, "d": 4},
            "runs": 64,
        },
    ),
    (
        "theorem-verify",
        ("--n", "2,4", "--delta", "1.0", "--runs", "64", "--threshold-n", "10",
         "--tail-group", "10", "--tail-pools", "64"),
        None,
    ),
    (
        "pool-dump",
        ("--n", "6", "--d", "4", "--scheme", "blocked", "--rows-per-eval", "3",
         "--cols-per-eval", "2"),
        None,
    ),
]


@pytest.mark.parametrize("command, args, grid", REPLAY_CASES, ids=[c[0] for c in REPLAY_CASES])
def test_metadata_replays_byte_for_byte(tmp_path, command, args, grid):
    first, second = tmp_path / "first", tmp_path / "second"
    code = run_cli(command, "--seed", "3", *args, "--outdir", str(first))
    assert code in (0, 1)  # theorem-verify exits 1 when a check fails at this scale
    (meta_path,) = first.glob("*_metadata.json")
    assert run_cli(command, "--config", str(meta_path), "--outdir", str(second)) == code

    names = sorted(path.name for path in first.iterdir())
    assert sorted(path.name for path in second.iterdir()) == names
    for name in names:
        if name != meta_path.name:
            assert (second / name).read_bytes() == (first / name).read_bytes(), name
    meta = json.loads(meta_path.read_text())
    replayed = json.loads((second / meta_path.name).read_text())
    assert meta.get("grid") == grid
    assert replayed["config"].pop("outdir") == str(second)
    meta["config"].pop("outdir")
    assert replayed == meta


# ---------------------------------------------------------------------------
# calibration


def test_calibration_outputs(capsys, tmp_path):
    code = run_cli(
        "calibration", "--seed", "3", "--runs", "50", "--n-values", "5,20",
        "--outdir", str(tmp_path),
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "n=5: mean bin error" in out
    assert "log-log slope:" in out
    lines = (tmp_path / "calibration.csv").read_text().splitlines()
    assert lines[0] == "n,scheme,estimate,std_error,runs,seed"
    assert len(lines) == 3
    assert lines[1].startswith("5,binner,")
    meta = json.loads((tmp_path / "calibration_metadata.json").read_text())
    assert meta["experiment"] == "calibration"
    assert meta["config"]["n_values"] == "5,20"


# ---------------------------------------------------------------------------
# efficiency


def test_efficiency_perfect_correlation_exact(capsys, tmp_path):
    code = run_cli(
        "efficiency", "--sigma", "1.0", "--tau", "0.1", "--runs", "1000",
        "--seed", "1", "--outdir", str(tmp_path),
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "tau=0.1 sigma=1: accuracy 1 (se 0)" in out
    rows = (tmp_path / "efficiency.csv").read_text().splitlines()
    assert rows[0] == "tau,sigma,scheme,estimate,std_error,runs,seed"
    assert "0.1,1.0,holistic,1.0,0.0,1000,1" in rows


def test_efficiency_rejects_odd_pool(capsys, tmp_path):
    code = run_cli(
        "efficiency", "--n", "9", "--seed", "1", "--runs", "10",
        "--outdir", str(tmp_path),
    )
    assert code == 2
    assert "n must be even and at least 2, got 9" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["21", "0", "-4"])
def test_efficiency_names_the_odd_pool(capsys, tmp_path, value):
    # the message names the option and the value, from a flag or a config file
    config = tmp_path / "efficiency.cfg"
    config.write_text(f"seed=1\nn={value}\n")
    outdir = tmp_path / "out"
    for argv in ([f"--n={value}", "--seed", "1"], ["--config", str(config)]):
        code = run_cli("efficiency", *argv, "--runs", "10", "--outdir", str(outdir))
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"error: bad value for 'n': n must be even and at least 2, got {value}\n"
        assert not outdir.exists()


@pytest.mark.parametrize("delta", ["0", "-1", "inf", "nan"])
def test_efficiency_rejects_a_bad_delta(capsys, tmp_path, delta):
    code = run_cli(
        "efficiency", "--seed", "1", "--runs", "10", "--delta", delta, "--outdir", str(tmp_path)
    )
    assert code == 2
    assert "delta must lie in (0, inf)" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


# sha256 of efficiency.csv at seed 11, pinned so a change to the efficiency
# draw or scorer that moves any byte fails here: at n = 6 each half holds 3
# applicants, so tau 0.05, 0.5 and 1 screen in 1, 2 and 3 of them, and the
# 3000 runs take two chunks; at n = 200 they screen in 5, 50 and 100 of 100
@pytest.mark.parametrize(
    "n, runs, csv_sha256",
    [
        (6, 3000, "019dba237906e42dea077dbff132a317ababb4ec2370ebe1a56248579e491220"),
        (200, 300, "474e060fe4daf3b7c006fd89c60e8e6a483755601f24492f839f18980414d454"),
    ],
    ids=["n6", "n200"],
)
def test_efficiency_bytes_are_pinned(capsys, tmp_path, n, runs, csv_sha256):
    code = run_cli(
        "efficiency", "--seed", "11", "--runs", str(runs), "--n", str(n),
        "--tau", "0.05,0.5,1", "--sigma", "0,0.5,0.9,1", "--outdir", str(tmp_path),
    )
    assert code == 0
    csv = (tmp_path / "efficiency.csv").read_bytes()
    assert hashlib.sha256(csv).hexdigest() == csv_sha256


# ---------------------------------------------------------------------------
# bias-grid


def test_bias_grid_outputs(capsys, tmp_path):
    code = run_cli(
        "bias-grid", "--seed", "3", "--runs", "64",
        "--axis1", "delta=0.5,1.0", "--axis2", "sigma=0,0.9",
        "--n", "4", "--d", "4", "--outdir", str(tmp_path),
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "delta=0.5 sigma=0: seg-hol" in out
    lines = (tmp_path / "bias_grid.csv").read_text().splitlines()
    assert lines[0] == "delta,sigma,scheme,estimate,std_error,runs,seed"
    assert len(lines) == 13  # 4 points x 3 schemes
    meta = json.loads((tmp_path / "bias_grid_metadata.json").read_text())
    assert meta["grid"]["axes"] == [["delta", [0.5, 1.0]], ["sigma", [0.0, 0.9]]]
    assert meta["config"]["axis1"] == "delta=0.5,1.0"


def test_bias_grid_rejects_unknown_axis(capsys, tmp_path):
    code = run_cli(
        "bias-grid", "--seed", "3", "--runs", "16",
        "--axis1", "voltage=1,2", "--axis2", "sigma=0,1",
        "--outdir", str(tmp_path),
    )
    assert code == 2
    assert "voltage" in capsys.readouterr().err


def test_bias_grid_rejects_an_axis_it_does_not_read(capsys, tmp_path):
    code = run_cli(
        "bias-grid", "--seed", "1", "--runs", "200",
        "--axis1", "tau=0.1,0.9", "--axis2", "sigma=0.5", "--outdir", str(tmp_path),
    )
    assert code == 2
    assert "'tau'" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def test_bias_grid_sweeps_any_two_parameters(capsys, tmp_path):
    code = run_cli(
        "bias-grid", "--seed", "3", "--runs", "16",
        "--axis1", "alpha=0.5,1.0", "--axis2", "sigma=0,1",
        "--n", "4", "--d", "4", "--outdir", str(tmp_path),
    )
    assert code == 0
    lines = (tmp_path / "bias_grid.csv").read_text().splitlines()
    assert lines[0] == "alpha,sigma,scheme,estimate,std_error,runs,seed"
    # metadata carrying a since-removed option no longer resolves
    meta = tmp_path / "bias_grid_metadata.json"
    for stale in ("require_delta_axis", "coin_mode"):
        payload = json.loads(meta.read_text())
        payload["config"][stale] = "true"
        stale_meta = tmp_path / f"{stale}.json"
        stale_meta.write_text(json.dumps(payload))
        assert run_cli("bias-grid", "--config", str(stale_meta)) == 2
        assert stale in capsys.readouterr().err


@pytest.mark.parametrize("axis", ["n=4,2.5", "d=2.0"])
def test_integer_axes_reject_fractions(capsys, tmp_path, axis):
    code = run_cli(
        "bias-grid", "--seed", "3", "--runs", "16",
        "--axis1", "delta=1", "--axis2", axis, "--outdir", str(tmp_path),
    )
    assert code == 2
    assert "bad value for 'axis2'" in capsys.readouterr().err
    assert not (tmp_path / "bias_grid.csv").exists()


def test_bias_grid_rejects_an_evaluators_axis(capsys, tmp_path):
    # the committee is always two, so no parameter names its size
    code = run_cli(
        "bias-grid", "--seed", "3", "--runs", "16",
        "--axis1", "delta=1", "--axis2", "evaluators=2", "--outdir", str(tmp_path),
    )
    assert code == 2
    assert "'evaluators'" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize(
    "axis",
    [
        "sigma=0.5,nan", "sigma=1.5", "beta=5", "beta=-1", "gamma=2", "gamma=nan",
        "delta=-1", "delta=nan",
    ],
)
def test_bias_grid_rejects_out_of_range_points(capsys, tmp_path, axis):
    name = axis.partition("=")[0]
    code = run_cli(
        "bias-grid", "--seed", "1", "--runs", "16",
        "--axis1", "alpha=0.5" if name == "delta" else "delta=1", "--axis2", axis,
        "--n", "4", "--d", "4", "--outdir", str(tmp_path),
    )
    assert code == 2
    assert f"{name} must lie in" in capsys.readouterr().err
    assert not (tmp_path / "bias_grid.csv").exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (("efficiency", "--tau", "0.5,0.5"), "the list repeats the value 0.5"),
        (("bias-grid", "--axis1", "delta=1,1"), "axis 'delta' repeats the value 1.0"),
        (("calibration", "--n-values", "5,5,10"), "the list repeats the value 5"),
        (("theorem-verify", "--delta", "1,1.0"), "the list repeats the value 1.0"),
    ],
)
def test_repeated_list_values_exit_2(capsys, tmp_path, argv, message):
    # a repeated value would write the same point twice, or two rows for one
    # pool size and a slope fitted on a point counted twice
    code = run_cli(*argv, "--seed", "1", "--outdir", str(tmp_path))
    assert code == 2
    assert message in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def test_bias_grid_rejects_an_odd_count(capsys, tmp_path):
    code = run_cli(
        "bias-grid", "--seed", "1", "--runs", "100000",
        "--axis1", "n=20,21", "--axis2", "sigma=0.5,0.9", "--outdir", str(tmp_path),
    )
    assert code == 2
    assert "n must be even and at least 2, got 21" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


# sha256 of bias_grid.csv at seed 5, 300 runs, pinned so a change to the bias
# draw or scorer that moves any byte fails here: sigma 0 and 1 take the
# shortcut draws, and the gamma grid sets beta > 0 and lambda < 1
@pytest.mark.parametrize(
    "args, csv_sha256",
    [
        (
            ("--axis1", "delta=0.5,2", "--axis2", "sigma=0,0.5,1"),
            "9d53fa78cee94ffa44b91674bb4fb7088813207b0a36a27d3216c0b95806bc3d",
        ),
        (
            ("--gamma", "0.4", "--axis1", "beta=0.3,0.9", "--axis2", "lambda=0.4,0.75"),
            "0c409064277b1eb11c8917f5f9d2d9d4bc5b5206994ea0c3b777fb55b82a8ea2",
        ),
        (
            # alpha = 1 discounts every segmented row
            ("--axis1", "alpha=0.5,1", "--axis2", "sigma=0.5,1"),
            "ee3f42ef5ea0ef7febb11e934c229f815ff65771d22f3b721845f92d1128021d",
        ),
        (
            # at alpha = 1 with both coins biased every estimate is 0, so all
            # n applicants tie for the top pick
            ("--gamma", "0.5", "--axis1", "alpha=0.5,1", "--axis2", "sigma=0.9,1"),
            "7275ebf5cc13959bfdcd944e8a9b685cdc0cb0b9d203e79f63a2e5bcd9780657",
        ),
    ],
    ids=["delta-sigma", "gamma-beta-lambda", "alpha-sigma", "gamma-alpha-sigma"],
)
def test_bias_grid_bytes_are_pinned(capsys, tmp_path, args, csv_sha256):
    code = run_cli("bias-grid", "--seed", "5", "--runs", "300", *args, "--outdir", str(tmp_path))
    assert code == 0
    csv = (tmp_path / "bias_grid.csv").read_bytes()
    assert hashlib.sha256(csv).hexdigest() == csv_sha256


def test_bias_grid_constant_marginal_exits(tmp_path):
    done = run_cli_process(
        "bias-grid", "--seed", "1", "--runs", "16",
        "--axis1", "delta=1e300", "--axis2", "sigma=0.5",
        "--n", "4", "--d", "4", "--outdir", str(tmp_path),
    )
    assert done.returncode == 2
    assert "delta=1e+300" in done.stderr


# ---------------------------------------------------------------------------
# theorem-verify


# sha256 of theorem-verify's CSVs at the reduced scale below, pinned so a
# change to the class-maxima draw, the subset masks or the scorer that moves
# any byte fails here
_THEOREM_SHA256 = {
    "theorem_part_a.csv": "26319f15dc1092ebf51a6b62c86b98274cf0692a25b14392b67a29f349538e98",
    "theorem_formula.csv": "a69a469b8105fea29a0f1f2b83a6b025f8577393c7861ae314abfe415c232bc6",
    "theorem_threshold.csv": "c68b9c5032e78e06ddafeb635f2ebcb230605b385d1c3fb6d7372e08fab85f0f",
    "theorem_tail.csv": "dc621ffb572935722f403c15e113854f80f8ab8176fae520869edd9b40ee8f47",
}
# sha256 of the same run's 13 summary lines (stdout without the "wrote " lines)
_THEOREM_SUMMARY_SHA256 = "5ab94ffb30181210e9e08e337aa37005351869842ec307800d9a6d5eb0bff98b"


def test_theorem_verify_reduced_scale(capsys, tmp_path):
    code = run_cli(
        "theorem-verify", "--n", "2", "--delta", "1.0", "--gamma", "0.5",
        "--runs", "20000", "--threshold-n", "200", "--tail-group", "100",
        "--tail-pools", "5000",
        "--seed", "7", "--outdir", str(tmp_path),
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "ALL CHECKS PASSED" in out
    assert "formula n=2 delta=1: diff" in out
    for name in (
        "theorem_part_a.csv",
        "theorem_formula.csv",
        "theorem_threshold.csv",
        "theorem_tail.csv",
        "theorem_metadata.json",
    ):
        assert (tmp_path / name).exists()
    formula = (tmp_path / "theorem_formula.csv").read_text().splitlines()
    assert formula[0] == "n,delta,gamma,scheme,estimate,std_error,runs,seed"
    assert formula[1].split(",")[3] == "difference"
    assert formula[2].split(",")[3] == "predicted"
    for name, csv_sha256 in _THEOREM_SHA256.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == csv_sha256
    summary = "".join(line + "\n" for line in out.splitlines() if not line.startswith("wrote "))
    assert hashlib.sha256(summary.encode()).hexdigest() == _THEOREM_SUMMARY_SHA256


# the verdict properties each family's check class decides from; the formula
# check's own `passed` is left to combine its two
_VERDICT_FLAGS = {
    "run_part_a": (theorem.PartACheck, ("passed",)),
    "run_formula_check": (theorem.FormulaCheck, ("matches", "symmetric")),
    "run_threshold_check": (theorem.ThresholdCheck, ("passed",)),
    "run_tail_check": (theorem.TailCheck, ("passed",)),
}


@pytest.fixture(scope="module")
def tiny_checks():
    """Each check family at a tiny scale, verdicts as they fall."""
    return {
        "run_part_a": theorem.run_part_a(
            beta_values=(0.0,), gamma_values=(0.5,), delta_values=(1.0,), n_values=(2,),
            runs=100, seed=3,
        ),
        "run_formula_check": theorem.run_formula_check(
            n_values=(2,), delta_values=(1.0,), runs=100, seed=3
        ),
        "run_threshold_check": theorem.run_threshold_check(
            delta_values=(0.3,), n=20, runs=100, seed=3
        ),
        "run_tail_check": theorem.run_tail_check(
            delta_values=(1.0,), n_per_group=10, pools=100, seed=3
        ),
    }


@pytest.mark.parametrize(
    "family, flag",
    [(None, None)] + [(name, "passed") for name in _VERDICT_FLAGS]
    + [("run_formula_check", "symmetric")],
)
def test_theorem_verify_verdict(monkeypatch, capsys, tmp_path, tiny_checks, family, flag):
    # one failing check in any family, or a failed symmetry gate, fails the run
    for name, checks in tiny_checks.items():
        cls, flags = _VERDICT_FLAGS[name]
        for f in flags:
            monkeypatch.setattr(cls, f, property(lambda self: True))
        if name == family:
            failing = checks[0]
            monkeypatch.setattr(cls, flag, property(lambda self: self is not failing))
        monkeypatch.setattr(cli, name, lambda checks=checks, **_: checks)
    code = run_cli("theorem-verify", "--seed", "3", "--outdir", str(tmp_path))
    out = capsys.readouterr().out
    if family is None:
        assert code == 0 and "ALL CHECKS PASSED" in out
    else:
        assert code == 1 and "SOME CHECKS FAILED" in out
    assert len(list(tmp_path.glob("theorem_*.csv"))) == 4


@pytest.mark.parametrize(
    "argv",
    [
        ("calibration", "--runs", "20", "--n-values", "5,10"),
        ("efficiency", "--runs", "20", "--n", "10", "--tau", "0.5", "--sigma", "0"),
        (
            "bias-grid", "--runs", "16", "--axis1", "delta=1", "--axis2", "sigma=0",
            "--n", "4", "--d", "4",
        ),
        (
            "theorem-verify", "--n", "2", "--delta", "1.0", "--runs", "200",
            "--threshold-n", "20", "--tail-group", "10", "--tail-pools", "200",
        ),
        ("pool-dump", "--n", "6", "--d", "4", "--scheme", "holistic"),
    ],
    ids=lambda argv: argv[0],
)
def test_each_csv_written_is_reported_once(capsys, tmp_path, argv):
    # theorem-verify may fail its checks at this scale; it still writes its tables
    assert run_cli(*argv, "--seed", "3", "--outdir", str(tmp_path)) in (0, 1)
    out = capsys.readouterr().out.splitlines()
    reported = sorted(line[len("wrote "):] for line in out if line.startswith("wrote "))
    assert reported == sorted(str(p) for p in tmp_path.glob("*.csv"))


@pytest.mark.parametrize("flags", [("--n", ","), ("--delta", ",")])
def test_theorem_verify_rejects_an_empty_list(capsys, tmp_path, flags):
    # with nothing to check, the run used to report that every check passed
    code = run_cli("theorem-verify", "--seed", "1", "--runs", "100", *flags,
                   "--outdir", str(tmp_path))
    assert code == 2
    assert f"bad value for {flags[0][2:]!r}" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("flag", ["--tail-pools", "--tail-group"])
def test_theorem_verify_rejects_a_non_positive_count(capsys, tmp_path, flag):
    # the run-count check further down named "runs", which was never set
    code = run_cli("theorem-verify", "--seed", "1", "--runs", "100", flag, "0",
                   "--outdir", str(tmp_path))
    assert code == 2
    err = capsys.readouterr().err
    assert f"bad value for {flag[2:].replace('-', '_')!r}: must be at least 1, got 0" in err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize(
    "flags, message",
    [
        (("--gamma", "2"), "gamma must lie in (0, 1)"),
        (("--threshold-n", "3"), "bad value for 'threshold_n': n must be even and at least 2, got 3"),
        (("--tail-group", "0"), "bad value for 'tail_group'"),
        # numpy's class-size draw raised OverflowError here, which exited 1
        (
            ("--threshold-n", "1" + "0" * 30),
            "bad value for 'threshold_n': n must be at most 1999999998 to draw class sizes,"
            " got 1" + "0" * 30,
        ),
        (("--n", "2000000000"), "bad value for 'n': n must be at most 1999999998"),
        (
            ("--tail-group", "10000000000000"),
            "bad value for 'tail_group': group size must be at most 1000000000000,"
            " as U**(1/k) rounds toward 1 beyond it, got 10000000000000",
        ),
    ],
    ids=["gamma", "threshold_n", "tail_group", "huge_threshold_n", "huge_n", "huge_tail_group"],
)
def test_theorem_verify_rejects_later_settings_before_any_check(
    monkeypatch, capsys, tmp_path, flags, message
):
    # part A reads none of these settings, so a bad one must exit 2 before
    # part A spends its runs
    def fail(**_):
        raise AssertionError("run_part_a was called")

    monkeypatch.setattr(cli, "run_part_a", fail)
    code = run_cli("theorem-verify", "--seed", "1", *flags, "--outdir", str(tmp_path))
    assert code == 2
    assert message in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def test_theorem_verify_rejects_odd_pool(capsys, tmp_path):
    # the message names the option and the value, as --threshold-n's does
    for value in ("3", "0", "-4"):
        code = run_cli(
            "theorem-verify", f"--n={value}", "--runs", "100", "--seed", "7",
            "--outdir", str(tmp_path),
        )
        assert code == 2
        err = capsys.readouterr().err
        assert f"bad value for 'n': n must be even and at least 2, got {value}" in err
        assert os.listdir(tmp_path) == []


# ---------------------------------------------------------------------------
# pool-dump


def test_pool_dump_writes_pool_and_plan(capsys, tmp_path):
    code = run_cli(
        "pool-dump", "--seed", "11", "--n", "6", "--d", "4",
        "--scheme", "blocked", "--rows-per-eval", "3", "--cols-per-eval", "2",
        "--outdir", str(tmp_path),
    )
    assert code == 0
    pool_lines = (tmp_path / "pool.csv").read_text().splitlines()
    assert pool_lines[0] == "applicant,group,attr_0,attr_1,attr_2,attr_3,protected_mask"
    assert len(pool_lines) == 7
    plan_lines = (tmp_path / "plan.csv").read_text().splitlines()
    assert plan_lines[0] == "applicant,attribute,evaluator"
    assert len(plan_lines) == 25  # 6 x 4 cells, each exactly once
    evaluators = {line.split(",")[2] for line in plan_lines[1:]}
    assert evaluators == {"0", "1", "2", "3"}


def test_pool_dump_takes_no_workers(capsys, tmp_path):
    # one pool is drawn in-process, so no option spreads it over workers
    outdir = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        run_cli("pool-dump", "--seed", "1", "--workers", "2", "--outdir", str(outdir))
    assert exc.value.code == 2
    assert run_cli("pool-dump", "--seed", "1", "--outdir", str(outdir)) == 0
    meta = json.loads((outdir / "pool_metadata.json").read_text())
    assert "workers" not in meta["config"]
    # metadata written while pool-dump still took --workers
    old = tmp_path / "pool_metadata.json"
    old.write_text(json.dumps({"config": {**meta["config"], "workers": "1"}}))
    capsys.readouterr()
    assert run_cli("pool-dump", "--config", str(old), "--outdir", str(tmp_path / "again")) == 2
    assert "'workers'" in capsys.readouterr().err
    assert not (tmp_path / "again").exists()


def test_pool_dump_blocked_needs_dimensions(capsys, tmp_path):
    code = run_cli(
        "pool-dump", "--seed", "11", "--scheme", "blocked", "--outdir", str(tmp_path)
    )
    assert code == 2
    assert "rows_per_eval" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def test_pool_dump_rejects_unknown_scheme(capsys, tmp_path):
    code = run_cli(
        "pool-dump", "--seed", "11", "--scheme", "diagonal", "--outdir", str(tmp_path)
    )
    assert code == 2
    assert "diagonal" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def test_pool_dump_rejects_bad_alpha(capsys, tmp_path):
    code = run_cli("pool-dump", "--seed", "11", "--alpha", "2", "--outdir", str(tmp_path))
    assert code == 2
    assert "alpha" in capsys.readouterr().err


def test_pool_dump_rejects_a_nan_sigma(capsys, tmp_path):
    code = run_cli("pool-dump", "--seed", "11", "--sigma", "nan", "--outdir", str(tmp_path))
    assert code == 2
    assert "sigma" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize(
    "flag, value, message",
    [("--n", "1", "n must be at least 2, got 1"), ("--d", "0", "d must be at least 1, got 0")],
)
def test_pool_dump_names_a_bad_size(capsys, tmp_path, flag, value, message):
    outdir = tmp_path / "pool"
    code = run_cli("pool-dump", "--seed", "1", flag, value, "--outdir", str(outdir))
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not outdir.exists()


@pytest.mark.parametrize("delta", ["0", "-1", "inf", "nan"])
def test_pool_dump_names_a_bad_delta(capsys, tmp_path, delta):
    code = run_cli("pool-dump", "--seed", "11", "--delta", delta, "--outdir", str(tmp_path))
    assert code == 2
    assert capsys.readouterr().err == f"error: delta must lie in (0, inf), got {float(delta)!r}\n"
    assert not (tmp_path / "pool.csv").exists()


# sha256 of pool-dump's files at seed 0, pinned so a change to the pool
# sampler or the plan allocators that moves any byte fails here
_POOL_SHA256 = "bde3fd88abf63c4e258c2bf9cd6245ae4655abb0d5ec4402e3ac5a441863d418"


@pytest.mark.parametrize(
    "args, plan_sha256",
    [
        ((), None),
        (
            ("--scheme", "holistic"),
            "ba65d81384fbed832fa5e2166441432caf11475483309b42d1c10fde5d4aa549",
        ),
        (
            ("--scheme", "segmented"),
            "5ce2c648eeb5adf508c49a8a4e0230d10b6d73ea3981ff16c09d6ab18e7e33d9",
        ),
        (
            ("--scheme", "blocked", "--rows-per-eval", "5", "--cols-per-eval", "4"),
            "d2d530ac75b0eb6a173e76a8a7a7e05c16e7080593b57539fb0e78ac010d2e48",
        ),
    ],
    ids=["defaults", "holistic", "segmented", "blocked"],
)
def test_pool_dump_bytes_are_pinned(capsys, tmp_path, args, plan_sha256):
    assert run_cli("pool-dump", "--seed", "0", *args, "--outdir", str(tmp_path)) == 0

    def sha256(name):
        return hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()

    assert sha256("pool.csv") == _POOL_SHA256
    if plan_sha256 is None:
        assert not (tmp_path / "plan.csv").exists()
    else:
        assert sha256("plan.csv") == plan_sha256


def test_pool_dump_at_full_correlation_is_pinned(capsys, tmp_path):
    # sigma = 1 takes the copula's shortcut draw, one uniform per applicant,
    # which the default sigma = 0.5 does not reach
    assert run_cli("pool-dump", "--seed", "0", "--sigma", "1", "--outdir", str(tmp_path)) == 0
    pool = (tmp_path / "pool.csv").read_bytes()
    assert hashlib.sha256(pool).hexdigest() == (
        "4b11fb677d6c4a4daf20b626b107ff7a766f31de73b8506e8142a542dd468380"
    )


def test_pool_dump_constant_marginal_exits(tmp_path):
    done = run_cli_process("pool-dump", "--seed", "1", "--delta", "1e300", "--outdir", str(tmp_path))
    assert done.returncode == 2
    assert "delta=1e+300" in done.stderr


def test_pool_dump_rejects_indivisible_committee(capsys, tmp_path):
    code = run_cli(
        "pool-dump", "--seed", "11", "--n", "7", "--scheme", "holistic",
        "--evaluators", "2", "--outdir", str(tmp_path),
    )
    assert code == 2
    assert "divide" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


# ---------------------------------------------------------------------------
# formatting helper


def test_sig4():
    assert sig4(1.0) == "1"
    assert sig4(0.125) == "0.125"
    assert sig4(-0.0623675) == "-0.06237"
    assert sig4(12345.6) == "1.235e+04"
