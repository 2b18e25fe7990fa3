"""What the package imports: every name is used, and start-up stays light.

No linter ships with the test environment, so this walks each module's AST:
an imported name must appear as a name in the module's code or be listed in
its ``__all__``.  SciPy is loaded only for the Gaussian copula's normal CDF:
importing the CLI, calibration and the theorem checks load none of it, and
the pooled copula drivers load ``scipy.special`` in the parent, before a
pool forks, and only when some point has ``0 < sigma < 1``.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGE = SRC / "evalsim"
MODULES = sorted(PACKAGE.rglob("*.py"))


def _imported(tree) -> set:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def _exported(tree) -> set:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert _imported(tree) - used - _exported(tree) == set()


def _fresh_python(code: str, *args: str) -> str:
    """Run ``code`` in a fresh interpreter that imports this checkout; return its stdout.

    ``args`` become the interpreter's ``sys.argv[1:]``.
    """
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


_NUMPY_ONLY = """
import sys
import evalsim.cli
from evalsim.experiments.calibration import run_calibration_sweep
from evalsim.experiments.theorem import (
    predicted_tail_above, run_formula_check, run_tail_check, run_threshold_check,
)
run_calibration_sweep(n_values=(5, 10), runs=20, seed=1)
run_formula_check(n_values=(2, 20), delta_values=(1.0,), runs=20, seed=1)
run_threshold_check(delta_values=(0.3, 0.9), n=20, runs=20, seed=1)
run_tail_check(delta_values=(1.0,), n_per_group=10, pools=20, seed=1)
loaded = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
assert not loaded, f"loaded {loaded}"
print(repr(predicted_tail_above(100, 1.0)))
"""


def test_the_cli_calibration_and_theorem_load_no_scipy():
    # importing scipy.special is most of the CLI's start-up, and only the
    # copula's ndtr needs it; the tail rule is numpy's Gauss-Laguerre
    assert _fresh_python(_NUMPY_ONLY) == "0.1990404170722907"


_EXTREME_CORRELATIONS = """
import sys
import evalsim.cli
outdir = sys.argv[1]
for argv in (
    ["bias-grid", "--runs", "40", "--axis1", "delta=1", "--axis2", "sigma=0,1"],
    ["efficiency", "--runs", "40", "--n", "10", "--sigma", "0,1"],
    ["pool-dump", "--sigma", "1"],
):
    assert evalsim.cli.main([*argv, "--seed", "1", "--outdir", f"{outdir}/{argv[0]}"]) == 0
loaded = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
assert not loaded, f"loaded {loaded}"
"""


def test_copula_commands_at_extreme_correlations_load_no_scipy(tmp_path):
    # sigma 0 and 1 draw their uniforms directly, so only 0 < sigma < 1
    # needs the copula's ndtr
    _fresh_python(_EXTREME_CORRELATIONS, str(tmp_path))


_POOL_SEES_SCIPY = """
import os
import sys
from evalsim.experiments import parallel
from evalsim.experiments.bias import run_bias_grid
from evalsim.experiments.efficiency import run_efficiency_sweep
from evalsim.experiments.results import GridSpec

class RecordingPool:
    # records whether the parent has scipy.special when a pool would fork;
    # maps serially and starts no process
    def __init__(self, max_workers, initializer=None):
        print("scipy.special" in sys.modules)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks, chunksize=1):
        return map(fn, tasks)

parallel.ProcessPoolExecutor = RecordingPool
os.sched_getaffinity = lambda pid: {0, 1}
assert "scipy.special" not in sys.modules
if DRIVER == "bias":
    grid = GridSpec(axes=(("delta", (1.0,)), ("sigma", (0.0, 0.5))), fixed={"n": 6, "d": 4}, runs=40)
    run_bias_grid(grid, seed=1, workers=2)
else:
    run_efficiency_sweep((0.5,), (0.0, 0.5), n=10, runs=40, seed=1, workers=2)
"""


@pytest.mark.parametrize("driver", ["bias", "efficiency"])
def test_pooled_copula_drivers_load_ndtr_before_forking(driver):
    # forked workers inherit the parent's modules; a worker that imported
    # scipy.special itself would pay for it again in every pool
    assert _fresh_python(f"DRIVER = {driver!r}\n" + _POOL_SEES_SCIPY) == "True"
