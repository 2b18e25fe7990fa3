"""What the package imports: every name is used, and start-up stays light.

No linter ships with the test environment, so this walks each module's AST:
an imported name must appear as a name in the module's code or be listed in
its ``__all__``.  Importing the CLI must not load ``scipy.integrate``, which
only the tail quadrature needs.
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


_LAZY_QUAD = """
import sys
import evalsim.cli
assert "scipy.integrate" not in sys.modules, "import evalsim.cli loaded scipy.integrate"
from evalsim.experiments.theorem import predicted_tail_above
print(repr(predicted_tail_above(100, 1.0)))
"""


def test_the_cli_imports_no_quadrature():
    # scipy.integrate costs about a third of the CLI's start-up, so it is
    # imported at its first quadrature, whose value is unchanged
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _LAZY_QUAD],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0.19904041707227738"
