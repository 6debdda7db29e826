"""What importing the package loads, checked in fresh interpreters, and what its
modules import and define, checked on their syntax trees.

scipy is never loaded: the static-noise quadrature weights its nodes by the
bare von Mises kernel, so no Bessel function is evaluated.
``numpy.polynomial`` is not imported at all: the static-noise quadrature
builds its Gauss–Legendre rules itself.  orjson, the scan's CSV cell
formatter, is loaded by ``scan`` only.  No module imports a name it does not
read, and no module defines a private top-level name that no module reads.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import qwrouter
from qwrouter.cli import main

SRC = str(Path(qwrouter.__file__).resolve().parents[1])
VONMISES_ARGS = ["noise", "vonmises", "--n", "20", "--phi", "4.712", "--k", "12.5",
                 "--t-max", "18.55", "--t-steps", "3"]


# Runs the CLI with the arguments after ``-c``, then prints whether orjson was loaded.
PROBE_ORJSON = ("import runpy, sys; sys.argv = ['qwrouter', *sys.argv[1:]]\n"
                "try:\n    runpy.run_module('qwrouter.cli', run_name='__main__')\n"
                "finally:\n    print('orjson' in sys.modules)")


def run_fresh(args: list[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, timeout=120, check=False)


@pytest.mark.parametrize("module", ["qwrouter", "qwrouter.cli"])
def test_import_skips_scipy_and_numpy_polynomial(module):
    probe = (f"import sys, json; import {module}; "
             "print(json.dumps(sorted(m for m in sys.modules "
             "if m.split('.')[0] == 'scipy' or m.startswith('numpy.polynomial'))))")
    result = run_fresh(["-c", probe])
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == []


def test_vonmises_never_loads_scipy():
    # The CLI run ends by printing whether any scipy module was loaded.
    probe_cli = ("import runpy, sys; sys.argv = ['qwrouter', *sys.argv[1:]]\n"
                 "try:\n    runpy.run_module('qwrouter.cli', run_name='__main__')\n"
                 "finally:\n"
                 "    print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    cli = run_fresh(["-c", probe_cli, *VONMISES_ARGS])
    assert cli.returncode == 0, cli.stderr
    *rows, loaded_by_cli = cli.stdout.strip().split("\n")
    assert loaded_by_cli == "[]"
    in_process = CliRunner().invoke(main, VONMISES_ARGS)
    assert in_process.exit_code == 0
    assert "\n".join(rows) + "\n" == in_process.stdout
    assert len(rows) == 1 + 3


@pytest.mark.parametrize("args, loads", [
    (["-c", "import sys, qwrouter; print('orjson' in sys.modules)"], False),
    (["-c", "import sys, qwrouter.cli; print('orjson' in sys.modules)"], False),
    (["-c", PROBE_ORJSON, "table1", "--row", "20"], False),
    (["-c", PROBE_ORJSON, *VONMISES_ARGS], False),
    (["-c", PROBE_ORJSON, "noise", "ou", "--n", "5", "--trajectories", "4", "--t-max", "0.1",
      "--t-steps", "3"], False),
    (["-c", PROBE_ORJSON, "scan", "phase", "--n", "5", "--t-steps", "3", "--param-steps", "2"],
     True),
], ids=["import", "import-cli", "table1", "vonmises", "ou", "scan"])
def test_only_scan_loads_orjson(args, loads):
    result = run_fresh(args)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip().split("\n")[-1] == str(loads)


def package_trees() -> dict[str, ast.Module]:
    """The syntax tree of each module of the package, by module name."""
    package = Path(qwrouter.__file__).resolve().parent
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(package.glob("*.py"))}


def read_names(tree: ast.Module) -> set[str]:
    """The names a module reads: bare names in a load and attribute names."""
    return {node.id if isinstance(node, ast.Name) else node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            or isinstance(node, ast.Attribute)}


def test_no_module_imports_a_name_it_does_not_read():
    # A lint guard: no linter is a dependency, so this is the unused-import check.
    unused = []
    for module, tree in package_trees().items():
        read = read_names(tree)
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or (
                    isinstance(node, ast.ImportFrom) and node.module == "__future__"):
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.partition(".")[0]
                if alias.name != "*" and bound not in read:
                    unused.append(f"{module}: {bound}")
    assert unused == []


def test_every_private_top_level_name_is_read():
    # A private function, class or constant that no module reads is dead code, such as
    # a deletion leaves behind.
    trees = package_trees()
    read = set().union(*map(read_names, trees.values()))
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            unread += [f"{module}: {name}" for name in names
                       if name.startswith("_") and not name.startswith("__") and name not in read]
    assert unread == []
