"""The seed-0 benchmark operations that run the worst-case descent, against their
golden records: a change to the descent's values fails here, not only in the
benchmark.

Each operation runs in process through click's test runner and is checked by
``perfbench/checks.py`` against ``perfbench/golden.json``, both read only.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from qwrouter.cli import main

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
_spec = importlib.util.spec_from_file_location("perfbench_checks", BENCH / "checks.py")
checks = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(checks)
GOLDEN = json.loads((BENCH / "golden.json").read_text())["ops"]


@pytest.mark.parametrize("key", [
    "scan weight --n 50 --objective worst_case --t-steps 101 --param-steps 81",
    "optimize --n 20 --t0 18.4 --param0 4.70 --objective worst_case",
    "table1 --row all",
])
def test_matches_golden_record(key):
    argv = key.split()
    result = CliRunner().invoke(main, argv)
    assert result.exit_code == 0, result.output
    checks.check(argv, result.output, GOLDEN[key], np.random.default_rng(0))
