"""Every seed-0 benchmark operation against its golden record: a change to any
recorded output fails here, not only in the benchmark.

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


@pytest.mark.parametrize("key", list(GOLDEN))
def test_matches_golden_record(key):
    argv = key.split()
    result = CliRunner().invoke(main, argv)
    assert result.exit_code == 0, result.output
    checks.check(argv, result.output, GOLDEN[key], np.random.default_rng(0))
