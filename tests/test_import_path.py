"""What importing the package loads, checked in fresh interpreters.

scipy is never loaded: the von Mises normalization is Cephes' Chebyshev
series for ``i0``/``i0e``.  ``numpy.polynomial`` (Gauss–Legendre nodes) is
imported inside the function that uses it, so that every CLI op that never
touches static noise skips its import.
"""

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

    probe = """
import json, sys
import numpy as np
from qwrouter import bessel_i0, von_mises_pdf
ks = [0.0, 0.5, 8.0, float(np.nextafter(8.0, np.inf)), 12.5, 700.0, 709.78, 709.79, 713.0,
      1000.0, 1e12]
eps = np.linspace(-np.pi, np.pi, 33)
i0 = [bessel_i0(k).hex() for k in ks]
pdf = [von_mises_pdf(eps, k).tobytes().hex() for k in ks]
pdf0 = [von_mises_pdf(0.25, k).hex() for k in ks]
loaded = any(m.split(".")[0] == "scipy" for m in sys.modules)
from scipy import special
ref_i0 = [float(special.i0(k)).hex() for k in ks]
ref_pdf = [(np.exp(k * (np.cos(eps) - 1.0)) / (2.0 * np.pi * special.i0e(k))).tobytes().hex()
           for k in ks]
ref_pdf0 = [float(np.exp(k * (np.cos(0.25) - 1.0)) / (2.0 * np.pi * special.i0e(k))).hex()
            for k in ks]
print(json.dumps([loaded, i0 == ref_i0, pdf == ref_pdf, pdf0 == ref_pdf0]))
"""
    result = run_fresh(["-c", probe])
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == [False, True, True, True]
