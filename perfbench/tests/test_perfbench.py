"""Tests of the benchmark itself: python3 -m pytest perfbench/tests -q (about a minute)."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--seconds", "1", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout.splitlines()


def result(lines: list[str]) -> dict:
    return json.loads(lines[-1])


def op_digests(lines: list[str]) -> list[str]:
    return [field.split("=", 1)[1] for line in lines if line.startswith("# op ")
            for field in line.split() if field.startswith("sha256=")]


def child_output(tmp_path: Path, argv: list[str], trace: bool) -> bytes:
    out = run.run_op(run.Op(tuple(argv)), trace, tmp_path, "traced" if trace else "plain")
    assert out.error is None, out.error
    return out.output.read_bytes()


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_workload_emits_every_metric(workload, trace):
    code, lines = bench("--workload", workload, "--seed", "5", "--trace", trace, "--tiny")
    assert code == 0
    res = result(lines)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    wanted = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: v["unit"] for name, v in res["metrics"].items()}
    if trace == "0":
        assert all(v["value"] > 0 for v in res["metrics"].values())


@pytest.mark.parametrize("argv", [
    ["scan", "phase", "--n", "12", "--t-steps", "11", "--param-steps", "8"],
    ["noise", "vonmises", "--n", "20", "--phi", "4.712", "--t-steps", "4", "--k", "12.5"],
    ["noise", "ou", "--n", "20", "--trajectories", "50", "--t-max", "0.5", "--t-steps", "6"],
    ["optimize", "--n", "20", "--t0", "18.4", "--param0", "4.70", "--objective", "average"],
])
def test_traced_output_is_byte_identical(tmp_path, argv):
    assert child_output(tmp_path, argv, False) == child_output(tmp_path, argv, True)


def test_corrupted_golden_value_fails_the_run(tmp_path, monkeypatch, capsys):
    golden = json.loads(run.GOLDEN.read_text())
    golden["ops"]["table1 --row all"]["report"][0]["computed"] += 1e-9
    corrupted = tmp_path / "golden.json"
    corrupted.write_text(json.dumps(golden))
    monkeypatch.setattr(run, "GOLDEN", corrupted)
    code = run.main(["--workload", "design-session", "--seed", "0", "--trace", "0",
                     "--seconds", "1", "--tiny"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    res = result(lines)
    assert res["failed"] >= 1 and not res["correct"]
    assert any(line.startswith("# FAILED table1 --row all") for line in lines)


class EveryCell:
    """Stands in for the sampling generator so that the oracle checks every cell."""

    def choice(self, n, size, replace):
        return np.arange(n)


def test_oracle_rejects_a_wrong_cell(tmp_path):
    argv = ["scan", "weight", "--n", "30", "--phi", "1.3", "--t-steps", "6", "--param-steps", "5"]
    text = child_output(tmp_path, argv, False).decode()
    checks.check(argv, text, None, EveryCell())
    lines = text.splitlines()
    t, p, f, w = lines[17].split(",")
    lines[17] = f"{t},{p},{float(f) + 1e-7!r},{w}"
    with pytest.raises(checks.CheckError, match="deviation"):
        checks.check(argv, "\n".join(lines) + "\n", None, EveryCell())


def test_seed_changes_ou_output_and_not_its_work():
    runs = [bench("--workload", "ou-ensemble", "--seed", s, "--trace", "1", "--tiny")
            for s in ("1", "2")]
    assert all(code == 0 and result(lines)["correct"] for code, lines in runs)
    (_, first), (_, second) = runs
    assert op_digests(first) != op_digests(second)
    counts = [{k: v["value"] for k, v in result(lines)["metrics"].items()
               if v["unit"] == "count" or k == "noise.ou.path_bytes"} for _, lines in runs]
    assert counts[0] == counts[1]
    assert counts[0]["linalg.eigh.matrices"] == counts[0]["noise.ou.traj_steps"] == 200 * 100


def test_metrics_of_a_missing_function_are_absent(tmp_path):
    argv = ["optimize", "--n", "20", "--t0", "18.4", "--param0", "4.70", "--objective", "average"]
    traced = run.run_op(run.Op(tuple(argv)), True, tmp_path, 0)
    whole = run.pass_layers([traced])
    assert whole["search.refine.evaluations"] > 0 and whole["routing.calls_per_build"] > 0
    traced.wrapped = traced.wrapped - {"search.refine", "routing.average_fidelity"}
    traced.uncounted = frozenset({"noise.static_noise_fidelity"})
    layers = run.pass_layers([traced])
    assert not {"search.refine_s", "search.refine.evaluations", "noise.static.points_used",
                "noise.static.useful_node_frac", "routing.average_fidelity_s",
                "routing.average_fidelity.calls", "routing.calls_per_build"} & set(layers)
    assert layers["search.self_s"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    code, lines = bench("--workload", "ou-ensemble", "--seed", "1", "--trace", "0",
                        cwd=tmp_path)
    assert code != 0
    assert not any(line.startswith("{") for line in lines)
