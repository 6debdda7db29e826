#!/usr/bin/env python3
"""Benchmark of the qwrouter command line, one fresh process per operation.

Usage (from the repository root):

    python3 perfbench/run.py --workload surface-export --seed 0 --seconds 30 --trace 0

Each workload is a fixed list of CLI operations run one after another by one
client (closed loop, one operation at a time).  Passes over the list repeat
while the next one fits in ``--seconds`` of operation time.  Every output is
checked (see ``checks.py``).  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``; with
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones from spans recorded inside each traced child (``child.py``).
Lines before it start with ``#`` and record the machine and each operation.
See README.md for the workloads, the metrics and what each should move.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import importlib.metadata
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
GOLDEN = HERE / "golden.json"
WORK = ROOT / ".perfbench_tmp"

DEFAULT_SEED = 0  # runs exactly the operations whose outputs golden.json records
OP_TIMEOUT_S = 60.0
IMPORT_PROBES = 3
PACKAGES = ("numpy", "scipy", "click", "qwrouter")
WORKLOADS = ("surface-export", "design-session", "ou-ensemble")


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    work: int = 0  # surface cells or trajectory-steps; 0 for operations outside work_per_s

    @property
    def key(self) -> str:
        return " ".join(self.argv)


def _scan(kind: str, n: int, extra: list[str], t_steps: int, param_steps: int) -> Op:
    argv = ["scan", kind, "--n", str(n), *extra]
    return Op(tuple(argv), t_steps * param_steps)


def workload_ops(name: str, seed: int, tiny: bool = False) -> list[Op]:
    """The workload's operations.  The seed varies only inputs that leave the work unchanged."""
    rng = None if seed == DEFAULT_SEED else np.random.default_rng(abs(seed))

    def pick_n(lo: int, hi: int, default: int) -> int:
        return default if rng is None else int(rng.integers(lo, hi + 1))

    def pick(lo: float, hi: float) -> str:
        return f"{rng.uniform(lo, hi):.4f}"

    if name == "surface-export":
        size = ["--t-steps", "21", "--param-steps", "16"] if tiny else []
        t, p = (21, 16) if tiny else (501, 256)
        phase = [] if rng is None else ["--beta", pick(0.8, 1.2)]
        weight = [] if rng is None else ["--phi", pick(0.0, 2 * math.pi)]
        return [
            _scan("phase", pick_n(20, 50, 40), ["--t-max", "50", *phase, *size], t, p),
            _scan("weight", pick_n(20, 50, 50), [*weight, *size], t, 16 if tiny else 401),
            Op(("verify-reduction", "--n-max", "6" if tiny else "24",
                "--trials", "3" if tiny else "20")),
        ]
    if name == "design-session":
        t, p = (6, 5) if tiny else (101, 81)
        size = ["--t-steps", str(t), "--param-steps", str(p)]
        fixed = [] if rng is None else ["--phi", pick(0.0, 0.5)]
        noise = ["--phi", "4.712" if rng is None else pick(4.6, 4.8)]
        if rng is not None:
            noise += ["--alpha", pick(0.5, 0.9), "--chi", pick(0.0, 2 * math.pi)]
        if tiny:
            noise += ["--t-steps", "6"]
        vm_n = pick_n(16, 24, 20)
        return [
            _scan("weight", pick_n(30, 50, 50), ["--objective", "worst_case", *fixed, *size], t, p),
            _scan("weight", pick_n(30, 50, 50), ["--objective", "average", *fixed, *size], t, p),
            Op(("optimize", "--n", str(pick_n(16, 24, 20)), "--t0", "18.4", "--param0", "4.70",
                "--objective", "worst_case")),
            Op(("table1", "--row", "all")),
            Op(("noise", "vonmises", "--n", str(vm_n), *noise, "--t-max", "25", "--k", "12.5")),
            Op(("noise", "vonmises", "--n", str(vm_n), *noise, "--t-max", "25", "--k", "1000")),
        ]
    if name == "ou-ensemble":
        trajectories, t_max = (200, 1) if tiny else (2000, 5)
        argv = ["noise", "ou", "--n", "20", "--phi", "4.712", "--sigma", "0.4",
                "--trajectories", str(trajectories),
                "--seed", "777" if rng is None else str(abs(seed)), "--t-max", str(t_max)]
        if tiny:
            argv += ["--t-steps", "21"]
        return [Op(tuple(argv), trajectories * round(t_max / 0.01))]
    raise ValueError(f"unknown workload {name!r}")


# ------------------------------------------------------------- processes ---

@dataclass
class OpRun:
    op: Op
    wall_s: float
    setup_s: float | None
    rss_mb: float | None
    output: Path
    spans: list | None
    wrapped: frozenset = frozenset()  # traced function names
    uncounted: frozenset = frozenset()  # traced functions whose counts could not be read
    error: str | None = None
    digest: str = ""
    size: int = 0


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _spawn_and_wait(cmd: list[str], stdout: Path, stderr: Path) -> tuple[float, float, int]:
    """Run ``cmd``; return (spawn time, exit time, exit code)."""
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=_child_env(), cwd=ROOT)
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status = os.waitpid(proc.pid, 0)
        finally:
            end = time.monotonic()
            timer.cancel()
            timer.join()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return start, end, proc.returncode


def run_op(op: Op, traced: bool, workdir: Path, index: int | str) -> OpRun:
    out, err, meta_path = (workdir / f"{index}.{ext}" for ext in ("out", "err", "meta"))
    cmd = [sys.executable, str(CHILD), str(meta_path), "1" if traced else "0", *op.argv]
    start, end, code = _spawn_and_wait(cmd, out, err)
    setup, rss, meta, error = None, None, {}, None
    try:
        meta = json.loads(meta_path.read_text())
        setup, rss = meta["ready"] - start, meta["peak_rss_kb"] / 1024.0
    except (OSError, ValueError, KeyError, TypeError):
        error = "child wrote no timing record"
    if end - start >= OP_TIMEOUT_S:
        error = f"timed out after {OP_TIMEOUT_S:.0f} s"
    elif code != 0:
        error = f"exit code {code}: {err.read_text(errors='replace')[-500:]!r}"
    return OpRun(op, end - start, setup, rss, out, meta.get("spans"),
                 frozenset(meta.get("wrapped", ())), frozenset(meta.get("uncounted", ())), error)


def import_probe(workdir: Path) -> dict[str, float]:
    """Self import time per top-level package from ``python -X importtime``."""
    out, err = workdir / "probe.out", workdir / "probe.err"
    _, _, code = _spawn_and_wait(
        [sys.executable, "-X", "importtime", "-c", "import qwrouter.cli"], out, err)
    totals = dict.fromkeys(PACKAGES, 0.0)
    if code != 0:
        return totals
    for line in err.read_text().splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue
        top = fields[2].strip().split(".")[0]
        if top in totals:
            totals[top] += int(fields[0]) / 1e6
    return totals


# ------------------------------------------------------------ checking ---

class Verifier:
    """Checks each distinct output once; later runs of an op must repeat it byte for byte."""

    def __init__(self, seed: int):
        self.rng = np.random.default_rng([abs(seed), 0x9E3779B9])
        self.golden = json.loads(GOLDEN.read_text())["ops"]
        self.ou_reference = next(
            (key.split(), entry["curve"]) for key, entry in self.golden.items()
            if key.startswith("noise ou "))
        self.first_digest: dict[str, str] = {}
        self.checked: set[str] = set()

    def verify(self, run: OpRun) -> None:
        data = run.output.read_bytes()
        run.digest, run.size = hashlib.sha256(data).hexdigest(), len(data)
        if run.error is not None:
            return
        first = self.first_digest.setdefault(run.op.key, run.digest)
        if first != run.digest:
            run.error = "output differs from the first run of the same operation"
            return
        if run.digest in self.checked:
            return
        try:
            checks.check(list(run.op.argv), data.decode("utf-8"),
                         self.golden.get(run.op.key), self.rng, self.ou_reference)
        except (checks.CheckError, UnicodeDecodeError) as exc:
            run.error = f"check failed: {exc}"
            return
        self.checked.add(run.digest)


# ------------------------------------------------------------- metrics ---

def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def end_to_end(ops: list[Op], passes: list[list[OpRun]]) -> dict[str, tuple[float, str]]:
    per_op = [[p[i] for p in passes] for i in range(len(ops))]
    medians = [_median(r.wall_s for r in runs) for runs in per_op]
    work = sum(op.work for op in ops)
    work_wall = sum(m for op, m in zip(ops, medians) if op.work)
    return {
        "wall_s": (sum(medians), "s"),
        "setup_s": (_median(r.setup_s for p in passes for r in p), "s"),
        "peak_rss_mb": (max((r.rss_mb for p in passes for r in p if r.rss_mb), default=None),
                        "MB"),
        "work_per_s": (work / work_wall, "1/s"),
    }


LAYER_METRICS = {
    # name: unit; times are medians over traced passes, counts are per pass
    **{f"setup.{pkg}_s": "s" for pkg in PACKAGES},
    "cli.self_s": "s", "cli.output_bytes": "bytes",
    "search.self_s": "s", "search.scan_s": "s", "search.scan.cells": "count",
    "search.refine_s": "s", "search.refine.evaluations": "count",
    "routing.self_s": "s",
    "routing.min_fidelity_s": "s", "routing.min_fidelity.calls": "count",
    "routing.average_fidelity_s": "s", "routing.average_fidelity.calls": "count",
    "routing.u_element_curve_s": "s", "routing.u_element_curve.calls": "count",
    "routing.calls_per_build": "ratio",
    "hamiltonian.self_s": "s",
    "hamiltonian.build_reduced_hamiltonian_s": "s",
    "hamiltonian.build_reduced_hamiltonian.calls": "count",
    "hamiltonian.build_full_hamiltonian_s": "s",
    "dynamics.self_s": "s", "dynamics.evolve_s": "s", "dynamics.evolve.calls": "count",
    "noise.self_s": "s",
    "noise.static_noise_fidelity_s": "s", "noise.static_noise_fidelity.calls": "count",
    "noise.static.points_used": "count", "noise.static.unconverged": "count",
    "noise.static.useful_node_frac": "fraction",
    "noise.ou_fidelity_curve_s": "s", "noise.ou.traj_steps": "count",
    "noise.ou.non_eigh_s": "s", "noise.ou.path_bytes": "bytes",
    "linalg.eigh.calls": "count", "linalg.eigh.matrices": "count", "linalg.eigh_s": "s",
    "linalg.eigvalsh.calls": "count", "linalg.eigvalsh_s": "s",
    "trace.overhead_frac": "fraction",
}
_SPAN_TOTALS = {  # span name -> (time metric, call-count metric)
    "search.scan": ("search.scan_s", None),
    "search.refine": ("search.refine_s", None),
    "routing.min_fidelity": ("routing.min_fidelity_s", "routing.min_fidelity.calls"),
    "routing.average_fidelity": ("routing.average_fidelity_s", "routing.average_fidelity.calls"),
    "routing.u_element_curve": ("routing.u_element_curve_s", "routing.u_element_curve.calls"),
    "hamiltonian.build_reduced_hamiltonian": ("hamiltonian.build_reduced_hamiltonian_s",
                                              "hamiltonian.build_reduced_hamiltonian.calls"),
    "hamiltonian.build_full_hamiltonian": ("hamiltonian.build_full_hamiltonian_s", None),
    "dynamics.evolve": ("dynamics.evolve_s", "dynamics.evolve.calls"),
    "noise.static_noise_fidelity": ("noise.static_noise_fidelity_s",
                                    "noise.static_noise_fidelity.calls"),
    "noise.ou_fidelity_curve": ("noise.ou_fidelity_curve_s", None),
    "linalg.eigh": ("linalg.eigh_s", "linalg.eigh.calls"),
    "linalg.eigvalsh": ("linalg.eigvalsh_s", "linalg.eigvalsh.calls"),
}
_SPAN_COUNTS = {  # (span name, count key) -> metric summed over spans
    ("search.scan", "cells"): "search.scan.cells",
    ("search.refine", "evaluations"): "search.refine.evaluations",
    ("noise.static_noise_fidelity", "points_used"): "noise.static.points_used",
    ("noise.ou_fidelity_curve", "traj_steps"): "noise.ou.traj_steps",
    ("noise.ou_fidelity_curve", "path_bytes"): "noise.ou.path_bytes",
    ("linalg.eigh", "matrices"): "linalg.eigh.matrices",
}
# The routing statistics that read the memoized spectrum of the reduced Hamiltonian.
_SPECTRUM_READERS = ("routing.min_fidelity", "routing.average_fidelity",
                     "routing.u_element_curve")
_LAYERS = ("cli", "search", "routing", "hamiltonian", "dynamics", "noise")


def pass_layers(runs: list[OpRun]) -> dict[str, float]:
    """Per-layer totals of one traced pass, from the spans of its operations."""
    m = {name: 0.0 for name in LAYER_METRICS if not name.startswith(("setup.", "trace."))}
    static_matrices = 0
    ou_eigh_s = 0.0
    for run in runs:
        m["cli.output_bytes"] += run.size
        spans = run.spans or []
        root_end = spans[0][3] if spans else 0.0
        covered = [0.0] * len(spans)
        enclosing = [None] * len(spans)  # nearest enclosing static-noise or OU span
        for i, (name, layer, start, end, parent, extra) in enumerate(spans):
            end = root_end if end is None else end
            if parent is not None:
                covered[parent] += end - start
                enclosing[i] = (parent if spans[parent][0] in
                                ("noise.static_noise_fidelity", "noise.ou_fidelity_curve")
                                else enclosing[parent])
        for i, (name, layer, start, end, parent, extra) in enumerate(spans):
            duration = (root_end if end is None else end) - start
            if layer in _LAYERS:
                m[f"{layer}.self_s"] += duration - covered[i]
            time_metric, calls_metric = _SPAN_TOTALS.get(name, (None, None))
            if time_metric and (parent is None or spans[parent][0] != name):
                m[time_metric] += duration
            if calls_metric:
                m[calls_metric] += 1
            for key, value in (extra or {}).items():
                metric = _SPAN_COUNTS.get((name, key))
                if metric:
                    m[metric] += value
            if name == "noise.static_noise_fidelity" and extra and not extra.get("converged"):
                m["noise.static.unconverged"] += 1
            if name == "linalg.eigh" and enclosing[i] is not None:
                if spans[enclosing[i]][0] == "noise.ou_fidelity_curve":
                    ou_eigh_s += duration
                else:
                    static_matrices += (extra or {}).get("matrices", 0)
    m["noise.static.useful_node_frac"] = (
        m["noise.static.points_used"] / static_matrices if static_matrices else 0.0)
    m["noise.ou.non_eigh_s"] = m["noise.ou_fidelity_curve_s"] - ou_eigh_s
    builds = m["hamiltonian.build_reduced_hamiltonian.calls"]
    m["routing.calls_per_build"] = (
        sum(m[f"{name}.calls"] for name in _SPECTRUM_READERS) / builds if builds else 0.0)
    # A function that no longer exists, or whose counts could not be read, has no metrics.
    wrapped = frozenset().union(*(r.wrapped for r in runs))
    counted = wrapped - frozenset().union(*(r.uncounted for r in runs))
    absent = {metric for name, pair in _SPAN_TOTALS.items() if name not in wrapped
              for metric in pair}
    absent |= {metric for (name, _), metric in _SPAN_COUNTS.items() if name not in counted}
    if "noise.static_noise_fidelity" not in counted:
        absent |= {"noise.static.unconverged", "noise.static.useful_node_frac"}
    if not {"noise.ou_fidelity_curve", "linalg.eigh"} <= wrapped:
        absent.add("noise.ou.non_eigh_s")
    if not {*_SPECTRUM_READERS, "hamiltonian.build_reduced_hamiltonian"} <= wrapped:
        absent.add("routing.calls_per_build")
    return {name: value for name, value in m.items() if name not in absent}


def per_layer(ops, plain: list[list[OpRun]], traced: list[list[OpRun]],
              probes: list[dict[str, float]]) -> dict[str, tuple[float, str]]:
    totals = [pass_layers(p) for p in traced]
    names = set(totals[0]).intersection(*totals)
    out = {name: (_median(t[name] for t in totals), unit)
           for name, unit in LAYER_METRICS.items() if name in names}
    for pkg in PACKAGES:
        out[f"setup.{pkg}_s"] = (_median(p[pkg] for p in probes), "s")
    overhead = end_to_end(ops, traced)["wall_s"][0] / end_to_end(ops, plain)["wall_s"][0] - 1.0
    out["trace.overhead_frac"] = (overhead, "fraction")
    return out


# ------------------------------------------------------------- machine ---

def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def steal_ticks() -> int | None:
    for line in _read("/proc/stat").splitlines():
        fields = line.split()
        if fields and fields[0] == "cpu" and len(fields) > 8:
            return int(fields[8])
    return None


def _openblas() -> dict:
    """Build and thread count of the OpenBLAS that numpy loaded into this process."""
    info = {"threads_env": os.environ.get("OPENBLAS_NUM_THREADS")}
    libs = {line.split()[-1] for line in _read("/proc/self/maps").splitlines()
            if "openblas" in line.lower() and line.split()[-1].startswith("/")}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                config = getattr(lib, f"{prefix}get_config{suffix}", None)
                threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                if config is not None and threads is not None:
                    config.restype, threads.restype = ctypes.c_char_p, ctypes.c_int
                    info.update(config=config().decode(), threads=threads())
                    return info
    return info


def machine() -> dict:
    cpuinfo = _read("/proc/cpuinfo")
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                  if line.startswith("model name")), None)
    meminfo = next((line.split(":", 1)[1].strip() for line in _read("/proc/meminfo").splitlines()
                    if line.startswith("MemTotal")), None)
    caches = {}
    for index in range(5):
        base = f"/sys/devices/system/cpu/cpu0/cache/index{index}"
        level, kind = _read(f"{base}/level").strip(), _read(f"{base}/type").strip()
        if level in ("2", "3") and kind != "Instruction":
            caches[f"L{level}"] = _read(f"{base}/size").strip()
    versions = {"python": sys.version.split()[0]}
    for pkg in ("numpy", "scipy", "click"):
        try:
            versions[pkg] = importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            versions[pkg] = None
    commit = dirty = None
    if (ROOT / ".git").exists():
        git = lambda *a: subprocess.run(["git", *a], cwd=ROOT, capture_output=True, text=True)
        commit = git("rev-parse", "HEAD").stdout.strip() or None
        dirty = bool(git("status", "--porcelain").stdout.strip())
    return {"cpu": model, "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "caches": caches, "mem_total": meminfo, "versions": versions,
            "openblas": _openblas(), "commit": commit, "dirty": dirty}


# ----------------------------------------------------------------- main ---

def measure(ops: list[Op], seconds: float, trace: bool, verifier: Verifier, workdir: Path):
    """Run passes within ``seconds`` of operation time; in trace mode alternate untraced
    and traced passes.  Returns (untraced passes, traced passes)."""
    plain, traced = [], []
    measured, count = 0.0, 0
    while True:
        is_traced = trace and count % 2 == 1
        passdir = workdir / f"pass{count}"
        passdir.mkdir()
        runs = [run_op(op, is_traced, passdir, i) for i, op in enumerate(ops)]
        measured += sum(r.wall_s for r in runs)
        for run in runs:
            verifier.verify(run)
        shutil.rmtree(passdir)
        (traced if is_traced else plain).append(runs)
        count += 1
        # Stop before a pass that would overrun ``seconds``, once each kind has run.
        if measured * (count + 1) / count > seconds and plain and (traced or not trace):
            return plain, traced


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every operation (for the benchmark's own tests)")
    args = parser.parse_args(argv)
    if not (SRC / "qwrouter" / "cli.py").is_file():
        print(f"error: {SRC / 'qwrouter' / 'cli.py'} not found; run from a qwrouter checkout",
              file=sys.stderr)
        return 2
    if not GOLDEN.is_file():
        print(f"error: golden file {GOLDEN} not found", file=sys.stderr)
        return 2
    ops = workload_ops(args.workload, args.seed, args.tiny)
    verifier = Verifier(args.seed)
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} tiny={args.tiny}")
    print(f"# machine {json.dumps(machine(), sort_keys=True)}")
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    steal0 = steal_ticks()
    try:
        run_op(Op(("--help",)), False, workdir, -1)  # compile bytecode, warm the file cache
        probes = [import_probe(workdir) for _ in range(IMPORT_PROBES if args.trace else 0)]
        plain, traced = measure(ops, args.seconds, bool(args.trace), verifier, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run is using it
    steal1 = steal_ticks()

    runs = [r for p in plain + traced for r in p]
    failed = [r for r in runs if r.error is not None]
    for r in failed:
        print(f"# FAILED {r.op.key}: {r.error}")
    for i, op in enumerate(ops):
        mine = [p[i] for p in plain]
        print(f"# op {i} passes={len(mine)} wall_median_s={_median(r.wall_s for r in mine):.4f} "
              f"setup_median_s={_median(r.setup_s for r in mine) or 0:.4f} "
              f"rss_mb={max((r.rss_mb or 0) for r in mine):.1f} bytes={mine[0].size} "
              f"walls_s={','.join(f'{r.wall_s:.3f}' for r in mine)} "
              f"sha256={mine[0].digest[:16]} work={op.work} argv={op.key}")
    print(f"# steal_ticks_delta={None if None in (steal0, steal1) else steal1 - steal0}")
    metrics = (per_layer(ops, plain, traced, probes) if args.trace
               else end_to_end(ops, plain))
    for name, (value, unit) in metrics.items():
        print(f"# metric {name} = {value} {unit}")
    result = {
        "correct": not failed,
        "attempted": len(runs),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items() if value is not None},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
