#!/usr/bin/env python3
"""Record the golden outputs that default-seed runs are compared with.

Usage (from the repository root): python3 perfbench/record_golden.py

Runs every operation of every workload at the default seed once, through the
same child runner as the benchmark, and writes perfbench/golden.json.  Record
only at a commit whose outputs are known to be right.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import checks
import run


def main() -> int:
    golden = {}
    workdir = Path(tempfile.mkdtemp(prefix="golden-", dir=run.ROOT))
    try:
        for name in run.WORKLOADS:
            for i, op in enumerate(run.workload_ops(name, run.DEFAULT_SEED)):
                result = run.run_op(op, False, workdir, i)
                if result.error:
                    print(f"{op.key}: {result.error}", file=sys.stderr)
                    return 1
                golden[op.key] = checks.summarize(list(op.argv), result.output.read_text())
    finally:
        shutil.rmtree(workdir)
    commit = run.machine()["commit"]
    run.GOLDEN.write_text(json.dumps({"recorded_at": commit, "ops": golden}, indent=1) + "\n")
    print(f"wrote {len(golden)} golden records to {run.GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
