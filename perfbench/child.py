"""Run one qwrouter CLI operation in this process, as the installed console script does.

Usage: python3 perfbench/child.py META_FILE TRACE(0|1) CLI-ARGS...

The console script ``qwrouter`` imports ``qwrouter.cli`` and calls ``main``;
this runner does the same and records, in META_FILE, the monotonic time at
which the import finished and the command was about to run.  With TRACE=1 it
also wraps, from outside, every public module-level function of every
``qwrouter.*`` module at each place it is bound, plus ``numpy.linalg.eigh`` and
``numpy.linalg.eigvalsh``, and writes the recorded spans to META_FILE when the
command ends.  Standard output is the command's own output, byte for byte.
"""

from __future__ import annotations

import json
import sys
import time


def _install_tracer(spans: list, stack: list, uncounted: set) -> list[str]:
    """Wrap public qwrouter functions and the numpy eigensolvers with span recorders.

    A span is ``[name, layer, start, end, parent_index, extra]``; ``extra`` holds
    the work counts read from public arguments and results.  Returns the
    names of the wrapped functions; a function whose counts cannot be read is
    added to ``uncounted``.
    """
    import inspect
    import math

    import numpy as np

    def counts_scan(args, kwargs, result):
        return {"cells": int(np.size(result.values))}

    def counts_refine(args, kwargs, result):
        return {"evaluations": int(result.evaluations)}

    def counts_static(args, kwargs, result):
        return {"points_used": int(result.points_used), "converged": bool(result.converged)}

    def counts_ou(fn):
        signature = inspect.signature(fn)

        def counts(args, kwargs, result):
            bound = signature.bind(*args, **kwargs)
            spec = bound.arguments["spec"]
            steps = int(round(float(bound.arguments["t_max"]) / spec.dt))
            trajectories = int(spec.trajectories)
            # Computed, not measured: the (trajectories, steps) float64 noise and path arrays.
            return {"traj_steps": trajectories * steps,
                    "path_bytes": 2 * 8 * trajectories * steps}

        return counts

    def counts_linalg(args, kwargs, result):
        shape = np.shape(args[0] if args else kwargs["a"])
        return {"matrices": int(math.prod(shape[:-2]))}

    def wrap(fn, name, layer, counter):
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, layer, time.perf_counter(), None, stack[-1] if stack else None, None]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            if counter is not None:
                try:
                    span[5] = counter(args, kwargs, result)
                except (AttributeError, KeyError, TypeError, ValueError):
                    uncounted.add(name)  # a renamed field makes its count absent
            return result

        traced.__wrapped__ = fn
        traced.__name__ = name
        return traced

    modules = {name: mod for name, mod in sys.modules.items()
               if mod is not None and (name == "qwrouter" or name.startswith("qwrouter."))}
    wrappers = {}
    for modname, mod in modules.items():
        layer = modname.rpartition(".")[2]
        for attr, obj in list(vars(mod).items()):
            if (attr.startswith("_") or not inspect.isfunction(obj)
                    or obj.__module__ != modname or id(obj) in wrappers):
                continue
            name = f"{layer}.{attr}"
            counter = {
                "search.scan": counts_scan,
                "search.refine": counts_refine,
                "noise.static_noise_fidelity": counts_static,
            }.get(name)
            if name == "noise.ou_fidelity_curve":
                counter = counts_ou(obj)
            wrappers[id(obj)] = wrap(obj, name, layer, counter)
    for mod in modules.values():
        for attr, obj in list(vars(mod).items()):
            if id(obj) in wrappers:
                setattr(mod, attr, wrappers[id(obj)])
    for attr in ("eigh", "eigvalsh"):
        setattr(np.linalg, attr, wrap(getattr(np.linalg, attr), f"linalg.{attr}", "linalg",
                                      counts_linalg))
    return sorted(w.__name__ for w in wrappers.values()) + ["linalg.eigh", "linalg.eigvalsh"]


def _peak_rss_kb() -> int | None:
    """Peak resident set of this process image (``VmHWM``).

    ``ru_maxrss`` is not used: a child spawned by vfork and exec inherits the
    parent's peak in it.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return None


def main() -> int:
    meta_path, trace, cli_args = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    import qwrouter.cli

    meta = {"ready": time.monotonic()}
    spans: list = []
    stack: list = []
    uncounted: set = set()
    if trace:
        meta["wrapped"] = _install_tracer(spans, stack, uncounted)
        spans.append(["cli.command", "cli", time.perf_counter(), None, None, None])
        stack.append(0)
    code = 0
    try:
        qwrouter.cli.main(args=cli_args, prog_name="qwrouter")
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    finally:
        sys.stdout.flush()
        if trace:
            spans[0][3] = time.perf_counter()
            meta["spans"] = spans
            meta["uncounted"] = sorted(uncounted)
        meta["peak_rss_kb"] = _peak_rss_kb()
        with open(meta_path, "w", encoding="utf-8") as fh:
            json.dump(meta, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
