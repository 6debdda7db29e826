"""Parameter scans over (t, phase) / (t, weight), peak reports, and local refinement."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .hamiltonian import RouterParams
from .routing import (
    SuperpositionGrid,
    _descend,
    average_fidelity,
    min_fidelity,
    transition_probability,
)

__all__ = [
    "ScanGrid",
    "ScanSurface",
    "PeakReport",
    "RefineResult",
    "scan",
    "find_peaks",
    "refine",
]

_KINDS = ("phase", "weight")
_OBJECTIVES = ("localized", "average", "worst_case")


@dataclass(frozen=True)
class ScanGrid:
    """Axis specification: (min, max, steps) for t and for the scanned parameter."""

    t_range: tuple[float, float, int]
    param_range: tuple[float, float, int]
    param_kind: str

    def __post_init__(self) -> None:
        if self.param_kind not in _KINDS:
            raise ValueError(f"param_kind must be one of {_KINDS}")
        for name, (lo, hi, steps) in (
            ("t_range", self.t_range),
            ("param_range", self.param_range),
        ):
            if int(steps) < 2:
                raise ValueError(f"{name}: steps must be >= 2")
            if not (math.isfinite(float(lo)) and math.isfinite(float(hi))):
                raise ValueError(f"{name}: bounds must be finite")
            if not float(lo) < float(hi):
                raise ValueError(f"{name}: min must be < max")

    def t_values(self) -> np.ndarray:
        lo, hi, steps = self.t_range
        return np.linspace(float(lo), float(hi), int(steps))

    def param_values(self) -> np.ndarray:
        lo, hi, steps = self.param_range
        return np.linspace(float(lo), float(hi), int(steps))


@dataclass(frozen=True, eq=False)
class ScanSurface:
    """Fidelity surface with its axes; rows follow t, columns follow the parameter."""

    values: np.ndarray
    t_values: np.ndarray
    param_values: np.ndarray
    param_kind: str
    params_base: RouterParams | None = None

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        ts = np.asarray(self.t_values, dtype=float)
        ps = np.asarray(self.param_values, dtype=float)
        if vals.shape != (ts.size, ps.size):
            raise ValueError("surface shape must be (len(t_values), len(param_values))")
        if self.param_kind not in _KINDS:
            raise ValueError(f"param_kind must be one of {_KINDS}")
        for arr in (vals, ts, ps):
            arr.setflags(write=False)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "t_values", ts)
        object.__setattr__(self, "param_values", ps)


@dataclass(frozen=True)
class PeakReport:
    location: tuple[float, float]  # (t, param)
    value: float
    width_t: float
    width_param: float
    wrong_output_prob: float | None = None

    @property
    def width_product(self) -> float:
        return self.width_t * self.width_param


@dataclass(frozen=True)
class RefineResult:
    point: tuple[float, float]
    value: float
    converged: bool
    evaluations: int


def _with_param(base: RouterParams, kind: str, value: float) -> RouterParams:
    if kind == "phase":
        return replace(base, phi=float(value))
    return replace(base, beta=float(value))


def scan(
    params_base: RouterParams,
    grid: ScanGrid,
    objective: str = "localized",
    sp_grid: SuperpositionGrid | None = None,
) -> ScanSurface:
    """Dense fidelity surface over the grid; deterministic.

    ``localized`` evaluates the input-to-target transition probability and
    ``average`` the mean superposition fidelity, each in one call per
    parameter column; ``worst_case`` evaluates ``min_fidelity`` per cell (one
    spectral decomposition per parameter column in every case).
    """
    if objective not in _OBJECTIVES:
        raise ValueError(f"objective must be one of {_OBJECTIVES}")
    ts = grid.t_values()
    ps = grid.param_values()
    out = np.empty((ts.size, ps.size))
    for j, p in enumerate(ps):
        params = _with_param(params_base, grid.param_kind, p)
        if objective == "localized":
            out[:, j] = transition_probability(params, ts, 1, 4)
        elif objective == "average":
            out[:, j] = average_fidelity(params, ts, sp_grid)
        else:
            for i, t in enumerate(ts):
                out[i, j] = min_fidelity(params, float(t), sp_grid)
    return ScanSurface(out, ts, ps, grid.param_kind, params_base)


def _run_width(vals: np.ndarray, idx: int, threshold: float, spacing: float) -> float:
    lo = idx
    while lo - 1 >= 0 and vals[lo - 1] >= threshold:
        lo -= 1
    hi = idx
    while hi + 1 < vals.size and vals[hi + 1] >= threshold:
        hi += 1
    return (hi - lo + 1) * spacing


def find_peaks(
    surface: ScanSurface, threshold: float, sort_by: str = "value"
) -> list[PeakReport]:
    """Grid-local maxima above ``threshold`` with plateau widths at that level.

    Width along each axis is the extent of the contiguous run of cells
    holding at least ``threshold`` through the peak.  Peaks sort by ``value``
    or by ``width`` (the width product); ties prefer the broader peak, then
    the earlier time.
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError("threshold must lie in (0, 1)")
    if sort_by not in ("value", "width"):
        raise ValueError("sort_by must be 'value' or 'width'")
    v = surface.values
    nt, npar = v.shape
    dt = surface.t_values[1] - surface.t_values[0] if nt > 1 else 1.0
    dp = surface.param_values[1] - surface.param_values[0] if npar > 1 else 1.0

    # Candidates top the threshold and no neighbour beats them, so adjacent
    # candidates hold equal values: a connected run of them is one plateau,
    # reported at its first cell in row-major order.
    padded = np.pad(v, 1, constant_values=-np.inf)
    candidate = v > threshold
    for nbr in (padded[:-2, 1:-1], padded[2:, 1:-1], padded[1:-1, :-2], padded[1:-1, 2:]):
        candidate &= ~(nbr > v)
    seen = np.zeros_like(candidate)
    peaks: list[PeakReport] = []
    for pi, pj in np.argwhere(candidate).tolist():
        if seen[pi, pj]:
            continue
        stack = [(pi, pj)]
        while stack:
            ci, cj = stack.pop()
            seen[ci, cj] = True
            for ni, nj in ((ci - 1, cj), (ci + 1, cj), (ci, cj - 1), (ci, cj + 1)):
                if 0 <= ni < nt and 0 <= nj < npar and candidate[ni, nj] and not seen[ni, nj]:
                    stack.append((ni, nj))
        t_here = float(surface.t_values[pi])
        p_here = float(surface.param_values[pj])
        wrong = None
        if surface.params_base is not None:
            params = _with_param(surface.params_base, surface.param_kind, p_here)
            wrong = transition_probability(params, t_here, 1, 6)
        peaks.append(
            PeakReport(
                location=(t_here, p_here),
                value=float(v[pi, pj]),
                width_t=_run_width(v[:, pj], pi, threshold, float(dt)),
                width_param=_run_width(v[pi, :], pj, threshold, float(dp)),
                wrong_output_prob=wrong,
            )
        )

    if sort_by == "value":
        key = lambda p: (-p.value, -p.width_product, p.location[0])
    else:
        key = lambda p: (-p.width_product, -p.value, p.location[0])
    return sorted(peaks, key=key)


def refine(
    objective: Callable[[float, float], float],
    start: tuple[float, float],
    bounds: tuple[tuple[float, float], tuple[float, float]],
    initial_step: tuple[float, float] | None = None,
    tol: float = 1e-4,
) -> RefineResult:
    """Derivative-free coordinate ascent with step halving (``routing._descend``).

    Accepted iterates never decrease the objective; terminates once both
    coordinate steps fall below ``tol``.  Raises ``ValueError`` on non-finite
    objective values and unless ``tol`` and both steps are finite and positive.
    """
    (t_lo, t_hi), (p_lo, p_hi) = bounds
    t, p = float(start[0]), float(start[1])
    if not (t_lo <= t <= t_hi and p_lo <= p <= p_hi):
        raise ValueError("start must lie within bounds")
    if initial_step is None:
        step_t = max((t_hi - t_lo) / 20.0, 10.0 * tol)
        step_p = max((p_hi - p_lo) / 20.0, 10.0 * tol)
    else:
        step_t, step_p = float(initial_step[0]), float(initial_step[1])
    if not all(math.isfinite(x) and x > 0.0 for x in (tol, step_t, step_p)):
        raise ValueError(f"tol and steps must be finite and > 0, got {tol}, {step_t}, {step_p}")

    evaluations = 0

    def evaluate(tt: float, pp: float) -> float:
        nonlocal evaluations
        evaluations += 1
        val = float(objective(tt, pp))
        if not math.isfinite(val):
            raise ValueError(f"objective returned non-finite value at ({tt}, {pp})")
        return val

    t, p, neg_best = _descend(
        lambda tt, pp: -evaluate(tt, pp), t, p, -evaluate(t, p), bounds, step_t, step_p, tol
    )
    return RefineResult(point=(t, p), value=-neg_best, converged=True, evaluations=evaluations)
