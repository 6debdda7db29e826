"""Parameter scans over (t, phase) / (t, weight), peak reports, and local refinement."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .hamiltonian import RouterParams
from .routing import (
    _TRANSFER,
    SuperpositionGrid,
    _worst_case,
    average_fidelity,
    transition_probability,
    u_element_curve,
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
# Objective name -> (columns, t, grid) -> fidelities of shape t.shape + (len(columns),), for
# a list of column RouterParams.  The lambdas look the statistics up when called, so
# wrappers rebound on this module's names see every call.  The worst case descends all
# cells of all columns together, in one ``_worst_case`` call.
_STATISTICS = {
    "localized": lambda columns, t, grid: _column_stack(
        columns, lambda p: transition_probability(p, t, 1, 4)),
    "average": lambda columns, t, grid: _column_stack(
        columns, lambda p: average_fidelity(p, t, grid)),
    "worst_case": lambda columns, t, grid: _worst_case(
        _column_stack(columns, lambda p: u_element_curve(p, t, *_TRANSFER)),
        SuperpositionGrid() if grid is None else grid, True),
}


def _column_stack(columns: list[RouterParams], result: Callable) -> np.ndarray:
    """``result(p)`` for each column's ``p``, stacked on a new last axis as each arrives,
    so no list of column results is held beside the stack."""
    first = np.asarray(result(columns[0]))
    out = np.empty(first.shape + (len(columns),), first.dtype)
    out[..., 0] = first
    for j, p in enumerate(columns[1:], 1):
        out[..., j] = result(p)
    return out


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
    """Fidelity surface with its axes; rows follow t, columns follow the parameter.

    ``wrong``, when given, holds the localized input's wrong-output
    probability ``P16`` at each cell, in the shape of ``values``.
    """

    values: np.ndarray
    t_values: np.ndarray
    param_values: np.ndarray
    param_kind: str
    wrong: np.ndarray | None = None

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        ts = np.asarray(self.t_values, dtype=float)
        ps = np.asarray(self.param_values, dtype=float)
        if vals.shape != (ts.size, ps.size):
            raise ValueError("surface shape must be (len(t_values), len(param_values))")
        if self.param_kind not in _KINDS:
            raise ValueError(f"param_kind must be one of {_KINDS}")
        arrays = {"values": vals, "t_values": ts, "param_values": ps}
        if self.wrong is not None:
            arrays["wrong"] = np.asarray(self.wrong, dtype=float)
            if arrays["wrong"].shape != vals.shape:
                raise ValueError("wrong must have the shape of values")
        for name, arr in arrays.items():
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


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
    """Result of ``refine``; ``converged`` is always True: the descent has no evaluation cap."""

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
    """Dense fidelity surface over the grid, with ``P16`` per cell; deterministic.

    ``localized`` evaluates the input-to-target transition probability,
    ``average`` the mean and ``worst_case`` the minimum superposition
    fidelity.  The objective takes one call for the whole surface, which makes
    one spectral read per parameter column, and ``P16`` one call per column, so
    one spectral decomposition serves each column.
    """
    if objective not in _STATISTICS:
        raise ValueError(f"objective must be one of {tuple(_STATISTICS)}")
    ts = grid.t_values()
    ps = grid.param_values()
    columns = [_with_param(params_base, grid.param_kind, p) for p in ps.tolist()]
    values = _STATISTICS[objective](columns, ts, sp_grid)
    wrong = _column_stack(columns, lambda p: transition_probability(p, ts, 1, 6))
    return ScanSurface(values, ts, ps, grid.param_kind, wrong)


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
        wrong = None if surface.wrong is None else float(surface.wrong[pi, pj])
        peaks.append(
            PeakReport(
                location=(float(surface.t_values[pi]), float(surface.param_values[pj])),
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


def _descend(f: Callable[[float, float], float], x: float, y: float, best: float,
             bounds, step_x: float, step_y: float, tol: float) -> tuple[float, float, float]:
    """Step-halving coordinate descent on ``f`` from ``f(x, y) == best``; returns ``(x, y, best)``.

    Each sweep tries ``+-step_x`` then ``+-step_y``, clamped to ``bounds =
    ((x_lo, x_hi), (y_lo, y_hi))`` (a move the clamp leaves in place is
    skipped), and keeps every move that lowers ``best``; a sweep without one
    halves both steps, until both are below ``tol``.
    """
    # A clamped move takes the bound itself, so int bounds must not give int coordinates.
    x_lo, x_hi, y_lo, y_hi = (float(b) for pair in bounds for b in pair)
    while step_x >= tol or step_y >= tol:
        improved = False
        for d in (step_x, -step_x):
            cand = x + d  # comparisons, not min(max()): builtin calls slowed this loop ~20%
            cand = x_lo if cand < x_lo else x_hi if cand > x_hi else cand
            if cand != x:
                val = f(cand, y)
                if val < best:
                    x, best, improved = cand, val, True
        for d in (step_y, -step_y):
            cand = y + d
            cand = y_lo if cand < y_lo else y_hi if cand > y_hi else cand
            if cand != y:
                val = f(x, cand)
                if val < best:
                    y, best, improved = cand, val, True
        if not improved:
            step_x *= 0.5
            step_y *= 0.5
    return x, y, best


def refine(
    objective: Callable[[float, float], float],
    start: tuple[float, float],
    bounds: tuple[tuple[float, float], tuple[float, float]],
    initial_step: tuple[float, float] | None = None,
    tol: float = 1e-4,
) -> RefineResult:
    """Derivative-free coordinate ascent with step halving (``_descend``).

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
