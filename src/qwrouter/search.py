"""Parameter scans over (t, phase) / (t, weight), peak reports, and local refinement."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .hamiltonian import TWO_PI, RouterParams, _read_only, _reduced_spectra
from .routing import (
    _TOL,
    _TRANSFER,
    SuperpositionGrid,
    _axes,
    _descend,
    _mean_fidelity,
    _probability,
    _worst_case,
    average_fidelity,
    elements,
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
# Objective name -> (params, t, grid) -> the fidelity at one scalar time.  The lambdas look
# the statistics up when called, so wrappers rebound on this module's names see every call.
_STATISTICS = {
    "localized": lambda params, t, grid: transition_probability(params, t, 1, 4),
    "average": lambda params, t, grid: average_fidelity(params, t, grid),
    "worst_case": lambda params, t, grid: min_fidelity(params, t, grid),
}
# ``_surface`` takes as many columns at once as fit in _PHASE_BYTES of phase tensor
# ``exp(-i w t)`` (16 bytes an eigenvalue and a time; at least one column): 5 at 501 times.
# Chunks of 5 to 21 columns took about the same time there, and only the smallest kept a
# scan's peak resident memory at that of a column-by-column loop.
_PHASE_BYTES = 1 << 18


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
            if not math.isfinite(float(hi) - float(lo)):  # linspace steps by the span
                raise ValueError(f"{name}: bounds and their span max - min must be finite, "
                                 f"got {lo!r} to {hi!r}")
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
            object.__setattr__(self, name, _read_only(arr))


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
    fidelity.  Each cell has the bits that ``transition_probability``,
    ``average_fidelity`` or ``min_fidelity`` give at its router and time, from
    ``_surface``, a chunk of parameter columns at a time.
    """
    if objective not in _STATISTICS:
        raise ValueError(f"objective must be one of {tuple(_STATISTICS)}")
    ts = grid.t_values()
    ps = grid.param_values()
    if grid.param_kind == "phase":
        betas, phis = params_base.beta, ps
    else:
        betas, phis = ps, params_base.phi
    # Each column's phase is reduced as RouterParams reduces it, so a base phase of 2 pi
    # (the reduction of a tiny negative one) reduces again, to 0.
    betas, phis = np.broadcast_arrays(betas, phis % TWO_PI)
    values, wrong = _surface(params_base.n_outputs, betas, phis, ts, objective,
                             SuperpositionGrid() if sp_grid is None else sp_grid)
    return ScanSurface(values, ts, ps, grid.param_kind, wrong)


def _surface(n: int, betas: np.ndarray, phis: np.ndarray, ts: np.ndarray, objective: str,
             sp_grid: SuperpositionGrid) -> tuple[np.ndarray, np.ndarray]:
    """``(values, wrong)`` of shape ``(len(ts), C)`` over the C columns of routers
    ``(n, betas[j], phis[j])`` (1-d arrays of one length): the ``objective`` and
    ``P16`` at each time of ``ts``.

    Each chunk of columns (``_PHASE_BYTES``) takes one batched ``_reduced_spectra``
    and one ``elements`` call, whose phase tensor serves ``P16`` and the objective's
    elements alike.  ``localized`` and ``average`` reduce each chunk to fidelities
    at once; ``worst_case`` stacks the transfer elements of all cells and descends
    them in one ``_worst_case`` call.
    """
    values = np.empty((ts.size, betas.size))
    wrong = np.empty((ts.size, betas.size))
    transfer = np.empty((4,) + values.shape, complex) if objective == "worst_case" else None
    chunk = max(1, _PHASE_BYTES // (96 * ts.size))
    for lo in range(0, betas.size, chunk):
        cols = slice(lo, lo + chunk)
        w, q = _reduced_spectra(n, betas[cols], phis[cols])
        u16, u = elements(w, q, ts, (5, 0), (3, 0) if objective == "localized" else _TRANSFER)
        wrong[:, cols] = _probability(u16).T
        if objective == "localized":
            values[:, cols] = _probability(u).T
        elif objective == "average":
            values[:, cols] = _mean_fidelity(u, _axes(sp_grid)[4]).T
        else:
            transfer[:, :, cols] = u.transpose(0, 2, 1)
    if transfer is not None:
        values = _worst_case(transfer, sp_grid)
    return values, wrong


def _run_width(vals: np.ndarray, idx: int, threshold: float, spacing: float) -> float:
    lo = idx
    while lo - 1 >= 0 and vals[lo - 1] >= threshold:
        lo -= 1
    hi = idx
    while hi + 1 < vals.size and vals[hi + 1] >= threshold:
        hi += 1
    return (hi - lo + 1) * spacing


def find_peaks(surface: ScanSurface, threshold: float) -> list[PeakReport]:
    """Grid-local maxima above ``threshold`` with plateau widths at that level.

    Width along each axis is the extent of the contiguous run of cells
    holding at least ``threshold`` through the peak.  Peaks sort by value,
    highest first; ties prefer the broader peak (the width product), then the
    earlier time.
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError("threshold must lie in (0, 1)")
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

    return sorted(peaks, key=lambda p: (-p.value, -p.width_product, p.location[0]))


def refine(
    objective: Callable[[float, float], float],
    start: tuple[float, float],
    bounds: tuple[tuple[float, float], tuple[float, float]],
) -> RefineResult:
    """Derivative-free coordinate ascent with step halving (``routing._descend``) within
    ``bounds = ((t_min, t_max), (param_min, param_max))``.

    Accepted iterates never decrease the objective.  Each first step is a
    twentieth of its bound's span (at least ``10 * _TOL``), and the ascent ends
    once both steps fall below ``_TOL``.  Raises ``ValueError`` on non-finite
    objective values and unless each span ``max - min`` is finite, since an
    infinite step never falls below ``_TOL``.
    """
    for axis, (lo, hi) in zip(("t", "param"), bounds):
        if not math.isfinite(float(hi) - float(lo)):
            raise ValueError(f"bounds and their span {axis}_max - {axis}_min must be finite, "
                             f"got {axis}_min = {lo!r}, {axis}_max = {hi!r}")
    (t_lo, t_hi), (p_lo, p_hi) = bounds
    t, p = float(start[0]), float(start[1])
    if not (t_lo <= t <= t_hi and p_lo <= p <= p_hi):
        raise ValueError("start must lie within bounds")
    step_t = max((t_hi - t_lo) / 20.0, 10.0 * _TOL)
    step_p = max((p_hi - p_lo) / 20.0, 10.0 * _TOL)

    evaluations = 0

    def evaluate(tt: float, pp: float) -> float:
        nonlocal evaluations
        evaluations += 1
        val = float(objective(tt, pp))
        if not math.isfinite(val):
            raise ValueError(f"objective returned non-finite value at ({tt}, {pp})")
        return val

    t, p, neg_best = _descend(
        lambda tt, pp: -evaluate(tt, pp), t, p, -evaluate(t, p), bounds, step_t, step_p
    )
    return RefineResult(point=(t, p), value=-neg_best, converged=True, evaluations=evaluations)
