"""Routing figures of merit.

Everything here is driven by four matrix elements of the reduced-basis
propagator: for an input ``alpha |1> + gamma e^{i chi} |2>`` and target
``alpha |4> + gamma e^{i chi} |3>`` (``gamma = sqrt(1 - alpha^2)``), the
transfer overlap is

    <w| U(t) |psi0> = alpha^2 U41 + alpha gamma e^{i chi} U42
                      + alpha gamma e^{-i chi} U31 + gamma^2 U32

so every statistic over (alpha, chi) reuses one spectral decomposition per
(n, beta, phi), memoized on the (hashable) ``RouterParams``, and the axes of
each ``SuperpositionGrid``, from which the overlap coefficients are charted
where they are read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable

import numpy as np

from .dynamics import PureState, _checked_times
from .hamiltonian import TWO_PI, RouterParams, _integer, _read_only, _reduced_spectra

__all__ = [
    "SuperpositionParams",
    "SuperpositionGrid",
    "DensityMatrix",
    "input_state",
    "target_state",
    "transition_probability",
    "per_wrong_output_probability",
    "routing_fidelity",
    "fidelity_grid",
    "average_fidelity",
    "min_fidelity",
]

_DM_TOL = 1e-10
# Rows and columns of (U41, U42, U31, U32), the elements of every transfer overlap.
_TRANSFER = ([3, 3, 2, 2], [0, 1, 0, 1])


def _clamp01(x: float) -> float:
    return float(min(max(x, 0.0), 1.0))


@dataclass(frozen=True)
class SuperpositionParams:
    """Input-superposition parameters (alpha, chi)."""

    alpha: float
    chi: float = 0.0

    def __post_init__(self) -> None:
        a = float(self.alpha)
        c = float(self.chi)
        if not (0.0 <= a <= 1.0):
            raise ValueError("alpha must lie in [0, 1]")
        if not math.isfinite(c):
            raise ValueError("chi must be finite")
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "chi", c % TWO_PI)


@dataclass(frozen=True)
class SuperpositionGrid:
    """Rectangular (alpha, chi) grid for fidelity statistics.

    ``measure="uniform"`` takes the plain arithmetic mean over grid points;
    ``measure="haar"`` weights rows by alpha (the push-forward of the uniform
    single-qubit measure onto the (alpha, chi) chart).
    """

    alpha_points: int = 41
    chi_points: int = 64
    measure: str = "uniform"

    def __post_init__(self) -> None:
        alpha_points = _integer("alpha_points", self.alpha_points)
        chi_points = _integer("chi_points", self.chi_points)
        if alpha_points < 1 or chi_points < 1:
            raise ValueError("grid must be non-empty")
        if self.measure not in ("uniform", "haar"):
            raise ValueError("measure must be 'uniform' or 'haar'")
        object.__setattr__(self, "alpha_points", alpha_points)
        object.__setattr__(self, "chi_points", chi_points)

    def alphas(self) -> np.ndarray:
        if self.alpha_points == 1:
            return np.array([1.0])
        return np.linspace(0.0, 1.0, self.alpha_points)

    def chis(self) -> np.ndarray:
        return np.linspace(0.0, TWO_PI, self.chi_points, endpoint=False)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, trace-one, positive-semidefinite matrix."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        rho = np.asarray(self.entries, dtype=complex)
        if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
            raise ValueError("entries must be square")
        herm_defect = float(np.max(np.abs(rho - rho.conj().T)))
        if herm_defect > _DM_TOL:
            raise ValueError(f"not Hermitian within 1e-10 (defect {herm_defect:.3e})")
        tr = complex(np.trace(rho))
        if abs(tr - 1.0) > _DM_TOL:
            raise ValueError(f"trace {tr!r} is not 1 within 1e-10")
        min_eig = float(np.linalg.eigvalsh(rho)[0])
        if min_eig < -_DM_TOL:
            raise ValueError(f"negative eigenvalue {min_eig:.3e} beyond tolerance")
        object.__setattr__(self, "entries", _read_only(rho.copy()))

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @classmethod
    def from_pure(cls, psi: PureState) -> "DensityMatrix":
        a = psi.amplitudes
        return cls(np.outer(a, a.conj()))


@lru_cache(maxsize=512)
def _spectrum(params: RouterParams) -> tuple[np.ndarray, np.ndarray]:
    """Memoized eigendecomposition of the reduced Hamiltonian."""
    return tuple(a[0] for a in _reduced_spectra(params.n_outputs, params.beta, params.phi))


def elements(w: np.ndarray, q: np.ndarray, ts, *products) -> list[np.ndarray]:
    """Propagator elements ``U[rows, cols](t)``, one array per ``(rows, cols)`` of
    ``products`` (0-based ints or equal-length index lists), from the spectra ``w, q``
    (``eigh``) of a stack of Hamiltonians of shape ``S + (6, 6)``: shaped ``S +
    shape(ts)`` for ints, with ``len(rows)`` prepended for lists.

    The phase tensor ``exp(-i w t)`` is formed once, one ``(6, T)`` matrix per router
    and row of ``ts`` (a scalar time is one column: matvecs), and each product is one
    ``matmul`` against it: an int's row of ``U`` rounds alone, a list's rows together.
    A non-finite time or overflowing phase raises ``ValueError``.
    """
    ts = _checked_times(ts, w)
    lead = w.shape[:-1] + (1,) * (ts.ndim - 1)
    phases = np.exp(-1j * (w.reshape(lead + (6, 1)) * np.atleast_1d(ts)[..., None, :]))
    out = []
    for rows, cols in products:
        u = (q[..., rows, :] * np.conj(q[..., cols, :])).reshape(lead + (-1, 6)) @ phases
        u = u.transpose((u.ndim - 2, *range(u.ndim - 2), u.ndim - 1))  # rows of U first
        out.append(u.reshape(np.shape(rows) + w.shape[:-1] + ts.shape))
    return out


def u_element_curve(params: RouterParams, ts, rows, cols) -> np.ndarray:
    """``elements`` of one router: every routing statistic reads its elements here."""
    return elements(*_spectrum(params), ts, (rows, cols))[0]


def input_state(p: SuperpositionParams) -> PureState:
    """``alpha |1> + sqrt(1 - alpha^2) e^{i chi} |2>`` in the reduced basis."""
    gamma = math.sqrt(max(0.0, 1.0 - p.alpha**2))
    amps = np.zeros(6, dtype=complex)
    amps[0] = p.alpha
    amps[1] = gamma * np.exp(1j * p.chi)
    return PureState(amps)


def target_state(p: SuperpositionParams) -> PureState:
    """``alpha |4> + sqrt(1 - alpha^2) e^{i chi} |3>`` in the reduced basis."""
    gamma = math.sqrt(max(0.0, 1.0 - p.alpha**2))
    amps = np.zeros(6, dtype=complex)
    amps[3] = p.alpha
    amps[2] = gamma * np.exp(1j * p.chi)
    return PureState(amps)


def _check_label(label: int) -> int:
    if not isinstance(label, (int, np.integer)) or isinstance(label, bool):
        raise TypeError("basis labels must be integers")
    if not 1 <= label <= 6:
        raise ValueError("basis labels run from 1 to 6")
    return int(label) - 1


def transition_probability(
    params: RouterParams, t, from_label: int, to_label: int
) -> float | np.ndarray:
    """``|<to| exp(-i H_red t) |from>|^2`` over reduced-basis labels 1..6.

    A float for a scalar ``t``; an array of the shape of ``t`` for an array of times.
    """
    p = _probability(u_element_curve(params, t, _check_label(to_label), _check_label(from_label)))
    return float(p) if p.ndim == 0 else p


def _probability(u: np.ndarray) -> np.ndarray:
    """``|u|^2`` of propagator elements ``u``, clipped to [0, 1]."""
    return np.clip(np.abs(u) ** 2, 0.0, 1.0)


def per_wrong_output_probability(params: RouterParams, t: float) -> float:
    """Probability of arriving at each individual wrong output, ``P16 / (n - 1)``."""
    p16 = transition_probability(params, t, 1, 6)
    return p16 / (params.n_outputs - 1)


def _fidelity_at(u41, u42, u31, u32, alpha: float, chi: float) -> float:
    """Unclipped transfer fidelity at one (alpha, chi) from ``(U41, U42, U31, U32)``."""
    gamma = math.sqrt(max(0.0, 1.0 - alpha * alpha))
    ag = alpha * gamma
    ph = complex(math.cos(chi), math.sin(chi))
    ov = alpha * alpha * u41 + ag * ph * u42 + ag * ph.conjugate() * u31 + gamma * gamma * u32
    a = abs(ov)
    return a * a  # not a ** 2: that calls pow, which no numpy ufunc matches bit for bit


def routing_fidelity(params: RouterParams, t: float, sp: SuperpositionParams) -> float:
    """``|<w| U(t) |psi0>|^2`` for the superposition input and its target."""
    u = u_element_curve(params, t, *_TRANSFER).tolist()
    return _clamp01(_fidelity_at(*u, sp.alpha, sp.chi))


def _coefficients(alphas: np.ndarray, gammas: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """The coefficients ``(alpha^2, alpha gamma e^{i chi}, alpha gamma e^{-i chi},
    gamma^2)`` of ``(U41, U42, U31, U32)``, stacked on axis 0, elementwise over
    ``alphas``, their ``gammas`` and ``phases = e^{i chi}`` broadcast together.

    Each coefficient is an elementwise expression, so a point's coefficients have
    the same bits whether the whole chart or only that point is computed.
    """
    cross = alphas * gammas
    return np.stack(np.broadcast_arrays(alphas**2, cross * phases, cross * phases.conj(),
                                        gammas**2))


@lru_cache(maxsize=32)
def _axes(grid: SuperpositionGrid) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray,
                                            np.ndarray]:
    """Read-only ``(alphas, gammas, chis, phases, G)`` of ``grid``: its axes, with
    ``gamma = sqrt(1 - alpha^2)`` and ``phase = e^{i chi}``, and ``G[k, l]``, the
    measure-weighted grid mean of ``c[k] conj(c[l])`` over the chart ``c`` of
    ``_coefficients``.  The chart is built for ``G`` and dropped: only the axes,
    about 32 bytes a point of either axis, stay cached.
    """
    alphas, chis = grid.alphas(), grid.chis()
    gammas = np.sqrt(np.clip(1.0 - alphas**2, 0.0, None))
    phases = np.exp(1j * chis)
    c = _coefficients(alphas[:, None], gammas[:, None], phases)
    # alphas() always holds 1.0, so the haar weights never sum to zero.
    w = alphas if grid.measure == "haar" else np.ones(grid.alpha_points)
    g = np.einsum("i,kij,lij->kl", w / (w.sum() * grid.chi_points), c, c.conj())
    return tuple(map(_read_only, (alphas, gammas, chis, phases, g)))


def fidelity_grid(
    params: RouterParams, t: float, grid: SuperpositionGrid | None = None
) -> np.ndarray:
    """Routing fidelity over the (alpha, chi) grid; shape (alpha_points, chi_points)."""
    if grid is None:
        grid = SuperpositionGrid()
    u = u_element_curve(params, t, *_TRANSFER)
    alphas, gammas, _, phases, _ = _axes(grid)
    return _grid_fidelity(u[:, None, None],
                          _coefficients(alphas[:, None], gammas[:, None], phases))


def _grid_fidelity(u: np.ndarray, c: np.ndarray) -> np.ndarray:
    """``|sum_k u_k c_k|^2`` clipped to [0, 1], elementwise over ``u = (U41, U42, U31,
    U32)`` and chart coefficients ``c`` broadcast together (axis 0 is ``k``).

    The fidelity grid and the worst case's exact grid values both come from here,
    so they round alike.  It is summed elementwise: a BLAS contraction would wake
    idle BLAS worker threads on every call.
    """
    f = np.abs(u[0] * c[0] + u[1] * c[1] + u[2] * c[2] + u[3] * c[3]) ** 2
    return np.minimum(f, 1.0, out=f)  # the clip to [0, 1]: a square is never below 0


def average_fidelity(params: RouterParams, t,
                     grid: SuperpositionGrid | None = None) -> float | np.ndarray:
    """Mean routing fidelity over the (alpha, chi) grid: exactly ``u^T G conj(u)``.

    A float for a scalar ``t``; an array of the shape of ``t`` for an array of times.
    """
    return _statistic("average", params, t, grid)


def _mean_fidelity(u: np.ndarray, g: np.ndarray) -> np.ndarray:
    """``u^T G conj(u)`` clipped to [0, 1], elementwise over the transfer elements
    ``u = (U41, U42, U31, U32)`` of shape ``(4, ...)``; a cell has the same bits
    whatever the shape it stands in."""
    return np.clip(np.einsum("kl,k...,l...->...", g, u, u.conj()).real, 0.0, 1.0)


def min_fidelity(params: RouterParams, t,
                 grid: SuperpositionGrid | None = None) -> float | np.ndarray:
    """Worst-case routing fidelity over (alpha, chi).

    Takes the grid minimum and polishes it by step-halving coordinate descent
    (chi unbounded; until both steps drop below 1e-4), since a bare grid minimum
    (``fidelity_grid(...).min()``) can overestimate the true worst case.  A float
    for a scalar ``t``; an array of the shape of ``t`` for an array of times,
    whose elements come from one ``u_element_curve`` call (``_statistic``).
    """
    return _statistic("worst_case", params, t, grid)


# The step-halving descent (``_descend``) halves its steps until both are below _TOL.
_TOL = 1e-4
# The worst case's descent: alpha in [0, 1], chi unbounded.
_CHART_BOUNDS = ((0.0, 1.0), (-math.inf, math.inf))
# Cells descending in lockstep at once.  The lockstep state is 24 floats a cell (48 during a
# sweep), so this bounds its memory whatever the surface; a cell that finishes makes room
# for the next.
_LOCKSTEP_CELLS = 256
# Once no cell waits and at most this many still descend, each finishes in ``_descend``:
# a numpy sweep costs about as much as the scalar sweeps of a dozen or two cells.
_SCALAR_TAIL = 16
# ``_grid_starts`` screens as many cells at once as fit in _SCREEN_BYTES of screen (8 bytes a
# grid point; at least one cell), and recomputes their candidates _EXACT_CHUNK at a time.
_SCREEN_BYTES = 1 << 18
_EXACT_CHUNK = 1 << 12
# Screened points within _SCREEN_SLACK * S^2 of their cell's least one, S = sum_k |u_k|, are
# recomputed exactly.  Every chart coefficient has modulus <= 1, so |overlap| <= S and the
# exact grid's value (4 products, 3 sums, abs, square) is within about 25 eps S^2 of the
# true one, eps = 2^-52.  The screen sums at most 32 terms of h @ M and 5 of the second
# GEMM, whose moduli add up to at most sqrt(2) S^2, so it is within about 60 eps S^2.  The
# two differ by E < 90 eps S^2 at every point, and clipping to [0, 1] keeps that; so every
# exact minimiser screens within 2E < 2^-42 S^2 of the least screened value.
_SCREEN_SLACK = 2.0**-42
# Rows of the lockstep state, one column per cell.  Rows _X to _BEST change with alpha,
# _BEST to _CS with chi; _V and _W hold the planes of U42, U31 that multiply
# Re(alpha gamma e^{i chi}) and Im(alpha gamma e^{i chi}) in the U42 and U31 terms.
_X, _AG, _T1, _T4, _BEST = 0, 1, slice(2, 4), slice(4, 6), 6
_Y, _CS, _STEP_X, _STEP_Y = 7, slice(8, 10), 10, 11
_V, _W, _U41, _U32 = slice(12, 16), slice(16, 20), slice(20, 22), slice(22, 24)
_ROWS = 24


def _descend(f: Callable[[float, float], float], x: float, y: float, best: float,
             bounds, step_x: float, step_y: float) -> tuple[float, float, float]:
    """Step-halving coordinate descent on ``f`` from ``f(x, y) == best``; returns ``(x, y, best)``.

    Each sweep tries ``+-step_x`` then ``+-step_y``, clamped to ``bounds =
    ((x_lo, x_hi), (y_lo, y_hi))`` (a move the clamp leaves in place is
    skipped), and keeps every move that lowers ``best``; a sweep without one
    halves both steps, until both are below ``_TOL``.  The worst case descends
    ``_fidelity_at`` on the chart, and ``search.refine`` its negated objective.
    """
    # A clamped move takes the bound itself, so int bounds must not give int coordinates.
    x_lo, x_hi, y_lo, y_hi = (float(b) for pair in bounds for b in pair)
    while step_x >= _TOL or step_y >= _TOL:
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


def _worst_case(u: np.ndarray, grid: SuperpositionGrid) -> float | np.ndarray:
    """``min_fidelity`` from the transfer elements ``u = (U41, U42, U31, U32)`` of shape
    ``(4, ...)``: a float for shape ``(4,)``, else an array of shape ``u.shape[1:]``.

    Each cell takes its grid minimum (``_grid_starts``) and polishes it by
    ``_descend`` on ``_fidelity_at`` from there; ``_lockstep`` runs the descents of
    all cells together, and every cell ends bit for bit where ``_descend`` alone
    would take it.
    """
    cells = u.reshape(4, -1)
    out = np.empty(cells.shape[1])
    _lockstep(cells, grid, out)
    np.minimum(out, 1.0, out=out)  # clipped to [0, 1]: every value is a square or a grid value
    return float(out[0]) if u.ndim == 1 else out.reshape(u.shape[1:])


# Objective name -> (the ``(rows, cols)`` of the propagator elements it reads, its reducer
# ``(u, grid) -> fidelities`` of those elements): the figures of merit of ``scan``,
# ``optimize`` and the public statistics, each defined here once.
_OBJECTIVES = {
    "localized": ((3, 0), lambda u, grid: _probability(u)),
    "average": (_TRANSFER, lambda u, grid: _mean_fidelity(u, _axes(grid)[4])),
    "worst_case": (_TRANSFER, _worst_case),
}


def _statistic(objective: str, params: RouterParams, t,
               grid: SuperpositionGrid | None = None) -> float | np.ndarray:
    """The ``objective`` of ``_OBJECTIVES`` of the router ``params`` over ``grid`` (default
    ``SuperpositionGrid()``): a float for a scalar ``t``, else an array of the shape of
    ``t``.  A scalar time's elements come from a matvec and an array's from a matmul
    (``elements``), so the two may differ in the last bit."""
    rows_cols, reduce = _OBJECTIVES[objective]
    f = reduce(u_element_curve(params, t, *rows_cols),
               SuperpositionGrid() if grid is None else grid)
    return float(f) if np.ndim(f) == 0 else f


@lru_cache(maxsize=32)
def _screen(grid: SuperpositionGrid) -> tuple[np.ndarray, np.ndarray]:
    """Read-only ``(M, B)`` of ``grid``, built once per grid like ``_axes``.

    ``B`` holds the rows ``1, cos chi, sin chi, cos 2 chi, sin 2 chi`` over the chis.
    With ``h`` the real and imaginary parts of ``conj(u_a) u_b`` (a, b = 0..3, C
    order) of a cell ``u``, ``(h @ M)[5 i:5 i + 5] @ B`` is its fidelity grid's row
    ``i``: the chart's coefficients are ``c_a = r_a(alpha) e^{i n_a chi}`` with
    ``n = (0, 1, -1, 0)``, so ``|sum_a c_a u_a|^2`` is
    ``sum_{a, b} r_a r_b Re(e^{i (n_b - n_a) chi} conj(u_a) u_b)``.
    """
    alphas, gammas, chis, _, _ = _axes(grid)
    cross = alphas * gammas
    r, n = (alphas**2, cross, cross, gammas**2), (0, 1, -1, 0)
    weights = np.zeros((4, 4, 2, grid.alpha_points, 5))
    for a in range(4):
        for b in range(4):
            turns = n[b] - n[a]
            # Re(w e^{i turns chi} h) = w (Re h cos(turns chi) - Im h sin(turns chi))
            weights[a, b, 0, :, 2 * abs(turns) - (turns != 0)] = r[a] * r[b]
            if turns:
                weights[a, b, 1, :, 2 * abs(turns)] = -math.copysign(1.0, turns) * r[a] * r[b]
    basis = np.stack([np.ones_like(chis), np.cos(chis), np.sin(chis),
                      np.cos(2.0 * chis), np.sin(2.0 * chis)])
    return _read_only(weights.reshape(32, -1)), _read_only(basis)


def _grid_starts(u: np.ndarray, grid: SuperpositionGrid) -> tuple[np.ndarray, np.ndarray,
                                                                   np.ndarray]:
    """``(alpha, chi, fidelity)`` arrays of the grid minima of the cells ``u`` (shape
    ``(4, m)``): per cell, the first point in C order where ``fidelity_grid`` is
    least, bit for bit.

    Blocks of cells are screened by two real GEMMs (``_screen``); only the points
    within ``_SCREEN_SLACK`` of their cell's least screened value are recomputed by
    ``_grid_fidelity``, from their own coefficients (``_coefficients``).
    """
    alphas, gammas, chis, phases, _ = _axes(grid)
    weights, basis = _screen(grid)
    points = grid.alpha_points * grid.chi_points
    size = u.shape[1]
    alpha, chi, best = np.empty(size), np.empty(size), np.empty(size)
    block = max(1, min(size, _SCREEN_BYTES // (8 * points)))
    scratch = np.empty(block * points)
    for lo in range(0, size, block):
        v = u[:, lo:lo + block]
        cells = v.shape[1]
        vt = v.T.copy()
        h = np.conj(vt)[:, :, None] * vt[:, None, :]
        screen = scratch[:cells * points].reshape(cells, points)
        np.matmul((h.reshape(cells, 16).view(np.float64) @ weights).reshape(-1, 5), basis,
                  out=screen.reshape(-1, grid.chi_points))
        # The exact values are clipped to [0, 1], so their least is the clipped least.  A
        # bound at 1 or above takes every point, since all clip to at most 1; below 1, the
        # clip moves no point across it.
        bound = np.maximum(screen.min(axis=1), 0.0)
        bound += _SCREEN_SLACK * np.abs(v).sum(axis=0) ** 2
        bound[bound >= 1.0] = np.inf
        candidates = np.flatnonzero(screen <= bound[:, None])
        cell, point = np.divmod(candidates, points)
        i, j = np.divmod(point, grid.chi_points)
        f = np.concatenate([
            _grid_fidelity(v[:, cell[k:k + _EXACT_CHUNK]],
                           _coefficients(alphas[i[k:k + _EXACT_CHUNK]],
                                         gammas[i[k:k + _EXACT_CHUNK]],
                                         phases[j[k:k + _EXACT_CHUNK]]))
            for k in range(0, candidates.size, _EXACT_CHUNK)])
        # Every cell holds a candidate, and the candidates run in C order.
        starts = np.searchsorted(cell, np.arange(cells))
        first = np.minimum.reduceat(
            np.where(f == np.minimum.reduceat(f, starts)[cell], np.arange(f.size), f.size),
            starts)
        alpha[lo:lo + cells], chi[lo:lo + cells] = alphas[i[first]], chis[j[first]]
        best[lo:lo + cells] = f[first]
    return alpha, chi, best


def _lockstep(cells: np.ndarray, grid: SuperpositionGrid, out: np.ndarray) -> None:
    """Write the unclamped worst case of every column of ``cells`` into ``out``:
    ``_descend`` on ``_fidelity_at`` from the cell's grid minimum.

    Up to ``_LOCKSTEP_CELLS`` cells descend together, one ``_sweep`` at a time; a
    finished cell leaves and, once at most half remain, waiting cells enter.  So
    the few cells that need thousands of sweeps share them, whatever their place
    on the surface.  When no cell waits and at most ``_SCALAR_TAIL`` still descend,
    each continues in ``_descend`` from its state: so a scalar time, or any few
    cells, enter together and go straight on to ``_descend``.
    """
    idx = np.empty(0, dtype=np.intp)
    state = np.empty((_ROWS, 0))
    entered = 0
    while True:
        running = (state[_STEP_X] >= _TOL) | (state[_STEP_Y] >= _TOL)
        if not running.all():
            out[idx[~running]] = state[_BEST, ~running]
            idx, state = idx[running], state[:, running]
        if entered < out.size and idx.size <= _LOCKSTEP_CELLS // 2:
            stop = min(out.size, entered + _LOCKSTEP_CELLS - idx.size)
            idx = np.concatenate([idx, np.arange(entered, stop)])
            state = np.concatenate([state, _start_state(cells[:, entered:stop], grid)], axis=1)
            entered = stop
            continue
        if entered == out.size and idx.size <= _SCALAR_TAIL:
            break
        _sweep(state)
    for k, col in zip(idx.tolist(), state.T.tolist()):
        f = partial(_fidelity_at, *cells[:, k].tolist())
        x, y = col[_X], col[_Y]
        out[k] = _descend(f, x, y, min(col[_BEST], f(x, y)), _CHART_BOUNDS, col[_STEP_X],
                          col[_STEP_Y])[2]


def _start_state(u: np.ndarray, grid: SuperpositionGrid) -> np.ndarray:
    """Lockstep state of the cells ``u`` (shape ``(4, m)``) at their grid minima, with
    ``best`` the lower of the grid's and the objective's value there, and first steps
    of one grid spacing in alpha and in chi."""
    state = np.empty((_ROWS, u.shape[1]))
    state[_X], state[_Y], state[_BEST] = _grid_starts(u, grid)
    state[_STEP_X], state[_STEP_Y] = 1.0 / max(grid.alpha_points - 1, 1), TWO_PI / grid.chi_points
    u41, u42, u31, u32 = u
    state[_V] = u42.real, u42.imag, u31.real, u31.imag
    state[_W] = -u42.imag, u42.real, u31.imag, -u31.real
    state[_U41] = u41.real, u41.imag
    state[_U32] = u32.real, u32.imag
    state[_CS] = np.cos(state[_Y]), np.sin(state[_Y])
    _alpha_terms(state)
    np.minimum(state[_BEST], _square_overlap(state), out=state[_BEST])
    return state


def _alpha_terms(state: np.ndarray) -> None:
    """From the alphas in row _X, write ``alpha gamma``, ``alpha^2 U41`` and
    ``gamma^2 U32`` into the rows _AG, _T1 and _T4, as ``_fidelity_at`` rounds them."""
    alpha = state[_X]
    aa = alpha * alpha
    gamma = np.sqrt(1.0 - aa)
    np.multiply(alpha, gamma, out=state[_AG])
    np.multiply(aa, state[_U41], out=state[_T1])
    gamma *= gamma
    np.multiply(gamma, state[_U32], out=state[_T4])


def _square_overlap(state: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``|t1 + p U42 + conj(p) U31 + t4|^2`` per cell, from the planes of ``p = alpha
    gamma e^{i chi}`` (rows _AG and _CS), ``t1 = alpha^2 U41`` and ``t4 = gamma^2 U32``.

    Each product and sum is the one CPython's complex arithmetic makes in
    ``_fidelity_at``, in its order, and ``np.hypot`` is its ``abs``; numpy's own
    complex multiply and ``abs`` round differently.
    """
    p = state[_AG] * state[_CS]
    t23 = p[:1] * state[_V]
    t23 += p[1:] * state[_W]
    ov = state[_T1] + t23[:2]
    ov += t23[2:]
    ov += state[_T4]
    a = np.hypot(ov[0], ov[1], out=out)
    return np.multiply(a, a, out=a)


def _alpha_move(state: np.ndarray) -> None:
    """Clamp the alphas in row _X to [0, 1] and write the rows _AG to _BEST there."""
    np.minimum(state[_X], 1.0, out=state[_X])
    np.maximum(state[_X], 0.0, out=state[_X])
    _alpha_terms(state)
    _square_overlap(state, out=state[_BEST])


def _chi_move(state: np.ndarray) -> None:
    """Write the rows _CS and _BEST at the chis in row _Y."""
    np.cos(state[_Y], out=state[_CS.start])
    np.sin(state[_Y], out=state[_CS.start + 1])
    _square_overlap(state, out=state[_BEST])


# Per coordinate of a sweep: its row, its step's row, the rows a move changes, and the
# function that values the moved cells.
_MOVES = ((_X, _STEP_X, slice(_X, _BEST + 1), _alpha_move),
          (_Y, _STEP_Y, slice(_BEST, _STEP_X), _chi_move))


def _sweep(state: np.ndarray) -> None:
    """One sweep of ``_descend`` on every cell of the lockstep state, in place: the
    moves ``+-step_x`` then ``+-step_y``, each kept where it lowers ``best``; a cell
    without a kept move halves both steps.

    Both moves along a coordinate are valued from the same point, in one pass over
    the state taken twice.  Where the ``+step`` move is kept, ``_descend``
    tries ``-step`` from the new point; if that lands back on the old point its
    value is at least the old ``best``, so it is rejected, and only the cells where
    it does not (a clamp at alpha = 1, or ``y + d - d != y``) are valued again.
    A move the clamp leaves in place, which ``_descend`` skips, is valued
    too: ``best`` never exceeds the value at the cell's point, so it is rejected.
    """
    m = state.shape[1]
    before = state[_BEST].copy()
    pair = np.concatenate([state, state], axis=1)
    for coord, step, rows, move in _MOVES:
        # The pair's alpha terms are those of the cells' points, also after moves in alpha.
        pair[_AG:_BEST].reshape(_BEST - _AG, 2, m)[:] = state[_AG:_BEST, None]
        np.add(state[coord], state[step], out=pair[coord, :m])
        np.subtract(state[coord], state[step], out=pair[coord, m:])
        move(pair)
        lower = pair[_BEST].reshape(2, m) < state[_BEST]
        redo = pair[coord, :m] - state[step] != state[coord]
        np.copyto(state[rows], pair[rows, m:], where=lower[1])
        np.copyto(state[rows], pair[rows, :m], where=lower[0])
        redo &= lower[0]
        if np.count_nonzero(redo):
            _step_back(state, np.flatnonzero(redo), coord, step, move)
    # Every kept move lowers best, so a cell whose best is unchanged kept none.
    np.multiply(state[_STEP_X:_STEP_Y + 1], 0.5, out=state[_STEP_X:_STEP_Y + 1],
                where=state[_BEST] == before)


def _step_back(state: np.ndarray, cells: np.ndarray, coord: int, step: int,
               move: Callable[[np.ndarray], None]) -> None:
    """Try the ``-step`` move along ``coord`` from the state's point at ``cells``, and
    keep it where it lowers ``best``."""
    part = state[:, cells]
    np.subtract(part[coord], part[step], out=part[coord])
    move(part)
    keep = part[_BEST] < state[_BEST, cells]
    state[:, cells[keep]] = part[:, keep]
