"""Routing figures of merit.

Everything here is driven by four matrix elements of the reduced-basis
propagator: for an input ``alpha |1> + gamma e^{i chi} |2>`` and target
``alpha |4> + gamma e^{i chi} |3>`` (``gamma = sqrt(1 - alpha^2)``), the
transfer overlap is

    <w| U(t) |psi0> = alpha^2 U41 + alpha gamma e^{i chi} U42
                      + alpha gamma e^{-i chi} U31 + gamma^2 U32

so every statistic over (alpha, chi) reuses one spectral decomposition per
(n, beta, phi), memoized on the (hashable) ``RouterParams``, and one chart of
the overlap coefficients per ``SuperpositionGrid``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable

import numpy as np

from .dynamics import PureState, _checked_times
from .hamiltonian import TWO_PI, RouterParams, build_reduced_hamiltonian

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
        if int(self.alpha_points) < 1 or int(self.chi_points) < 1:
            raise ValueError("grid must be non-empty")
        if self.measure not in ("uniform", "haar"):
            raise ValueError("measure must be 'uniform' or 'haar'")
        object.__setattr__(self, "alpha_points", int(self.alpha_points))
        object.__setattr__(self, "chi_points", int(self.chi_points))

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
        rho = rho.copy()
        rho.setflags(write=False)
        object.__setattr__(self, "entries", rho)

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
    w, q = np.linalg.eigh(build_reduced_hamiltonian(params).entries)
    w.setflags(write=False)
    q.setflags(write=False)
    return w, q


def u_element_curve(params: RouterParams, ts, rows, cols) -> np.ndarray:
    """Propagator elements ``U[rows, cols](t)`` over times ``ts`` (0-based indices).

    ``rows``/``cols`` are ints or equal-length index lists; the result has
    the shape of ``ts`` for ints and ``(len(rows),) + shape(ts)`` for lists,
    for ``ts`` of any dimension.  Every routing statistic reads its elements
    here, so a non-finite time or overflowing phase raises ``ValueError``.
    """
    w, q = _spectrum(params)
    ts = _checked_times(ts, w)
    coeffs = q[rows] * np.conj(q[cols])
    if ts.ndim == 0:
        return coeffs @ np.exp(-1j * (w * ts))
    # One (6, T) phase matrix per row of ts: every row takes the product a 1-d ts takes.
    u = coeffs @ np.exp(-1j * (w[:, None] * ts[..., None, :]))
    return u if coeffs.ndim == 1 else np.moveaxis(u, -2, 0)


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
    row = _check_label(to_label)
    col = _check_label(from_label)
    p = np.clip(np.abs(u_element_curve(params, t, row, col)) ** 2, 0.0, 1.0)
    return float(p) if p.ndim == 0 else p


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


@lru_cache(maxsize=32)
def _chart(grid: SuperpositionGrid) -> tuple[np.ndarray, np.ndarray]:
    """Read-only ``(c, G)``: ``c[:, i, j]`` holds the coefficients
    ``(alpha^2, alpha gamma e^{i chi}, alpha gamma e^{-i chi}, gamma^2)`` of
    ``(U41, U42, U31, U32)`` at grid point (i, j); ``G[k, l]`` is the
    measure-weighted grid mean of ``c[k] conj(c[l])``."""
    alphas = grid.alphas()[:, None]
    gammas = np.sqrt(np.clip(1.0 - alphas**2, 0.0, None))
    phases = np.exp(1j * grid.chis())
    cross = alphas * gammas
    c = np.stack(np.broadcast_arrays(alphas**2, cross * phases, cross * phases.conj(), gammas**2))
    # alphas() always holds 1.0, so the haar weights never sum to zero.
    w = grid.alphas() if grid.measure == "haar" else np.ones(grid.alpha_points)
    g = np.einsum("i,kij,lij->kl", w / (w.sum() * grid.chi_points), c, c.conj())
    c.setflags(write=False)
    g.setflags(write=False)
    return c, g


@lru_cache(maxsize=32)
def _axes(grid: SuperpositionGrid) -> tuple[list[float], list[float]]:
    """``grid.alphas()`` and ``grid.chis()`` as Python floats, built once per grid
    like ``_chart``: the descent reads one start from each per cell."""
    return grid.alphas().tolist(), grid.chis().tolist()


def fidelity_grid(
    params: RouterParams, t: float, grid: SuperpositionGrid | None = None
) -> np.ndarray:
    """Routing fidelity over the (alpha, chi) grid; shape (alpha_points, chi_points)."""
    if grid is None:
        grid = SuperpositionGrid()
    return _grid_from_elements(u_element_curve(params, t, *_TRANSFER).tolist(), grid)


def _grid_from_elements(u: list[complex], grid: SuperpositionGrid) -> np.ndarray:
    """Fidelity grid from ``u = (U41, U42, U31, U32)``, summed elementwise: a BLAS
    contraction here would wake idle BLAS worker threads on every call."""
    c = _chart(grid)[0]
    u41, u42, u31, u32 = u
    overlap = u41 * c[0] + u42 * c[1] + u31 * c[2] + u32 * c[3]
    return np.clip(np.abs(overlap) ** 2, 0.0, 1.0)


def average_fidelity(
    params: RouterParams, t, grid: SuperpositionGrid | None = None
) -> float | np.ndarray:
    """Mean routing fidelity over the (alpha, chi) grid: exactly ``u^T G conj(u)``.

    A float for a scalar ``t``; an array of the shape of ``t`` for an array of times.
    """
    if grid is None:
        grid = SuperpositionGrid()
    u = u_element_curve(params, t, *_TRANSFER)
    g = _chart(grid)[1]
    if u.ndim == 1:
        return _clamp01(float((g * np.outer(u, u.conj())).sum().real))
    return np.clip(np.einsum("kl,k...,l...->...", g, u, u.conj()).real, 0.0, 1.0)


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


def min_fidelity(
    params: RouterParams,
    t,
    grid: SuperpositionGrid | None = None,
    refine: bool = True,
) -> float | np.ndarray:
    """Worst-case routing fidelity over (alpha, chi).

    Takes the grid minimum and, by default, polishes it with ``_descend``
    (chi unbounded; step-halving until both steps drop below 1e-4), since a
    bare grid minimum can overestimate the true worst case.  A float for a
    scalar ``t``; an array of the shape of ``t`` for an array of times, whose
    elements come from one ``u_element_curve`` call.
    """
    if grid is None:
        grid = SuperpositionGrid()
    return _worst_case(u_element_curve(params, t, *_TRANSFER), grid, refine)


# The worst case's descent: alpha in [0, 1], chi unbounded, until both steps are below 1e-4.
_BOUNDS = ((0.0, 1.0), (-math.inf, math.inf))
_TOL = 1e-4
# Cells descending in lockstep at once.  The lockstep state is 24 floats a cell, so this
# bounds its memory whatever the surface; a cell that finishes makes room for the next.
_LOCKSTEP_CELLS = 512
# Once no cell waits and at most this many still descend, each finishes in ``_descend``:
# a numpy sweep costs about as much as the scalar sweeps of a few dozen cells.
_SCALAR_TAIL = 16
# Rows of the lockstep state, one column per cell.  Rows _X to _BEST change with alpha,
# _BEST to _CS with chi; _V and _W hold the planes of U42, U31 that multiply
# Re(alpha gamma e^{i chi}) and Im(alpha gamma e^{i chi}) in the U42 and U31 terms.
_X, _AG, _T1, _T4, _BEST = 0, 1, slice(2, 4), slice(4, 6), 6
_Y, _CS, _STEP_X, _STEP_Y = 7, slice(8, 10), 10, 11
_V, _W, _U41, _U32 = slice(12, 16), slice(16, 20), slice(20, 22), slice(22, 24)
_ROWS = 24


def _worst_case(u: np.ndarray, grid: SuperpositionGrid, refine: bool) -> float | np.ndarray:
    """``min_fidelity`` from the transfer elements ``u = (U41, U42, U31, U32)`` of shape
    ``(4, ...)``: a float for shape ``(4,)``, else an array of shape ``u.shape[1:]``.

    Each cell takes its grid minimum, which ``refine`` polishes by ``_descend``
    from there.  Beyond ``_SCALAR_TAIL`` cells the descents run in lockstep
    (``_lockstep``), and every cell ends bit for bit where ``_descend`` alone
    would take it; that few cells (a scalar time) keep the scalar path.
    """
    cells = u.reshape(4, -1)
    out = np.empty(cells.shape[1])
    if refine and out.size > _SCALAR_TAIL:
        _lockstep(cells, grid, out)
    else:
        for lo in range(0, out.size, _LOCKSTEP_CELLS):
            chunk = cells[:, lo:lo + _LOCKSTEP_CELLS].T.tolist()
            out[lo:lo + len(chunk)] = [_min_at(cell, grid, refine) for cell in chunk]
    np.clip(out, 0.0, 1.0, out=out)
    return float(out[0]) if u.ndim == 1 else out.reshape(u.shape[1:])


def _grid_start(u: list[complex], grid: SuperpositionGrid) -> tuple[float, float, float]:
    """``(alpha, chi, fidelity)`` of the grid minimum for ``u = (U41, U42, U31, U32)``."""
    f = _grid_from_elements(u, grid)
    i, j = divmod(int(np.argmin(f)), grid.chi_points)
    alphas, chis = _axes(grid)
    return alphas[i], chis[j], float(f[i, j])


def _steps(grid: SuperpositionGrid) -> tuple[float, float]:
    """The descent's first steps: one grid spacing in alpha and in chi."""
    return 1.0 / max(grid.alpha_points - 1, 1), TWO_PI / grid.chi_points


def _min_at(u: list[complex], grid: SuperpositionGrid, refine: bool) -> float:
    """The unclamped worst case at one cell, by ``_descend`` alone."""
    alpha, chi, best = _grid_start(u, grid)
    if refine:
        objective = partial(_fidelity_at, *u)
        # The grid rounds apart from objective; the lower start keeps exact chi ties at alpha 0, 1.
        _, _, best = _descend(objective, alpha, chi, min(best, objective(alpha, chi)),
                              _BOUNDS, *_steps(grid), _TOL)
    return best


def _lockstep(cells: np.ndarray, grid: SuperpositionGrid, out: np.ndarray) -> None:
    """Write the unclamped worst case of every column of ``cells`` into ``out``:
    ``_descend`` on ``_fidelity_at`` from the cell's grid minimum.

    Up to ``_LOCKSTEP_CELLS`` cells descend together, one ``_sweep`` at a time; a
    finished cell leaves and, once at most half remain, waiting cells enter.  So
    the few cells that need thousands of sweeps share them, whatever their place
    on the surface.  When no cell waits and at most ``_SCALAR_TAIL`` still descend,
    each continues in ``_descend`` from its state.
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
        _, _, out[k] = _descend(partial(_fidelity_at, *cells[:, k].tolist()), col[_X], col[_Y],
                                col[_BEST], _BOUNDS, col[_STEP_X], col[_STEP_Y], _TOL)


def _start_state(u: np.ndarray, grid: SuperpositionGrid) -> np.ndarray:
    """Lockstep state of the cells ``u`` (shape ``(4, m)``) at their grid minima, with
    ``best`` the lower of the grid's and the objective's value there, as ``_min_at``
    starts them."""
    state = np.empty((_ROWS, u.shape[1]))
    state[_X], state[_Y], state[_BEST] = zip(*(_grid_start(c, grid) for c in u.T.tolist()))
    state[_STEP_X], state[_STEP_Y] = _steps(grid)
    u41, u42, u31, u32 = u
    state[_V] = u42.real, u42.imag, u31.real, u31.imag
    state[_W] = -u42.imag, u42.real, u31.imag, -u31.real
    state[_U41] = u41.real, u41.imag
    state[_U32] = u32.real, u32.imag
    state[_CS] = np.cos(state[_Y]), np.sin(state[_Y])
    _alpha_terms(state, state)
    np.minimum(state[_BEST], _square_overlap(state, state[_AG] * state[_CS], state[_T1],
                                             state[_T4]), out=state[_BEST])
    return state


def _alpha_terms(state: np.ndarray, moved: np.ndarray) -> None:
    """From the alphas in ``moved[_X]``, write ``alpha gamma``, ``alpha^2 U41`` and
    ``gamma^2 U32`` into its rows _AG, _T1 and _T4, as ``_fidelity_at`` rounds them."""
    alpha = moved[_X]
    aa = alpha * alpha
    gamma = np.sqrt(np.maximum(1.0 - aa, 0.0))
    np.multiply(alpha, gamma, out=moved[_AG])
    np.multiply(aa, state[_U41], out=moved[_T1])
    gamma *= gamma
    np.multiply(gamma, state[_U32], out=moved[_T4])


def _square_overlap(state: np.ndarray, p: np.ndarray, t1: np.ndarray, t4: np.ndarray,
                    out: np.ndarray | None = None) -> np.ndarray:
    """``|t1 + p U42 + conj(p) U31 + t4|^2`` per cell, from the planes of ``p = alpha gamma
    e^{i chi}``, ``t1 = alpha^2 U41`` and ``t4 = gamma^2 U32``.

    Each product and sum is the one CPython's complex arithmetic makes in
    ``_fidelity_at``, in its order, and ``np.hypot`` is its ``abs``; numpy's own
    complex multiply and ``abs`` round differently.
    """
    t23 = p[0] * state[_V]
    t23 += p[1] * state[_W]
    ov = t1 + t23[:2]
    ov += t23[2:]
    ov += t4
    a = np.hypot(ov[0], ov[1], out=out)
    return np.multiply(a, a, out=a)


def _sweep(state: np.ndarray) -> None:
    """One sweep of ``_descend`` on every cell of the lockstep state, in place: the moves
    ``+-step_x`` then ``+-step_y`` in turn, each kept where it lowers ``best``; a cell
    without a kept move halves both steps."""
    x, best, y = state[_X], state[_BEST], state[_Y]
    step_x, step_y = state[_STEP_X], state[_STEP_Y]
    improved = np.zeros(x.size, dtype=bool)
    moved = np.empty((_BEST + 1, x.size))  # the rows _X to _BEST of a move in alpha
    for d, clamp, bound in ((step_x, np.minimum, 1.0), (-step_x, np.maximum, 0.0)):
        clamp(np.add(x, d, out=moved[_X]), bound, out=moved[_X])
        _alpha_terms(state, moved)
        _square_overlap(state, moved[_AG] * state[_CS], moved[_T1], moved[_T4], moved[_BEST])
        keep = (moved[_X] != x) & (moved[_BEST] < best)
        np.copyto(state[:_BEST + 1], moved, where=keep)
        improved |= keep
    turned = np.empty((4, x.size))  # the rows _BEST to _CS of a move in chi
    for d in (step_y, -step_y):
        chi = np.add(y, d, out=turned[1])
        np.cos(chi, out=turned[2])
        np.sin(chi, out=turned[3])
        _square_overlap(state, state[_AG] * turned[2:], state[_T1], state[_T4], turned[0])
        keep = (chi != y) & (turned[0] < best)
        np.copyto(state[_BEST:_STEP_X], turned, where=keep)
        improved |= keep
    np.multiply(state[_STEP_X:_STEP_Y + 1], 0.5, out=state[_STEP_X:_STEP_Y + 1],
                where=~improved)
