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

from .dynamics import PureState, _finite_times
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
    "mixed_state_fidelity",
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
    here, so a non-finite time raises ``ValueError`` for all of them.
    """
    ts = _finite_times(ts)
    w, q = _spectrum(params)
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
    return abs(ov) ** 2


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
    t: float,
    grid: SuperpositionGrid | None = None,
    refine: bool = True,
) -> float:
    """Worst-case routing fidelity over (alpha, chi).

    Takes the grid minimum and, by default, polishes it with ``_descend``
    (chi unbounded; step-halving until both steps drop below 1e-4), since a
    bare grid minimum can overestimate the true worst case.
    """
    if grid is None:
        grid = SuperpositionGrid()
    u = u_element_curve(params, t, *_TRANSFER).tolist()
    f = _grid_from_elements(u, grid)
    i, j = np.unravel_index(np.argmin(f), f.shape)
    best = float(f[i, j])
    if refine:
        objective = partial(_fidelity_at, *u)
        alpha, chi = float(grid.alphas()[i]), float(grid.chis()[j])
        # The grid rounds apart from objective; the lower start keeps exact chi ties at alpha 0, 1.
        _, _, best = _descend(objective, alpha, chi, min(best, objective(alpha, chi)),
                              ((0.0, 1.0), (-math.inf, math.inf)),
                              1.0 / max(grid.alpha_points - 1, 1), TWO_PI / grid.chi_points, 1e-4)
    return _clamp01(best)


def _sqrt_psd(m: np.ndarray) -> np.ndarray:
    w, q = np.linalg.eigh(m)
    w = np.clip(w, 0.0, None)
    return (q * np.sqrt(w)) @ q.conj().T


def _uhlmann_fidelity_general(rho: np.ndarray, sigma: np.ndarray) -> float:
    """``[tr sqrt(sqrt(rho) sigma sqrt(rho))]^2`` without purity shortcuts."""
    a = _sqrt_psd(rho)
    w = np.linalg.eigvalsh(a @ sigma @ a)
    return _clamp01(float(np.sum(np.sqrt(np.clip(w, 0.0, None))) ** 2))


def mixed_state_fidelity(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Uhlmann fidelity between density matrices.

    When either argument is pure the expression collapses to an expectation
    value (``<w|sigma|w>``), which is taken as a required fast path.
    """
    if rho.dim != sigma.dim:
        raise ValueError("density matrices must share a dimension")
    r = rho.entries
    s = sigma.entries
    for pure, other in ((r, s), (s, r)):
        purity = float(np.trace(pure @ pure).real)
        if purity > 1.0 - 1e-10:
            w, q = np.linalg.eigh(pure)
            vec = q[:, -1]
            return _clamp01(float(np.vdot(vec, other @ vec).real))
    return _uhlmann_fidelity_general(r, s)
