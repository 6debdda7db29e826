"""Routing figures of merit.

Everything here is driven by four matrix elements of the reduced-basis
propagator: for an input ``alpha |1> + gamma e^{i chi} |2>`` and target
``alpha |4> + gamma e^{i chi} |3>`` (``gamma = sqrt(1 - alpha^2)``), the
transfer overlap is

    <w| U(t) |psi0> = alpha^2 U41 + alpha gamma e^{i chi} U42
                      + alpha gamma e^{-i chi} U31 + gamma^2 U32

so grid averages and minimizations over (alpha, chi) reuse one spectral
decomposition per (n, beta, phi).  Decompositions are memoized on the
(hashable) ``RouterParams``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .dynamics import PureState
from .hamiltonian import TWO_PI, RouterParams, build_reduced_hamiltonian

__all__ = [
    "SuperpositionParams",
    "SuperpositionGrid",
    "DensityMatrix",
    "FidelityCurve",
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


@dataclass(frozen=True, eq=False)
class FidelityCurve:
    """Fidelity-versus-time record (container for scan/noise curve data)."""

    times: np.ndarray
    values: np.ndarray
    params: RouterParams
    input_desc: str = ""
    target_desc: str = ""

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if times.ndim != 1 or values.shape != times.shape:
            raise ValueError("times and values must be 1-d and the same length")
        if times.size > 1 and np.any(np.diff(times) < 0):
            raise ValueError("times must be sorted ascending")
        if np.any(values < -1e-12) or np.any(values > 1.0 + 1e-12):
            raise ValueError("fidelity values must lie in [0, 1] (within 1e-12)")
        times.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)


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
    the shape of ``ts`` for ints and ``(len(rows),) + shape(ts)`` for lists.
    """
    w, q = _spectrum(params)
    ts = np.asarray(ts, dtype=float)
    return (q[rows] * np.conj(q[cols])) @ np.exp(-1j * np.multiply.outer(w, ts))


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
    params: RouterParams, t: float, from_label: int, to_label: int
) -> float:
    """``|<to| exp(-i H_red t) |from>|^2`` over reduced-basis labels 1..6."""
    row = _check_label(to_label)
    col = _check_label(from_label)
    return _clamp01(abs(u_element_curve(params, t, row, col)) ** 2)


def per_wrong_output_probability(params: RouterParams, t: float) -> float:
    """Probability of arriving at each individual wrong output, ``P16 / (n - 1)``."""
    p16 = transition_probability(params, t, 1, 6)
    return p16 / (params.n_outputs - 1)


def routing_fidelity(params: RouterParams, t: float, sp: SuperpositionParams) -> float:
    """``|<w| U(t) |psi0>|^2`` for the superposition input and its target."""
    alpha = sp.alpha
    gamma = math.sqrt(max(0.0, 1.0 - alpha**2))
    u41, u42, u31, u32 = u_element_curve(params, t, *_TRANSFER).tolist()
    phase = np.exp(1j * sp.chi)
    overlap = (
        alpha * alpha * u41
        + alpha * gamma * phase * u42
        + alpha * gamma * np.conj(phase) * u31
        + gamma * gamma * u32
    )
    return _clamp01(abs(overlap) ** 2)


def fidelity_grid(
    params: RouterParams, t: float, grid: SuperpositionGrid | None = None
) -> np.ndarray:
    """Routing fidelity over the (alpha, chi) grid; shape (alpha_points, chi_points)."""
    if grid is None:
        grid = SuperpositionGrid()
    return _grid_from_elements(u_element_curve(params, t, *_TRANSFER).tolist(), grid)


def _grid_from_elements(u: list[complex], grid: SuperpositionGrid) -> np.ndarray:
    """Fidelity grid from the transfer elements ``(U41, U42, U31, U32)``."""
    alphas = grid.alphas()
    gammas = np.sqrt(np.clip(1.0 - alphas**2, 0.0, None))
    phases = np.exp(1j * grid.chis())
    u41, u42, u31, u32 = u
    overlap = (
        (alphas**2 * u41 + gammas**2 * u32)[:, None]
        + np.outer(alphas * gammas, u42 * phases + u31 * np.conj(phases))
    )
    return np.clip(np.abs(overlap) ** 2, 0.0, 1.0)


def _grid_weights(grid: SuperpositionGrid) -> np.ndarray | None:
    if grid.measure == "uniform":
        return None
    w = grid.alphas()
    total = w.sum()
    if total <= 0.0:
        raise ValueError("haar weighting needs at least one alpha > 0")
    return w / total


def average_fidelity(
    params: RouterParams, t: float, grid: SuperpositionGrid | None = None
) -> float:
    """Mean routing fidelity over the (alpha, chi) grid."""
    if grid is None:
        grid = SuperpositionGrid()
    f = fidelity_grid(params, t, grid)
    w = _grid_weights(grid)
    if w is None:
        return _clamp01(float(f.mean()))
    return _clamp01(float((w[:, None] * f).sum() / grid.chi_points))


def min_fidelity(
    params: RouterParams,
    t: float,
    grid: SuperpositionGrid | None = None,
    refine: bool = True,
) -> float:
    """Worst-case routing fidelity over (alpha, chi).

    Takes the grid minimum and, by default, polishes it with coordinate
    descent (step-halving until both steps drop below 1e-4), since a bare
    grid minimum can overestimate the true worst case.
    """
    if grid is None:
        grid = SuperpositionGrid()
    u = u_element_curve(params, t, *_TRANSFER).tolist()
    f = _grid_from_elements(u, grid)
    i, j = np.unravel_index(np.argmin(f), f.shape)
    best = float(f[i, j])
    if not refine:
        return _clamp01(best)

    u41, u42, u31, u32 = u

    def objective(alpha: float, chi: float) -> float:
        gamma = math.sqrt(max(0.0, 1.0 - alpha * alpha))
        ph = complex(math.cos(chi), math.sin(chi))
        ov = (
            alpha * alpha * u41
            + alpha * gamma * ph * u42
            + alpha * gamma * ph.conjugate() * u31
            + gamma * gamma * u32
        )
        return abs(ov) ** 2

    alpha = float(grid.alphas()[i])
    chi = float(grid.chis()[j])
    step_a = 1.0 / max(grid.alpha_points - 1, 1)
    step_c = TWO_PI / grid.chi_points
    while step_a >= 1e-4 or step_c >= 1e-4:
        improved = False
        for da in (step_a, -step_a):
            cand = min(max(alpha + da, 0.0), 1.0)
            val = objective(cand, chi)
            if val < best:
                alpha, best, improved = cand, val, True
        for dc in (step_c, -step_c):
            cand = chi + dc
            val = objective(alpha, cand)
            if val < best:
                chi, best, improved = cand, val, True
        if not improved:
            step_a *= 0.5
            step_c *= 0.5
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
