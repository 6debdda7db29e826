"""Unitary time evolution via Hermitian eigendecomposition.

All propagators are computed as ``U = Q exp(-i L t) Q^dag`` from
``H = Q L Q^dag`` (real eigenvalues), which is exact to roundoff for the
small dense Hermitian matrices used here and lets one decomposition serve
many evolution times.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import hamiltonian
from .hamiltonian import TWO_PI, HermitianMatrix, RouterParams

__all__ = ["PureState", "Propagator", "propagator", "evolve", "evolve_piecewise",
           "verify_reduction"]

_HERMITICITY_TOL = 1e-10
_UNITARITY_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class PureState:
    """Normalized complex amplitude vector."""

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.ndim != 1 or amps.size == 0:
            raise ValueError("amplitudes must be a nonempty 1-d vector")
        norm_sq = float(np.sum(np.abs(amps) ** 2))
        if abs(norm_sq - 1.0) > _HERMITICITY_TOL:
            raise ValueError(f"state norm^2 = {norm_sq!r} is not 1 within 1e-10")
        amps = amps.copy()
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]


@dataclass(frozen=True, eq=False)
class Propagator:
    """Unitary evolution operator together with its effective time."""

    matrix: np.ndarray
    time: float

    def __post_init__(self) -> None:
        u = np.asarray(self.matrix, dtype=complex)
        if u.ndim != 2 or u.shape[0] != u.shape[1]:
            raise ValueError("matrix must be square")
        defect = np.linalg.norm(u.conj().T @ u - np.eye(u.shape[0]))
        if defect > _UNITARITY_TOL:
            raise ValueError(f"matrix is not unitary (defect {defect:.3e})")
        u = u.copy()
        u.setflags(write=False)
        object.__setattr__(self, "matrix", u)
        object.__setattr__(self, "time", float(self.time))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def apply(self, psi: PureState) -> PureState:
        if psi.dim != self.dim:
            raise ValueError("state dimension does not match propagator")
        return PureState(self.matrix @ psi.amplitudes)


def _hermitian_entries(h: HermitianMatrix | np.ndarray) -> np.ndarray:
    """Validate and return the underlying matrix of a (possibly raw) Hermitian input."""
    if isinstance(h, HermitianMatrix):
        return h.entries
    arr = np.asarray(h, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError("Hamiltonian must be a square matrix")
    defect = float(np.max(np.abs(arr - arr.conj().T)))
    if defect > _HERMITICITY_TOL:
        raise ValueError(f"Hamiltonian is not Hermitian (max asymmetry {defect:.3e})")
    return arr


def _unitaries(h: np.ndarray, t: float) -> np.ndarray:
    """``exp(-i h t)`` for Hermitian ``h`` of shape ``(..., d, d)``, with any leading batch shape."""
    w, q = np.linalg.eigh(h)
    return (q * np.exp(-1j * w * t)[..., None, :]) @ q.conj().swapaxes(-1, -2)


def _evolved(spectrum: tuple[np.ndarray, np.ndarray], t: float, amps: np.ndarray) -> np.ndarray:
    """``exp(-i h t) amps`` from ``spectrum = np.linalg.eigh(h)`` for Hermitian ``h`` of
    shape ``(..., d, d)`` and ``amps`` of shape ``(d,)`` or ``(..., d)``, without forming
    the propagators; callers that evolve to many times decompose once."""
    w, q = spectrum
    coeff = np.exp(-1j * w * t) * (q.conj().swapaxes(-1, -2) @ amps[..., None])[..., 0]
    return (q @ coeff[..., None])[..., 0]


def _finite_times(t) -> np.ndarray:
    """``t`` as a float array; a NaN or infinite time raises ``ValueError``."""
    t = np.asarray(t, dtype=float)
    # math.isfinite skips a numpy reduction on the scalar time every routing statistic passes.
    if not (math.isfinite(t) if t.ndim == 0 else np.isfinite(t).all()):
        raise ValueError("t must be finite")
    return t


def propagator(h: HermitianMatrix | np.ndarray, t: float) -> Propagator:
    """Evolution operator ``exp(-i h t)``.

    Rejects non-finite ``t`` and inputs whose conjugate asymmetry exceeds
    1e-10.
    """
    t = _finite_times(t)
    return Propagator(_unitaries(_hermitian_entries(h), t), t)


def evolve(h: HermitianMatrix | np.ndarray, t: float, psi0: PureState) -> PureState:
    """Evolve ``psi0`` for time ``t`` under the constant Hamiltonian ``h``."""
    entries = _hermitian_entries(h)
    if psi0.dim != entries.shape[0]:
        raise ValueError("state dimension does not match Hamiltonian")
    return PureState(_evolved(np.linalg.eigh(entries), _finite_times(t), psi0.amplitudes))


def evolve_piecewise(
    h_sequence: Sequence[HermitianMatrix | np.ndarray] | Iterable,
    dt: float,
    psi0: PureState,
) -> PureState:
    """Piecewise-constant evolution: apply ``exp(-i H_m dt)`` in sequence order.

    The first element of the sequence acts first (earliest time), i.e. the
    result is ``U_M ... U_2 U_1 psi0``.
    """
    dt = float(dt)
    if not (dt > 0.0 and math.isfinite(dt)):
        raise ValueError("dt must be positive and finite")
    hs = list(h_sequence)
    if not hs:
        raise ValueError("h_sequence must not be empty")
    for h in hs:
        psi0 = evolve(h, dt, psi0)
    return psi0


def verify_reduction(n_max: int, trials: int, rng: np.random.Generator) -> list[float]:
    """Check the six-state model against the full graph; worst deviation per ``n``.

    For each ``n = 2 .. n_max``, ``trials`` cases draw ``beta`` in [-2, 2),
    ``phi`` in [0, 2 pi), ``t`` in [0, 30) and a random reduced state, lift it
    through ``hamiltonian.reduction_isometry`` (looked up per call, so tests
    can substitute a corrupted one), evolve it on the full graph, project it
    back and compare with the reduced evolution.  Returns the largest
    absolute amplitude deviation seen at each ``n``.
    """
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    worst_per_n = []
    for n in range(2, n_max + 1):
        layout = hamiltonian.FullGraphLayout(n)
        isometry = hamiltonian.reduction_isometry(layout)
        worst = 0.0
        for _ in range(trials):
            beta = rng.uniform(-2.0, 2.0)
            phi = rng.uniform(0.0, TWO_PI)
            t = rng.uniform(0.0, 30.0)
            params = RouterParams(n_outputs=n, beta=beta, phi=phi)
            raw = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            psi_red = PureState(raw / np.linalg.norm(raw))
            full0 = isometry @ psi_red.amplitudes
            full0 = PureState(full0 / np.linalg.norm(full0))
            evolved_full = evolve(hamiltonian.build_full_hamiltonian(params, layout), t, full0)
            projected = isometry.conj().T @ evolved_full.amplitudes
            evolved_red = evolve(hamiltonian.build_reduced_hamiltonian(params), t, psi_red)
            worst = max(worst, float(np.max(np.abs(projected - evolved_red.amplitudes))))
        worst_per_n.append(worst)
    return worst_per_n
