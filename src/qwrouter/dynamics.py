"""Unitary time evolution via Hermitian eigendecomposition.

All propagators are computed as ``U = Q exp(-i L t) Q^dag`` from
``H = Q L Q^dag`` (real eigenvalues), which is exact to roundoff for the
small dense Hermitian matrices used here and lets one decomposition serve
many evolution times.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import hamiltonian
from .hamiltonian import TWO_PI, HermitianMatrix, RouterParams, _check_full_graph, _read_only

__all__ = ["PureState", "Propagator", "propagator", "evolve", "verify_reduction"]

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
        if not abs(norm_sq - 1.0) <= _HERMITICITY_TOL:  # a NaN amplitude fails too
            raise ValueError(f"state norm^2 = {norm_sq!r} is not 1 within 1e-10")
        object.__setattr__(self, "amplitudes", _read_only(amps.copy()))

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
        if not defect <= _UNITARITY_TOL:  # a NaN entry fails too
            raise ValueError(f"matrix is not unitary (defect {defect:.3e})")
        object.__setattr__(self, "matrix", _read_only(u.copy()))
        object.__setattr__(self, "time", float(self.time))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


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


def _unitaries(spectrum: tuple[np.ndarray, np.ndarray], t: float) -> np.ndarray:
    """``exp(-i h t)`` from ``spectrum = np.linalg.eigh(h)`` for Hermitian ``h`` of shape
    ``(..., d, d)``, with any leading batch shape."""
    w, q = spectrum
    t = _checked_times(t, w)
    return (q * np.exp(-1j * w * t)[..., None, :]) @ q.conj().swapaxes(-1, -2)


def _evolved(spectrum: tuple[np.ndarray, np.ndarray], t: float, amps: np.ndarray) -> np.ndarray:
    """``exp(-i h t) amps`` from ``spectrum = np.linalg.eigh(h)`` for Hermitian ``h`` of
    shape ``(..., d, d)`` and ``amps`` of shape ``(d,)`` or ``(..., d)``, without forming
    the propagators; callers that evolve to many times decompose once."""
    w, q = spectrum
    t = _checked_times(t, w)
    coeff = np.exp(-1j * w * t) * (q.conj().swapaxes(-1, -2) @ amps[..., None])[..., 0]
    return (q @ coeff[..., None])[..., 0]


def _checked_times(t, w: np.ndarray) -> np.ndarray:
    """``t`` as a float array; ``ValueError`` unless every phase ``w t`` is finite, since
    ``exp(-i w t)`` is NaN otherwise.  ``w`` ascends along its last axis, as from ``eigh``."""
    t = np.asarray(t, dtype=float)
    if t.ndim == 0 and w.ndim == 1:  # Python floats: no numpy reduction for a scalar time
        finite = math.isfinite(float(t) * float(w[0])) and math.isfinite(float(t) * float(w[-1]))
    else:
        finite = math.isfinite(float(np.abs(t).max(initial=0.0))
                               * float(np.abs(w[..., [0, -1]]).max(initial=0.0)))
    if not finite:
        raise ValueError("t must be finite" if not np.isfinite(t).all()
                         else "t is too large: the phases w t overflow for this Hamiltonian")
    return t


def propagator(h: HermitianMatrix | np.ndarray, t: float) -> Propagator:
    """Evolution operator ``exp(-i h t)``.

    Rejects a ``t`` that is non-finite or overflows a phase, and inputs whose
    conjugate asymmetry exceeds 1e-10.
    """
    return Propagator(_unitaries(np.linalg.eigh(_hermitian_entries(h)), t), t)


def evolve(h: HermitianMatrix | np.ndarray, t: float, psi0: PureState) -> PureState:
    """Evolve ``psi0`` for time ``t`` under the constant Hamiltonian ``h``."""
    entries = _hermitian_entries(h)
    if psi0.dim != entries.shape[0]:
        raise ValueError("state dimension does not match Hamiltonian")
    return PureState(_evolved(np.linalg.eigh(entries), t, psi0.amplitudes))


def verify_reduction(n_max: int, trials: int, rng: np.random.Generator) -> list[float]:
    """Check the six-state model against the full graph; worst deviation per ``n``.

    For each ``n = 2 .. n_max``, ``trials`` cases draw ``beta`` in [-2, 2),
    ``phi`` in [0, 2 pi), ``t`` in [0, 30) and a random reduced state, lift it
    through ``hamiltonian.reduction_isometry`` (looked up per call, so tests
    can substitute a corrupted one), evolve it on the full graph (its own
    ``eigh``), project it back and compare with the reduced evolution, which
    comes from ``hamiltonian._reduced_spectra``.  Returns the largest absolute
    amplitude deviation seen at each ``n``.  ``n_max`` is at most 1023, as in
    ``build_full_hamiltonian``.
    """
    n_max, trials = hamiltonian._integer("n_max", n_max), hamiltonian._integer("trials", trials)
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    _check_full_graph(n_max, "n_max")
    worst_per_n = []
    for n in range(2, n_max + 1):
        isometry = hamiltonian.reduction_isometry(n)
        worst = 0.0
        for _ in range(trials):
            beta = rng.uniform(-2.0, 2.0)
            phi = rng.uniform(0.0, TWO_PI)
            t = rng.uniform(0.0, 30.0)
            params = RouterParams(n_outputs=n, beta=beta, phi=phi)
            raw = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            psi_red = raw / np.linalg.norm(raw)
            full0 = isometry @ psi_red
            full = np.linalg.eigh(hamiltonian.build_full_hamiltonian(params).entries)
            projected = isometry.conj().T @ _evolved(full, t, full0 / np.linalg.norm(full0))
            red = hamiltonian._reduced_spectra(n, params.beta, params.phi)
            worst = max(worst, float(np.max(np.abs(projected - _evolved(red, t, psi_red)))))
        worst_per_n.append(worst)
    return worst_per_n
