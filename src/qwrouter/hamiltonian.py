"""Router-graph Hamiltonians and the six-state reduction.

The router is a complete graph on ``n + 1`` internal vertices, each internal
vertex attached to exactly one external (port) vertex.  One internal link —
from the input internal vertex to the output internal vertex — is replaced by
a weighted, phased element ``beta * exp(-i * phi)``, which breaks time-reversal
symmetry and biases transport toward the chosen output port.

Because all unassigned internal vertices evolve identically (and likewise
their externals), the full ``2(n + 1)``-dimensional walk collapses exactly
onto six orthonormal states:

    |1>  input external        |4>  output external
    |2>  input internal        |5>  symmetric sum of unassigned internals
    |3>  output internal       |6>  symmetric sum of unassigned externals

``reduction_isometry`` returns the matrix ``V`` whose columns are these six
states written in the full basis; ``V.conj().T @ H_full @ V`` equals the
six-dimensional Hamiltonian of ``build_reduced_hamiltonian`` exactly.

Sign convention: the phased link carries ``exp(-i * phi)`` on the
(input internal -> output internal) element, the unique choice under which
the six-state model agrees with the full graph entrywise.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "RouterParams",
    "HermitianMatrix",
    "build_full_hamiltonian",
    "build_reduced_hamiltonian",
    "reduced_hamiltonians",
    "reduction_isometry",
]

TWO_PI = 2.0 * math.pi
# The full graph is a dense (2 (n + 1))^2 complex matrix, and HermitianMatrix takes a
# conjugate and a copy of it: its dimension is capped here, at 64 MiB a matrix.
_FULL_DIM_MAX = 2048


def _read_only(x: np.ndarray) -> np.ndarray:
    """``x``, made read-only in place: the arrays of a frozen value or a cache entry."""
    x.setflags(write=False)
    return x


def _check_n_outputs(n) -> None:
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise TypeError("n_outputs must be an integer")
    if n < 2:
        raise ValueError("n_outputs must be >= 2")
    if n > sys.float_info.max:  # the reduced Hamiltonian holds n - 2 and sqrt(n - 1) as floats
        raise ValueError(f"n_outputs must be at most {sys.float_info.max!r}")


def _check_full_graph(n: int, name: str = "n") -> None:
    """``ValueError`` naming ``name`` unless the full graph of ``n`` outputs fits in
    ``_FULL_DIM_MAX``: checked before anything is allocated."""
    if 2 * (n + 1) > _FULL_DIM_MAX:
        raise ValueError(f"{name} must be at most {_FULL_DIM_MAX // 2 - 1}, so that the full "
                         f"graph's dimension 2 (n + 1) is at most {_FULL_DIM_MAX}; got {n}")


@dataclass(frozen=True)
class RouterParams:
    """One router instance: output count ``n``, link weight ``beta``, chiral phase ``phi``.

    Parameters
    ----------
    n_outputs : int
        Number of output ports ``n``; must be at least 2 (the symmetric
        reduced states carry a ``1/sqrt(n - 1)`` normalization).
    beta : float
        Real weight of the modified internal link.  Any finite real value is
        accepted, including 0 (link removed) and negatives.
    phi : float
        Chiral phase in radians; stored reduced modulo ``2*pi``.
    """

    n_outputs: int
    beta: float = 1.0
    phi: float = 0.0

    def __post_init__(self) -> None:
        _check_n_outputs(self.n_outputs)
        beta = float(self.beta)
        phi = float(self.phi)
        if not math.isfinite(beta):
            raise ValueError("beta must be finite")
        if not math.isfinite(phi):
            raise ValueError("phi must be finite")
        object.__setattr__(self, "n_outputs", int(self.n_outputs))
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "phi", phi % TWO_PI)


@dataclass(frozen=True, eq=False)
class HermitianMatrix:
    """Square complex matrix that is exactly equal to its conjugate transpose.

    The invariant is checked with exact (bitwise) equality, not a tolerance:
    constructors in this module fill one triangle and mirror the conjugate,
    so no roundoff asymmetry can occur.
    """

    entries: np.ndarray

    def __post_init__(self) -> None:
        entries = np.asarray(self.entries, dtype=complex)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ValueError("entries must be a square matrix")
        if not np.array_equal(entries, entries.conj().T):
            raise ValueError("matrix is not exactly conjugate-symmetric")
        object.__setattr__(self, "entries", _read_only(entries.copy()))

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


def build_full_hamiltonian(params: RouterParams) -> HermitianMatrix:
    """Hamiltonian of the full ``2(n + 1)``-vertex router graph.

    Internal vertices occupy indices ``0 .. n`` and external vertices
    ``n+1 .. 2n+1``; external ``n + 1 + m`` is attached to internal ``m``.  The
    input port is the pair (external ``n+1``, internal ``0``) and the output port
    (internal ``1``, external ``n+2``): the core is a complete graph, so every
    other choice of two ports is a relabeling of this one.

    The internal block is the all-ones off-diagonal adjacency of the complete
    graph, except that the (input internal, output internal) element is
    replaced by ``beta * exp(-i * phi)`` (conjugate on the mirrored element).
    Each internal vertex couples to its own external vertex with weight 1.
    The diagonal is zero.  With ``beta = 1`` and ``phi = 0`` the result is the
    plain 0/1 adjacency matrix of the graph.  ``n`` is at most 1023, a dimension of
    2048 (``_FULL_DIM_MAX``).
    """
    n = params.n_outputs
    _check_full_graph(n)
    nv = n + 1
    h = np.zeros((2 * nv, 2 * nv), dtype=complex)
    h[:nv, :nv] = 1.0
    np.fill_diagonal(h[:nv, :nv], 0.0)
    link = params.beta * np.exp(-1j * params.phi)
    h[0, 1] = link
    h[1, 0] = link.conjugate()
    for m in range(nv):
        h[m, nv + m] = h[nv + m, m] = 1.0
    return HermitianMatrix(h)


def reduced_hamiltonians(n: int, beta, phis) -> np.ndarray:
    """Six-dimensional Hamiltonians over the reduced basis, one per ``(beta, phi)`` pair.

    ``beta`` and ``phis`` are each a scalar or a 1-d array; they broadcast to
    one length ``m`` (1 when both are scalars), and the result has shape
    ``(m, 6, 6)``.  Any other shape raises ``ValueError``.  Reduced-basis labels
    1..6 map to row/column indices 0..5.  Nonzero elements (upper triangle):
    (1,2)=1, (2,3)=beta*exp(-i*phi), (2,5)=(3,5)=sqrt(n-1), (3,4)=1, (5,6)=1,
    and the diagonal element (5,5)=n-2; the lower triangle is the conjugate
    mirror.
    """
    beta = np.asarray(beta, dtype=float)
    phis = np.asarray(phis, dtype=float)
    if beta.ndim > 1 or phis.ndim > 1:
        raise ValueError("beta and phis must each be a scalar or a 1-d array")
    try:
        (m,) = np.broadcast_shapes(beta.shape, phis.shape, (1,))
    except ValueError:
        raise ValueError(f"beta and phis have different lengths: {beta.size} and {phis.size}"
                         ) from None
    s = math.sqrt(n - 1.0)
    h = np.zeros((m, 6, 6), dtype=complex)
    for i, j, value in ((0, 1, 1.0), (1, 4, s), (2, 4, s), (2, 3, 1.0), (4, 5, 1.0)):
        h[:, i, j] = h[:, j, i] = value
    # The phased pair is written as its two entries of ``upper + upper^H`` so
    # that signed zeros (visible in JSON output) follow that mirror exactly.
    link = beta * np.exp(-1j * phis)
    zero = np.zeros_like(link)
    h[:, 1, 2] = link + zero.conj()
    h[:, 2, 1] = zero + link.conj()
    h[:, 4, 4] = n - 2.0
    return h


def _reduced_spectra(n: int, beta, phis) -> tuple[np.ndarray, np.ndarray]:
    """Read-only ``np.linalg.eigh`` of ``reduced_hamiltonians(n, beta, phis)``, shapes
    ``(m, 6)`` and ``(m, 6, 6)``: the one place a reduced Hamiltonian is decomposed.
    A failed decomposition raises ``ValueError`` naming ``n`` and the stack's ranges."""
    try:
        return tuple(map(_read_only, np.linalg.eigh(reduced_hamiltonians(n, beta, phis))))
    except np.linalg.LinAlgError as exc:
        span = lambda x: f"[{float(np.min(x))!r}, {float(np.max(x))!r}]"
        raise ValueError(f"no eigendecomposition of the reduced Hamiltonian at n={n}, beta in "
                         f"{span(beta)}, phi in {span(phis)}: {exc}") from None


def build_reduced_hamiltonian(params: RouterParams) -> HermitianMatrix:
    """Six-dimensional Hamiltonian of one router (see ``reduced_hamiltonians``)."""
    return HermitianMatrix(
        reduced_hamiltonians(params.n_outputs, params.beta, [params.phi])[0]
    )


def reduction_isometry(n: int) -> np.ndarray:
    """Isometry ``V`` (shape ``2(n+1) x 6``) from the reduced basis to the full graph's,
    with the ports of ``build_full_hamiltonian``.

    Columns are, in order: the input external, the input internal, the output
    internal, the output external, the normalized symmetric sum of unassigned
    internals, and the normalized symmetric sum of their externals.  Columns
    are orthonormal, and ``V.conj().T @ H_full @ V`` reproduces
    ``build_reduced_hamiltonian`` exactly.
    """
    _check_n_outputs(n)
    _check_full_graph(n)
    v = np.zeros((2 * (n + 1), 6), dtype=complex)
    v[n + 1, 0] = v[0, 1] = v[1, 2] = v[n + 2, 3] = 1.0
    amp = 1.0 / math.sqrt(n - 1.0)
    v[2:n + 1, 4] = amp
    v[n + 3:, 5] = amp
    return v
