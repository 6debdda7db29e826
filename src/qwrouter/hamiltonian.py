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
from dataclasses import dataclass

import numpy as np

__all__ = [
    "RouterParams",
    "HermitianMatrix",
    "FullGraphLayout",
    "build_full_hamiltonian",
    "build_reduced_hamiltonian",
    "reduced_hamiltonians",
    "reduction_isometry",
]

TWO_PI = 2.0 * math.pi


def _check_n_outputs(n) -> None:
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise TypeError("n_outputs must be an integer")
    if n < 2:
        raise ValueError("n_outputs must be >= 2")


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
        entries = entries.copy()
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class FullGraphLayout:
    """Vertex bookkeeping for the full graph.

    Internal vertices occupy indices ``0 .. n`` and external vertices
    ``n+1 .. 2n+1``; external ``n + 1 + m`` is attached to internal ``m``.
    By default the input port is the pair (external ``n+1``, internal ``0``)
    and the output port is (internal ``1``, external ``n+2``); any pair of
    distinct internals may be selected instead, since every port of the
    network can serve as sender or receiver.
    """

    n_outputs: int
    input_internal: int = 0
    output_internal: int = 1

    def __post_init__(self) -> None:
        _check_n_outputs(self.n_outputs)
        n = int(self.n_outputs)
        i, o = int(self.input_internal), int(self.output_internal)
        if not (0 <= i <= n and 0 <= o <= n):
            raise ValueError("port indices must be internal vertices (0..n)")
        if i == o:
            raise ValueError("input_internal and output_internal must differ")
        object.__setattr__(self, "n_outputs", n)
        object.__setattr__(self, "input_internal", i)
        object.__setattr__(self, "output_internal", o)

    @property
    def dim(self) -> int:
        return 2 * (self.n_outputs + 1)

    @property
    def internal_indices(self) -> range:
        return range(0, self.n_outputs + 1)

    def external_for(self, internal: int) -> int:
        """Index of the external vertex attached to ``internal``."""
        return self.n_outputs + 1 + internal


def build_full_hamiltonian(
    params: RouterParams, layout: FullGraphLayout | None = None
) -> HermitianMatrix:
    """Hamiltonian of the full ``2(n + 1)``-vertex router graph.

    The internal block is the all-ones off-diagonal adjacency of the complete
    graph, except that the (input internal, output internal) element is
    replaced by ``beta * exp(-i * phi)`` (conjugate on the mirrored element).
    Each internal vertex couples to its own external vertex with weight 1.
    The diagonal is zero.  With ``beta = 1`` and ``phi = 0`` the result is the
    plain 0/1 adjacency matrix of the graph.

    Parameters
    ----------
    params : RouterParams
    layout : FullGraphLayout, optional
        Defaults to input at internal 0, output at internal 1.

    Returns
    -------
    HermitianMatrix
        Of dimension ``2 * (n_outputs + 1)``.
    """
    if layout is None:
        layout = FullGraphLayout(params.n_outputs)
    if layout.n_outputs != params.n_outputs:
        raise ValueError("layout.n_outputs does not match params.n_outputs")
    n = params.n_outputs
    nv = n + 1
    h = np.zeros((2 * nv, 2 * nv), dtype=complex)
    h[:nv, :nv] = 1.0
    np.fill_diagonal(h[:nv, :nv], 0.0)
    link = params.beta * np.exp(-1j * params.phi)
    h[layout.input_internal, layout.output_internal] = link
    h[layout.output_internal, layout.input_internal] = link.conjugate()
    for m in layout.internal_indices:
        e = layout.external_for(m)
        h[m, e] = 1.0
        h[e, m] = 1.0
    return HermitianMatrix(h)


def reduced_hamiltonians(n: int, beta: float, phis) -> np.ndarray:
    """Six-dimensional Hamiltonians over the reduced basis, one per phase.

    Returns shape ``(len(phis), 6, 6)``.  Reduced-basis labels 1..6 map to
    row/column indices 0..5.  Nonzero elements (upper triangle): (1,2)=1,
    (2,3)=beta*exp(-i*phi), (2,5)=(3,5)=sqrt(n-1), (3,4)=1, (5,6)=1, and the
    diagonal element (5,5)=n-2; the lower triangle is the conjugate mirror.
    """
    phis = np.asarray(phis, dtype=float)
    s = math.sqrt(n - 1.0)
    h = np.zeros((phis.shape[0], 6, 6), dtype=complex)
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


def build_reduced_hamiltonian(params: RouterParams) -> HermitianMatrix:
    """Six-dimensional Hamiltonian of one router (see ``reduced_hamiltonians``)."""
    return HermitianMatrix(
        reduced_hamiltonians(params.n_outputs, params.beta, [params.phi])[0]
    )


def reduction_isometry(layout: FullGraphLayout) -> np.ndarray:
    """Isometry ``V`` (shape ``2(n+1) x 6``) from the reduced to the full basis.

    Columns are, in order: the input external, the input internal, the output
    internal, the output external, the normalized symmetric sum of unassigned
    internals, and the normalized symmetric sum of their externals.  Columns
    are orthonormal, and ``V.conj().T @ H_full @ V`` reproduces
    ``build_reduced_hamiltonian`` exactly.
    """
    n = layout.n_outputs
    v = np.zeros((layout.dim, 6), dtype=complex)
    v[layout.external_for(layout.input_internal), 0] = 1.0
    v[layout.input_internal, 1] = 1.0
    v[layout.output_internal, 2] = 1.0
    v[layout.external_for(layout.output_internal), 3] = 1.0
    amp = 1.0 / math.sqrt(n - 1.0)
    for m in layout.internal_indices:
        if m in (layout.input_internal, layout.output_internal):
            continue
        v[m, 4] = amp
        v[layout.external_for(m), 5] = amp
    return v
