"""Phase-noise models: static circular disorder and dynamical mean-reverting drift.

Static noise replaces the chiral phase ``phi`` by ``phi + eps`` with ``eps``
drawn once per realization from the circular (von Mises) density

    p_k(eps) = exp(k cos eps) / (2 pi I0(k)),

and observables become quadrature averages over ``eps``.  The quadrature
weights carry only the kernel ``exp(k (cos eps - 1))``, which stays in
``(0, 1]`` for arbitrarily large concentration ``k``, and are renormalized
to unit mass, so the normalizer ``2 pi I0(k)`` cancels and is never
evaluated.  The unit mass also makes averaged states exactly trace-one and
turns ``k = 0`` into the exact uniform phase average.  For large ``k`` the
quadrature domain shrinks to ``[-L, L]`` with ``L = min(pi, 10 / sqrt(k))``
— about ten standard deviations of the narrow-density limit — so nodes are
never wasted on regions of negligible mass.  Each rule and its ``eigh`` of
``H(phi + eps_p)`` are cached, so a whole time curve builds and decomposes
each rule it uses once.

Dynamical noise promotes the phase to a mean-reverting diffusion

    dX_t = theta (mu - X_t) dt + Sigma dW_t

integrated by the Euler–Maruyama rule with stationary initial conditions
``X_0 ~ N(mu, Sigma^2 / (2 theta))``.  Each trajectory owns a counter-based
random stream (Philox keyed by the seed, counter ``[0, 0, index, 0]``), so
ensembles are reproducible and independent of evaluation order or batching.
The ensemble evolves in blocks of ``_TRAJECTORY_BLOCK = 512`` trajectories
and hands each block's states to its caller, so a fidelity curve retains one
block's ``steps x 512`` path floats plus a few floats per snapshot: its
statistics are running sums, whatever the number of trajectories.  A run may
take at most ``_MAX_TRAJECTORY_STEPS = 10**12`` trajectory-steps (about three
days at 0.2-0.3 us each); a larger request is rejected before any block evolves.

The phase enters the Hamiltonian only through the link term,
``H(phi) = H0 + beta (e^{-i phi} E + e^{i phi} E^dag)`` with ``E = |2><3|``,
so each step's propagator is a trigonometric series in the phase,
``U(phi, dt) = sum_m e^{i m phi} C_m``.  The Dyson series bounds
``||C_m|| <= (|beta| dt)^|m| / |m|! e^{|beta| dt}`` whatever ``n``; the
harmonics are cut where that tail drops below float64 roundoff and the
``C_m`` come from one ``eigh`` of a few equispaced phases plus an FFT, once
per run.  Pairing ``m`` with ``-m`` makes the series real in the phase,
``U(phi, dt) = A_0 + sum_{m >= 1} cos(m phi) A_m + sin(m phi) B_m``, so a step
of the whole ensemble is one real GEMM of ``[1; cos(m X_b); sin(m X_b)]``
against the table of ``A_m`` and ``B_m`` and a batched 6x6 product, with no
per-trajectory ``eigh``.  Its cost grows with ``|beta| dt`` (13 harmonics at
``|beta| dt = 0.01``, 37 at 1, 191 at 20); beyond about 560 the required
phase nodes exceed 4096 and the run is rejected with a ``ValueError``.
"""

from __future__ import annotations

import bisect
import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterator, Sequence

import numpy as np

from .dynamics import PureState, _evolved, _unitaries
from .hamiltonian import TWO_PI, RouterParams, _integer, _read_only, _reduced_spectra
from .routing import (
    DensityMatrix,
    SuperpositionParams,
    input_state,
    target_state,
)

__all__ = [
    "VonMisesSpec",
    "OUSpec",
    "StaticNoiseFidelity",
    "NoiseAveragedState",
    "EnsembleState",
    "static_noise_fidelity",
    "static_noise_state",
    "ou_sample_path",
    "ou_stationary_draws",
    "ou_ensemble_state",
    "ou_fidelity_curve",
]

_WARN_THRESHOLD = 1e-6
# The static-noise quadrature starts at 129 Gauss–Legendre nodes and doubles them up
# to 6 times, stopping once a doubling moves the result by at most 1e-8.
_QUADRATURE_POINTS = 129
_MAX_DOUBLINGS = 6
_QUADRATURE_TOL = 1e-8
_ROUNDOFF = 2.0**-53  # float64 unit roundoff: the Fourier step's tail target
_MAX_PHASE_NODES = 4096  # Fourier-step phase nodes: |beta| dt up to about 560
_TRAJECTORY_BLOCK = 512  # trajectories evolved together (bounds paths and states)
_MAX_TRAJECTORY_STEPS = 10**12  # trajectories x steps of one run: about three days


@dataclass(frozen=True)
class VonMisesSpec:
    """Static-noise parameters: the concentration ``k >= 0``.  ``k = 0`` is the
    uniform circular density; large ``k`` approaches a Gaussian of variance ``1 / k``."""

    k: float

    def __post_init__(self) -> None:
        k = float(self.k)
        if not (math.isfinite(k) and k >= 0.0):
            raise ValueError("k must be finite and >= 0")
        object.__setattr__(self, "k", k)


@dataclass(frozen=True)
class OUSpec:
    """Ornstein–Uhlenbeck phase-noise parameters.

    ``mu = None`` means "use the router's configured phase" wherever a router
    is in scope (ensemble averaging); standalone path sampling requires an
    explicit ``mu``.  The stationary variance ``sigma_vol**2 / (2 theta)`` must be
    finite, and ``theta * dt < 2``, so that the Euler–Maruyama step contracts.

    ``X_0`` is drawn from the OU process's stationary law ``N(mu, sigma_vol**2 /
    (2 theta))``, but the Euler–Maruyama chain's own stationary variance is
    ``sigma_vol**2 / (theta (2 - theta dt))``, ``2 / (2 - theta dt)`` times that:
    the paths' spread grows toward it, its gap shrinking by ``(1 - theta dt)**2`` a
    step.  That ratio is about ``1 + theta dt / 2`` (1.005 at the defaults) and 4/3
    at ``theta dt = 0.5``; a smaller ``dt`` brings it closer to 1.
    """

    theta: float = 1.0
    mu: float | None = None
    sigma_vol: float = 0.4
    dt: float = 0.01
    trajectories: int = 2000
    seed: int = 777

    def __post_init__(self) -> None:
        if self.mu is not None and not math.isfinite(float(self.mu)):
            raise ValueError("mu must be finite")
        if not (math.isfinite(float(self.sigma_vol)) and self.sigma_vol >= 0.0):
            raise ValueError("sigma_vol must be finite and >= 0")
        trajectories = _integer("trajectories", self.trajectories)
        if trajectories < 1:
            raise ValueError("trajectories must be >= 1")
        seed = _integer("seed", self.seed)
        if not 0 <= seed < 2**64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")
        object.__setattr__(self, "theta", _positive("theta", self.theta))
        object.__setattr__(self, "mu", None if self.mu is None else float(self.mu))
        object.__setattr__(self, "sigma_vol", float(self.sigma_vol))
        object.__setattr__(self, "dt", _positive("dt", self.dt))
        object.__setattr__(self, "trajectories", trajectories)
        object.__setattr__(self, "seed", seed)
        if not self.theta * self.dt < 2.0:  # else x + theta dt (mu - x) does not contract
            raise ValueError(f"theta * dt must be < 2 for the Euler-Maruyama step to contract, "
                             f"got theta = {self.theta!r}, dt = {self.dt!r}")
        try:
            finite = math.isfinite(self.stationary_variance)
        except OverflowError:  # sigma_vol**2 beyond the float range
            finite = False
        if not finite:
            raise ValueError(f"the stationary variance sigma_vol**2 / (2 theta) must be finite, "
                             f"got sigma_vol = {self.sigma_vol!r}, theta = {self.theta!r}")

    @property
    def stationary_variance(self) -> float:
        return self.sigma_vol**2 / (2.0 * self.theta)


class StaticNoiseFidelity(float):
    """Fidelity value carrying quadrature diagnostics.

    Behaves as a plain float; ``converged`` is False when the final node
    doubling still moved the result by more than 1e-6, and ``points_used``
    records the last node count.
    """

    converged: bool
    points_used: int

    def __new__(cls, value: float, converged: bool = True, points_used: int = 0):
        obj = super().__new__(cls, value)
        obj.converged = bool(converged)
        obj.points_used = int(points_used)
        return obj


@dataclass(frozen=True, eq=False)
class NoiseAveragedState(DensityMatrix):
    """Quadrature-averaged output state with convergence diagnostics."""

    converged: bool
    points_used: int


@dataclass(frozen=True, eq=False)
class EnsembleState(DensityMatrix):
    """Trajectory-averaged state retaining the per-trajectory pure states."""

    trajectory_states: np.ndarray

    def __post_init__(self) -> None:
        super().__post_init__()
        states = np.asarray(self.trajectory_states, dtype=complex)
        if states.ndim != 2 or states.shape[1] != self.dim:
            raise ValueError("trajectory_states must have shape (trajectories, dim)")
        object.__setattr__(self, "trajectory_states", _read_only(states.copy()))

    def fidelity_with_stderr(self, target: PureState) -> tuple[float, float]:
        """Mean fidelity against a pure target and its Monte Carlo standard error."""
        if target.dim != self.dim:
            raise ValueError("target dimension mismatch")
        f = _fidelities(self.trajectory_states, target.amplitudes.conj())
        sums = np.zeros(2)
        _add_deviations(sums, f - f[0])
        mean, stderr = _mean_and_stderr(f.size, f[0], sums)
        return float(mean), float(stderr)


def _fidelities(states: np.ndarray, w_conj: np.ndarray) -> np.ndarray:
    """``|<w|psi_b>|^2`` for each row ``psi_b`` of ``states``."""
    return np.abs(states @ w_conj) ** 2


def _add_deviations(sums: np.ndarray, d: np.ndarray) -> None:
    """Add the deviations ``d`` to the running ``sums = [sum d, sum d**2]``.

    ``np.cumsum`` over the carried sum followed by ``d`` adds strictly in
    trajectory order, so the sums' bits do not depend on how the trajectories
    are split into blocks.
    """
    sums[0] = np.cumsum(np.concatenate((sums[:1], d)))[-1]
    sums[1] = np.cumsum(np.concatenate((sums[1:], d * d)))[-1]


def _mean_and_stderr(count: int, shift, sums: np.ndarray):
    """Mean of ``count`` per-trajectory fidelities and its Monte Carlo standard error,
    from the sums ``sums[..., :] = [sum d, sum d**2]`` of their deviations ``d = f - shift``.

    ``shift`` is trajectory 0's fidelity: shifting by a sample keeps the
    one-pass variance free of cancellation, and identical fidelities give a
    standard error of exactly 0.
    """
    if count < 2:
        raise ValueError("standard error undefined for fewer than 2 trajectories")
    total, squares = sums[..., 0], sums[..., 1]
    variance = np.maximum(squares - total * total / count, 0.0) / (count - 1)
    return shift + total / count, np.sqrt(variance / count)


def _mixture(states: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Density matrix ``sum_b weights[b] |psi_b><psi_b|`` of the rows of ``states``."""
    rho = np.einsum("p,pi,pj->ij", weights, states, states.conj())
    return 0.5 * (rho + rho.conj().T)


def _reduced_amplitudes(name: str, state: PureState) -> np.ndarray:
    """The amplitudes of ``state``; ``ValueError`` naming ``name`` and its dimension unless
    it is a state of the six-dimensional reduced basis."""
    if state.dim != 6:
        raise ValueError(f"{name} must be a 6-dimensional reduced-basis state, "
                         f"got dimension {state.dim}")
    return state.amplitudes


def _positive(name: str, x: float) -> float:
    x = float(x)
    if not (math.isfinite(x) and x > 0.0):
        raise ValueError(f"{name} must be finite and > 0")
    return x


def _gauss_legendre(points: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes (ascending) and weights of the ``points``-node Gauss–Legendre rule on [-1, 1].

    Newton's method on ``P_n``, evaluated with the three-term recurrence for all
    nodes of one half at once, from Tricomi's guesses ``(1 - 1/(8 n^2) + 1/(8 n^3))
    cos(pi (4 k - 1) / (4 n + 2))``: O(n^2) work, where a companion-matrix
    eigensolver takes O(n^3).  The other half mirrors it, so the rule is exactly
    symmetric, and ``w = 2 (1 - x^2) / (n (P_{n-1} - x P_n))^2``.
    """
    n = points
    theta = np.pi * (4.0 * np.arange(1, (n + 1) // 2 + 1) - 1.0) / (4.0 * n + 2.0)
    x = (1.0 - 1.0 / (8.0 * n * n) + 1.0 / (8.0 * n**3)) * np.cos(theta)

    def legendre(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(P_{n-1}(x), P_n(x))`` by ``j P_j = (2 j - 1) x P_{j-1} - (j - 1) P_{j-2}``."""
        prev, cur = np.ones_like(x), x.copy()
        for j in range(2, n + 1):
            prev, cur = cur, ((2 * j - 1) * x * cur - (j - 1) * prev) / j
        return prev, cur

    for _ in range(16):  # it takes 3 or 4 steps for each rule tried, 1 to 2,064 nodes
        prev, cur = legendre(x)
        # P_n' = n (P_{n-1} - x P_n) / (1 - x^2)
        step = cur * (1.0 - x) * (1.0 + x) / (n * (prev - x * cur))
        x -= step
        if np.max(np.abs(step), initial=0.0) <= 2.0**-52:
            break
    prev, cur = legendre(x)
    w = 2.0 * (1.0 - x) * (1.0 + x) / (n * (prev - x * cur)) ** 2
    if n % 2:
        x[-1] = 0.0
    mirror = slice(-1 - n % 2, None, -1)
    return np.concatenate([-x, x[mirror]]), np.concatenate([w, w[mirror]])


@lru_cache(maxsize=32)
def _nodes_and_weights(k: float, points: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only ``points``-node Gauss–Legendre rule over the concentration-adapted
    domain, weighted by the kernel ``exp(k (cos eps - 1))`` and scaled to unit mass;
    built once per ``(k, points)``."""
    half_width = math.pi if k <= 0.0 else min(math.pi, 10.0 / math.sqrt(k))
    x, w = _gauss_legendre(points)
    eps = half_width * x
    weights = w * np.exp(k * (np.cos(eps) - 1.0))
    return _read_only(eps), _read_only(weights / weights.sum())


@lru_cache(maxsize=8)  # one curve uses at most 1 + _MAX_DOUBLINGS = 7 rules
def _node_spectrum(params: RouterParams, k: float, points: int) -> tuple[np.ndarray, np.ndarray]:
    """``_reduced_spectra`` of ``H(phi + eps_p)`` at the nodes ``eps_p`` of the
    ``points``-node rule for concentration ``k`` (``_nodes_and_weights``)."""
    eps = _nodes_and_weights(k, points)[0]
    return _reduced_spectra(params.n_outputs, params.beta, params.phi + eps)


def _static_average(params: RouterParams, t: float, amps0: np.ndarray, k: float,
                    reduce: Callable[[np.ndarray, np.ndarray], np.ndarray | float]):
    """``reduce(states, weights)`` on rules of ``_QUADRATURE_POINTS`` nodes doubled up to
    ``_MAX_DOUBLINGS`` times, until a doubling moves it by at most ``_QUADRATURE_TOL``;
    row ``p`` of ``states`` is ``exp(-i H(phi + eps_p) t) amps0`` at node ``eps_p``, from
    the rule's cached spectrum.  Returns ``(value, converged, points_used)``; ``converged``
    is still True after an exhausted budget if the last doubling moved the result by no
    more than the 1e-6 warning threshold."""
    def quadrature(points: int):
        states = _evolved(_node_spectrum(params, k, points), t, amps0)
        return reduce(states, _nodes_and_weights(k, points)[1])

    points = _QUADRATURE_POINTS
    prev, delta = quadrature(points), math.inf
    for _ in range(_MAX_DOUBLINGS):
        points *= 2
        cur = quadrature(points)
        delta = float(np.max(np.abs(np.asarray(cur) - np.asarray(prev))))
        prev = cur
        if delta <= _QUADRATURE_TOL:
            return prev, True, points
    return prev, delta <= _WARN_THRESHOLD, points


def static_noise_fidelity(
    params: RouterParams, t: float, sp: SuperpositionParams, vm: VonMisesSpec
) -> StaticNoiseFidelity:
    """Noise-averaged routing fidelity ``∫ p_k(eps) |<w|U(phi+eps)|psi0>|^2 d eps``."""
    w_conj = target_state(sp).amplitudes.conj()
    value, converged, used = _static_average(
        params, t, input_state(sp).amplitudes, vm.k,
        lambda states, wts: float(np.dot(wts, _fidelities(states, w_conj))),
    )
    return StaticNoiseFidelity(min(max(value, 0.0), 1.0), converged, used)


def static_noise_state(
    params: RouterParams, t: float, psi0: PureState, vm: VonMisesSpec
) -> NoiseAveragedState:
    """Noise-averaged output state ``∫ p_k(eps) U(phi+eps) |psi0><psi0| U^dag d eps``."""
    amps = _reduced_amplitudes("psi0", psi0)
    rho, converged, used = _static_average(params, t, amps, vm.k, _mixture)
    return NoiseAveragedState(rho, converged, used)


def ou_sample_path(spec: OUSpec, steps: int, trajectory: int = 0) -> np.ndarray:
    """One Euler–Maruyama path ``X_0 .. X_{steps-1}`` (values at step starts).

    ``X_0`` is drawn from the stationary law ``N(mu, Sigma^2 / 2 theta)``;
    the path is fully determined by ``(spec.seed, trajectory)``, with ``trajectory``
    in ``[0, 2**128)``.
    """
    steps, trajectory = _integer("steps", steps), _integer("trajectory", trajectory)
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if not 0 <= trajectory < 2**128:  # the Philox counter's two upper words
        raise ValueError(f"trajectory must lie in [0, 2**128), got {trajectory}")
    return _phase_paths(spec, spec.mu, steps, [trajectory])[0]


def ou_stationary_draws(spec: OUSpec, count: int) -> np.ndarray:
    """Initial values ``X_0`` of trajectories ``0 .. count-1`` (stationary samples)."""
    count = _integer("count", count)
    if count < 1:
        raise ValueError("count must be >= 1")
    return _phase_paths(spec, spec.mu, 1, range(count))[:, 0]


def _phase_paths(
    spec: OUSpec, mu: float | None, steps: int, rows: Sequence[int] | None = None
) -> np.ndarray:
    """Paths of the trajectory indices ``rows`` (default: all), shape (len, steps).

    Row ``r`` depends only on ``(spec.seed, rows[r])``: it is the stream of
    ``Philox(key=seed, counter=rows[r] << 128)``, whose first ``steps``
    normals are ``X_0``'s draw and the increments.  One Philox is reset to
    each row's counter instead of building a generator per row, and the
    result is the transpose of a ``(steps, len)`` array, so each Euler step
    writes one contiguous row.  The standalone samplers pass ``spec.mu``,
    which must not be None there.
    """
    if mu is None:
        raise ValueError("mu must be set for standalone sampling")
    if rows is None:
        rows = range(spec.trajectories)
    bitgen = np.random.Philox(key=spec.seed)
    normals = np.random.Generator(bitgen).standard_normal
    state = bitgen.state  # counter [0, 0, 0, 0], empty output buffer
    counter = state["state"]["counter"]
    paths = np.empty((steps, len(rows)))
    for r, index in enumerate(rows):
        counter[2], counter[3] = index & 0xFFFF_FFFF_FFFF_FFFF, index >> 64
        bitgen.state = state
        paths[:, r] = normals(steps)
    paths[0] = mu + math.sqrt(spec.stationary_variance) * paths[0]
    drift_dt = spec.theta * spec.dt
    diffusion = spec.sigma_vol * math.sqrt(spec.dt)
    for m in range(1, steps):
        x = paths[m - 1]
        paths[m] = x + drift_dt * (mu - x) + diffusion * paths[m]
    return paths.T


def _step_fourier(n: int, beta: float, dt: float) -> np.ndarray:
    """Real table ``[A_0; A_1 .. A_M; B_1 .. B_M]`` of the step propagator, shape
    ``(2M + 1, 72)``, with ``U(phi, dt) = A_0 + sum_m cos(m phi) A_m + sin(m phi) B_m``.

    In terms of the harmonics of ``U(phi, dt) = sum_m e^{i m phi} C_m``,
    ``A_0 = C_0``, ``A_m = C_m + C_{-m}`` and ``B_m = i (C_m - C_{-m})``; each
    row is a flattened 6x6 complex matrix stored as (real, imaginary) float
    pairs.  ``M`` is the smallest cutoff whose two-sided Dyson tail (module
    docstring) is below the float64 unit roundoff; the bound holds for
    ``|m| + 1 >= |beta| dt``, which every dropped harmonic satisfies.  The
    ``C_m`` come from one ``eigh`` of ``N`` equispaced phases (a power of two, at
    least ``max(8, 2M + 2)``, so aliasing adds only that tail) and an FFT over
    the phase axis.
    """
    x = abs(beta) * dt
    cutoff = 0
    if x > 0.0:
        cutoff = math.ceil(min(x, _MAX_PHASE_NODES))
        # Log of 2 ||C_{M+1}|| / (1 - x / (M + 2)), a bound on the geometric tail.
        while 2 * cutoff + 2 <= _MAX_PHASE_NODES and (
            (cutoff + 1) * math.log(x) - math.lgamma(cutoff + 2) + x
            + math.log(2.0 / (1.0 - x / (cutoff + 2)))
        ) > math.log(_ROUNDOFF):
            cutoff += 1
    nodes = 8
    while nodes < 2 * cutoff + 2:
        nodes *= 2
    if nodes > _MAX_PHASE_NODES:
        raise ValueError(
            f"|beta| * dt = {x:g} needs over {_MAX_PHASE_NODES} phase nodes "
            "for the Fourier step; use a smaller dt"
        )
    phis = TWO_PI * np.arange(nodes) / nodes
    u = _unitaries(_reduced_spectra(n, beta, phis), dt)
    c = np.fft.fft(u.reshape(nodes, 36), axis=0) / nodes
    m = np.arange(1, cutoff + 1)
    return np.concatenate([c[:1], c[m] + c[-m], 1j * (c[m] - c[-m])]).view(float)


def _blocks(count: int) -> Iterator[tuple[int, int]]:
    """Consecutive trajectory ranges ``[lo, hi)`` of ``_TRAJECTORY_BLOCK`` rows.

    A remainder of one row joins the block before it: numpy sends a one-row
    ``matmul`` to a different BLAS kernel, whose last bits differ.
    """
    lo = 0
    while lo < count:
        hi = count if count - lo <= _TRAJECTORY_BLOCK + 1 else lo + _TRAJECTORY_BLOCK
        yield lo, hi
        lo = hi


def _step_count(t: float, spec: OUSpec, name: str) -> int:
    """``round(t / spec.dt)``, the steps of an ensemble run to time ``t``.

    Rejects a step count that is not finite, and a run of more than
    ``_MAX_TRAJECTORY_STEPS`` trajectories x steps: without a table to allocate,
    nothing else would stop an oversized request before it ran for days.
    """
    steps = t / spec.dt
    request = (f"got trajectories = {spec.trajectories}, {name} = {t!r}, "
               f"dt = {spec.dt!r}")
    if not math.isfinite(steps):
        raise ValueError(f"{name} / dt must be a finite number of steps, {request}")
    steps = int(round(steps))
    if spec.trajectories * steps > _MAX_TRAJECTORY_STEPS:
        raise ValueError(f"trajectories x round({name} / dt) must be at most "
                         f"{_MAX_TRAJECTORY_STEPS:.0e} trajectory-steps, {request}")
    return steps


def _evolve_ensemble(
    params: RouterParams,
    psi0: np.ndarray,
    spec: OUSpec,
    snapshots: Sequence[int],
    visit: Callable[[int, int, int, np.ndarray], None],
) -> None:
    """Batched piecewise-constant evolution of all trajectories.

    The phase reverts to ``spec.mu`` reduced modulo ``2 pi``, as ``RouterParams``
    reduces ``phi`` (else ``X_0 = mu + sqrt(var) z`` rounds to a huge ``mu`` and the
    noise vanishes), or to the router's phase when that is None.  Each step
    applies ``U(X_b, dt) = A_0 + sum_m cos(m X_b) A_m + sin(m X_b) B_m`` (see
    ``_step_fourier``): one recurrence for the powers ``e^{i m X_b}``,
    ``m = 1..M``, whose real and imaginary parts go under a row of ones, one
    real GEMM of those ``2M + 1`` rows against the table, then one batched 6x6
    matrix-vector product.  The scratch is ``harmonics x rows`` floats plus
    ``M x rows`` complex powers, at most 4095 x 513 and 2047 x 513
    (about 34 MB together) at the ``|beta| dt`` limit of about 560.
    Trajectories evolve in blocks (``_blocks``), in order, and nothing outlives
    a block but what ``visit`` keeps: at the ``j``-th of the increasing step
    indices ``snapshots``, ``visit(j, lo, hi, states)`` receives the ``(hi - lo,
    6)`` states of trajectories ``lo .. hi - 1``.  So a run retains one block's
    ``steps x 512`` path floats; callers take the step count from
    ``_step_count``, which bounds trajectories x steps.
    """
    if spec.trajectories < 2:
        raise ValueError("need at least 2 trajectories for ensemble statistics")
    mu = params.phi if spec.mu is None else spec.mu % TWO_PI
    total_steps = snapshots[-1]
    if total_steps > 0:
        coeffs = _step_fourier(params.n_outputs, params.beta, spec.dt)
        harmonics = coeffs.shape[0]
        cutoff = (harmonics - 1) // 2
    for lo, hi in _blocks(spec.trajectories):
        psi = np.broadcast_to(psi0, (hi - lo, psi0.shape[0])).copy()
        snap = 0  # index of the next snapshot
        if snapshots[0] == 0:
            visit(0, lo, hi, psi)
            snap = 1
        if total_steps == 0:
            continue
        # trig = [1; cos(m X_b); sin(m X_b)] for m = 1..M from powers[m - 1, b] = e^{i m X_b}.
        trig = np.ones((harmonics, hi - lo))
        powers = np.empty((cutoff, hi - lo), dtype=complex)
        paths = _phase_paths(spec, mu, total_steps, range(lo, hi))
        for m in range(total_steps):
            if cutoff:
                np.exp(1j * paths[:, m], out=powers[0])
                for j in range(1, cutoff):
                    np.multiply(powers[j - 1], powers[0], out=powers[j])
                trig[1:cutoff + 1] = powers.real
                trig[cutoff + 1:] = powers.imag
            step = (trig.T @ coeffs).view(complex).reshape(-1, 6, 6)
            psi = np.einsum("bij,bj->bi", step, psi)
            if m + 1 == snapshots[snap]:
                visit(snap, lo, hi, psi)
                snap += 1
        # Free this block's paths and scratch before the next block draws its own.
        del paths, trig, powers, step


def ou_ensemble_state(
    params: RouterParams, t: float, psi0: PureState, spec: OUSpec
) -> EnsembleState:
    """Trajectory-averaged state at time ``t`` (rounded to a whole number of steps).

    The result's ``fidelity_with_stderr`` reports the mean fidelity against a
    pure target together with its Monte Carlo standard error.
    """
    amps = _reduced_amplitudes("psi0", psi0)
    t = float(t)
    if not (math.isfinite(t) and t >= 0.0):
        raise ValueError("t must be finite and >= 0")
    steps = _step_count(t, spec, "t")
    states = np.empty((spec.trajectories, 6), dtype=complex)

    def keep(j: int, lo: int, hi: int, block: np.ndarray) -> None:
        states[lo:hi] = block

    _evolve_ensemble(params, amps, spec, [steps], keep)
    return EnsembleState(_mixture(states, np.full(len(states), 1.0 / len(states))), states)


def _snapshot_steps(t_max: float, dt: float, snapshots: int, total_steps: int) -> list[int]:
    """Distinct steps ``round(t / dt)``, clipped to ``[0, total_steps]``, of the uniform
    ``snapshots``-point grid on ``[0, t_max]``; they never decrease along the grid, so
    one bisection skips each run, at most ``total_steps + 1`` of them."""
    def step(j: int) -> int:
        return min(max(int(round(j * t_max / (snapshots - 1) / dt)), 0), total_steps)

    wanted, j = [], 0
    while j < snapshots:
        wanted.append(step(j))
        j = bisect.bisect_right(range(snapshots), wanted[-1], lo=j + 1, key=step)
    return wanted


def ou_fidelity_curve(
    params: RouterParams,
    psi0: PureState,
    target: PureState,
    spec: OUSpec,
    t_max: float,
    snapshots: int = 101,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Ensemble fidelity versus time in one pass over the trajectories.

    Snapshot times are the requested uniform grid snapped to whole steps of
    ``spec.dt``; returns ``(times, fidelity, stderr)``.  Each block's
    fidelities go into running sums per snapshot (``_add_deviations``), so
    besides one block's ``steps x 512`` path floats only a few floats per
    snapshot are retained, and the result is the ``fidelity_with_stderr`` of
    ``ou_ensemble_state`` at each snapshot, bit for bit.  Trajectories x steps
    may be at most ``_MAX_TRAJECTORY_STEPS``.
    """
    amps = _reduced_amplitudes("psi0", psi0)
    w_conj = _reduced_amplitudes("target", target).conj()
    if not (math.isfinite(float(t_max)) and t_max > 0.0):
        raise ValueError("t_max must be positive")
    snapshots = _integer("snapshots", snapshots)
    if not 2 <= snapshots <= sys.float_info.max:
        raise ValueError(f"snapshots must be >= 2 and at most {sys.float_info.max!r}")
    total_steps = _step_count(float(t_max), spec, "t_max")
    if total_steps < 1:
        raise ValueError("t_max must span at least one step of dt")
    wanted = _snapshot_steps(t_max, spec.dt, snapshots, total_steps)
    shifts, sums = np.empty(len(wanted)), np.zeros((len(wanted), 2))

    def add(j: int, lo: int, hi: int, states: np.ndarray) -> None:
        f = _fidelities(states, w_conj)
        if lo == 0:
            shifts[j] = f[0]
        _add_deviations(sums[j], f - shifts[j])

    _evolve_ensemble(params, amps, spec, wanted, add)
    return (np.array(wanted) * spec.dt, *_mean_and_stderr(spec.trajectories, shifts, sums))

