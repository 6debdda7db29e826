"""Phase-noise models: static circular disorder and dynamical mean-reverting drift.

Static noise replaces the chiral phase ``phi`` by ``phi + eps`` with ``eps``
drawn once per realization from the circular (von Mises) density

    p_k(eps) = exp(k cos eps) / (2 pi I0(k)),

and observables become quadrature averages over ``eps``.  The density is
evaluated in the exponentially scaled form ``exp(k (cos eps - 1)) / (2 pi
i0e(k))``, which stays finite for arbitrarily large concentration ``k``
(the naive form overflows float64 beyond k ~ 713); ``I0`` and ``i0e`` are
Cephes' Chebyshev series, so no scipy is needed.  For large ``k`` the
quadrature domain shrinks to ``[-L, L]`` with ``L = min(pi, 10 / sqrt(k))``
— about ten standard deviations of the narrow-density limit — so nodes are
never wasted on regions of negligible mass; weights are renormalized to unit
mass, which makes averaged states exactly trace-one and turns ``k = 0`` into
the exact uniform phase average.  Each rule and its ``eigh`` of
``H(phi + eps_p)`` are cached, so a whole time curve builds and decomposes
each rule it uses once.

Dynamical noise promotes the phase to a mean-reverting diffusion

    dX_t = theta (mu - X_t) dt + Sigma dW_t

integrated by the Euler–Maruyama rule with stationary initial conditions
``X_0 ~ N(mu, Sigma^2 / (2 theta))``.  Each trajectory owns a counter-based
random stream (Philox keyed by the seed, counter ``[0, 0, index, 0]``), so
ensembles are reproducible and independent of evaluation order or batching.
The ensemble evolves in blocks of ``_TRAJECTORY_BLOCK = 512`` trajectories
and keeps only what its caller reads, so a fidelity curve retains 8 bytes
per trajectory and snapshot plus one block's ``steps x 512`` path floats.

The phase enters the Hamiltonian only through the link term,
``H(phi) = H0 + beta (e^{-i phi} E + e^{i phi} E^dag)`` with ``E = |2><3|``,
so each step's propagator is a trigonometric series in the phase,
``U(phi, dt) = sum_m e^{i m phi} C_m``.  The Dyson series bounds
``||C_m|| <= (|beta| dt)^|m| / |m|! e^{|beta| dt}`` whatever ``n``; the
harmonics are cut where that tail drops below float64 roundoff and the
``C_m`` come from one ``eigh`` of a few equispaced phases plus an FFT, once
per run.  A step of the whole ensemble is then a GEMM of the powers
``e^{i m X_b}`` against the ``C_m`` and a batched 6x6 product, with no
per-trajectory ``eigh``.  Its cost grows with ``|beta| dt`` (13 harmonics at
``|beta| dt = 0.01``, 37 at 1, 191 at 20); beyond about 560 the required
phase nodes exceed 4096 and the run is rejected with a ``ValueError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterator, Sequence

import numpy as np
# numpy.polynomial is imported inside ``_nodes_and_weights``, its only user, to keep it
# off the cost of ``import qwrouter``.

from .dynamics import PureState, _evolved, _unitaries
from .hamiltonian import RouterParams, reduced_hamiltonians
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
    "bessel_i0",
    "von_mises_pdf",
    "static_noise_fidelity",
    "static_noise_state",
    "ou_sample_path",
    "ou_stationary_draws",
    "ou_ensemble_state",
    "ou_fidelity_curve",
]

_TWO_PI = 2.0 * math.pi
_WARN_THRESHOLD = 1e-6
# The static-noise quadrature starts at 129 Gauss–Legendre nodes and doubles them up
# to 6 times, stopping once a doubling moves the result by at most 1e-8.
_QUADRATURE_POINTS = 129
_MAX_DOUBLINGS = 6
_QUADRATURE_TOL = 1e-8
_ROUNDOFF = 2.0**-53  # float64 unit roundoff: the Fourier step's tail target
_MAX_PHASE_NODES = 4096  # Fourier-step phase nodes: |beta| dt up to about 560
_TRAJECTORY_BLOCK = 512  # trajectories evolved together (bounds paths and states)
# Chebyshev coefficients of Cephes' i0/i0e (S. L. Moshier, Cephes Math Library, i0.c),
# the ones scipy.special.i0/i0e and numpy.i0 evaluate: _I0_A expands exp(-x) I0(x)
# on [0, 8] in x/2 - 2, _I0_B expands exp(-x) sqrt(x) I0(x) on (8, inf) in 32/x - 2.
_I0_A = (
    -4.4153416464793395e-18, 3.3307945188222384e-17, -2.431279846547955e-16,
    1.715391285555133e-15, -1.1685332877993451e-14, 7.676185498604936e-14,
    -4.856446783111929e-13, 2.95505266312964e-12, -1.726826291441556e-11,
    9.675809035373237e-11, -5.189795601635263e-10, 2.6598237246823866e-09,
    -1.300025009986248e-08, 6.046995022541919e-08, -2.670793853940612e-07,
    1.1173875391201037e-06, -4.4167383584587505e-06, 1.6448448070728896e-05,
    -5.754195010082104e-05, 0.00018850288509584165, -0.0005763755745385824,
    0.0016394756169413357, -0.004324309995050576, 0.010546460394594998,
    -0.02373741480589947, 0.04930528423967071, -0.09490109704804764,
    0.17162090152220877, -0.3046826723431984, 0.6767952744094761,
)
_I0_B = (
    -7.233180487874754e-18, -4.830504485944182e-18, 4.46562142029676e-17,
    3.461222867697461e-17, -2.8276239805165836e-16, -3.425485619677219e-16,
    1.7725601330565263e-15, 3.8116806693526224e-15, -9.554846698828307e-15,
    -4.150569347287222e-14, 1.54008621752141e-14, 3.8527783827421426e-13,
    7.180124451383666e-13, -1.7941785315068062e-12, -1.3215811840447713e-11,
    -3.1499165279632416e-11, 1.1889147107846439e-11, 4.94060238822497e-10,
    3.3962320257083865e-09, 2.266668990498178e-08, 2.0489185894690638e-07,
    2.8913705208347567e-06, 6.889758346916825e-05, 0.0033691164782556943,
    0.8044904110141088,
)


@dataclass(frozen=True)
class VonMisesSpec:
    """Static-noise parameters.

    Parameters
    ----------
    k : float
        Concentration (>= 0).  ``k = 0`` is the uniform circular density;
        large ``k`` approaches a Gaussian of variance ``1 / k``.
    """

    k: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "k", _check_k(self.k))


@dataclass(frozen=True)
class OUSpec:
    """Ornstein–Uhlenbeck phase-noise parameters.

    ``mu = None`` means "use the router's configured phase" wherever a router
    is in scope (ensemble averaging); standalone path sampling requires an
    explicit ``mu``.  The stationary variance is ``sigma_vol**2 / (2 theta)``.
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
        if int(self.trajectories) < 1:
            raise ValueError("trajectories must be >= 1")
        seed = int(self.seed)
        if not 0 <= seed < 2**64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")
        object.__setattr__(self, "theta", _positive("theta", self.theta))
        object.__setattr__(self, "mu", None if self.mu is None else float(self.mu))
        object.__setattr__(self, "sigma_vol", float(self.sigma_vol))
        object.__setattr__(self, "dt", _positive("dt", self.dt))
        object.__setattr__(self, "trajectories", int(self.trajectories))
        object.__setattr__(self, "seed", seed)

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
        states = states.copy()
        states.setflags(write=False)
        object.__setattr__(self, "trajectory_states", states)

    def fidelity_with_stderr(self, target: PureState) -> tuple[float, float]:
        """Mean fidelity against a pure target and its Monte Carlo standard error."""
        if target.dim != self.dim:
            raise ValueError("target dimension mismatch")
        return _mean_and_stderr(_fidelities(self.trajectory_states, target.amplitudes.conj()))


def _fidelities(states: np.ndarray, w_conj: np.ndarray) -> np.ndarray:
    """``|<w|psi_b>|^2`` for each row ``psi_b`` of ``states``."""
    return np.abs(states @ w_conj) ** 2


def _mean_and_stderr(f: np.ndarray) -> tuple[float, float]:
    """Mean of the per-trajectory fidelities ``f`` and its Monte Carlo standard error."""
    if f.size < 2:
        raise ValueError("standard error undefined for fewer than 2 trajectories")
    return float(f.mean()), float(f.std(ddof=1) / math.sqrt(f.size))


def _mixture(states: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Density matrix ``sum_b weights[b] |psi_b><psi_b|`` of the rows of ``states``."""
    rho = np.einsum("p,pi,pj->ij", weights, states, states.conj())
    return 0.5 * (rho + rho.conj().T)


def _check_k(k: float) -> float:
    k = float(k)
    if not (math.isfinite(k) and k >= 0.0):
        raise ValueError("k must be finite and >= 0")
    return k


def _positive(name: str, x: float) -> float:
    x = float(x)
    if not (math.isfinite(x) and x > 0.0):
        raise ValueError(f"{name} must be finite and > 0")
    return x


def _chbevl(x: float, coeffs: tuple[float, ...]) -> float:
    """Cephes ``chbevl``: the Chebyshev series ``coeffs`` (highest order first) at ``x``."""
    b0 = b1 = b2 = 0.0
    for c in coeffs:
        b2, b1 = b1, b0
        b0 = x * b1 - b2 + c
    return 0.5 * (b0 - b2)


def _i0_parts(k: float) -> tuple[float, float]:
    """``(chb, root)`` with ``i0e(k) = chb / root`` and ``I0(k) = exp(k) * chb / root``."""
    if k <= 8.0:
        return _chbevl(k / 2.0 - 2.0, _I0_A), 1.0
    return _chbevl(32.0 / k - 2.0, _I0_B), math.sqrt(k)


def bessel_i0(k: float) -> float:
    """Modified Bessel function of the first kind, order zero.

    Cephes' ``i0`` in its evaluation order, so it equals ``scipy.special.i0``
    bit for bit; ``inf`` once ``exp(k)`` overflows (k > 709.78), as scipy's
    is — the scaled form is used internally wherever large concentrations appear.
    """
    k = _check_k(k)
    chb, root = _i0_parts(k)
    try:
        return math.exp(k) * chb / root
    except OverflowError:
        return math.inf


def von_mises_pdf(eps, k: float):
    """Circular density ``exp(k cos eps) / (2 pi I0(k))``, overflow-safe.

    Accepts scalars or arrays of ``eps`` (radians); any real value is valid
    since the density is 2*pi-periodic.
    """
    k = _check_k(k)
    chb, root = _i0_parts(k)
    eps_arr = np.asarray(eps, dtype=float)
    vals = np.exp(k * (np.cos(eps_arr) - 1.0)) / (_TWO_PI * (chb / root))
    if np.isscalar(eps) or eps_arr.ndim == 0:
        return float(vals)
    return vals


@lru_cache(maxsize=32)
def _nodes_and_weights(k: float, points: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only ``points``-node Gauss–Legendre rule over the concentration-adapted
    domain, with unit-mass weights; built once per ``(k, points)``."""
    from numpy.polynomial.legendre import leggauss

    half_width = math.pi if k <= 0.0 else min(math.pi, 10.0 / math.sqrt(k))
    x, w = leggauss(points)
    eps = half_width * x
    weights = w * von_mises_pdf(eps, k)
    weights = weights / weights.sum()
    eps.setflags(write=False)
    weights.setflags(write=False)
    return eps, weights


def _adaptive_average(
    fn: Callable[[np.ndarray, np.ndarray], np.ndarray | float],
    k: float,
    points: int = _QUADRATURE_POINTS,
    tol: float = _QUADRATURE_TOL,
    max_doublings: int = _MAX_DOUBLINGS,
):
    """Double quadrature nodes until ``fn``'s output stabilizes.

    Returns ``(value, converged, points_used)``; ``converged`` is still True
    after an exhausted budget if the last doubling moved the result by no
    more than the 1e-6 warning threshold.
    """
    prev = fn(*_nodes_and_weights(k, points))
    delta = math.inf
    for _ in range(max_doublings):
        points *= 2
        cur = fn(*_nodes_and_weights(k, points))
        delta = float(np.max(np.abs(np.asarray(cur) - np.asarray(prev))))
        prev = cur
        if delta <= tol:
            return prev, True, points
    return prev, delta <= _WARN_THRESHOLD, points


@lru_cache(maxsize=8)  # one curve uses at most 1 + _MAX_DOUBLINGS = 7 rules
def _node_spectrum(params: RouterParams, k: float, points: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only ``np.linalg.eigh`` of ``H(phi + eps_p)`` at the nodes ``eps_p`` of the
    ``points``-node rule for concentration ``k`` (``_nodes_and_weights``)."""
    eps = _nodes_and_weights(k, points)[0]
    w, q = np.linalg.eigh(reduced_hamiltonians(params.n_outputs, params.beta, params.phi + eps))
    w.setflags(write=False)
    q.setflags(write=False)
    return w, q


def _static_average(params: RouterParams, t: float, amps0: np.ndarray, k: float,
                    reduce: Callable[[np.ndarray, np.ndarray], np.ndarray | float]):
    """``_adaptive_average`` of ``reduce(states, weights)``, where row ``p`` of
    ``states`` is ``exp(-i H(phi + eps_p) t) amps0`` at quadrature node ``eps_p``,
    evolved from the rule's cached spectrum."""
    def quadrature(eps: np.ndarray, wts: np.ndarray):
        return reduce(_evolved(_node_spectrum(params, k, eps.size), t, amps0), wts)

    return _adaptive_average(quadrature, k)


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
    rho, converged, used = _static_average(params, t, psi0.amplitudes, vm.k, _mixture)
    return NoiseAveragedState(rho, converged, used)


def ou_sample_path(spec: OUSpec, steps: int, trajectory: int = 0) -> np.ndarray:
    """One Euler–Maruyama path ``X_0 .. X_{steps-1}`` (values at step starts).

    ``X_0`` is drawn from the stationary law ``N(mu, Sigma^2 / 2 theta)``;
    the path is fully determined by ``(spec.seed, trajectory)``.
    """
    if int(steps) < 1:
        raise ValueError("steps must be >= 1")
    return _phase_paths(spec, spec.mu, int(steps), [int(trajectory)])[0]


def ou_stationary_draws(spec: OUSpec, count: int) -> np.ndarray:
    """Initial values ``X_0`` of trajectories ``0 .. count-1`` (stationary samples)."""
    if int(count) < 1:
        raise ValueError("count must be >= 1")
    return _phase_paths(spec, spec.mu, 1, range(int(count)))[:, 0]


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
    """Coefficients ``C_m`` of ``U(phi, dt) = sum_m e^{i m phi} C_m``, shape ``(2M + 1, 36)``.

    Row ``j`` is ``C_{j - M}`` flattened.  ``M`` is the smallest cutoff whose
    two-sided Dyson tail (module docstring) is below the float64 unit
    roundoff; the bound holds for ``|m| + 1 >= |beta| dt``, which every
    dropped harmonic satisfies.  The coefficients come from one ``eigh`` of
    ``N`` equispaced phases (a power of two, at least ``max(8, 2M + 2)``, so
    aliasing adds only that tail) and an FFT over the phase axis.
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
    phis = _TWO_PI * np.arange(nodes) / nodes
    u = _unitaries(reduced_hamiltonians(n, beta, phis), dt)
    c = np.fft.fft(u.reshape(nodes, 36), axis=0) / nodes
    return c[np.arange(-cutoff, cutoff + 1) % nodes]


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


def _evolve_ensemble(
    params: RouterParams,
    psi0: np.ndarray,
    spec: OUSpec,
    snapshots: Sequence[int],
    observe: Callable[[np.ndarray], np.ndarray] = lambda states: states,
) -> np.ndarray:
    """Batched piecewise-constant evolution of all trajectories.

    The phase reverts to ``spec.mu``, or to the router's phase when that is
    None.  Each step applies ``U(X_b, dt) = sum_m e^{i m X_b} C_m`` (see
    ``_step_fourier``): one power recurrence, one GEMM of the phase powers
    against the flattened ``C_m``, then one batched 6x6 matrix-vector
    product.  The powers take ``harmonics x rows`` complex scratch, at most
    4095 x 513 (about 34 MB) at the ``|beta| dt`` limit of about 560.
    Trajectories evolve in blocks (``_blocks``), and only ``observe`` of a
    block's ``(rows, 6)`` state stack is kept: entry ``[j, b]`` of the result
    is trajectory ``b``'s row of ``observe`` at the ``j``-th of the
    increasing step indices ``snapshots``.  The table is allocated before any
    block evolves; by default it holds the states.
    """
    if spec.trajectories < 2:
        raise ValueError("need at least 2 trajectories for ensemble statistics")
    mu = params.phi if spec.mu is None else spec.mu
    total_steps = snapshots[-1]
    column = {step: j for j, step in enumerate(snapshots)}
    if total_steps > 0:
        coeffs = _step_fourier(params.n_outputs, params.beta, spec.dt)
        harmonics = coeffs.shape[0]
        cutoff = (harmonics - 1) // 2
    probe = observe(psi0[None])  # only for the table's trailing shape and dtype
    table = np.empty((len(snapshots), spec.trajectories) + probe.shape[1:], probe.dtype)
    for lo, hi in _blocks(spec.trajectories):
        psi = np.broadcast_to(psi0, (hi - lo, psi0.shape[0])).copy()
        if 0 in column:
            table[0, lo:hi] = observe(psi)
        if total_steps == 0:
            continue
        # powers[j, b] = e^{i (j - M) X_b}.
        powers = np.empty((harmonics, hi - lo), dtype=complex)
        paths = _phase_paths(spec, mu, total_steps, range(lo, hi))
        for m in range(total_steps):
            x = paths[:, m]
            z = np.exp(1j * x)
            np.exp(1j * -cutoff * x, out=powers[0])
            for j in range(1, harmonics):
                np.multiply(powers[j - 1], z, out=powers[j])
            step = powers.T @ coeffs
            psi = np.einsum("bij,bj->bi", step.reshape(-1, 6, 6), psi)
            if m + 1 in column:
                table[column[m + 1], lo:hi] = observe(psi)
    return table


def ou_ensemble_state(
    params: RouterParams, t: float, psi0: PureState, spec: OUSpec
) -> EnsembleState:
    """Trajectory-averaged state at time ``t`` (rounded to a whole number of steps).

    The result's ``fidelity_with_stderr`` reports the mean fidelity against a
    pure target together with its Monte Carlo standard error.
    """
    t = float(t)
    if not (math.isfinite(t) and t >= 0.0):
        raise ValueError("t must be finite and >= 0")
    (states,) = _evolve_ensemble(params, psi0.amplitudes, spec, [int(round(t / spec.dt))])
    return EnsembleState(_mixture(states, np.full(len(states), 1.0 / len(states))), states)


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
    ``spec.dt``; returns ``(times, fidelity, stderr)``.  Only the
    ``(snapshots, trajectories)`` fidelity table is retained, so a request
    too large for memory raises ``MemoryError`` before any step is taken.
    """
    if not (math.isfinite(float(t_max)) and t_max > 0.0):
        raise ValueError("t_max must be positive")
    if int(snapshots) < 2:
        raise ValueError("snapshots must be >= 2")
    snapshots = int(snapshots)
    total_steps = int(round(t_max / spec.dt))
    if total_steps < 1:
        raise ValueError("t_max must span at least one step of dt")
    grid = [
        int(round(j * t_max / (snapshots - 1) / spec.dt)) for j in range(snapshots)
    ]
    wanted = sorted(set(min(max(s, 0), total_steps) for s in grid))
    w_conj = target.amplitudes.conj()
    table = _evolve_ensemble(params, psi0.amplitudes, spec, wanted,
                             lambda states: _fidelities(states, w_conj))
    stats = np.array([_mean_and_stderr(f) for f in table])
    return np.array(wanted) * spec.dt, stats[:, 0], stats[:, 1]

