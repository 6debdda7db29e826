"""Phase-noise models: static circular disorder and dynamical mean-reverting drift.

Static noise replaces the chiral phase ``phi`` by ``phi + eps`` with ``eps``
drawn once per realization from the circular (von Mises) density

    p_k(eps) = exp(k cos eps) / (2 pi I0(k)),

and observables become quadrature averages over ``eps``.  The density is
evaluated in the exponentially scaled form ``exp(k (cos eps - 1)) / (2 pi
i0e(k))``, which stays finite for arbitrarily large concentration ``k``
(the naive form overflows float64 beyond k ~ 713).  For large ``k`` the
quadrature domain shrinks to ``[-L, L]`` with ``L = min(pi, 10 / sqrt(k))``
— about ten standard deviations of the narrow-density limit — so nodes are
never wasted on regions of negligible mass; weights are renormalized to unit
mass, which makes averaged states exactly trace-one and turns ``k = 0`` into
the exact uniform phase average.

Dynamical noise promotes the phase to a mean-reverting diffusion

    dX_t = theta (mu - X_t) dt + Sigma dW_t

integrated by the Euler–Maruyama rule with stationary initial conditions
``X_0 ~ N(mu, Sigma^2 / (2 theta))``.  Each trajectory owns a counter-based
random stream (Philox keyed by the seed, counter set from the trajectory
index), so ensembles are reproducible and independent of evaluation order
or batching.

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
from typing import Callable, Sequence

import numpy as np
# scipy.special and numpy.polynomial are imported inside the von Mises functions that
# use them: they would be most of the cost of ``import qwrouter``, and nothing else
# needs them.

from .dynamics import PureState
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
    "noise_equivalence",
    "noise_equivalence_inverse",
]

_TWO_PI = 2.0 * math.pi
_WARN_THRESHOLD = 1e-6
_ROUNDOFF = 2.0**-53  # float64 unit roundoff: the Fourier step's tail target
_MAX_PHASE_NODES = 4096  # Fourier-step phase nodes: |beta| dt up to about 560
_HARMONIC_BLOCK = 32  # harmonics per GEMM in a Fourier step (bounds scratch)


@dataclass(frozen=True)
class VonMisesSpec:
    """Static-noise parameters.

    Parameters
    ----------
    k : float
        Concentration (>= 0).  ``k = 0`` is the uniform circular density;
        large ``k`` approaches a Gaussian of variance ``1 / k``.
    quadrature_points : int
        Starting Gauss–Legendre node count (>= 8); doubled adaptively.
    tol : float
        Stability target for the doubling loop.
    max_doublings : int
        Budget for the doubling loop before flagging non-convergence.
    """

    k: float
    quadrature_points: int = 129
    tol: float = 1e-8
    max_doublings: int = 6

    def __post_init__(self) -> None:
        k = float(self.k)
        if not (math.isfinite(k) and k >= 0.0):
            raise ValueError("k must be finite and >= 0")
        if int(self.quadrature_points) < 8:
            raise ValueError("quadrature_points must be >= 8")
        if not (self.tol > 0.0):
            raise ValueError("tol must be positive")
        if int(self.max_doublings) < 0:
            raise ValueError("max_doublings must be >= 0")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "quadrature_points", int(self.quadrature_points))
        object.__setattr__(self, "max_doublings", int(self.max_doublings))


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
        if not (math.isfinite(float(self.theta)) and self.theta > 0.0):
            raise ValueError("theta must be finite and > 0")
        if self.mu is not None and not math.isfinite(float(self.mu)):
            raise ValueError("mu must be finite")
        if not (math.isfinite(float(self.sigma_vol)) and self.sigma_vol >= 0.0):
            raise ValueError("sigma_vol must be finite and >= 0")
        if not (math.isfinite(float(self.dt)) and self.dt > 0.0):
            raise ValueError("dt must be finite and > 0")
        if int(self.trajectories) < 1:
            raise ValueError("trajectories must be >= 1")
        seed = int(self.seed)
        if not 0 <= seed < 2**64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")
        object.__setattr__(self, "theta", float(self.theta))
        object.__setattr__(self, "mu", None if self.mu is None else float(self.mu))
        object.__setattr__(self, "sigma_vol", float(self.sigma_vol))
        object.__setattr__(self, "dt", float(self.dt))
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
        overlaps = self.trajectory_states @ target.amplitudes.conj()
        f = np.abs(overlaps) ** 2
        n = f.size
        if n < 2:
            raise ValueError("standard error undefined for fewer than 2 trajectories")
        return float(f.mean()), float(f.std(ddof=1) / math.sqrt(n))


def bessel_i0(k: float) -> float:
    """Modified Bessel function of the first kind, order zero.

    Relative error below 1e-12 across the representable range; overflows to
    ``inf`` beyond k ~ 713 (float64 limit) — the scaled form is used
    internally wherever large concentrations appear.
    """
    from scipy import special

    k = float(k)
    if not math.isfinite(k) or k < 0.0:
        raise ValueError("k must be finite and >= 0")
    return float(special.i0(k))


def von_mises_pdf(eps, k: float):
    """Circular density ``exp(k cos eps) / (2 pi I0(k))``, overflow-safe.

    Accepts scalars or arrays of ``eps`` (radians); any real value is valid
    since the density is 2*pi-periodic.
    """
    from scipy import special

    k = float(k)
    if not math.isfinite(k) or k < 0.0:
        raise ValueError("k must be finite and >= 0")
    eps_arr = np.asarray(eps, dtype=float)
    vals = np.exp(k * (np.cos(eps_arr) - 1.0)) / (_TWO_PI * special.i0e(k))
    if np.isscalar(eps) or eps_arr.ndim == 0:
        return float(vals)
    return vals


@lru_cache(maxsize=32)
def _leggauss(points: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only Gauss–Legendre nodes and weights on ``[-1, 1]``, built once per count."""
    from numpy.polynomial.legendre import leggauss

    x, w = leggauss(points)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _nodes_and_weights(k: float, points: int) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature nodes over the concentration-adapted domain and unit-mass weights."""
    half_width = math.pi if k <= 0.0 else min(math.pi, 10.0 / math.sqrt(k))
    x, w = _leggauss(points)
    eps = half_width * x
    weights = w * von_mises_pdf(eps, k)
    return eps, weights / weights.sum()


def _adaptive_average(
    fn: Callable[[np.ndarray, np.ndarray], np.ndarray | float],
    k: float,
    points: int,
    tol: float,
    max_doublings: int,
):
    """Double quadrature nodes until ``fn``'s output stabilizes.

    Returns ``(value, converged, points_used)``; ``converged`` is still True
    after an exhausted budget if the last doubling moved the result by no
    more than the 1e-6 warning threshold.
    """
    eps, wts = _nodes_and_weights(k, points)
    prev = fn(eps, wts)
    used = points
    delta = math.inf
    for _ in range(max_doublings):
        points *= 2
        eps, wts = _nodes_and_weights(k, points)
        cur = fn(eps, wts)
        delta = float(np.max(np.abs(np.asarray(cur) - np.asarray(prev))))
        prev = cur
        used = points
        if delta <= tol:
            return prev, True, used
    return prev, delta <= _WARN_THRESHOLD, used


def _states_at_phases(
    params: RouterParams, t: float, phis: np.ndarray, psi0: np.ndarray
) -> np.ndarray:
    """Evolved states ``exp(-i H(phi) t) psi0`` for a batch of phases; shape (len(phis), 6)."""
    w, q = np.linalg.eigh(reduced_hamiltonians(params.n_outputs, params.beta, phis))
    coeff = np.einsum("pji,j->pi", q.conj(), psi0)
    return np.einsum("pij,pj->pi", q, np.exp(-1j * w * t) * coeff)


def static_noise_fidelity(
    params: RouterParams, t: float, sp: SuperpositionParams, vm: VonMisesSpec
) -> StaticNoiseFidelity:
    """Noise-averaged routing fidelity ``∫ p_k(eps) |<w|U(phi+eps)|psi0>|^2 d eps``."""
    t = float(t)
    psi0 = input_state(sp).amplitudes
    w_target = target_state(sp).amplitudes.conj()

    def quadrature(eps: np.ndarray, wts: np.ndarray) -> float:
        states = _states_at_phases(params, t, params.phi + eps, psi0)
        f = np.abs(states @ w_target) ** 2
        return float(np.dot(wts, f))

    value, converged, used = _adaptive_average(
        quadrature, vm.k, vm.quadrature_points, vm.tol, vm.max_doublings
    )
    return StaticNoiseFidelity(min(max(value, 0.0), 1.0), converged, used)


def static_noise_state(
    params: RouterParams, t: float, psi0: PureState, vm: VonMisesSpec
) -> NoiseAveragedState:
    """Noise-averaged output state ``∫ p_k(eps) U(phi+eps) |psi0><psi0| U^dag d eps``."""
    t = float(t)
    amps0 = psi0.amplitudes

    def quadrature(eps: np.ndarray, wts: np.ndarray) -> np.ndarray:
        states = _states_at_phases(params, t, params.phi + eps, amps0)
        rho = np.einsum("p,pi,pj->ij", wts, states, states.conj())
        return 0.5 * (rho + rho.conj().T)

    rho, converged, used = _adaptive_average(
        quadrature, vm.k, vm.quadrature_points, vm.tol, vm.max_doublings
    )
    return NoiseAveragedState(rho, converged, used)


def _trajectory_rng(seed: int, index: int) -> np.random.Generator:
    """Independent counter-based stream for one trajectory."""
    return np.random.Generator(np.random.Philox(key=seed, counter=index << 128))


def ou_sample_path(spec: OUSpec, steps: int, trajectory: int = 0) -> np.ndarray:
    """One Euler–Maruyama path ``X_0 .. X_{steps-1}`` (values at step starts).

    ``X_0`` is drawn from the stationary law ``N(mu, Sigma^2 / 2 theta)``;
    the path is fully determined by ``(spec.seed, trajectory)``.
    """
    if int(steps) < 1:
        raise ValueError("steps must be >= 1")
    if spec.mu is None:
        raise ValueError("mu must be set for standalone path sampling")
    return _phase_paths(spec, spec.mu, int(steps), [int(trajectory)])[0]


def ou_stationary_draws(spec: OUSpec, count: int) -> np.ndarray:
    """Initial values ``X_0`` of trajectories ``0 .. count-1`` (stationary samples)."""
    if int(count) < 1:
        raise ValueError("count must be >= 1")
    if spec.mu is None:
        raise ValueError("mu must be set for standalone sampling")
    return _phase_paths(spec, spec.mu, 1, range(int(count)))[:, 0]


def _phase_paths(
    spec: OUSpec, mu: float, steps: int, trajectories: Sequence[int] | None = None
) -> np.ndarray:
    """Paths of the given trajectory indices (default: all), shape (len, steps).

    Row ``r`` depends only on ``(spec.seed, trajectories[r])``.
    """
    if trajectories is None:
        trajectories = range(spec.trajectories)
    x0 = np.empty(len(trajectories))
    z = np.empty((len(trajectories), max(steps - 1, 0)))
    sd = math.sqrt(spec.stationary_variance)
    for r, index in enumerate(trajectories):
        rng = _trajectory_rng(spec.seed, index)
        x0[r] = mu + sd * rng.standard_normal()
        if steps > 1:
            z[r] = rng.standard_normal(steps - 1)
    paths = np.empty((len(trajectories), steps))
    x = x0
    paths[:, 0] = x
    drift_dt = spec.theta * spec.dt
    diffusion = spec.sigma_vol * math.sqrt(spec.dt)
    for m in range(steps - 1):
        x = x + drift_dt * (mu - x) + diffusion * z[:, m]
        paths[:, m + 1] = x
    return paths


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
    w, q = np.linalg.eigh(reduced_hamiltonians(n, beta, phis))
    u = (q * np.exp(-1j * w * dt)[:, None, :]) @ q.conj().transpose(0, 2, 1)
    c = np.fft.fft(u.reshape(nodes, 36), axis=0) / nodes
    return c[np.arange(-cutoff, cutoff + 1) % nodes]


def _evolve_ensemble(
    params: RouterParams,
    psi0: np.ndarray,
    spec: OUSpec,
    mu: float,
    total_steps: int,
    snapshot_steps: Sequence[int],
) -> dict[int, np.ndarray]:
    """Batched piecewise-constant evolution of all trajectories.

    Each step applies ``U(X_b, dt) = sum_m e^{i m X_b} C_m`` (see
    ``_step_fourier``): one GEMM of the phase powers against the flattened
    ``C_m``, in blocks of ``_HARMONIC_BLOCK`` harmonics, then one batched
    6x6 matrix-vector product.  Returns a map step-index -> (trajectories, 6)
    state stack at that step.
    """
    wanted = sorted(set(int(s) for s in snapshot_steps))
    psi = np.broadcast_to(psi0, (spec.trajectories, psi0.shape[0])).copy()
    out: dict[int, np.ndarray] = {}
    if wanted and wanted[0] == 0:
        out[0] = psi.copy()
    if total_steps == 0:
        return out
    coeffs = _step_fourier(params.n_outputs, params.beta, spec.dt)
    harmonics = coeffs.shape[0]
    cutoff = (harmonics - 1) // 2
    # powers[j, b] = e^{i (lo + j - M) X_b} for the block of harmonics starting at lo.
    powers = np.empty((min(harmonics, _HARMONIC_BLOCK), spec.trajectories), dtype=complex)
    paths = _phase_paths(spec, mu, total_steps)
    remaining = [s for s in wanted if s > 0]
    for m in range(total_steps):
        x = paths[:, m]
        z = np.exp(1j * x)
        step = 0.0
        for lo in range(0, harmonics, powers.shape[0]):
            block = coeffs[lo:lo + powers.shape[0]]
            np.exp(1j * (lo - cutoff) * x, out=powers[0])
            for j in range(1, block.shape[0]):
                np.multiply(powers[j - 1], z, out=powers[j])
            step = step + powers[:block.shape[0]].T @ block
        psi = np.einsum("bij,bj->bi", step.reshape(-1, 6, 6), psi)
        if remaining and m + 1 == remaining[0]:
            out[m + 1] = psi.copy()
            remaining.pop(0)
    return out


def ou_ensemble_state(
    params: RouterParams, t: float, psi0: PureState, spec: OUSpec
) -> EnsembleState:
    """Trajectory-averaged state at time ``t`` (rounded to a whole number of steps).

    The result's ``fidelity_with_stderr`` reports the mean fidelity against a
    pure target together with its Monte Carlo standard error.
    """
    if spec.trajectories < 2:
        raise ValueError("need at least 2 trajectories for ensemble statistics")
    t = float(t)
    if not (math.isfinite(t) and t >= 0.0):
        raise ValueError("t must be finite and >= 0")
    mu = params.phi if spec.mu is None else spec.mu
    steps = int(round(t / spec.dt))
    snaps = _evolve_ensemble(params, psi0.amplitudes, spec, mu, steps, [steps])
    states = snaps[steps]
    rho = np.einsum("bi,bj->ij", states, states.conj()) / states.shape[0]
    return EnsembleState(0.5 * (rho + rho.conj().T), states)


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
    ``spec.dt``; returns ``(times, fidelity, stderr)``.
    """
    if spec.trajectories < 2:
        raise ValueError("need at least 2 trajectories for ensemble statistics")
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
    states = _evolve_ensemble(
        params, psi0.amplitudes, spec, params.phi if spec.mu is None else spec.mu,
        total_steps, wanted,
    )
    w_conj = target.amplitudes.conj()
    times = np.empty(len(wanted))
    values = np.empty(len(wanted))
    errors = np.empty(len(wanted))
    for idx, step in enumerate(wanted):
        f = np.abs(states[step] @ w_conj) ** 2
        times[idx] = step * spec.dt
        values[idx] = f.mean()
        errors[idx] = f.std(ddof=1) / math.sqrt(f.size)
    return times, values, errors


def noise_equivalence(k: float, theta: float = 1.0) -> tuple[float, tuple[float, float]]:
    """Map a concentration ``k`` to the equivalent Gaussian variance and OU parameters.

    ``sigma^2 = 1 / k``; the matched process at mean-reversion ``theta`` has
    ``Sigma = sqrt(2 theta / k)`` so that ``Sigma^2 / (2 theta) = 1 / k``.
    """
    if not (math.isfinite(float(k)) and k > 0.0):
        raise ValueError("k must be finite and > 0")
    if not (math.isfinite(float(theta)) and theta > 0.0):
        raise ValueError("theta must be finite and > 0")
    sigma_sq = 1.0 / float(k)
    return sigma_sq, (float(theta), math.sqrt(2.0 * float(theta) * sigma_sq))


def noise_equivalence_inverse(theta: float, sigma_vol: float) -> tuple[float, float]:
    """Map OU parameters to the equivalent Gaussian variance and concentration ``k``."""
    if not (math.isfinite(float(theta)) and theta > 0.0):
        raise ValueError("theta must be finite and > 0")
    if not (math.isfinite(float(sigma_vol)) and sigma_vol > 0.0):
        raise ValueError("sigma_vol must be finite and > 0")
    sigma_sq = float(sigma_vol) ** 2 / (2.0 * float(theta))
    return sigma_sq, 1.0 / sigma_sq
