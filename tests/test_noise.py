import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, linalg, special

from qwrouter import (
    EnsembleState,
    OUSpec,
    PureState,
    RouterParams,
    SuperpositionParams,
    VonMisesSpec,
    build_reduced_hamiltonian,
    input_state,
    ou_ensemble_state,
    ou_fidelity_curve,
    ou_sample_path,
    ou_stationary_draws,
    reduced_hamiltonians,
    routing_fidelity,
    static_noise_fidelity,
    static_noise_state,
    target_state,
)
from qwrouter import noise
from qwrouter.dynamics import _unitaries
from qwrouter.noise import (
    _TRAJECTORY_BLOCK,
    _blocks,
    _evolve_ensemble,
    _node_spectrum,
    _nodes_and_weights,
    _phase_paths,
    _snapshot_steps,
    _step_fourier,
)

TWO_PI = 2.0 * math.pi

PEAK = RouterParams(20, 1.0, 4.712)
PEAK_T = 18.550
SP = SuperpositionParams(0.7, 3.0 * math.pi / 2.0)


def ensemble_states(params, psi0, spec, snapshots):
    """The ``(snapshots, trajectories, 6)`` states that ``_evolve_ensemble`` visits."""
    states = np.empty((len(snapshots), spec.trajectories, 6), dtype=complex)

    def keep(j, lo, hi, block):
        states[j, lo:hi] = block

    _evolve_ensemble(params, psi0, spec, snapshots, keep)
    return states


class TestSpecValidation:
    def test_vonmises(self):
        with pytest.raises(ValueError):
            VonMisesSpec(-1.0)

    def test_vonmises_holds_only_k(self):
        assert [f.name for f in dataclasses.fields(VonMisesSpec)] == ["k"]
        with pytest.raises(TypeError):
            VonMisesSpec(1.0, quadrature_points=200)

    def test_ou(self):
        with pytest.raises(ValueError):
            OUSpec(theta=0.0)
        with pytest.raises(ValueError):
            OUSpec(sigma_vol=-0.1)
        with pytest.raises(ValueError):
            OUSpec(dt=0.0)
        with pytest.raises(ValueError):
            OUSpec(trajectories=0)

    @pytest.mark.parametrize("field, value", [("trajectories", 1.5), ("trajectories", math.nan),
                                              ("seed", 1.5), ("seed", "7")])
    def test_ou_rejects_a_count_that_is_not_an_integer(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got {value!r}$"):
            OUSpec(**{field: value})

    def test_ou_accepts_integral_floats(self):
        spec = OUSpec(trajectories=4.0, seed=np.float64(9.0))
        assert (spec.trajectories, spec.seed) == (4, 9)
        assert type(spec.trajectories) is int and type(spec.seed) is int

    @pytest.mark.parametrize("theta, dt", [(300.0, 0.01), (1e308, 0.01), (2.0, 1.0), (1.0, 5.0)])
    def test_ou_rejects_a_step_that_does_not_contract(self, theta, dt):
        # x + theta dt (mu - x) multiplies x - mu by 1 - theta dt, which is <= -1 here.
        with pytest.raises(ValueError, match=r"theta \* dt must be < 2 .* got theta = "):
            OUSpec(theta=theta, dt=dt)

    def test_ou_accepts_a_contracting_step(self):
        spec = OUSpec(theta=math.nextafter(200.0, 0.0), mu=0.0, dt=0.01)
        path = ou_sample_path(spec, 500)
        assert np.isfinite(path).all() and np.abs(path).max() < 1.0

    @pytest.mark.parametrize("sigma_vol, theta", [(1e200, 1.0), (1e150, 1e-300),
                                                  (1.8e154, 1.0)])
    def test_ou_rejects_a_non_finite_stationary_variance(self, sigma_vol, theta):
        # sigma_vol**2 overflows (an OverflowError from pow) or the division does (inf).
        with pytest.raises(ValueError, match="stationary variance .* must be finite"):
            OUSpec(theta=theta, sigma_vol=sigma_vol)
        assert OUSpec(theta=theta, sigma_vol=1e-3).stationary_variance < math.inf


class TestStaticNoiseFidelity:
    def test_sharp_limit_recovers_noiseless(self):
        noiseless = routing_fidelity(PEAK, PEAK_T, SP)
        noisy = static_noise_fidelity(PEAK, PEAK_T, SP, VonMisesSpec(1e6))
        assert noisy == pytest.approx(noiseless, abs=1e-3)
        assert noisy.converged

    def test_uniform_limit_against_riemann_oracle(self):
        # k = 0 averages the fidelity uniformly over the phase circle; a plain
        # Riemann sum over shifted-phase routers is a fully independent route.
        vm = VonMisesSpec(0.0)
        noisy = static_noise_fidelity(PEAK, PEAK_T, SP, vm)
        eps = np.linspace(0.0, TWO_PI, 512, endpoint=False)
        oracle = np.mean(
            [
                routing_fidelity(
                    RouterParams(PEAK.n_outputs, PEAK.beta, PEAK.phi + e), PEAK_T, SP
                )
                for e in eps
            ]
        )
        assert noisy == pytest.approx(oracle, abs=1e-6)

    def test_monotone_in_concentration_at_peak(self):
        noiseless = routing_fidelity(PEAK, PEAK_T, SP)
        f_sharp = static_noise_fidelity(PEAK, PEAK_T, SP, VonMisesSpec(25.0 / 2.0))
        f_mid = static_noise_fidelity(PEAK, PEAK_T, SP, VonMisesSpec(25.0 / 8.0))
        f_broad = static_noise_fidelity(PEAK, PEAK_T, SP, VonMisesSpec(2.0))
        assert noiseless > f_sharp > f_mid > f_broad

    def test_stable_under_node_count(self, monkeypatch):
        a = static_noise_fidelity(PEAK, PEAK_T, SP, VonMisesSpec(2.0))
        monkeypatch.setattr(noise, "_QUADRATURE_POINTS", 200)
        b = static_noise_fidelity(PEAK, PEAK_T, SP, VonMisesSpec(2.0))
        assert b.converged and b.points_used >= 400
        assert a == pytest.approx(b, abs=1e-8)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf, 1e308])
    def test_rejects_non_finite_time(self, t):
        # A finite t whose phases w t overflow would give NaN states.
        message = "overflow" if math.isfinite(t) else "t must be finite"
        with pytest.raises(ValueError, match=message):
            static_noise_fidelity(PEAK, t, SP, VonMisesSpec(12.5))
        with pytest.raises(ValueError, match=message):
            static_noise_state(PEAK, t, input_state(SP), VonMisesSpec(12.5))

    def test_reports_points_used(self):
        f = static_noise_fidelity(PEAK, 5.0, SP, VonMisesSpec(2.0))
        assert f.points_used >= 129
        assert isinstance(f + 0.0, float)


def states_at_phases_reference(params, t, phis, psi0):
    """The former per-phase route: ``exp(-i H(phi) t) psi0`` for a batch of phases."""
    w, q = np.linalg.eigh(reduced_hamiltonians(params.n_outputs, params.beta, phis))
    coeff = np.einsum("pji,j->pi", q.conj(), psi0)
    return np.einsum("pij,pj->pi", q, np.exp(-1j * w * t) * coeff)


def fidelity_functional(params, t, sp):
    """Quadrature of the routing fidelity over the reference states."""
    psi0 = input_state(sp).amplitudes
    w_conj = target_state(sp).amplitudes.conj()

    def quadrature(eps, wts):
        states = states_at_phases_reference(params, t, params.phi + eps, psi0)
        return float(np.dot(wts, np.abs(states @ w_conj) ** 2))

    return quadrature


def state_functional(params, t, psi0):
    """Quadrature of the output state over the reference states."""
    def quadrature(eps, wts):
        states = states_at_phases_reference(params, t, params.phi + eps, psi0)
        rho = np.einsum("p,pi,pj->ij", wts, states, states.conj())
        return 0.5 * (rho + rho.conj().T)

    return quadrature


@pytest.mark.parametrize("k", [0.0, 2.0, 12.5, 1000.0, 1e6])
def test_static_noise_matches_reference_states(k):
    # At the rule it reports, the result equals the reference states' quadrature;
    # every rule before it still moved by more than the tolerance, and it did not.
    rng = np.random.default_rng(int(k) + 17)
    for _ in range(3):
        params = RouterParams(int(rng.integers(2, 200)), float(rng.uniform(-2.0, 2.0)),
                              float(rng.uniform(0.0, TWO_PI)))
        t = float(rng.uniform(0.0, 30.0))
        sp = SuperpositionParams(float(rng.uniform()), float(rng.uniform(0.0, TWO_PI)))
        vm = VonMisesSpec(k)
        f = static_noise_fidelity(params, t, sp, vm)
        state = static_noise_state(params, t, input_state(sp), vm)
        assert f.converged and state.converged
        rules = [noise._QUADRATURE_POINTS * 2**d for d in range(noise._MAX_DOUBLINGS + 1)]
        for value, used, functional in (
            (f, f.points_used, fidelity_functional(params, t, sp)),
            (state.entries, state.points_used,
             state_functional(params, t, input_state(sp).amplitudes)),
        ):
            refs = [functional(*_nodes_and_weights(k, p)) for p in rules if p <= used]
            assert len(refs) >= 2 and rules[len(refs) - 1] == used
            steps = [float(np.max(np.abs(np.subtract(b, a)))) for a, b in zip(refs, refs[1:])]
            assert steps[-1] <= noise._QUADRATURE_TOL
            assert all(step > noise._QUADRATURE_TOL for step in steps[:-1])
            assert float(np.max(np.abs(np.subtract(value, refs[-1])))) <= 1e-14


class TestAdaptiveAverage:
    def test_flags_non_convergence(self, monkeypatch):
        # The uniform average over the whole circle at the peak time, which an
        # 8 -> 16 node doubling cannot pin down.
        monkeypatch.setattr(noise, "_QUADRATURE_POINTS", 8)
        monkeypatch.setattr(noise, "_MAX_DOUBLINGS", 1)
        monkeypatch.setattr(noise, "_QUADRATURE_TOL", 1e-12)
        f = static_noise_fidelity(PEAK, PEAK_T, SP, VonMisesSpec(0.0))
        assert not f.converged
        assert f.points_used == 16
        state = static_noise_state(PEAK, PEAK_T, input_state(SP), VonMisesSpec(0.0))
        assert (state.converged, state.points_used) == (False, 16)

    def test_converges_on_smooth_functional(self):
        # oracle: E[cos eps] under the circular density is I1(k)/I0(k)
        ratio = special.i1e(2.0) / special.i0e(2.0)
        for points in (64, 129, 258):
            eps, wts = _nodes_and_weights(2.0, points)
            assert float(np.dot(wts, np.cos(eps))) == pytest.approx(ratio, abs=1e-13)


def static_noise_oracle(params, t, sp, k):
    """Full-circle adaptive quadrature of the normalized von Mises density times
    the routing fidelity, split where the density's bulk ends."""
    def integrand(e):
        density = math.exp(k * (math.cos(e) - 1.0)) / (TWO_PI * special.i0e(k))
        shifted = RouterParams(params.n_outputs, params.beta, params.phi + e)
        return density * routing_fidelity(shifted, t, sp)

    half = min(math.pi, 12.0 / math.sqrt(k))
    return sum(
        integrate.quad(integrand, lo, hi, epsabs=1e-13, epsrel=1e-11, limit=200)[0]
        for lo, hi in ((-half, 0.0), (0.0, half), (-math.pi, -half), (half, math.pi))
        if hi > lo
    )


@pytest.mark.parametrize("t", [5.0, PEAK_T])
@pytest.mark.parametrize("k", [0.5, 2.0, 12.5, 1000.0])
def test_static_noise_fidelity_against_adaptive_quad(k, t):
    # Checks the unit-mass weights against the normalized density, outside noise.py;
    # the largest error is the [-L, L] truncation at k = 12.5.
    f = static_noise_fidelity(PEAK, t, SP, VonMisesSpec(k))
    assert f.converged
    assert abs(f - static_noise_oracle(PEAK, t, SP, k)) <= 1e-11


class TestNodeSpectrumCache:
    def test_curve_decomposes_each_rule_once(self, monkeypatch):
        # The benchmark's k = 12.5 curve: 101 times, every one converged at 258 nodes.
        vm = VonMisesSpec(12.5)
        ts = [j * 25.0 / 100 for j in range(101)]
        calls = []
        real = np.linalg.eigh

        def counting(a):
            calls.append(np.shape(a)[:-2])
            return real(a)

        _node_spectrum.cache_clear()
        monkeypatch.setattr(np.linalg, "eigh", counting)
        curve = [static_noise_fidelity(PEAK, t, SP, vm) for t in ts]
        monkeypatch.undo()
        assert calls == [(129,), (258,)]
        assert {(f.converged, f.points_used) for f in curve} == {(True, 258)}
        for t, f in zip(ts, curve):
            _node_spectrum.cache_clear()
            fresh = static_noise_fidelity(PEAK, t, SP, vm)
            assert fresh == f and fresh.points_used == f.points_used

    def test_spectrum_is_read_only(self):
        w, q = _node_spectrum(PEAK, 12.5, 129)
        assert _node_spectrum(PEAK, 12.5, 129)[1] is q
        assert w.shape == (129, 6) and q.shape == (129, 6, 6)
        with pytest.raises(ValueError):
            w[0, 0] = 0.0
        with pytest.raises(ValueError):
            q[0, 0, 0] = 0.0


class TestLeggaussCache:
    def test_rule_is_cached_and_read_only(self):
        x, w = _nodes_and_weights(12.5, 129)
        assert _nodes_and_weights(12.5, 129)[0] is x
        assert not x.flags.writeable and not w.flags.writeable
        with pytest.raises(ValueError):
            x[0] = 0.0
        with pytest.raises(ValueError):
            w[0] = 0.0

    def test_density_is_evaluated_once_per_rule(self, monkeypatch):
        sizes = []
        build = noise._gauss_legendre

        def counted(points):
            sizes.append(points)
            return build(points)

        monkeypatch.setattr(noise, "_gauss_legendre", counted)
        _nodes_and_weights.cache_clear()
        _node_spectrum.cache_clear()
        used = [static_noise_fidelity(PEAK, t, SP, VonMisesSpec(3.7)).points_used
                for t in (1.0, 5.0, 18.55)]
        # One evaluation per rule the curve reaches, not one per rule and time.
        assert sizes == [129 * 2**d for d in range(len(sizes))]
        assert sizes[-1] == max(used)


class TestGaussLegendre:
    @pytest.mark.parametrize("points", [1, 2, 3, 4, 5, 8, 64, 129, 258, 516, 1032])
    def test_matches_leggauss(self, points):
        x, w = noise._gauss_legendre(points)
        ref_x, ref_w = np.polynomial.legendre.leggauss(points)
        assert x.shape == w.shape == (points,)
        assert np.max(np.abs(x - ref_x)) <= 1.2e-16
        # leggauss's own weights near the ends are off by up to 5e-9 relative at 1,032
        # nodes, against 1e-11 here (mpmath), which is at most 4e-14 absolute.
        assert np.max(np.abs(w - ref_w)) <= 1e-13
        assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
        assert np.all(np.diff(x) > 0.0) and np.all(w > 0.0)
        assert abs(w.sum() - 2.0) <= 1e-15

    @pytest.mark.parametrize("points, weight_tol", [(129, 1e-12), (516, 1e-11)])
    def test_against_mpmath(self, points, weight_tol):
        mp = pytest.importorskip("mpmath").mp
        x, w = noise._gauss_legendre(points)
        for i in (0, 1, points // 4, points // 2):
            with mp.workdps(40):
                # Newton's method in 40 digits from the float node, then the weight there.
                node = mp.mpf(float(x[i]))
                for _ in range(3):
                    p_n, p_prev = mp.legendre(points, node), mp.legendre(points - 1, node)
                    node -= p_n * (1 - node**2) / (points * (p_prev - node * p_n))
                p_n, p_prev = mp.legendre(points, node), mp.legendre(points - 1, node)
                weight = 2 * (1 - node**2) / (points * (p_prev - node * p_n)) ** 2
                assert abs(float(x[i]) - node) <= 1e-16
                assert abs(float(w[i]) / weight - 1) <= weight_tol


class TestStaticNoiseState:
    def test_sharp_limit_nearly_pure(self):
        state = static_noise_state(
            PEAK, PEAK_T, input_state(SP), VonMisesSpec(1e6)
        )
        eigs = np.linalg.eigvalsh(state.entries)
        assert eigs[-1] > 0.999
        assert np.all(eigs[:-1] < 1e-3)

    def test_exact_trace(self):
        state = static_noise_state(PEAK, 7.0, input_state(SP), VonMisesSpec(2.0))
        assert np.trace(state.entries).real == pytest.approx(1.0, abs=1e-10)
        assert state.converged

    def test_dual_route_against_fidelity(self):
        # <w| rho |w> from the averaged state must match the directly
        # quadratured fidelity (two independent code paths).
        vm = VonMisesSpec(25.0 / 8.0)
        state = static_noise_state(PEAK, PEAK_T, input_state(SP), vm)
        w = target_state(SP).amplitudes
        via_state = float(np.real(w.conj() @ state.entries @ w))
        direct = static_noise_fidelity(PEAK, PEAK_T, SP, vm)
        assert via_state == pytest.approx(direct, abs=1e-6)


class TestOUPaths:
    def test_zero_volatility_is_constant(self):
        spec = OUSpec(sigma_vol=0.0, mu=1.3)
        path = ou_sample_path(spec, 200)
        assert np.all(path == 1.3)

    def test_deterministic_per_key(self):
        spec = OUSpec(mu=0.5, seed=42)
        a = ou_sample_path(spec, 100, trajectory=3)
        b = ou_sample_path(spec, 100, trajectory=3)
        c = ou_sample_path(spec, 100, trajectory=4)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_requires_mu(self):
        with pytest.raises(ValueError):
            ou_sample_path(OUSpec(), 10)
        with pytest.raises(ValueError):
            ou_stationary_draws(OUSpec(), 10)

    @pytest.mark.parametrize("call, message", [
        (lambda spec: ou_sample_path(spec, 2.7), "steps must be an integer, got 2.7"),
        (lambda spec: ou_sample_path(spec, math.nan), "steps must be an integer, got nan"),
        (lambda spec: ou_sample_path(spec, 5, trajectory=0.5),
         "trajectory must be an integer, got 0.5"),
        (lambda spec: ou_sample_path(spec, 5, trajectory=-1),
         "trajectory must lie in [0, 2**128), got -1"),
        (lambda spec: ou_sample_path(spec, 5, trajectory=2**200),
         f"trajectory must lie in [0, 2**128), got {2**200}"),
        (lambda spec: ou_stationary_draws(spec, 1.5), "count must be an integer, got 1.5"),
    ])
    def test_counts_and_indices_are_integers_in_range(self, call, message):
        with pytest.raises(ValueError) as info:
            call(OUSpec(mu=0.5, seed=42))
        assert str(info.value) == message

    def test_integral_float_counts_and_indices_are_accepted(self):
        spec = OUSpec(mu=0.5, seed=42)
        assert ou_sample_path(spec, 7, trajectory=2**128 - 1).shape == (7,)
        np.testing.assert_array_equal(ou_sample_path(spec, 7.0, trajectory=3.0),
                                      ou_sample_path(spec, 7, trajectory=3))
        np.testing.assert_array_equal(ou_stationary_draws(spec, 3.0), ou_stationary_draws(spec, 3))

    def test_batch_matches_single_paths(self):
        spec = OUSpec(mu=1.2, trajectories=5, seed=7)
        batch = _phase_paths(spec, 1.2, 50)
        for i in range(5):
            np.testing.assert_array_equal(batch[i], ou_sample_path(spec, 50, i))

    def test_path_follows_euler_maruyama(self):
        # Scalar reference: stationary start, then X <- X + theta dt (mu - X) + Sigma sqrt(dt) z.
        spec = OUSpec(theta=0.7, mu=-0.4, sigma_vol=0.9, dt=0.05, seed=31)
        rng = np.random.Generator(np.random.Philox(key=31, counter=2 << 128))
        x = -0.4 + math.sqrt(spec.stationary_variance) * rng.standard_normal()
        expected = [x]
        for z in rng.standard_normal(39):
            x = x + 0.7 * 0.05 * (-0.4 - x) + 0.9 * math.sqrt(0.05) * z
            expected.append(x)
        np.testing.assert_array_equal(ou_sample_path(spec, 40, trajectory=2), expected)

    def test_chain_variance_exceeds_the_drawn_law_by_2_over_2_minus_theta_dt(self):
        # X_0 ~ N(mu, sigma^2 / (2 theta)), but the chain x + theta dt (mu - x) + sigma
        # sqrt(dt) z is stationary at sigma^2 / (theta (2 - theta dt)): at theta dt = 0.5,
        # 4/3 of the drawn variance.  After 40 steps (0.5^80 of the start remains) every
        # path is a draw from the chain's law, so the sample variance sits within 4 stderr
        # of it, and far from the drawn one.
        spec = OUSpec(theta=1.0, sigma_vol=1.0, dt=0.5, trajectories=20_000, seed=5)
        late = _phase_paths(spec, 0.3, 41)[:, -1]
        chain = spec.sigma_vol**2 / (spec.theta * (2.0 - spec.theta * spec.dt))
        assert chain == pytest.approx(4.0 / 3.0 * spec.stationary_variance)
        stderr = chain * math.sqrt(2.0 / (late.size - 1))  # of a Gaussian sample variance
        assert abs(late.var(ddof=1) - chain) <= 4.0 * stderr
        assert late.var(ddof=1) - spec.stationary_variance > 10.0 * stderr

    @pytest.mark.parametrize("seed", [0, 777, 2**40])
    def test_rows_are_per_trajectory_philox_streams(self, seed):
        # Row r is the stream of its own Philox(key=seed, counter=index << 128),
        # also for indices beyond 32 and 63 bits.
        spec = OUSpec(theta=0.7, sigma_vol=0.9, dt=0.05, seed=seed)
        mu, sd = 0.3, math.sqrt(spec.stationary_variance)
        indices = [0, 1, 2**32 + 3, 2**63]
        paths = _phase_paths(spec, mu, 25, indices)
        for row, index in zip(paths, indices):
            rng = np.random.Generator(np.random.Philox(key=seed, counter=index << 128))
            x = mu + sd * rng.standard_normal()
            expected = [x]
            for z in rng.standard_normal(24):
                x = x + 0.7 * 0.05 * (mu - x) + 0.9 * math.sqrt(0.05) * z
                expected.append(x)
            np.testing.assert_array_equal(row, expected)

    def test_stationary_draws_match_path_starts(self):
        spec = OUSpec(mu=0.9, seed=11)
        draws = ou_stationary_draws(spec, 6)
        for i in range(6):
            assert draws[i] == ou_sample_path(spec, 3, i)[0]

    def test_stationary_mean(self):
        spec = OUSpec(mu=2.0, sigma_vol=0.8, seed=5)
        draws = ou_stationary_draws(spec, 10_000)
        se = math.sqrt(spec.stationary_variance / draws.size)
        assert abs(draws.mean() - 2.0) < 3.0 * se

    def test_lag_autocovariance(self):
        # cov(X_0, X_{tau/dt}) should be (Sigma^2 / 2 theta) exp(-theta tau).
        spec = OUSpec(theta=1.0, mu=0.0, sigma_vol=1.0, dt=0.01,
                      trajectories=100_000, seed=303)
        paths = _phase_paths(spec, 0.0, 101)
        got = np.cov(paths[:, 0], paths[:, 100])[0, 1]
        expected = spec.stationary_variance * math.exp(-1.0)
        assert got == pytest.approx(expected, rel=0.05)


class TestOUEnsemble:
    def test_zero_volatility_recovers_unitary(self):
        spec = OUSpec(sigma_vol=0.0, trajectories=4)
        state = ou_ensemble_state(PEAK, 2.5, input_state(SP), spec)
        mean, err = state.fidelity_with_stderr(target_state(SP))
        assert mean == pytest.approx(routing_fidelity(PEAK, 2.5, SP), abs=1e-6)
        assert err == pytest.approx(0.0, abs=1e-12)

    def test_requires_two_trajectories(self):
        spec = OUSpec(trajectories=1)
        with pytest.raises(ValueError, match="2 trajectories"):
            ou_ensemble_state(PEAK, 1.0, input_state(SP), spec)
        with pytest.raises(ValueError, match="2 trajectories"):
            ou_fidelity_curve(PEAK, input_state(SP), target_state(SP), spec, t_max=1.0)

    @pytest.mark.parametrize("call, name", [
        (lambda five: ou_fidelity_curve(PEAK, five, target_state(SP), OUSpec(), 1.0), "psi0"),
        (lambda five: ou_fidelity_curve(PEAK, input_state(SP), five, OUSpec(), 1.0), "target"),
        (lambda five: ou_ensemble_state(PEAK, 1.0, five, OUSpec()), "psi0"),
        (lambda five: static_noise_state(PEAK, 1.0, five, VonMisesSpec(1.0)), "psi0"),
    ], ids=["curve-psi0", "curve-target", "ensemble-state", "static-state"])
    def test_states_must_be_six_dimensional(self, call, name):
        five = PureState(np.eye(5, dtype=complex)[0])
        with pytest.raises(ValueError) as info:
            call(five)
        assert str(info.value) == (f"{name} must be a 6-dimensional reduced-basis state, "
                                   "got dimension 5")

    def test_curve_rejects_a_non_integral_snapshot_count(self):
        with pytest.raises(ValueError, match=r"^snapshots must be an integer, got 2\.5$"):
            ou_fidelity_curve(PEAK, input_state(SP), target_state(SP), OUSpec(), 1.0,
                              snapshots=2.5)

    def test_stderr_requires_two_rows(self):
        one = input_state(SP).amplitudes[None, :]
        rho = np.outer(one[0], one[0].conj())
        state = EnsembleState(rho, one)
        with pytest.raises(ValueError):
            state.fidelity_with_stderr(target_state(SP))

    def test_deterministic(self):
        spec = OUSpec(trajectories=50, seed=123)
        a = ou_ensemble_state(PEAK, 1.5, input_state(SP), spec)
        b = ou_ensemble_state(PEAK, 1.5, input_state(SP), spec)
        np.testing.assert_array_equal(a.entries, b.entries)

    def test_short_time_tracks_noiseless(self):
        spec = OUSpec(sigma_vol=0.4, trajectories=500, seed=9)
        times, values, errors = ou_fidelity_curve(
            PEAK, input_state(SP), target_state(SP), spec, t_max=3.0, snapshots=31
        )
        reference = np.array([routing_fidelity(PEAK, float(t), SP) for t in times])
        assert float(np.max(np.abs(values - reference))) < 0.05
        assert np.all(errors >= 0.0)

    def test_curve_rejects_t_max_below_one_step(self):
        spec = OUSpec(theta=0.1, dt=5.0, trajectories=4)  # theta dt < 2: a valid spec
        with pytest.raises(ValueError, match="step"):
            ou_fidelity_curve(PEAK, input_state(SP), target_state(SP), spec, t_max=1.0)

    @settings(max_examples=200, deadline=None)
    @given(t_max=st.floats(1e-3, 1e3), dt=st.floats(1e-3, 10.0),
           snapshots=st.integers(2, 10_000))
    def test_snapshot_steps_match_the_full_grid(self, t_max, dt, snapshots):
        total_steps = int(round(t_max / dt))
        grid = [int(round(j * t_max / (snapshots - 1) / dt)) for j in range(snapshots)]
        expected = sorted(set(min(max(s, 0), total_steps) for s in grid))
        assert _snapshot_steps(t_max, dt, snapshots, total_steps) == expected

    def test_curve_shapes_and_grid(self):
        spec = OUSpec(trajectories=10, seed=2)
        times, values, errors = ou_fidelity_curve(
            PEAK, input_state(SP), target_state(SP), spec, t_max=1.0, snapshots=11
        )
        assert times.shape == values.shape == errors.shape == (11,)
        assert times[0] == 0.0 and times[-1] == pytest.approx(1.0, abs=1e-12)
        assert values[0] == pytest.approx(
            routing_fidelity(PEAK, 0.0, SP), abs=1e-12
        )


def eigh_step_reference(params, psi0, spec, mu, steps):
    """The former per-step path: one eigh of every trajectory's H(X_b) per step."""
    psi = np.broadcast_to(psi0, (spec.trajectories, 6)).copy()
    paths = _phase_paths(spec, mu, steps)
    for m in range(steps):
        h = reduced_hamiltonians(params.n_outputs, params.beta, paths[:, m])
        w, q = np.linalg.eigh(h)
        coeff = np.einsum("bji,bj->bi", q.conj(), psi)
        psi = np.einsum("bij,bj->bi", q, np.exp(-1j * w * spec.dt) * coeff)
    return psi


class TestEnsembleStatistic:
    @pytest.mark.parametrize("block", [7, 512, 1100])
    def test_state_and_curve_share_one_statistic(self, monkeypatch, block):
        monkeypatch.setattr(noise, "_TRAJECTORY_BLOCK", block)
        spec = OUSpec(trajectories=1100, seed=5)
        state = ou_ensemble_state(PEAK, 0.5, input_state(SP), spec)
        times, values, errors = ou_fidelity_curve(PEAK, input_state(SP), target_state(SP),
                                                  spec, t_max=0.5, snapshots=6)
        assert times[-1] == 0.5
        assert state.fidelity_with_stderr(target_state(SP)) == (values[-1], errors[-1])

    def test_identical_fidelities_give_zero_stderr(self):
        spec = OUSpec(sigma_vol=0.0, trajectories=7)
        _, values, errors = ou_fidelity_curve(PEAK, input_state(SP), target_state(SP),
                                              spec, t_max=1.0, snapshots=5)
        assert np.all(errors == 0.0)
        state = ou_ensemble_state(PEAK, 1.0, input_state(SP), spec)
        assert state.fidelity_with_stderr(target_state(SP)) == (values[-1], 0.0)

    def test_running_sums_match_two_pass_statistics(self):
        spec = OUSpec(trajectories=600, seed=11)
        state = ou_ensemble_state(PEAK, 1.0, input_state(SP), spec)
        f = np.abs(state.trajectory_states @ target_state(SP).amplitudes.conj()) ** 2
        mean, err = state.fidelity_with_stderr(target_state(SP))
        assert mean == pytest.approx(f.mean(), abs=1e-15)
        assert err == pytest.approx(f.std(ddof=1) / math.sqrt(f.size), rel=1e-13)

    @pytest.mark.parametrize("run", ["curve", "state"])
    def test_trajectory_steps_are_bounded(self, monkeypatch, run):
        monkeypatch.setattr(noise, "_MAX_TRAJECTORY_STEPS", 20)
        spec = OUSpec(trajectories=4, dt=0.1)

        def evolve(t):
            if run == "curve":
                return ou_fidelity_curve(PEAK, input_state(SP), target_state(SP), spec,
                                         t_max=t, snapshots=3)
            return ou_ensemble_state(PEAK, t, input_state(SP), spec)

        evolve(0.5)  # 4 x 5 steps: at the bound
        name = "t_max" if run == "curve" else "t"
        with pytest.raises(ValueError, match=rf"at most 2e\+01 trajectory-steps, got "
                                             rf"trajectories = 4, {name} = 0.6, dt = 0.1"):
            evolve(0.6)

    @pytest.mark.parametrize("t, dt", [(1e308, 1e-10), (0.1, 1e-300)])
    def test_step_count_overflow_is_rejected_before_any_work(self, monkeypatch, t, dt):
        monkeypatch.setattr(noise, "_phase_paths", None)  # never reached
        spec = OUSpec(trajectories=2, dt=dt)
        with pytest.raises(ValueError, match=r"t_max .* dt = "):
            ou_fidelity_curve(PEAK, input_state(SP), target_state(SP), spec, t_max=t)
        with pytest.raises(ValueError, match=r"got trajectories = 2, t = .* dt = "):
            ou_ensemble_state(PEAK, t, input_state(SP), spec)


class TestFourierStep:
    @pytest.mark.parametrize(
        "beta, dt",
        [(0.0, 0.01), (-1.7, 0.01), (1.0, 0.01), (1.0, 0.1), (3.0, 0.3),
         (-40.0, 0.25), (100.0, 0.2)],
    )
    def test_matches_eigh_reference(self, beta, dt):
        rng = np.random.default_rng(int(1000 * abs(beta) + 7919 * dt))
        params = RouterParams(int(rng.integers(2, 60)), beta, float(rng.uniform(0, TWO_PI)))
        spec = OUSpec(theta=1.3, sigma_vol=0.8, dt=dt, trajectories=40, seed=5)
        psi0 = input_state(SuperpositionParams(float(rng.uniform()), 1.1)).amplitudes
        (got,) = ensemble_states(params, psi0, spec, [30])
        ref = eigh_step_reference(params, psi0, spec, params.phi, 30)
        assert float(np.max(np.abs(got - ref))) <= 1e-12

    @pytest.mark.parametrize(  # the cases of test_matches_eigh_reference
        "beta, dt",
        [(0.0, 0.01), (-1.7, 0.01), (1.0, 0.01), (1.0, 0.1), (3.0, 0.3),
         (-40.0, 0.25), (100.0, 0.2)],
    )
    def test_real_table_matches_unitaries(self, beta, dt):
        # A_0 + sum_m cos(m phi) A_m + sin(m phi) B_m against one eigh per phase;
        # the largest deviation measured over these cases is 1.4e-14 (beta = 3, dt = 0.3).
        rng = np.random.default_rng(int(1000 * abs(beta) + 7919 * dt))
        n = int(rng.integers(2, 60))
        table = _step_fourier(n, beta, dt).view(complex).reshape(-1, 6, 6)
        cutoff = (len(table) - 1) // 2
        assert table.shape == (2 * cutoff + 1, 6, 6) and (cutoff == 0) == (beta == 0.0)
        phis = rng.uniform(-20.0, 20.0, 32)
        angles = np.outer(phis, np.arange(1, cutoff + 1))
        got = (table[0] + np.einsum("pm,mij->pij", np.cos(angles), table[1:cutoff + 1])
               + np.einsum("pm,mij->pij", np.sin(angles), table[cutoff + 1:]))
        expected = _unitaries(np.linalg.eigh(reduced_hamiltonians(n, beta, phis)), dt)
        assert float(np.max(np.abs(got - expected))) <= 1e-13

    def test_snapshots_come_back_in_order(self):
        spec = OUSpec(trajectories=5, seed=3)
        psi0 = input_state(SP).amplitudes
        start, mid, end = ensemble_states(PEAK, psi0, spec, [0, 10, 30])
        np.testing.assert_array_equal(start, np.broadcast_to(psi0, (5, 6)))
        np.testing.assert_array_equal(mid, ensemble_states(PEAK, psi0, spec, [10])[0])
        np.testing.assert_array_equal(end, ensemble_states(PEAK, psi0, spec, [30])[0])

    def test_zero_volatility_is_noiseless_propagator(self):
        params = RouterParams(20, 1.0, 4.712)
        spec = OUSpec(sigma_vol=0.0, trajectories=3)
        psi0 = input_state(SP).amplitudes
        (got,) = ensemble_states(params, psi0, spec, [250])
        h = build_reduced_hamiltonian(params).entries
        expected = linalg.expm(-1j * h * 250 * spec.dt) @ psi0
        assert float(np.max(np.abs(got - expected))) <= 1e-12

    def test_eigh_calls_independent_of_work(self, monkeypatch):
        calls = []
        real = np.linalg.eigh

        def counting(a):
            calls.append(np.shape(a))
            return real(a)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        counts = []
        for trajectories, t_max in ((4, 0.1), (30, 1.0)):
            calls.clear()
            ou_fidelity_curve(
                PEAK, input_state(SP), target_state(SP),
                OUSpec(trajectories=trajectories), t_max=t_max, snapshots=5,
            )
            counts.append(len(calls))
        assert counts == [1, 1]

    def test_rejects_beta_dt_beyond_node_limit(self):
        spec = OUSpec(dt=1.0, trajectories=4)
        with pytest.raises(ValueError, match="dt"):
            ou_fidelity_curve(
                RouterParams(20, 1e6, 0.0), input_state(SP), target_state(SP),
                spec, t_max=2.0,
            )


def ensemble_outputs(trajectories):
    """Every array the ensemble API returns, for a short run at ``trajectories``."""
    spec = OUSpec(trajectories=trajectories, seed=41)
    return (
        *ensemble_states(PEAK, input_state(SP).amplitudes, spec, [0, 7, 20]),
        ou_ensemble_state(PEAK, 0.2, input_state(SP), spec).trajectory_states,
        *ou_fidelity_curve(PEAK, input_state(SP), target_state(SP), spec,
                           t_max=0.2, snapshots=5),
    )


class TestTrajectoryBlocks:
    @pytest.mark.parametrize("count", [2, 3, 97, 512, 513, 1024, 1537, 2000])
    def test_blocks_cover_rows_without_a_single_row_block(self, count):
        blocks = list(_blocks(count))
        assert blocks[0][0] == 0 and blocks[-1][1] == count
        assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))
        assert all(2 <= hi - lo <= _TRAJECTORY_BLOCK + 1 for lo, hi in blocks)

    @pytest.mark.parametrize(
        "trajectories, block",
        # 97 with blocks 2, 3 and 16 and 1537 with 512 leave a one-row remainder.
        [(97, 2), (97, 3), (97, 7), (97, 16), (97, 64), (97, 97), (97, 512),
         (1537, 512)],
    )
    def test_outputs_independent_of_block_size(self, monkeypatch, trajectories, block):
        monkeypatch.setattr(noise, "_TRAJECTORY_BLOCK", trajectories)
        single = ensemble_outputs(trajectories)
        monkeypatch.setattr(noise, "_TRAJECTORY_BLOCK", block)
        blocked = ensemble_outputs(trajectories)
        assert len(blocked) == len(single) == 7
        for got, expected in zip(blocked, single):
            np.testing.assert_array_equal(got, expected)

    def test_peak_memory_grows_with_neither_trajectories_nor_snapshots(self):
        # 1024 and 4096 trajectories (2 and 8 blocks) at 50 steps and 6 snapshots, and 6 and
        # 101 snapshots at 100 steps and 1024 trajectories.  A fidelity table would add
        # 8 B per trajectory and snapshot: 147 KB and 778 KB.
        def peak(trajectories, t_max, snapshots):
            tracemalloc.start()
            try:
                ou_fidelity_curve(PEAK, input_state(SP), target_state(SP),
                                  OUSpec(trajectories=trajectories), t_max=t_max,
                                  snapshots=snapshots)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(1024, 0.5, 6)
        assert peak(4096, 0.5, 6) - peak(1024, 0.5, 6) < 16_384
        assert peak(1024, 1.0, 101) - peak(1024, 1.0, 6) < 16_384

    def test_one_block_of_paths_is_live_at_a_time(self, monkeypatch):
        # Three blocks of 128 trajectories x 1000 steps: one block's paths are 1 MB, and
        # its other scratch (states, one step's propagators, the harmonics) about 0.2 MB.
        monkeypatch.setattr(noise, "_TRAJECTORY_BLOCK", 128)
        trajectories, steps, snapshots = 3 * 128, 1000, 6
        tracemalloc.start()
        try:
            ou_fidelity_curve(PEAK, input_state(SP), target_state(SP),
                              OUSpec(trajectories=trajectories), t_max=steps * 0.01,
                              snapshots=snapshots)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        table, paths = 8 * snapshots * trajectories, 8 * 128 * steps
        assert peak <= table + paths + paths // 2
