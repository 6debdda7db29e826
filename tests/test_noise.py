import dataclasses
import math

import numpy as np
import pytest
from scipy import integrate, linalg, special

from qwrouter import (
    EnsembleState,
    OUSpec,
    PureState,
    RouterParams,
    SuperpositionParams,
    VonMisesSpec,
    bessel_i0,
    build_reduced_hamiltonian,
    input_state,
    noise_equivalence,
    noise_equivalence_inverse,
    ou_ensemble_state,
    ou_fidelity_curve,
    ou_sample_path,
    ou_stationary_draws,
    reduced_hamiltonians,
    routing_fidelity,
    static_noise_fidelity,
    static_noise_state,
    target_state,
    von_mises_pdf,
)
from qwrouter.noise import (
    _HARMONIC_BLOCK,
    _adaptive_average,
    _evolve_ensemble,
    _i0_parts,
    _leggauss,
    _node_spectrum,
    _phase_paths,
    _step_fourier,
)

TWO_PI = 2.0 * math.pi

PEAK = RouterParams(20, 1.0, 4.712)
PEAK_T = 18.550
SP = SuperpositionParams(0.7, 3.0 * math.pi / 2.0)


def i0_series(x: float) -> float:
    """Power-series oracle sum_m (x^2/4)^m / (m!)^2, independent of scipy."""
    term, total = 1.0, 1.0
    q = x * x / 4.0
    for m in range(1, 80):
        term *= q / (m * m)
        total += term
    return total


class TestBessel:
    def test_at_zero(self):
        assert bessel_i0(0.0) == 1.0

    @pytest.mark.parametrize("x", [0.5, 1.0, 2.0, 12.5, 25.0 / 8.0])
    def test_against_series(self, x):
        assert bessel_i0(x) == pytest.approx(i0_series(x), rel=1e-12)

    def test_known_value(self):
        assert bessel_i0(1.0) == pytest.approx(1.2660658777520084, rel=1e-13)

    def test_seeded_sweep_matches_scipy_bit_for_bit(self):
        # 10^4 concentrations, log-uniform on [1e-3, 1e12] and uniform on [0, 20].
        rng = np.random.default_rng(20261018)
        ks = np.concatenate([np.exp(rng.uniform(math.log(1e-3), math.log(1e12), 5000)),
                             rng.uniform(0.0, 20.0, 5000)])
        i0e = [chb / root for chb, root in map(_i0_parts, ks.tolist())]
        np.testing.assert_array_equal(i0e, special.i0e(ks))
        np.testing.assert_array_equal([bessel_i0(k) for k in ks.tolist()], special.i0(ks))
        np.testing.assert_array_equal([von_mises_pdf(0.0, k) for k in ks.tolist()],
                                      np.exp(0.0) / (TWO_PI * special.i0e(ks)))

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            bessel_i0(-1.0)
        with pytest.raises(ValueError):
            bessel_i0(float("nan"))


class TestVonMisesPdf:
    @pytest.mark.parametrize("k", [0.0, 0.5, 2.0, 25.0 / 8.0, 25.0 / 2.0])
    def test_normalized(self, k):
        # Independent adaptive quadrature, not the module's Gauss-Legendre path.
        total, _ = integrate.quad(
            lambda e: von_mises_pdf(e, k), -math.pi, math.pi,
            epsabs=1e-12, epsrel=1e-12,
        )
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_uniform_limit(self):
        eps = np.linspace(-math.pi, math.pi, 13)
        np.testing.assert_allclose(von_mises_pdf(eps, 0.0), 1.0 / TWO_PI, atol=1e-15)

    def test_peak_value(self):
        # exp(k cos 0) / (2 pi I0(k)) with k = 2
        assert von_mises_pdf(0.0, 2.0) == pytest.approx(
            math.exp(2.0) / (TWO_PI * i0_series(2.0)), rel=1e-12
        )

    def test_even_in_eps(self):
        eps = np.linspace(0.1, 3.0, 7)
        np.testing.assert_allclose(
            von_mises_pdf(eps, 3.3), von_mises_pdf(-eps, 3.3), rtol=1e-14
        )

    def test_huge_concentration_stays_finite(self):
        v = von_mises_pdf(0.0, 1e6)
        assert math.isfinite(v) and v > 0.0
        assert von_mises_pdf(math.pi, 1e6) == 0.0  # underflows cleanly, not inf/nan

    def test_scalar_vs_array(self):
        assert isinstance(von_mises_pdf(0.3, 1.0), float)
        out = von_mises_pdf(np.array([0.3, 0.4]), 1.0)
        assert out.shape == (2,)
        assert out[0] == von_mises_pdf(0.3, 1.0)

    def test_rejects_negative_k(self):
        with pytest.raises(ValueError):
            von_mises_pdf(0.0, -0.5)


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

    def test_stable_under_node_count(self):
        a = static_noise_fidelity(PEAK, PEAK_T, SP, VonMisesSpec(2.0))
        b, converged, used = _adaptive_average(
            fidelity_functional(PEAK, PEAK_T, SP), 2.0, points=200
        )
        assert converged and used >= 400
        assert a == pytest.approx(b, abs=1e-8)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_time(self, t):
        with pytest.raises(ValueError, match="t must be finite"):
            static_noise_fidelity(PEAK, t, SP, VonMisesSpec(12.5))
        with pytest.raises(ValueError, match="t must be finite"):
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
    rng = np.random.default_rng(int(k) + 17)
    for _ in range(3):
        params = RouterParams(int(rng.integers(2, 200)), float(rng.uniform(-2.0, 2.0)),
                              float(rng.uniform(0.0, TWO_PI)))
        t = float(rng.uniform(0.0, 30.0))
        sp = SuperpositionParams(float(rng.uniform()), float(rng.uniform(0.0, TWO_PI)))
        vm = VonMisesSpec(k)
        f = static_noise_fidelity(params, t, sp, vm)
        ref, converged, used = _adaptive_average(fidelity_functional(params, t, sp), k)
        assert abs(f - min(max(ref, 0.0), 1.0)) <= 1e-14
        assert (f.converged, f.points_used) == (converged, used)
        state = static_noise_state(params, t, input_state(sp), vm)
        rho, converged, used = _adaptive_average(
            state_functional(params, t, input_state(sp).amplitudes), k
        )
        assert float(np.max(np.abs(state.entries - rho))) <= 1e-14
        assert (state.converged, state.points_used) == (converged, used)


class TestAdaptiveAverage:
    def test_flags_non_convergence(self):
        # A rapidly oscillating functional that 8 -> 16 nodes cannot pin down.
        def rough(eps, wts):
            return float(np.dot(wts, np.cos(40.0 * eps)))

        _, converged, used = _adaptive_average(
            rough, 0.0, points=8, tol=1e-12, max_doublings=1
        )
        assert not converged
        assert used == 16

    def test_converges_on_smooth_functional(self):
        def smooth(eps, wts):
            return float(np.dot(wts, np.cos(eps)))

        value, converged, _ = _adaptive_average(
            smooth, 2.0, points=64, tol=1e-10, max_doublings=6
        )
        assert converged
        # oracle: E[cos eps] under the circular density is I1(k)/I0(k)
        from scipy.special import i1

        assert value == pytest.approx(i1(2.0) / bessel_i0(2.0), abs=1e-9)


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
        x, w = _leggauss(129)
        assert _leggauss(129)[0] is x
        assert not x.flags.writeable and not w.flags.writeable
        with pytest.raises(ValueError):
            x[0] = 0.0
        with pytest.raises(ValueError):
            w[0] = 0.0


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
        spec = OUSpec(dt=5.0, trajectories=4)
        with pytest.raises(ValueError, match="step"):
            ou_fidelity_curve(PEAK, input_state(SP), target_state(SP), spec, t_max=1.0)

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
        (got,) = _evolve_ensemble(params, psi0, spec, [30])
        ref = eigh_step_reference(params, psi0, spec, params.phi, 30)
        assert float(np.max(np.abs(got - ref))) <= 1e-12

    def test_snapshots_come_back_in_order(self):
        spec = OUSpec(trajectories=5, seed=3)
        psi0 = input_state(SP).amplitudes
        start, mid, end = _evolve_ensemble(PEAK, psi0, spec, [0, 10, 30])
        np.testing.assert_array_equal(start, np.broadcast_to(psi0, (5, 6)))
        np.testing.assert_array_equal(mid, _evolve_ensemble(PEAK, psi0, spec, [10])[0])
        np.testing.assert_array_equal(end, _evolve_ensemble(PEAK, psi0, spec, [30])[0])

    def test_large_beta_dt_uses_several_blocks(self):
        # |beta| dt = 20 keeps 191 harmonics, so the reference comparison above
        # covers the blocked application of the harmonics.
        assert _step_fourier(5, -100.0, 0.2).shape[0] > 2 * _HARMONIC_BLOCK

    def test_zero_volatility_is_noiseless_propagator(self):
        params = RouterParams(20, 1.0, 4.712)
        spec = OUSpec(sigma_vol=0.0, trajectories=3)
        psi0 = input_state(SP).amplitudes
        (got,) = _evolve_ensemble(params, psi0, spec, [250])
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


class TestEquivalence:
    def test_reference_pairs(self):
        sigma_sq, (theta, vol) = noise_equivalence(25.0 / 2.0)
        assert sigma_sq == pytest.approx(0.08)
        assert (theta, vol) == (1.0, pytest.approx(0.4))
        sigma_sq, (theta, vol) = noise_equivalence(2.0)
        assert sigma_sq == pytest.approx(0.5)
        assert vol == pytest.approx(1.0)

    def test_roundtrip(self):
        for k in (0.5, 2.0, 25.0 / 8.0, 25.0 / 2.0):
            _, (theta, vol) = noise_equivalence(k, theta=1.7)
            sigma_sq, k_back = noise_equivalence_inverse(theta, vol)
            assert k_back == pytest.approx(k, rel=1e-12)
            assert sigma_sq == pytest.approx(1.0 / k, rel=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            noise_equivalence(0.0)
        with pytest.raises(ValueError):
            noise_equivalence_inverse(1.0, 0.0)
