import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from qwrouter import (
    FullGraphLayout,
    PureState,
    RouterParams,
    build_full_hamiltonian,
    build_reduced_hamiltonian,
    evolve,
    evolve_piecewise,
    propagator,
    reduced_hamiltonians,
    reduction_isometry,
)
from qwrouter.dynamics import _evolved, _unitaries

TWO_PI = 2.0 * np.pi


def basis_state(dim: int, index: int) -> PureState:
    amps = np.zeros(dim, dtype=complex)
    amps[index] = 1.0
    return PureState(amps)


def test_zero_time_is_identity():
    h = build_reduced_hamiltonian(RouterParams(4, 1.0, 1.0))
    u = propagator(h, 0.0)
    np.testing.assert_allclose(u.matrix, np.eye(6), atol=1e-14)


def test_real_hamiltonian_gives_orthogonal_columns():
    h = build_reduced_hamiltonian(RouterParams(2, 1.0, 0.0))
    u = propagator(h, 3.7).matrix
    # U = exp(-iHt) for real symmetric H satisfies U^T U ... is symmetric;
    # its real and imaginary parts each commute with H, and U U^* = exp(-iHt) exp(+iHt) = I.
    np.testing.assert_allclose(u @ u.conj(), np.eye(6), atol=1e-12)
    np.testing.assert_allclose(u, u.T, atol=1e-12)


def test_group_property():
    h = build_reduced_hamiltonian(RouterParams(5, 1.2, 0.7))
    u1 = propagator(h, 2.3).matrix
    u2 = propagator(h, 4.1).matrix
    u12 = propagator(h, 6.4).matrix
    np.testing.assert_allclose(u1 @ u2, u12, atol=1e-9)


def test_propagator_rejects_bad_inputs():
    h = build_reduced_hamiltonian(RouterParams(3, 1.0, 0.5))
    with pytest.raises(ValueError):
        propagator(h, np.inf)
    bad = h.entries.copy()
    bad[0, 1] += 1e-6
    with pytest.raises(ValueError):
        propagator(bad, 1.0)


@pytest.mark.parametrize("n, beta, phi, t", [(9, -0.8, 2.2, 3.1), (2, 1.0, 0.0, 17.0),
                                          (1000, 2.5, 4.7, 40.0)])
def test_propagator_matches_expm(n, beta, phi, t):
    h = build_reduced_hamiltonian(RouterParams(n, beta, phi))
    expected = scipy.linalg.expm(-1j * t * h.entries)
    # Both routes lose about ||H t|| float64 roundoffs: 4e4 of them at n = 1000, t = 40.
    np.testing.assert_allclose(propagator(h, t).matrix, expected, rtol=0, atol=1e-10)


def test_batched_kernels_match_single_matrices():
    # Leading batch shape (2, 3): every slice must equal its own propagator and evolution.
    h = reduced_hamiltonians(7, 1.3, np.linspace(0.0, 5.0, 6)).reshape(2, 3, 6, 6)
    psi = PureState(np.array([0.6, 0.8j, 0, 0, 0, 0]))
    u = _unitaries(h, 2.9)
    states = _evolved(np.linalg.eigh(h), 2.9, psi.amplitudes)
    assert u.shape == (2, 3, 6, 6) and states.shape == (2, 3, 6)
    for i, j in np.ndindex(2, 3):
        np.testing.assert_array_equal(u[i, j], propagator(h[i, j], 2.9).matrix)
        np.testing.assert_array_equal(states[i, j], evolve(h[i, j], 2.9, psi).amplitudes)


def test_evolve_zero_time_returns_input():
    psi = PureState(np.array([0.6, 0.8j, 0, 0, 0, 0]))
    h = build_reduced_hamiltonian(RouterParams(3, 1.0, 1.0))
    out = evolve(h, 0.0, psi)
    np.testing.assert_allclose(out.amplitudes, psi.amplitudes, atol=1e-14)


def test_evolve_dimension_mismatch():
    h = build_reduced_hamiltonian(RouterParams(3, 1.0, 1.0))
    with pytest.raises(ValueError):
        evolve(h, 1.0, basis_state(4, 0))


def test_localized_transfer_exceeds_080_at_pi_phase():
    # Forty outputs, unit weight, phase pi: direct transfer around t = 17.
    h = build_reduced_hamiltonian(RouterParams(40, 1.0, np.pi))
    out = evolve(h, 17.0, basis_state(6, 0))
    p14 = abs(out.amplitudes[3]) ** 2
    assert 0.8 < p14 < 0.9


def test_reduced_matches_projected_full_graph():
    # Oracle: evolve the full graph from the input port and project back.
    params = RouterParams(5, 1.0, 1.3)
    lay = FullGraphLayout(5)
    v = reduction_isometry(lay)
    full = build_full_hamiltonian(params, lay)
    psi_full0 = PureState(v @ basis_state(6, 0).amplitudes)
    projected = v.conj().T @ evolve(full, 2.7, psi_full0).amplitudes
    reduced = evolve(build_reduced_hamiltonian(params), 2.7, basis_state(6, 0))
    np.testing.assert_allclose(projected, reduced.amplitudes, atol=1e-9)


class TestPiecewise:
    def test_constant_sequence_matches_single_evolution(self):
        h = build_reduced_hamiltonian(RouterParams(6, 1.0, 2.0))
        psi = basis_state(6, 0)
        steps = 50
        dt = 0.07
        stepped = evolve_piecewise([h] * steps, dt, psi)
        direct = evolve(h, steps * dt, psi)
        np.testing.assert_allclose(stepped.amplitudes, direct.amplitudes, atol=1e-9)

    def test_single_element(self):
        h = build_reduced_hamiltonian(RouterParams(4, 0.5, 0.9))
        psi = basis_state(6, 1)
        np.testing.assert_allclose(
            evolve_piecewise([h], 1.9, psi).amplitudes,
            evolve(h, 1.9, psi).amplitudes,
            atol=1e-12,
        )

    def test_alternating_phases_match_dense_reference(self):
        # Oracle: independent matrix-exponential route (scipy expm) at dt/10,
        # holding each phase for ten finer steps.
        dt = 0.05
        phases = [np.pi + 0.1 * (-1) ** m for m in range(40)]
        hs = [build_reduced_hamiltonian(RouterParams(20, 1.0, p)) for p in phases]
        psi = basis_state(6, 0)
        ours = evolve_piecewise(hs, dt, psi).amplitudes

        amps = psi.amplitudes
        for h in hs:
            step = scipy.linalg.expm(-1j * h.entries * (dt / 10.0))
            for _ in range(10):
                amps = step @ amps
        target = np.zeros(6, dtype=complex)
        target[3] = 1.0
        ours_f = abs(np.vdot(target, ours)) ** 2
        ref_f = abs(np.vdot(target, amps)) ** 2
        assert ours_f == pytest.approx(ref_f, abs=1e-4)
        np.testing.assert_allclose(ours, amps, atol=1e-4)

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError):
            evolve_piecewise([], 0.1, basis_state(6, 0))

    def test_dimension_mismatch_rejected(self):
        h6 = build_reduced_hamiltonian(RouterParams(3, 1.0, 0.0))
        h8 = build_full_hamiltonian(RouterParams(3, 1.0, 0.0))
        with pytest.raises(ValueError):
            evolve_piecewise([h6, h8], 0.1, basis_state(6, 0))

    def test_norm_preserved_over_many_steps(self):
        hs = [
            build_reduced_hamiltonian(RouterParams(10, 1.0, 0.001 * m))
            for m in range(500)
        ]
        out = evolve_piecewise(hs, 0.02, basis_state(6, 0))
        assert abs(np.sum(np.abs(out.amplitudes) ** 2) - 1.0) < 1e-9


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=100),
    beta=st.floats(min_value=-3.0, max_value=3.0),
    phi=st.floats(min_value=0.0, max_value=TWO_PI - 1e-9),
    t=st.floats(min_value=0.0, max_value=50.0),
)
def test_unitarity_randomized(n, beta, phi, t):
    h = build_reduced_hamiltonian(RouterParams(n, beta, phi))
    u = propagator(h, t).matrix
    assert np.linalg.norm(u.conj().T @ u - np.eye(6)) < 1e-10


@settings(max_examples=50, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=50),
    phi=st.floats(min_value=0.0, max_value=TWO_PI - 1e-9),
    t=st.floats(min_value=0.0, max_value=30.0),
)
def test_probability_conservation(n, phi, t):
    h = build_reduced_hamiltonian(RouterParams(n, 1.0, phi))
    out = evolve(h, t, basis_state(6, 0))
    assert abs(np.sum(np.abs(out.amplitudes) ** 2) - 1.0) < 1e-10


def test_pure_state_rejects_unnormalized():
    with pytest.raises(ValueError):
        PureState(np.array([1.0, 0.5]))
