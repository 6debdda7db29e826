import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from qwrouter import (
    Propagator,
    PureState,
    RouterParams,
    build_full_hamiltonian,
    build_reduced_hamiltonian,
    evolve,
    propagator,
    reduced_hamiltonians,
    reduction_isometry,
    verify_reduction,
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
    u = _unitaries(np.linalg.eigh(h), 2.9)
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
    v = reduction_isometry(5)
    full = build_full_hamiltonian(params)
    psi_full0 = PureState(v @ basis_state(6, 0).amplitudes)
    projected = v.conj().T @ evolve(full, 2.7, psi_full0).amplitudes
    reduced = evolve(build_reduced_hamiltonian(params), 2.7, basis_state(6, 0))
    np.testing.assert_allclose(projected, reduced.amplitudes, atol=1e-9)


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
    with pytest.raises(ValueError):
        PureState(np.array([np.nan, 1.0]))


def test_propagator_rejects_nan_matrix():
    with pytest.raises(ValueError, match="not unitary"):
        Propagator(np.full((2, 2), np.nan), 1.0)


@pytest.mark.parametrize("t", [1e308, -1e308])
def test_kernels_reject_overflowing_phases(t):
    # |t| max|w| overflows at n = 5, where exp(-i w t) would be NaN in every entry.
    h = build_reduced_hamiltonian(RouterParams(5, 1.0, 0.0))
    batch = h.entries[None]
    psi = basis_state(6, 0)
    for call in (lambda: propagator(h, t), lambda: evolve(h, t, psi),
                 lambda: _unitaries(np.linalg.eigh(batch), t),
                 lambda: _evolved(np.linalg.eigh(batch), t, psi.amplitudes)):
        with pytest.raises(ValueError, match="overflow"):
            call()
    # A tenth of that time keeps every phase finite, and the propagator unitary.
    assert propagator(h, t / 10).dim == 6


def verify_reduction_loop_reference(n_max, trials, rng):
    """``verify_reduction`` as a loop of public ``evolve`` calls, one ``PureState`` and
    one ``HermitianMatrix`` per side and trial, drawing from ``rng`` in the same order."""
    worst_per_n = []
    for n in range(2, n_max + 1):
        isometry = reduction_isometry(n)
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
            evolved_full = evolve(build_full_hamiltonian(params), t, full0)
            projected = isometry.conj().T @ evolved_full.amplitudes
            evolved_red = evolve(build_reduced_hamiltonian(params), t, psi_red)
            worst = max(worst, float(np.max(np.abs(projected - evolved_red.amplitudes))))
        worst_per_n.append(worst)
    return worst_per_n


@pytest.mark.parametrize("seed", [0, 1234])
def test_verify_reduction_matches_evolve_loop_bitwise(seed):
    got = verify_reduction(8, 20, np.random.default_rng(seed))
    assert got == verify_reduction_loop_reference(8, 20, np.random.default_rng(seed))
