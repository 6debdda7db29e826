import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qwrouter
from qwrouter import (
    FullGraphLayout,
    HermitianMatrix,
    RouterParams,
    build_full_hamiltonian,
    build_reduced_hamiltonian,
    reduced_hamiltonians,
    reduction_isometry,
)

TWO_PI = 2.0 * np.pi


def plain_adjacency(n: int) -> np.ndarray:
    """0/1 adjacency of the router graph (complete core + pendant externals)."""
    nv = n + 1
    a = np.zeros((2 * nv, 2 * nv))
    a[:nv, :nv] = 1.0
    np.fill_diagonal(a, 0.0)
    for m in range(nv):
        a[m, nv + m] = 1.0
        a[nv + m, m] = 1.0
    return a


class TestRouterParams:
    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            RouterParams(1)

    def test_rejects_n_beyond_the_largest_float(self):
        # n - 2 and sqrt(n - 1) are floats in the reduced Hamiltonian.
        huge = 10**400
        for make in (RouterParams, FullGraphLayout):
            with pytest.raises(ValueError, match="n_outputs must be at most"):
                make(huge)
        assert RouterParams(10**308).n_outputs == 10**308

    def test_rejects_non_integer_n(self):
        with pytest.raises(TypeError):
            RouterParams(2.5)  # type: ignore[arg-type]

    def test_phi_reduced_modulo_two_pi(self):
        p = RouterParams(4, 1.0, 7.0)
        assert p.phi == pytest.approx(7.0 - TWO_PI, abs=1e-15)
        q = RouterParams(4, 1.0, -1.3)
        assert q.phi == pytest.approx(TWO_PI - 1.3, abs=1e-15)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            RouterParams(3, np.inf, 0.0)
        with pytest.raises(ValueError):
            RouterParams(3, 1.0, np.nan)


class TestFullHamiltonian:
    def test_matches_adjacency_when_no_chirality(self):
        h = build_full_hamiltonian(RouterParams(2, 1.0, 0.0))
        assert h.dim == 6
        assert np.max(np.abs(h.entries.imag)) == 0.0
        np.testing.assert_array_equal(h.entries.real, plain_adjacency(2))

    def test_quarter_turn_phase_gives_negative_i_link(self):
        # Link convention: (input internal -> output internal) carries exp(-i phi).
        h = build_full_hamiltonian(RouterParams(2, 1.0, np.pi / 2)).entries
        assert h[0, 1] == pytest.approx(-1j, abs=1e-15)
        assert h[1, 0] == pytest.approx(1j, abs=1e-15)
        expected = plain_adjacency(2).astype(complex)
        expected[0, 1] = -1j
        expected[1, 0] = 1j
        np.testing.assert_allclose(h, expected, atol=1e-15)

    def test_zero_beta_removes_link(self):
        h = build_full_hamiltonian(RouterParams(5, 0.0, 0.0)).entries
        assert h[0, 1] == 0.0
        assert h[1, 0] == 0.0
        # all other internal pairs untouched
        assert h[0, 2] == 1.0
        assert h[2, 5] == 1.0

    def test_diagonal_zero_and_pendant_links(self):
        h = build_full_hamiltonian(RouterParams(4, 0.3, 1.0)).entries
        assert np.max(np.abs(np.diag(h))) == 0.0
        for m in range(5):
            assert h[m, 5 + m] == 1.0

    def test_layout_ports_configurable(self):
        lay = FullGraphLayout(5, input_internal=3, output_internal=0)
        h = build_full_hamiltonian(RouterParams(5, 2.0, 1.1), lay).entries
        assert h[3, 0] == pytest.approx(2.0 * np.exp(-1.1j), abs=1e-15)
        assert h[0, 3] == pytest.approx(2.0 * np.exp(1.1j), abs=1e-15)

    def test_layout_mismatch_rejected(self):
        with pytest.raises(ValueError):
            build_full_hamiltonian(RouterParams(4), FullGraphLayout(5))

    def test_same_ports_rejected(self):
        with pytest.raises(ValueError):
            FullGraphLayout(4, input_internal=2, output_internal=2)


class TestReducedHamiltonian:
    def test_n2_no_chirality(self):
        h = build_reduced_hamiltonian(RouterParams(2, 1.0, 0.0)).entries
        expected = np.array(
            [
                [0, 1, 0, 0, 0, 0],
                [1, 0, 1, 0, 1, 0],
                [0, 1, 0, 1, 1, 0],
                [0, 0, 1, 0, 0, 0],
                [0, 1, 1, 0, 0, 1],
                [0, 0, 0, 0, 1, 0],
            ],
            dtype=complex,
        )
        np.testing.assert_array_equal(h, expected)

    def test_n5_pi_phase(self):
        h = build_reduced_hamiltonian(RouterParams(5, 1.0, np.pi)).entries
        assert h[1, 2] == pytest.approx(-1.0, abs=1e-15)
        assert h[4, 4] == 3.0
        assert h[1, 4] == 2.0
        assert h[2, 4] == 2.0

    def test_exactly_conjugate_symmetric(self):
        h = build_reduced_hamiltonian(RouterParams(7, -1.7, 2.9)).entries
        assert np.array_equal(h, h.conj().T)

    def test_small_n_unrepresentable(self):
        # n < 2 is rejected at parameter construction, before any build runs.
        with pytest.raises(ValueError):
            RouterParams(1, 1.0, 0.0)


class TestIsometry:
    def test_n2_single_entry_columns(self):
        v = reduction_isometry(FullGraphLayout(2))
        assert np.count_nonzero(v[:, 4]) == 1
        assert np.count_nonzero(v[:, 5]) == 1
        assert v[2, 4] == 1.0
        assert v[5, 5] == 1.0

    def test_n5_amplitudes(self):
        v = reduction_isometry(FullGraphLayout(5))
        col5 = v[:, 4]
        nz = col5[col5 != 0]
        assert nz.size == 4
        np.testing.assert_allclose(nz, 0.5)

    def test_orthonormal_columns(self):
        for n in (2, 3, 6, 11):
            v = reduction_isometry(FullGraphLayout(n))
            np.testing.assert_allclose(
                v.conj().T @ v, np.eye(6), atol=1e-15
            )


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=8),
    beta=st.floats(min_value=-3.0, max_value=3.0),
    phi=st.floats(min_value=0.0, max_value=TWO_PI - 1e-9),
)
def test_reduction_identity(n, beta, phi):
    """V^dag H_full V equals the six-state Hamiltonian entrywise."""
    params = RouterParams(n, beta, phi)
    lay = FullGraphLayout(n)
    v = reduction_isometry(lay)
    full = build_full_hamiltonian(params, lay).entries
    red = build_reduced_hamiltonian(params).entries
    np.testing.assert_allclose(v.conj().T @ full @ v, red, atol=1e-12)


def test_reduction_identity_nondefault_ports():
    params = RouterParams(6, 1.4, 2.2)
    lay = FullGraphLayout(6, input_internal=4, output_internal=2)
    v = reduction_isometry(lay)
    full = build_full_hamiltonian(params, lay).entries
    red = build_reduced_hamiltonian(params).entries
    np.testing.assert_allclose(v.conj().T @ full @ v, red, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=10**6),
    beta=st.sampled_from([0.0, -0.0, 1.0]) | st.floats(min_value=-3.0, max_value=3.0),
    phis=st.lists(
        st.floats(min_value=0.0, max_value=TWO_PI, exclude_max=True), min_size=1, max_size=5
    ),
)
def test_reduced_hamiltonians_match_single_builder_bitwise(n, beta, phis):
    stack = reduced_hamiltonians(n, beta, np.array(phis))
    assert stack.shape == (len(phis), 6, 6)
    for k, phi in enumerate(phis):
        single = build_reduced_hamiltonian(RouterParams(n, beta, phi)).entries
        # Reference: the documented upper triangle plus its conjugate mirror.  The
        # link goes through array arithmetic as in the batch: scalar and array
        # complex products can differ in the sign of an underflowed zero.
        upper = np.zeros((6, 6), dtype=complex)
        upper[0, 1] = upper[2, 3] = upper[4, 5] = 1.0
        upper[1, 2] = (beta * np.exp(-1j * np.array([phi])))[0]
        upper[1, 4] = upper[2, 4] = np.sqrt(n - 1.0)
        reference = upper + upper.conj().T
        reference[4, 4] = n - 2.0
        # Same bits, signed zeros included.
        assert stack[k].tobytes() == single.tobytes() == reference.tobytes()


def test_package_exports():
    """The package re-exports every module's public names, and loses none.

    Dropped on purpose, because no command, acceptance check or README example
    used them: ``FidelityCurve``, ``evolve_piecewise``, ``mixed_state_fidelity``,
    ``noise_equivalence`` and ``noise_equivalence_inverse``; and ``bessel_i0`` and
    ``von_mises_pdf``, once the static-noise quadrature weighted its nodes by the
    bare von Mises kernel, whose normalizer cancels.
    """
    parent_names = {
        "FullGraphLayout", "HermitianMatrix", "RouterParams", "build_full_hamiltonian",
        "build_reduced_hamiltonian", "reduction_isometry", "Propagator", "PureState",
        "propagator", "evolve", "DensityMatrix",
        "SuperpositionGrid", "SuperpositionParams", "average_fidelity", "fidelity_grid",
        "input_state", "min_fidelity",
        "per_wrong_output_probability", "routing_fidelity", "target_state",
        "transition_probability", "EnsembleState", "NoiseAveragedState", "OUSpec",
        "StaticNoiseFidelity", "VonMisesSpec",
        "ou_ensemble_state", "ou_fidelity_curve",
        "ou_sample_path", "ou_stationary_draws", "static_noise_fidelity",
        "static_noise_state", "PeakReport", "RefineResult", "ScanGrid",
        "ScanSurface", "find_peaks", "refine", "scan", "__version__",
    }
    assert len(parent_names) == 40
    assert len(qwrouter.__all__) == len(set(qwrouter.__all__))
    assert set(qwrouter.__all__) == parent_names | {"reduced_hamiltonians", "verify_reduction"}
    for name in qwrouter.__all__:
        assert hasattr(qwrouter, name)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=9),
    beta=st.floats(min_value=-2.0, max_value=2.0),
    phi=st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
)
def test_phase_periodicity(n, beta, phi):
    a = build_reduced_hamiltonian(RouterParams(n, beta, phi)).entries
    b = build_reduced_hamiltonian(RouterParams(n, beta, phi + TWO_PI)).entries
    np.testing.assert_allclose(a, b, atol=1e-14)


def test_adjacency_limit_every_entry_binary():
    h = build_full_hamiltonian(RouterParams(6, 1.0, 0.0)).entries
    vals = np.unique(h.real)
    assert np.max(np.abs(h.imag)) == 0.0
    assert set(vals.tolist()) == {0.0, 1.0}


def test_hermitian_matrix_rejects_asymmetry():
    bad = np.eye(3, dtype=complex)
    bad[0, 1] = 1j
    with pytest.raises(ValueError):
        HermitianMatrix(bad)
