import sys

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import qwrouter
from qwrouter import hamiltonian
from qwrouter import (
    HermitianMatrix,
    RouterParams,
    build_full_hamiltonian,
    build_reduced_hamiltonian,
    propagator,
    reduced_hamiltonians,
    reduction_isometry,
)
from qwrouter import noise, routing
from qwrouter.cli import main

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
        for make in (RouterParams, reduction_isometry):
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

    def test_ports_are_fixed(self):
        # Input (external n+1, internal 0), output (internal 1, external n+2).
        n = 5
        h = build_full_hamiltonian(RouterParams(n, 2.0, 1.1)).entries
        assert h[0, 1] == pytest.approx(2.0 * np.exp(-1.1j), abs=1e-15)
        assert h[1, 0] == pytest.approx(2.0 * np.exp(1.1j), abs=1e-15)
        v = reduction_isometry(n)
        assert [int(np.flatnonzero(v[:, k])[0]) for k in range(4)] == [n + 1, 0, 1, n + 2]

    @pytest.mark.parametrize("n", [1024, 10_000])
    def test_rejects_a_dimension_beyond_2048_before_allocating(self, monkeypatch, n):
        def no_allocation(*args, **kwargs):
            raise AssertionError("allocated before the size check")

        monkeypatch.setattr(np, "zeros", no_allocation)
        message = (f"n must be at most 1023, so that the full graph's dimension 2 (n + 1) is "
                   f"at most 2048; got {n}")
        for build in (lambda: build_full_hamiltonian(RouterParams(n)),
                      lambda: reduction_isometry(n)):
            with pytest.raises(ValueError) as err:
                build()
            assert str(err.value) == message

    def test_bound_is_inclusive(self, monkeypatch):
        # The largest accepted graph, with the bound lowered so that it stays small.
        monkeypatch.setattr(hamiltonian, "_FULL_DIM_MAX", 12)
        assert build_full_hamiltonian(RouterParams(5)).dim == 12
        assert reduction_isometry(5).shape == (12, 6)
        for build in (lambda: build_full_hamiltonian(RouterParams(6)),
                      lambda: reduction_isometry(6)):
            with pytest.raises(ValueError, match=r"^n must be at most 5, .* at most 12; got 6$"):
                build()


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
        v = reduction_isometry(2)
        assert np.count_nonzero(v[:, 4]) == 1
        assert np.count_nonzero(v[:, 5]) == 1
        assert v[2, 4] == 1.0
        assert v[5, 5] == 1.0

    def test_n5_amplitudes(self):
        v = reduction_isometry(5)
        col5 = v[:, 4]
        nz = col5[col5 != 0]
        assert nz.size == 4
        np.testing.assert_allclose(nz, 0.5)

    def test_orthonormal_columns(self):
        for n in (2, 3, 6, 11):
            v = reduction_isometry(n)
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
    v = reduction_isometry(n)
    full = build_full_hamiltonian(params).entries
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


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=10**6),
    pairs=st.lists(
        st.tuples(
            st.sampled_from([0.0, -0.0, 1.0]) | st.floats(min_value=-40.0, max_value=40.0),
            st.floats(min_value=0.0, max_value=TWO_PI, exclude_max=True),
        ),
        min_size=1, max_size=5,
    ),
)
def test_mixed_stacks_match_single_builder_bitwise(n, pairs):
    # Scalar or 1-d weights and phases, in every combination a scan or a caller makes.
    betas, phis = (np.array(x) for x in zip(*pairs))
    beta0, phi0 = pairs[0]
    stacks = [
        (reduced_hamiltonians(n, betas, phis), pairs),
        (reduced_hamiltonians(n, beta0, phis), [(beta0, p) for p in phis.tolist()]),
        (reduced_hamiltonians(n, betas, phi0), [(b, phi0) for b in betas.tolist()]),
        (reduced_hamiltonians(n, betas[:1], phis), [(beta0, p) for p in phis.tolist()]),
        (reduced_hamiltonians(n, betas, phis[:1]), [(b, phi0) for b in betas.tolist()]),
        (reduced_hamiltonians(n, beta0, phi0), [(beta0, phi0)]),
    ]
    for stack, expected in stacks:
        assert stack.shape == (len(expected), 6, 6)
        for matrix, (beta, phi) in zip(stack, expected):
            single = build_reduced_hamiltonian(RouterParams(n, beta, phi)).entries
            assert matrix.tobytes() == single.tobytes()  # same bits, signed zeros included


@pytest.mark.parametrize("beta, phis", [
    (np.ones((2, 2)), 0.5),
    (1.0, np.zeros((3, 1))),
    (np.ones(3), np.zeros(4)),
])
def test_reduced_hamiltonians_reject_other_shapes(beta, phis):
    with pytest.raises(ValueError, match="beta and phis"):
        reduced_hamiltonians(20, beta, phis)


@pytest.mark.parametrize("n, beta, phis, error, message", [
    (1, 1.0, 0.0, ValueError, "n_outputs must be >= 2"),
    (0, 1.0, 0.0, ValueError, "n_outputs must be >= 2"),
    (10**400, 1.0, 0.0, ValueError, "n_outputs must be at most 1.7976931348623157e+308"),
    (20.0, 1.0, 0.0, TypeError, "n_outputs must be an integer"),
    (20, np.nan, 0.0, ValueError, "beta must be finite, got nan"),
    (20, [1.0, -np.inf], 0.0, ValueError, "beta must be finite, got -inf"),
    (20, 1.0, [0.0, 1.0, np.nan], ValueError, "phis must be finite, got nan"),
])
def test_reduced_hamiltonians_reject_what_router_params_rejects(n, beta, phis, error, message):
    with pytest.raises(error) as info:
        reduced_hamiltonians(n, beta, phis)
    assert str(info.value) == message


@pytest.mark.parametrize("value, expected", [
    (3, 3), (3.0, 3), (np.int64(3), 3), (np.float64(-2.0), -2), (10**30, 10**30),
    (2.5, None), (np.nan, None), (np.inf, None), (True, None), ("3", None), (None, None),
])
def test_integer_accepts_integral_values_only(value, expected):
    if expected is None:
        with pytest.raises(ValueError) as info:
            hamiltonian._integer("count", value)
        assert str(info.value) == f"count must be an integer, got {value!r}"
    else:
        got = hamiltonian._integer("count", value)
        assert got == expected and type(got) is int


class TestReducedSpectra:
    """``hamiltonian._reduced_spectra``, the one place a reduced Hamiltonian is decomposed."""

    def test_is_the_read_only_eigh_of_the_stack(self):
        phis = np.linspace(0.0, 6.0, 7)
        w, q = hamiltonian._reduced_spectra(20, 1.3, phis)
        ew, eq = np.linalg.eigh(reduced_hamiltonians(20, 1.3, phis))
        assert w.shape == (7, 6) and q.shape == (7, 6, 6)
        assert w.tobytes() == ew.tobytes() and q.tobytes() == eq.tobytes()
        assert not w.flags.writeable and not q.flags.writeable

    def test_one_router_equals_its_lone_matrix_bitwise(self):
        # A one-router stack decomposes bit for bit as its lone 6x6 matrix.
        rng = np.random.default_rng(5)
        for _ in range(200):
            p = RouterParams(int(rng.integers(2, 10**6)), rng.uniform(-40.0, 40.0),
                             rng.uniform(0.0, TWO_PI))
            w, q = hamiltonian._reduced_spectra(p.n_outputs, p.beta, p.phi)
            ew, eq = np.linalg.eigh(build_reduced_hamiltonian(p).entries)
            assert w[0].tobytes() == ew.tobytes() and q[0].tobytes() == eq.tobytes()

    def test_failed_decomposition_names_its_inputs(self):
        with pytest.raises(ValueError) as info:
            hamiltonian._reduced_spectra(5, np.array([1e300, 1.7e308]), np.array([0.25, 1.5]))
        assert type(info.value) is ValueError  # not numpy's LinAlgError subclass
        assert str(info.value) == ("no eigendecomposition of the reduced Hamiltonian at n=5, "
                                   "beta in [1e+300, 1.7e+308], phi in [0.25, 1.5]: "
                                   "Eigenvalues did not converge")


def test_every_reduced_decomposition_goes_through_reduced_spectra(monkeypatch):
    real = np.linalg.eigh
    callers = []

    def traced(a, *args, **kwargs):
        if np.shape(a)[-2:] == (6, 6):
            frame = sys._getframe(1)
            callers.append((frame.f_globals["__name__"], frame.f_code.co_name))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", traced)
    # The tracer sees a 6x6 decomposition made elsewhere: a generic propagator.
    propagator(build_reduced_hamiltonian(RouterParams(5)), 1.0)
    assert callers == [("qwrouter.dynamics", "propagator")]
    commands = [
        *[["scan", "weight", "--n", "5", "--t-steps", "3", "--param-steps", "3",
           "--objective", objective] for objective in ("localized", "average", "worst_case")],
        ["optimize", "--n", "20", "--t0", "18.4", "--param0", "4.70"],
        ["table1", "--row", "20"],
        ["noise", "vonmises", "--n", "20", "--phi", "4.712", "--k", "12.5", "--t-max", "2",
         "--t-steps", "3"],
        ["noise", "ou", "--n", "20", "--phi", "4.712", "--trajectories", "4", "--t-max", "0.1",
         "--t-steps", "3"],
    ]
    for argv in commands:
        routing._spectrum.cache_clear()
        noise._node_spectrum.cache_clear()
        callers.clear()
        result = CliRunner().invoke(main, argv)
        assert result.exit_code == 0, result.output
        assert callers, argv
        assert set(callers) == {("qwrouter.hamiltonian", "_reduced_spectra")}, argv


def test_package_exports():
    """The package re-exports every module's public names, and loses none.

    Dropped on purpose, because no command, acceptance check or README example
    used them: ``FidelityCurve``, ``evolve_piecewise``, ``mixed_state_fidelity``,
    ``noise_equivalence`` and ``noise_equivalence_inverse``; and ``bessel_i0`` and
    ``von_mises_pdf``, once the static-noise quadrature weighted its nodes by the
    bare von Mises kernel, whose normalizer cancels.  ``FullGraphLayout`` went too:
    only tests chose other ports, and the complete graph's symmetry makes every
    pair of ports a relabeling of the one fixed pair.
    """
    parent_names = {
        "HermitianMatrix", "RouterParams", "build_full_hamiltonian",
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
    assert len(parent_names) == 39
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
