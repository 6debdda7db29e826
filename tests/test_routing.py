import math
import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwrouter import (
    DensityMatrix,
    PureState,
    RouterParams,
    SuperpositionGrid,
    SuperpositionParams,
    average_fidelity,
    build_full_hamiltonian,
    build_reduced_hamiltonian,
    evolve,
    fidelity_grid,
    input_state,
    min_fidelity,
    per_wrong_output_probability,
    propagator,
    routing_fidelity,
    target_state,
    transition_probability,
)
from qwrouter import routing
from qwrouter.cli import TABLE1_ROWS
from qwrouter.routing import _TRANSFER, _axes, u_element_curve

TWO_PI = 2.0 * np.pi
RNG = np.random.default_rng(20240814)


def random_density(dim=6, rank=None):
    rank = rank or dim
    a = RNG.standard_normal((dim, rank)) + 1j * RNG.standard_normal((dim, rank))
    rho = a @ a.conj().T
    return DensityMatrix(rho / np.trace(rho).real)


class TestStates:
    def test_localized_limit(self):
        sp = SuperpositionParams(1.0, 0.3)
        np.testing.assert_array_equal(
            input_state(sp).amplitudes, np.eye(6, dtype=complex)[0]
        )
        np.testing.assert_array_equal(
            target_state(sp).amplitudes, np.eye(6, dtype=complex)[3]
        )

    def test_balanced_with_quarter_phase(self):
        sp = SuperpositionParams(0.7, 3 * np.pi / 2)
        amps = input_state(sp).amplitudes
        assert amps[0] == pytest.approx(0.7, abs=1e-12)
        assert amps[1] == pytest.approx(-1j * np.sqrt(0.51), abs=1e-12)
        t = target_state(sp).amplitudes
        assert t[3] == pytest.approx(0.7, abs=1e-12)
        assert t[2] == pytest.approx(-1j * np.sqrt(0.51), abs=1e-12)

    def test_alpha_zero_unit_norm(self):
        amps = input_state(SuperpositionParams(0.0, 1.1)).amplitudes
        assert abs(np.linalg.norm(amps) - 1.0) < 1e-12
        assert amps[1] == pytest.approx(np.exp(1.1j), abs=1e-12)

    def test_alpha_out_of_range(self):
        with pytest.raises(ValueError):
            SuperpositionParams(1.5, 0.0)

    def test_chi_irrelevant_at_endpoints(self):
        params = RouterParams(12, 1.0, 2.0)
        for alpha in (0.0, 1.0):
            vals = [
                routing_fidelity(params, 9.3, SuperpositionParams(alpha, chi))
                for chi in np.linspace(0, TWO_PI, 17, endpoint=False)
            ]
            assert max(vals) - min(vals) < 1e-12


class TestTransitionProbability:
    def test_orthogonal_at_zero_time(self):
        # spectral route leaves only rounding residue (~1e-34) at t = 0
        p = RouterParams(5, 1.0, 1.0)
        assert transition_probability(p, 0.0, 1, 4) == pytest.approx(0.0, abs=1e-12)

    def test_identity_at_zero_time(self):
        p = RouterParams(5, 1.0, 1.0)
        assert transition_probability(p, 0.0, 1, 1) == pytest.approx(1.0, abs=1e-14)

    def test_invalid_labels(self):
        p = RouterParams(5, 1.0, 1.0)
        with pytest.raises(ValueError):
            transition_probability(p, 1.0, 0, 4)
        with pytest.raises(ValueError):
            transition_probability(p, 1.0, 1, 7)

    def test_forty_output_pi_phase_window(self):
        p = RouterParams(40, 1.0, np.pi)
        p14 = transition_probability(p, 17.0, 1, 4)
        p16 = transition_probability(p, 17.0, 1, 6)
        assert p14 > 0.8
        assert p16 < 0.03  # leakage to wrong outputs stays small here

    def test_bounded(self):
        p = RouterParams(7, 2.0, 0.4)
        for t in np.linspace(0, 20, 41):
            v = transition_probability(p, float(t), 1, 4)
            assert 0.0 <= v <= 1.0

    def test_time_array(self):
        p = RouterParams(7, 2.0, 0.4)
        ts = np.linspace(0, 20, 12)
        curve = transition_probability(p, ts, 1, 6)
        assert curve.shape == (12,)
        for t, value in zip(ts.tolist(), curve.tolist()):
            assert value == pytest.approx(transition_probability(p, t, 1, 6), abs=1e-15)
        assert type(transition_probability(p, np.float64(2.0), 1, 6)) is float

    def test_multidimensional_times(self):
        # 0-d and 1-d times keep their bits; a 2-d result equals its 1-d rows exactly.
        p = RouterParams(7, 2.0, 0.4)
        assert u_element_curve(p, np.zeros((3, 4)), 5, 0).shape == (3, 4)
        assert u_element_curve(p, np.zeros((3, 4)), *_TRANSFER).shape == (4, 3, 4)
        ts = np.random.default_rng(5).uniform(0.0, 40.0, (3, 7))
        w, q = np.linalg.eigh(build_reduced_hamiltonian(p).entries)
        for rows, cols in ((5, 0), _TRANSFER):
            coeffs = q[rows] * np.conj(q[cols])
            grid = u_element_curve(p, ts, rows, cols)
            for i, row in enumerate(ts):
                # The former expression, for 1-d and then 0-d times.
                former = coeffs @ np.exp(-1j * np.multiply.outer(w, row))
                np.testing.assert_array_equal(u_element_curve(p, row, rows, cols), former)
                np.testing.assert_array_equal(grid[..., i, :], former)
                for j, t in enumerate(row.tolist()):
                    np.testing.assert_array_equal(
                        u_element_curve(p, t, rows, cols),
                        coeffs @ np.exp(-1j * np.multiply.outer(w, t)))
        curve = transition_probability(p, ts, 1, 6)
        assert curve.shape == ts.shape
        np.testing.assert_array_equal(curve[1], transition_probability(p, ts[1], 1, 6))


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf, 1e308, -1e308])
def test_statistics_reject_non_finite_time(t):
    # At n = 20 a finite |t| of 1e308 overflows the phases w t, which would give NaN.
    message = "overflow" if math.isfinite(t) else "t must be finite"
    p = RouterParams(20, 1.0, 4.712)
    sp = SuperpositionParams(0.7, 3.0 * math.pi / 2.0)
    grid = SuperpositionGrid(5, 8)
    for call in (
        lambda: transition_probability(p, t, 1, 4),
        lambda: transition_probability(p, np.array([1.0, t]), 1, 4),
        lambda: routing_fidelity(p, t, sp),
        lambda: fidelity_grid(p, t, grid),
        lambda: average_fidelity(p, t, grid),
        lambda: min_fidelity(p, t, grid),
    ):
        with pytest.raises(ValueError, match=message):
            call()


class TestWrongOutputProbability:
    def test_n2_equals_aggregate(self):
        p = RouterParams(2, 1.0, 0.7)
        assert per_wrong_output_probability(p, 3.3) == pytest.approx(
            transition_probability(p, 3.3, 1, 6), abs=1e-15
        )

    def test_no_chirality_output_symmetry(self):
        # With beta=1, phi=0 every output is equivalent.
        for n, t in ((4, 2.1), (9, 7.7), (25, 13.0)):
            p = RouterParams(n, 1.0, 0.0)
            assert per_wrong_output_probability(p, t) == pytest.approx(
                transition_probability(p, t, 1, 4), abs=1e-9
            )

    def test_full_graph_per_vertex_equality(self):
        # Oracle: full-graph evolution at n=4; each wrong external vertex
        # must carry the same probability as the target external.
        # The input external is vertex n + 1, the output external n + 2, and the
        # wrong externals n + 3 .. 2n + 1.
        n = 4
        params = RouterParams(n, 1.0, 0.0)
        psi0 = np.zeros(2 * (n + 1), dtype=complex)
        psi0[n + 1] = 1.0
        out = evolve(build_full_hamiltonian(params), 5.3, PureState(psi0))
        probs = np.abs(out.amplitudes) ** 2
        target = probs[n + 2]
        wrong = probs[n + 3:]
        assert wrong.size == n - 1
        np.testing.assert_allclose(wrong, target, atol=1e-9)
        # and the reduced model's per-output figure agrees
        assert per_wrong_output_probability(params, 5.3) == pytest.approx(
            target, abs=1e-9
        )

    def test_weight_ray_regime_low_leakage(self):
        p = RouterParams(50, 0.69 * 30.0, 0.0)
        assert per_wrong_output_probability(p, 30.0) <= 0.05 / 49.0


class TestRoutingFidelity:
    def test_localized_consistency(self):
        p = RouterParams(20, 1.0, 4.712)
        sp = SuperpositionParams(1.0, 0.0)
        assert routing_fidelity(p, 18.55, sp) == pytest.approx(
            transition_probability(p, 18.55, 1, 4), abs=1e-12
        )

    def test_matches_direct_evolution(self):
        # Oracle: evolve the input state explicitly and take the overlap.
        p = RouterParams(9, 1.3, 2.4)
        sp = SuperpositionParams(0.55, 1.9)
        from qwrouter import build_reduced_hamiltonian

        evolved = evolve(build_reduced_hamiltonian(p), 6.6, input_state(sp))
        expected = abs(np.vdot(target_state(sp).amplitudes, evolved.amplitudes)) ** 2
        assert routing_fidelity(p, 6.6, sp) == pytest.approx(expected, abs=1e-12)

    def test_high_fidelity_configuration(self):
        p = RouterParams(20, 1.0, 4.712)
        assert average_fidelity(p, 18.550) == pytest.approx(0.993, abs=0.01)


class TestGridStatistics:
    def test_zero_time_orthogonal(self):
        p = RouterParams(6, 1.0, 1.0)
        assert average_fidelity(p, 0.0) == pytest.approx(0.0, abs=1e-12)
        assert min_fidelity(p, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_min_below_average(self):
        p = RouterParams(20, 1.0, 4.712)
        grid = SuperpositionGrid(21, 32)
        assert min_fidelity(p, 18.55, grid) <= average_fidelity(p, 18.55, grid)

    def test_refinement_never_increases_grid_minimum(self):
        p = RouterParams(20, 1.0, 4.708)
        grid = SuperpositionGrid(21, 32)
        assert min_fidelity(p, 18.523, grid) <= fidelity_grid(p, 18.523, grid).min()

    def test_min_fidelity_reads_transfer_elements_once(self, monkeypatch):
        p = RouterParams(20, 1.0, 4.708)
        grid = SuperpositionGrid(21, 32)
        calls = []
        real = routing.u_element_curve

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(routing, "u_element_curve", counting)
        for t in (18.523, np.linspace(0.0, 25.0, 101)):
            calls.clear()
            min_fidelity(p, t, grid)
            assert len(calls) == 1
        monkeypatch.undo()
        # The descent starts at the grid minimum, bit for bit, and never rises above it.
        u = u_element_curve(p, np.array([18.523]), *_TRANSFER)
        grid_min = fidelity_grid(p, 18.523, grid).min()
        assert routing._grid_starts(u, grid)[2].tolist() == [grid_min]
        assert min_fidelity(p, 18.523, grid) <= grid_min

    def test_grid_shape(self):
        f = fidelity_grid(RouterParams(5, 1.0, 1.0), 3.0, SuperpositionGrid(11, 16))
        assert f.shape == (11, 16)
        assert np.all((f >= 0.0) & (f <= 1.0))

    def test_grid_matches_pointwise(self):
        # Oracle: the vectorized grid agrees with scalar evaluation.
        p = RouterParams(7, 1.0, 2.7)
        grid = SuperpositionGrid(5, 8)
        f = fidelity_grid(p, 4.2, grid)
        for i, a in enumerate(grid.alphas()):
            for j, c in enumerate(grid.chis()):
                assert f[i, j] == pytest.approx(
                    routing_fidelity(p, 4.2, SuperpositionParams(float(a), float(c))),
                    abs=1e-12,
                )

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            SuperpositionGrid(0, 8)

    def test_haar_measure_against_monte_carlo(self):
        # Oracle: direct sampling from the single-qubit uniform measure.
        p = RouterParams(20, 1.0, 4.712)
        t = 18.55
        grid_val = average_fidelity(p, t, SuperpositionGrid(201, 64, measure="haar"))
        rng = np.random.default_rng(99)
        u = rng.uniform(-1.0, 1.0, 4000)
        alphas = np.sqrt((1.0 + u) / 2.0)
        chis = rng.uniform(0.0, TWO_PI, 4000)
        mc = np.mean(
            [
                routing_fidelity(p, t, SuperpositionParams(float(a), float(c)))
                for a, c in zip(alphas, chis)
            ]
        )
        assert grid_val == pytest.approx(mc, abs=5e-3)


def former_fidelity_grid(u, grid):
    """The former fidelity-grid formula, from ``u = (U41, U42, U31, U32)``."""
    alphas = grid.alphas()
    gammas = np.sqrt(np.clip(1.0 - alphas**2, 0.0, None))
    phases = np.exp(1j * grid.chis())
    u41, u42, u31, u32 = u
    overlap = (alphas**2 * u41 + gammas**2 * u32)[:, None] + np.outer(
        alphas * gammas, u42 * phases + u31 * np.conj(phases)
    )
    return np.clip(np.abs(overlap) ** 2, 0.0, 1.0)


def grid_mean_reference(params, t, grid):
    """The former average: the fidelity grid's weighted mean."""
    f = former_fidelity_grid(u_element_curve(params, t, *_TRANSFER).tolist(), grid)
    if grid.measure == "uniform":
        return float(f.mean())
    w = grid.alphas() / grid.alphas().sum()
    return float((w[:, None] * f).sum() / grid.chi_points)


def min_fidelity_loop_reference(params, t, grid):
    """The former worst case: the grid minimum, then min_fidelity's own descent loop."""
    u41, u42, u31, u32 = u = u_element_curve(params, t, *_TRANSFER).tolist()
    f = former_fidelity_grid(u, grid)
    i, j = np.unravel_index(np.argmin(f), f.shape)
    best = float(f[i, j])

    def objective(alpha, chi):
        gamma = math.sqrt(max(0.0, 1.0 - alpha * alpha))
        ph = complex(math.cos(chi), math.sin(chi))
        ov = (
            alpha * alpha * u41
            + alpha * gamma * ph * u42
            + alpha * gamma * ph.conjugate() * u31
            + gamma * gamma * u32
        )
        return abs(ov) ** 2

    alpha = float(grid.alphas()[i])
    chi = float(grid.chis()[j])
    step_a = 1.0 / max(grid.alpha_points - 1, 1)
    step_c = TWO_PI / grid.chi_points
    while step_a >= 1e-4 or step_c >= 1e-4:
        improved = False
        for da in (step_a, -step_a):
            cand = min(max(alpha + da, 0.0), 1.0)
            val = objective(cand, chi)
            if val < best:
                alpha, best, improved = cand, val, True
        for dc in (step_c, -step_c):
            cand = chi + dc
            val = objective(alpha, cand)
            if val < best:
                chi, best, improved = cand, val, True
        if not improved:
            step_a *= 0.5
            step_c *= 0.5
    return min(max(best, 0.0), 1.0)


# Grids with a single chi, or two, keep the e^{+-i chi} cross terms of the
# Gram matrix from cancelling.
def former_grid(u, grid):
    """The former ``_grid_from_elements``: the fidelity grid of ``u = (U41, U42, U31,
    U32)``, one element of ``u`` at a time against the whole chart, as the former
    ``_chart`` built it."""
    alphas = grid.alphas()[:, None]
    gammas = np.sqrt(np.clip(1.0 - alphas**2, 0.0, None))
    phases = np.exp(1j * grid.chis())
    cross = alphas * gammas
    c = np.stack(np.broadcast_arrays(alphas**2, cross * phases, cross * phases.conj(),
                                     gammas**2))
    u41, u42, u31, u32 = u
    overlap = u41 * c[0] + u42 * c[1] + u31 * c[2] + u32 * c[3]
    return np.clip(np.abs(overlap) ** 2, 0.0, 1.0)


def former_grid_start(u, grid):
    """``(alpha, chi, best)`` of the grid minimum as the former per-cell ``_grid_start``
    took it: the first ``np.argmin`` of the former grid."""
    f = former_grid(u, grid)
    i, j = np.unravel_index(np.argmin(f), f.shape)
    return float(grid.alphas()[i]), float(grid.chis()[j]), float(f[i, j])


def descend_reference(objective, alpha, chi, best, step_alpha, step_chi):
    """Step-halving coordinate descent, minimizing, written out apart from the library
    (the loop of ``tests/test_search.py::refine_loop_reference``): each sweep tries
    ``+-step_alpha`` in alpha, clamped to [0, 1], then ``+-step_chi`` in chi, unbounded,
    and keeps every move that lowers ``best``; a sweep without one halves both steps,
    until both are below 1e-4.  Returns the least value."""
    tol = 1e-4
    while step_alpha >= tol or step_chi >= tol:
        improved = False
        for d_alpha, d_chi in ((step_alpha, 0.0), (-step_alpha, 0.0),
                               (0.0, step_chi), (0.0, -step_chi)):
            cand_alpha = min(max(alpha + d_alpha, 0.0), 1.0) if d_alpha else alpha
            cand_chi = chi + d_chi if d_chi else chi
            if cand_alpha == alpha and cand_chi == chi:
                continue
            val = objective(cand_alpha, cand_chi)
            if val < best:
                alpha, chi, best = cand_alpha, cand_chi, val
                improved = True
        if not improved:
            step_alpha *= 0.5
            step_chi *= 0.5
    return best


def former_min_at(u, grid):
    """The worst case at one cell as the former ``routing._min_at`` took it: the grid
    start, then ``descend_reference`` on ``_fidelity_at`` from one grid spacing."""
    alpha, chi, best = former_grid_start(u, grid)
    objective = partial(routing._fidelity_at, *u)
    best = descend_reference(objective, alpha, chi, min(best, objective(alpha, chi)),
                             1.0 / max(grid.alpha_points - 1, 1), TWO_PI / grid.chi_points)
    return routing._clamp01(best)


def pow_fidelity_at(u41, u42, u31, u32, alpha, chi):
    """``routing._fidelity_at`` when it squared ``abs(ov)`` with ``** 2``."""
    gamma = math.sqrt(max(0.0, 1.0 - alpha * alpha))
    ag = alpha * gamma
    ph = complex(math.cos(chi), math.sin(chi))
    ov = alpha * alpha * u41 + ag * ph * u42 + ag * ph.conjugate() * u31 + gamma * gamma * u32
    return abs(ov) ** 2


REFERENCE_GRIDS = [
    SuperpositionGrid(41, 64),
    SuperpositionGrid(201, 64, measure="haar"),
    SuperpositionGrid(1, 1, measure="haar"),
    SuperpositionGrid(3, 2, measure="haar"),
    SuperpositionGrid(5, 1, measure="haar"),
]


def random_router(rng):
    return (
        RouterParams(int(rng.integers(2, 200)), float(rng.uniform(-2.0, 2.0)),
                     float(rng.uniform(0.0, TWO_PI))),
        float(rng.uniform(0.0, 50.0)),
    )


class TestAgainstFormerLoops:
    @pytest.mark.parametrize("grid", REFERENCE_GRIDS, ids=repr)
    def test_average_matches_grid_mean(self, grid):
        rng = np.random.default_rng(grid.alpha_points * 100 + grid.chi_points)
        for _ in range(40):
            params, t = random_router(rng)
            got = average_fidelity(params, t, grid)
            assert abs(got - grid_mean_reference(params, t, grid)) <= 1e-13

    def test_average_over_time_array(self):
        grid = SuperpositionGrid(9, 12, "haar")
        rng = np.random.default_rng(31)
        for _ in range(20):
            params, _ = random_router(rng)
            ts = rng.uniform(0.0, 50.0, 17)
            curve = average_fidelity(params, ts, grid)
            assert curve.shape == ts.shape
            for got, t in zip(curve.tolist(), ts.tolist()):
                scalar = average_fidelity(params, t, grid)
                assert abs(got - scalar) <= 1e-15
                # A scalar time keeps the former summation bit for bit.
                u = u_element_curve(params, t, *_TRANSFER)
                former = float((_axes(grid)[4] * np.outer(u, u.conj())).sum().real)
                assert scalar == min(max(former, 0.0), 1.0)
            np.testing.assert_array_equal(
                average_fidelity(params, ts.reshape(1, 17), grid)[0], curve)
        assert type(average_fidelity(params, np.float64(2.0), grid)) is float

    def test_average_builds_no_grid(self, monkeypatch):
        def no_grid(*args):
            raise AssertionError("average_fidelity built a fidelity grid")

        monkeypatch.setattr(routing, "_grid_fidelity", no_grid)
        got = average_fidelity(RouterParams(20, 1.0, 4.712), 18.55)
        assert got == pytest.approx(0.993, abs=0.01)

    def test_average_keeps_only_the_axes(self):
        # This grid's chart is 26 MB (four complex coefficients a point); the cached
        # axes and Gram matrix are about 32 kB.
        grid = SuperpositionGrid(401, 1024)
        params = RouterParams(20, 1.0, 4.712)
        average_fidelity(params, 18.55)  # caches the spectrum
        _axes.cache_clear()
        tracemalloc.start()
        try:
            got = average_fidelity(params, 18.55, grid)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak > 26 * 2**20  # the chart was built, for G only
        assert retained < 2**17
        assert got == pytest.approx(0.993, abs=0.01)

    @pytest.mark.parametrize("grid", REFERENCE_GRIDS[:1] + REFERENCE_GRIDS[3:], ids=repr)
    def test_min_fidelity_matches_loop(self, grid):
        # Coarse grids often put the start on alpha = 0 or 1, where chi ties exactly.
        rng = np.random.default_rng(7 + grid.alpha_points)
        for _ in range(60):
            params, t = random_router(rng)
            got = min_fidelity(params, t, grid)
            assert abs(got - min_fidelity_loop_reference(params, t, grid)) <= 1e-15

    def test_min_fidelity_over_time_arrays(self):
        grid = SuperpositionGrid(9, 12)
        rng = np.random.default_rng(47)
        for _ in range(8):
            params, _ = random_router(rng)
            ts = rng.uniform(0.0, 50.0, (3, 7))
            table = min_fidelity(params, ts, grid)
            assert table.shape == ts.shape
            np.testing.assert_array_equal(min_fidelity(params, ts[1], grid), table[1])
            for got, t in zip(table.ravel().tolist(), ts.ravel().tolist()):
                scalar = min_fidelity(params, t, grid)
                assert abs(got - scalar) <= 1e-15
                assert scalar <= fidelity_grid(params, t, grid).min()
        assert min_fidelity(params, np.empty((0, 4)), grid).shape == (0, 4)
        assert type(min_fidelity(params, np.float64(2.0), grid)) is float

    def test_worst_case_scan_reads_starts_from_cached_axes(self, monkeypatch):
        from qwrouter.search import ScanGrid, scan

        grid = SuperpositionGrid(7, 10)
        scan_grid = ScanGrid((17.0, 19.5, 6), (0.5, 4.75, 5), "phase")
        params = RouterParams(20, 1.0, 0.0)
        reads = []
        for name in ("alphas", "chis"):
            real = getattr(SuperpositionGrid, name)
            monkeypatch.setattr(SuperpositionGrid, name,
                                lambda self, real=real: reads.append(1) or real(self))
        surface = scan(params, scan_grid, "worst_case", grid)
        assert len(reads) <= 2  # _axes, once per grid, not once per cell
        monkeypatch.undo()

        # The 30 cells descend in lockstep, and each lands where the former _min_at,
        # one cell at a time, takes it.
        assert surface.values.size > routing._SCALAR_TAIL
        u = np.stack([u_element_curve(RouterParams(20, 1.0, phi), surface.t_values, *_TRANSFER)
                      for phi in surface.param_values.tolist()], axis=-1)
        cells = u.reshape(4, -1).T.tolist()
        assert surface.values.ravel().tolist() == [former_min_at(c, grid) for c in cells]
        # The former objective squared with ** 2 (pow), which can round one unit apart.
        monkeypatch.setattr(routing, "_fidelity_at", pow_fidelity_at)
        former = [former_min_at(c, grid) for c in cells]
        np.testing.assert_allclose(surface.values.ravel(), former, rtol=0.0, atol=2.3e-16)

    @pytest.mark.parametrize("row", TABLE1_ROWS, ids=lambda r: f"n{r[0]}-{r[3]}")
    def test_min_fidelity_matches_loop_on_table1(self, row):
        n, t, phi, _, _ = row
        params = RouterParams(n, 1.0, phi)
        grid = SuperpositionGrid()
        got = min_fidelity(params, t, grid)
        assert abs(got - min_fidelity_loop_reference(params, t, grid)) <= 1e-15


def traced_peak(run) -> int:
    """Peak bytes traced by ``tracemalloc`` while ``run()`` executes."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def screen_cells(rng, kind, cells):
    """Transfer elements ``(4, cells)`` of one kind for the screened grid minimum."""
    if kind == "router":
        params, _ = random_router(rng)
        return u_element_curve(params, rng.uniform(0.0, 50.0, cells), *_TRANSFER)
    u = rng.standard_normal((4, cells)) + 1j * rng.standard_normal((4, cells))
    if kind == "scaled":
        # Not unitary: most points exceed 1 and clip there, some cells everywhere.
        return u * rng.uniform(0.5, 3.0)
    if kind == "zeros":
        # U41 = 0 ties every chi at alpha = 1, U32 = 0 at alpha = 0; u = 0 ties all points.
        u[3 * rng.integers(0, 2, cells), np.arange(cells)] = 0.0
        u[:, rng.random(cells) < 0.2] = 0.0
        return 0.4 * u
    # U31 = U42 (1 + d) makes the grid symmetric in chi up to rounding: near-ties 1e-16
    # to 1e-15 apart.
    u[2] = u[1] * (1.0 + rng.choice([0.0, 1e-15, -1e-15], cells))
    return 0.4 * u


# A 2x1 grid starts every cell at alpha 0 or 1, where every chi ties exactly.
GRIDS_WITH_2X1 = REFERENCE_GRIDS + [SuperpositionGrid(2, 1)]


def benchmark_surface_elements():
    """Transfer elements of the seed-0 benchmark's worst-case surface: scan weight --n 50,
    t in [0, 50] x 101, beta in [0, 40] x 81."""
    ts = np.linspace(0.0, 50.0, 101)
    return np.stack([u_element_curve(RouterParams(50, beta, 0.0), ts, *_TRANSFER)
                     for beta in np.linspace(0.0, 40.0, 81)], axis=-1)


class TestScreenedMinima:
    """``routing._grid_starts`` screens every grid point and recomputes the few near the
    least; it must pick the former per-cell grid start bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), grid=st.sampled_from(GRIDS_WITH_2X1),
           kind=st.sampled_from(["router", "scaled", "zeros", "near_tie"]),
           cells=st.integers(1, 40))
    def test_matches_former_grid_start(self, seed, grid, kind, cells):
        u = screen_cells(np.random.default_rng(seed), kind, cells)
        got = list(zip(*(a.tolist() for a in routing._grid_starts(u, grid))))
        assert got == [former_grid_start(c, grid) for c in u.T.tolist()]

    @pytest.mark.parametrize("grid", GRIDS_WITH_2X1, ids=repr)
    def test_fidelity_grid_matches_former_bit_for_bit(self, grid):
        # fidelity_grid broadcasts u against the chart where the former grid took one
        # element at a time; the screen's exact values come from the same expression.
        rng = np.random.default_rng(53 + grid.alpha_points)
        for _ in range(20):
            params, t = random_router(rng)
            u = u_element_curve(params, t, *_TRANSFER).tolist()
            assert np.array_equal(fidelity_grid(params, t, grid), former_grid(u, grid))

    @pytest.mark.parametrize("grid", GRIDS_WITH_2X1, ids=repr)
    def test_exact_chi_ties_take_the_first_chi(self, grid):
        # U41 = 0 is 0 at alpha = 1 and U32 = 0 at alpha = 0, for every chi.
        u = np.array([[0.0, 0.3 + 0.1j], [0.2 - 0.4j, 0.1j], [0.5, -0.2], [0.1 + 0.6j, 0.0]])
        got = list(zip(*(a.tolist() for a in routing._grid_starts(u, grid))))
        assert got[0] == (1.0, 0.0, 0.0)
        if grid.alpha_points > 1:  # a single alpha is 1
            assert got[1] == (0.0, 0.0, 0.0)
        assert got == [former_grid_start(c, grid) for c in u.T.tolist()]

    def test_blocks_leave_values(self, monkeypatch):
        # Blocks of one cell, of 3 and of every cell, and candidates recomputed 1 or 5
        # at a time, all pick the same starts.
        grid = SuperpositionGrid(9, 12)
        u = screen_cells(np.random.default_rng(43), "zeros", 30)
        expected = [former_grid_start(c, grid) for c in u.T.tolist()]
        points = grid.alpha_points * grid.chi_points
        for cells, chunk in ((1, 1), (3, 5), (30, routing._EXACT_CHUNK)):
            monkeypatch.setattr(routing, "_SCREEN_BYTES", 8 * points * cells)
            monkeypatch.setattr(routing, "_EXACT_CHUNK", chunk)
            got = list(zip(*(a.tolist() for a in routing._grid_starts(u, grid))))
            assert got == expected

    def test_screen_memory_does_not_grow_with_cells(self):
        # One cell of this grid (410,624 points) fills a screen block by itself.
        grid = SuperpositionGrid(401, 1024)
        points = grid.alpha_points * grid.chi_points
        params = RouterParams(20, 1.0, 0.0)
        ts = np.random.default_rng(37).uniform(0.0, 50.0, 8)
        u = u_element_curve(params, ts, *_TRANSFER)
        routing._grid_starts(u[:, :1], grid)  # builds the grid's chart and screen once
        peaks = [traced_peak(lambda: routing._grid_starts(u[:, :n], grid)) for n in (1, 8)]
        # The screen takes 8 bytes a point and its mask 1; the former grid took 32.
        assert peaks[0] <= 10 * points
        # More cells add their candidates and three floats of output each.
        assert peaks[1] - peaks[0] <= points
        # The descent's starts are the per-cell grid minima, bit for bit.
        got = routing._grid_starts(u[:, :4], grid)[2]
        assert got.tolist() == [former_grid_start(c, grid)[2] for c in u[:, :4].T.tolist()]

    def test_benchmark_surface_matches_former_per_cell(self, monkeypatch):
        # Every cell of the seed-0 benchmark surface ends where the former _min_at takes
        # it, and the sweeps re-value some "-step" moves after a kept "+step" one.
        grid = SuperpositionGrid()
        u = benchmark_surface_elements()
        steps_back = []
        real = routing._step_back
        monkeypatch.setattr(routing, "_step_back", lambda state, cells, coord, *rest: (
            steps_back.append(coord), real(state, cells, coord, *rest)))
        got = routing._worst_case(u, grid)
        assert set(steps_back) == {routing._X, routing._Y}
        cells = u.reshape(4, -1).T.tolist()
        assert got.ravel().tolist() == [former_min_at(c, grid) for c in cells]


class TestLockstep:
    """``routing._worst_case`` descends many cells in lockstep; every cell must end
    exactly where ``_descend`` alone takes it from the cell's grid start."""

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), grid=st.sampled_from(GRIDS_WITH_2X1),
           cells=st.integers(1, 48))
    def test_matches_descend_per_cell(self, seed, grid, cells):
        # The 1x1, 3x2, 5x1 and 2x1 grids start many cells at alpha 1 or 0, where every
        # chi ties exactly; on the 2x1 grid every cell starts there.  Up to _SCALAR_TAIL
        # cells enter the lockstep together and go straight on to _descend.
        rng = np.random.default_rng(seed)
        params, _ = random_router(rng)
        u = u_element_curve(params, rng.uniform(0.0, 50.0, cells), *_TRANSFER)
        got = routing._worst_case(u, grid)
        assert got.tolist() == [former_min_at(c, grid) for c in u.T.tolist()]

    def test_few_cells_enter_the_lockstep_once(self, monkeypatch):
        # A scalar time and _SCALAR_TAIL cells take the one path of a whole surface: all
        # enter the lockstep at once and go on to _descend without a lockstep sweep.
        grid = SuperpositionGrid()
        rng = np.random.default_rng(31)
        params, _ = random_router(rng)
        entered, sweeps = [], []
        real = routing._lockstep
        monkeypatch.setattr(routing, "_lockstep", lambda cells, *rest: (
            entered.append(cells.shape[1]) or real(cells, *rest)))
        monkeypatch.setattr(routing, "_sweep", sweeps.append)
        t = float(rng.uniform(0.0, 50.0))
        got = min_fidelity(params, t, grid)
        assert got == former_min_at(u_element_curve(params, t, *_TRANSFER).tolist(), grid)
        u = u_element_curve(params, rng.uniform(0.0, 50.0, routing._SCALAR_TAIL), *_TRANSFER)
        got = routing._worst_case(u, grid)
        assert got.tolist() == [former_min_at(c, grid) for c in u.T.tolist()]
        assert entered == [1, routing._SCALAR_TAIL]
        assert sweeps == []

    def test_objective_planes_match_scalar_bit_for_bit(self):
        # 20,000 points: the scalar objective once squared with ** 2, which
        # differs from a * a in about 9 of 10^4 values.
        rng = np.random.default_rng(41)
        m = 20_000
        u = rng.standard_normal((4, m)) + 1j * rng.standard_normal((4, m))
        state = routing._start_state(u, SuperpositionGrid(1, 1))
        state[routing._X] = np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, m - 2)])
        state[routing._Y] = rng.uniform(-10.0, 10.0, m)
        state[routing._CS] = np.cos(state[routing._Y]), np.sin(state[routing._Y])
        routing._alpha_terms(state)
        got = routing._square_overlap(state)
        expected = [routing._fidelity_at(*c, a, chi) for c, a, chi in
                    zip(u.T.tolist(), state[routing._X].tolist(), state[routing._Y].tolist())]
        assert got.tolist() == expected

    def test_long_tail_descends_in_lockstep(self, monkeypatch):
        # Six of the slowest columns of the seed-0 benchmark surface (scan weight --n 50,
        # t in [0, 50] x 101, beta in [0, 40] x 81): 33 of their cells need over 300
        # sweeps and the slowest 5,281.
        grid = SuperpositionGrid()
        ts = np.linspace(0.0, 50.0, 101)
        u = np.stack([u_element_curve(RouterParams(50, beta, 0.0), ts, *_TRANSFER)
                      for beta in (0.5, 1.5, 4.5, 5.0, 7.5, 15.0)], axis=-1)
        sizes = []
        real = routing._sweep
        monkeypatch.setattr(routing, "_sweep",
                            lambda state: sizes.append(state.shape[1]) or real(state))
        got = routing._worst_case(u, grid)
        assert sum(size > routing._SCALAR_TAIL for size in sizes) >= 300
        assert min(sizes) > routing._SCALAR_TAIL  # the rest finished in _descend
        cells = u.reshape(4, -1).T.tolist()
        assert got.ravel().tolist() == [former_min_at(c, grid) for c in cells]

    @pytest.mark.parametrize("size", [1, 7, routing._LOCKSTEP_CELLS, 512])
    def test_lockstep_size_leaves_values(self, monkeypatch, size):
        grid = SuperpositionGrid(9, 12)
        rng = np.random.default_rng(23)
        params, _ = random_router(rng)
        u = u_element_curve(params, rng.uniform(0.0, 50.0, (15, 2)), *_TRANSFER)
        expected = [former_min_at(c, grid) for c in u.reshape(4, -1).T.tolist()]
        monkeypatch.setattr(routing, "_LOCKSTEP_CELLS", size)
        got = routing._worst_case(u, grid)
        assert got.shape == (15, 2)
        assert got.ravel().tolist() == expected

    def test_memory_is_bounded_by_the_lockstep_size(self):
        grid = SuperpositionGrid(9, 12)
        rng = np.random.default_rng(29)
        params, _ = random_router(rng)
        n = routing._LOCKSTEP_CELLS + 100
        peaks = []
        for cells in (n, 4 * n):
            u = u_element_curve(params, rng.uniform(0.0, 50.0, cells), *_TRANSFER)
            # U32 = 0 puts every minimum, 0, at alpha = 0, so each descent only halves
            # its steps: this measures the lockstep's state, not the length of its work.
            u[3] = 0.0
            peaks.append(traced_peak(lambda: routing._worst_case(u, grid)))
        # 3n more cells of complex input (4 x 16 B) and float output (8 B).
        assert peaks[1] - peaks[0] <= 3 * n * (4 * 16 + 8)


class TestDensityMatrix:
    def test_valid_construction(self):
        rho = random_density()
        assert rho.dim == 6

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.eye(4, dtype=complex))

    def test_rejects_non_hermitian(self):
        m = np.eye(3, dtype=complex) / 3.0
        m[0, 1] = 0.1
        with pytest.raises(ValueError):
            DensityMatrix(m)

    def test_rejects_negative_eigenvalue(self):
        m = np.diag([1.1, -0.1, 0.0, 0.0]).astype(complex)
        with pytest.raises(ValueError):
            DensityMatrix(m)

    def test_from_pure(self):
        rho = DensityMatrix.from_pure(PureState(np.array([0.6, 0.8j])))
        assert np.trace(rho.entries) == pytest.approx(1.0, abs=1e-14)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=60),
    phi=st.floats(min_value=0.0, max_value=TWO_PI - 1e-9),
    t=st.floats(min_value=0.0, max_value=40.0),
)
def test_direction_phase_symmetry(n, phi, t):
    """Forward transfer at phi equals backward transfer at -phi."""
    forward = transition_probability(RouterParams(n, 1.0, phi), t, 1, 4)
    backward = transition_probability(RouterParams(n, 1.0, -phi), t, 4, 1)
    assert forward == pytest.approx(backward, abs=1e-10)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=60),
    beta=st.floats(min_value=-2.0, max_value=2.0),
    phi=st.floats(min_value=0.0, max_value=TWO_PI - 1e-9),
    t=st.floats(min_value=0.0, max_value=40.0),
)
def test_probability_bound(n, beta, phi, t):
    p = RouterParams(n, beta, phi)
    p14 = transition_probability(p, t, 1, 4)
    p16 = transition_probability(p, t, 1, 6)
    assert p14 + p16 <= 1.0 + 1e-10


def test_reduced_model_saturates_in_n():
    t, phi = 40.068, 4.716
    a = min_fidelity(RouterParams(10**3, 1.0, phi), t)
    b = min_fidelity(RouterParams(10**4, 1.0, phi), t)
    assert abs(a - b) < 0.01


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=200),
    beta=st.floats(min_value=-2.0, max_value=2.0),
    phi=st.floats(min_value=0.0, max_value=TWO_PI),
    t=st.floats(min_value=0.0, max_value=50.0),
)
def test_u_element_curve_matches_propagator(n, beta, phi, t):
    """Index-list and single-index elements agree with the full propagator matrix."""
    params = RouterParams(n, beta, phi)
    rows, cols = [3, 3, 2, 2, 5, 0], [0, 1, 0, 1, 0, 4]
    ts = np.array([0.0, t, 2.0 * t])
    curve = u_element_curve(params, ts, rows, cols)
    assert curve.shape == (len(rows), ts.size)
    for j, tj in enumerate(ts):
        u = propagator(build_reduced_hamiltonian(params), tj).matrix
        np.testing.assert_allclose(curve[:, j], u[rows, cols], rtol=0, atol=1e-12)
        np.testing.assert_allclose(
            u_element_curve(params, tj, rows, cols), u[rows, cols], rtol=0, atol=1e-12
        )
        np.testing.assert_allclose(
            u_element_curve(params, tj, 5, 0), u[5, 0], rtol=0, atol=1e-12
        )
    np.testing.assert_allclose(
        u_element_curve(params, ts, 3, 0), curve[0], rtol=0, atol=1e-15
    )
