import json
import math
import tracemalloc

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from qwrouter import (
    PeakReport,
    RouterParams,
    ScanGrid,
    ScanSurface,
    SuperpositionGrid,
    average_fidelity,
    find_peaks,
    min_fidelity,
    refine,
    scan,
    transition_probability,
)
from qwrouter import routing, search
from qwrouter.cli import main
from qwrouter.routing import _TRANSFER, _spectrum, _worst_case, elements, u_element_curve


def synthetic_surface(values, param_kind="phase"):
    values = np.asarray(values, dtype=float)
    nt, npar = values.shape
    return ScanSurface(
        values=values,
        t_values=np.linspace(0.0, nt - 1.0, nt),
        param_values=np.linspace(0.0, npar - 1.0, npar),
        param_kind=param_kind,
    )


def find_peaks_reference_keys(values, threshold):
    """Peak cells of the former loops: candidates, then equal-valued clusters."""
    nt, npar = values.shape
    candidate = np.zeros_like(values, dtype=bool)
    for i in range(nt):
        for j in range(npar):
            val = values[i, j]
            if val <= threshold:
                continue
            nbrs = [(i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1)]
            if any(0 <= a < nt and 0 <= b < npar and values[a, b] > val for a, b in nbrs):
                continue
            candidate[i, j] = True
    seen = np.zeros_like(candidate)
    cells = []
    for i in range(nt):
        for j in range(npar):
            if not candidate[i, j] or seen[i, j]:
                continue
            stack = [(i, j)]
            seen[i, j] = True
            while stack:
                ci, cj = stack.pop()
                for ni, nj in ((ci - 1, cj), (ci + 1, cj), (ci, cj - 1), (ci, cj + 1)):
                    if (
                        0 <= ni < nt
                        and 0 <= nj < npar
                        and candidate[ni, nj]
                        and not seen[ni, nj]
                        and values[ni, nj] == values[i, j]
                    ):
                        seen[ni, nj] = True
                        stack.append((ni, nj))
            cells.append((i, j))
    return cells


def refine_loop_reference(objective, start, bounds):
    """The former ``refine`` loop, with its default steps and ``tol = 1e-4``:
    (point, value, evaluations)."""
    (t_lo, t_hi), (p_lo, p_hi) = bounds
    t, p = float(start[0]), float(start[1])
    evaluations = 0

    def evaluate(tt, pp):
        nonlocal evaluations
        evaluations += 1
        return float(objective(tt, pp))

    best = evaluate(t, p)
    tol = 1e-4
    step_t = max((t_hi - t_lo) / 20.0, 10.0 * tol)
    step_p = max((p_hi - p_lo) / 20.0, 10.0 * tol)
    while step_t >= tol or step_p >= tol:
        improved = False
        for dt_, dp_ in ((step_t, 0.0), (-step_t, 0.0), (0.0, step_p), (0.0, -step_p)):
            cand_t = min(max(t + dt_, t_lo), t_hi)
            cand_p = min(max(p + dp_, p_lo), p_hi)
            if cand_t == t and cand_p == p:
                continue
            val = evaluate(cand_t, cand_p)
            if val > best:
                t, p, best = cand_t, cand_p, val
                improved = True
        if not improved:
            step_t *= 0.5
            step_p *= 0.5
    return (t, p), best, evaluations


class TestScanGrid:
    def test_rejects_single_step(self):
        with pytest.raises(ValueError):
            ScanGrid((0.0, 1.0, 1), (0.0, 1.0, 5), "phase")

    @pytest.mark.parametrize("steps", [2.5, math.nan, "5"])
    def test_rejects_steps_that_are_not_integers(self, steps):
        with pytest.raises(ValueError, match=r"^t_range: steps must be an integer, got "):
            ScanGrid((0.0, 1.0, steps), (0.0, 1.0, 5), "phase")
        with pytest.raises(ValueError, match=r"^param_range: steps must be an integer, got "):
            ScanGrid((0.0, 1.0, 5), (0.0, 1.0, steps), "phase")
        assert ScanGrid((0.0, 1.0, 3.0), (0.0, 1.0, 2), "phase").t_values().size == 3

    def test_rejects_inverted_range(self):
        with pytest.raises(ValueError):
            ScanGrid((1.0, 0.0, 5), (0.0, 1.0, 5), "phase")

    @pytest.mark.parametrize("lo, hi", [(-1e308, 1e308), (-math.inf, 0.0), (0.0, math.nan)])
    def test_rejects_a_span_beyond_the_float_range(self, lo, hi):
        # linspace steps by hi - lo: an infinite span would fill the axis with NaN.
        with pytest.raises(ValueError, match="param_range: bounds and their span max - min"):
            ScanGrid((0.0, 1.0, 3), (lo, hi, 2), "weight")
        with pytest.raises(ValueError, match="t_range: bounds and their span max - min"):
            ScanGrid((lo, hi, 3), (0.0, 1.0, 2), "weight")

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            ScanGrid((0.0, 1.0, 5), (0.0, 1.0, 5), "frequency")

    def test_axis_values(self):
        g = ScanGrid((0.0, 2.0, 3), (1.0, 4.0, 4), "weight")
        np.testing.assert_allclose(g.t_values(), [0.0, 1.0, 2.0])
        np.testing.assert_allclose(g.param_values(), [1.0, 2.0, 3.0, 4.0])


class TestScan:
    def test_localized_matches_pointwise_oracle(self):
        base = RouterParams(50, 1.0, 0.0)
        grid = ScanGrid((29.0, 31.0, 3), (20.0, 21.0, 11), "weight")
        surface = scan(base, grid, objective="localized")
        t = float(surface.t_values[1])
        p = float(surface.param_values[7])
        direct = transition_probability(RouterParams(50, p, 0.0), t, 1, 4)
        assert surface.values[1, 7] == pytest.approx(direct, abs=1e-12)
        # frozen spot value on the high-transfer ridge (beta ~ 0.69 t)
        assert surface.values[1, 7] == pytest.approx(0.946, abs=2e-3)

    def test_phase_scan_peak_window(self):
        base = RouterParams(40, 1.0, 0.0)
        grid = ScanGrid((14.0, 20.0, 61), (2.84, 3.44, 31), "phase")
        surface = scan(base, grid, objective="localized")
        i, j = np.unravel_index(np.argmax(surface.values), surface.values.shape)
        assert surface.values[i, j] > 0.8
        assert abs(surface.t_values[i] - 16.7) <= 1.0

    def test_deterministic(self):
        base = RouterParams(12, 1.0, 0.0)
        grid = ScanGrid((0.0, 10.0, 21), (0.0, 6.2, 16), "phase")
        a = scan(base, grid)
        b = scan(base, grid)
        np.testing.assert_array_equal(a.values, b.values)

    def test_statistics_objectives_ordered(self):
        base = RouterParams(20, 1.0, 0.0)
        grid = ScanGrid((18.4, 18.7, 3), (4.65, 4.75, 3), "phase")
        sp = SuperpositionGrid(9, 12)
        avg = scan(base, grid, objective="average", sp_grid=sp)
        worst = scan(base, grid, objective="worst_case", sp_grid=sp)
        assert np.all(worst.values <= avg.values + 1e-12)
        assert np.all((avg.values >= 0.0) & (avg.values <= 1.0))

    def test_average_columns_match_cells(self):
        # One average_fidelity call per column against the former per-cell loop.
        base = RouterParams(30, 1.0, 0.3)
        grid = ScanGrid((0.0, 40.0, 41), (0.2, 2.0, 7), "weight")
        for sp in (None, SuperpositionGrid(9, 12, "haar")):
            surface = scan(base, grid, objective="average", sp_grid=sp)
            for j, p in enumerate(surface.param_values.tolist()):
                params = RouterParams(30, p, 0.3)
                for i, t in enumerate(surface.t_values.tolist()):
                    assert abs(surface.values[i, j] - average_fidelity(params, t, sp)) <= 1e-15

    def test_worst_case_columns_match_cells(self):
        # One worst-case call for the whole surface against the former per-cell loop.
        base = RouterParams(30, 1.0, 0.3)
        grid = ScanGrid((0.0, 40.0, 21), (0.2, 2.0, 4), "weight")
        for sp in (None, SuperpositionGrid(9, 12, "haar")):
            surface = scan(base, grid, objective="worst_case", sp_grid=sp)
            for j, p in enumerate(surface.param_values.tolist()):
                params = RouterParams(30, p, 0.3)
                for i, t in enumerate(surface.t_values.tolist()):
                    assert abs(surface.values[i, j] - min_fidelity(params, t, sp)) <= 1e-15

    def test_scan_decomposes_each_chunk_of_columns_once(self, monkeypatch):
        # A scan of C columns makes ceil(C / chunk) batched eigh calls and no call of a
        # per-column statistic, nor of the spectrum reader behind them.
        calls = []
        real_eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh",
                            lambda a: calls.append(("eigh", np.shape(a))) or real_eigh(a))
        for module, name in ((routing, "transition_probability"),
                             (routing, "average_fidelity"), (routing, "min_fidelity"),
                             (routing, "_statistic"), (routing, "u_element_curve"),
                             (routing, "_spectrum")):
            real = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *args, name=name, real=real:
                                calls.append(name) or real(*args))
        monkeypatch.setattr(search, "_PHASE_BYTES", 96 * 3 * 4)  # 3 times: 4 columns a chunk
        grid = ScanGrid((0.0, 1.0, 3), (0.0, 1.0, 10), "phase")
        for objective in ("localized", "average", "worst_case"):
            calls.clear()
            scan(RouterParams(8, 1.0, 0.0), grid, objective, SuperpositionGrid(3, 4))
            assert calls == [("eigh", (4, 6, 6)), ("eigh", (4, 6, 6)), ("eigh", (2, 6, 6))]

    def test_scan_calls_the_elements_kernel_once_a_chunk(self, monkeypatch):
        # 10 columns in chunks of 4: three kernel calls, each on a chunk's stacked spectra,
        # and no call of the one-router reader.
        calls = []
        monkeypatch.setattr(search, "elements",
                            lambda w, *args: calls.append(w.shape) or elements(w, *args))
        monkeypatch.setattr(routing, "u_element_curve",
                            lambda *args: calls.append("u_element_curve"))
        monkeypatch.setattr(search, "_PHASE_BYTES", 96 * 3 * 4)  # 3 times: 4 columns a chunk
        grid = ScanGrid((0.0, 1.0, 3), (0.0, 1.0, 10), "weight")
        for objective in ("localized", "average", "worst_case"):
            calls.clear()
            scan(RouterParams(8, 1.0, 0.0), grid, objective, SuperpositionGrid(3, 4))
            assert calls == [(4, 6), (4, 6), (2, 6)]

    @pytest.mark.parametrize("objective", ["localized", "average", "worst_case"])
    def test_optimize_prints_the_statistic_at_its_point(self, objective):
        grid = SuperpositionGrid(5, 8)
        result = CliRunner().invoke(main, ["optimize", "--n", "20", "--t0", "18.4",
                                           "--param0", "4.7", "--objective", objective,
                                           "--alpha-points", "5", "--chi-points", "8"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["evaluations"] > 0
        params = RouterParams(20, 1.0, payload["param"])
        assert payload["value"] == routing._statistic(objective, params, payload["t"], grid)

    def test_wrong_matches_cells_for_every_objective(self):
        base = RouterParams(12, 0.8, 0.0)
        grid = ScanGrid((0.0, 20.0, 11), (0.0, 6.0, 5), "phase")
        surface = scan(base, grid)
        for j, p in enumerate(surface.param_values.tolist()):
            params = RouterParams(12, 0.8, p)
            for i, t in enumerate(surface.t_values.tolist()):
                cell = transition_probability(params, t, 1, 6)
                assert abs(surface.wrong[i, j] - cell) <= 1e-15
        with pytest.raises(ValueError):
            surface.wrong[0, 0] = 0.0
        sp = SuperpositionGrid(3, 4)
        for objective in ("average", "worst_case"):
            other = scan(base, grid, objective=objective, sp_grid=sp)
            np.testing.assert_array_equal(other.wrong, surface.wrong)

    def test_rejects_unknown_objective(self):
        base = RouterParams(5, 1.0, 0.0)
        grid = ScanGrid((0.0, 1.0, 2), (0.0, 1.0, 2), "phase")
        with pytest.raises(ValueError):
            scan(base, grid, objective="median")


def former_scan(base, grid, objective, sp_grid):
    """The former per-column scan: ``(values, wrong)`` from one statistic call per
    column and one ``P16`` call per column, stacked on the last axis."""
    ts = grid.t_values()
    columns = [search._with_param(base, grid.param_kind, p) for p in grid.param_values().tolist()]
    sp = SuperpositionGrid() if sp_grid is None else sp_grid
    wrong = np.stack([transition_probability(p, ts, 1, 6) for p in columns], axis=-1)
    if objective == "localized":
        values = np.stack([transition_probability(p, ts, 1, 4) for p in columns], axis=-1)
    elif objective == "average":
        values = np.stack([average_fidelity(p, ts, sp) for p in columns], axis=-1)
    else:
        values = _worst_case(
            np.stack([u_element_curve(p, ts, *_TRANSFER) for p in columns], axis=-1), sp)
    return values, wrong


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def former_u_element_curve(params, ts, rows, cols):
    """The former body of ``u_element_curve``, before it became the one-router case of
    ``elements``: a matvec for a scalar time, one ``(6, T)`` phase matrix per row of ``ts``
    otherwise."""
    w, q = _spectrum(params)
    ts = np.asarray(ts, dtype=float)
    coeffs = q[rows] * np.conj(q[cols])
    if ts.ndim == 0:
        return coeffs @ np.exp(-1j * (w * ts))
    u = coeffs @ np.exp(-1j * (w[:, None] * ts[..., None, :]))
    return u if coeffs.ndim == 1 else np.moveaxis(u, -2, 0)


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(2, 10**6),
    beta=st.floats(-40.0, 40.0),
    phi=st.floats(0.0, 6.28),
    shape=st.sampled_from([(), (0,), (1,), (7,), (3, 5), (1, 4), (2, 0)]),
    seed=st.integers(0, 2**32 - 1),
    element=st.sampled_from([(5, 0), (3, 0), (2, 4), _TRANSFER, ([5, 3], [0, 0])]),
)
def test_one_router_elements_match_former_u_element_curve(n, beta, phi, shape, seed, element):
    params = RouterParams(n, beta, phi)
    ts = np.random.default_rng(seed).uniform(0.0, 60.0, shape)
    ts = float(ts) if shape == () else ts
    former = former_u_element_curve(params, ts, *element)
    (u,) = elements(*_spectrum(params), ts, element)
    assert same_bits(u, former)
    assert same_bits(u_element_curve(params, ts, *element), former)
    # Several products share one phase tensor, each rounding as it does alone.
    p16, u = elements(*_spectrum(params), ts, (5, 0), element)
    assert same_bits(u, former)
    assert same_bits(p16, former_u_element_curve(params, ts, 5, 0))


CHUNK = 3  # columns a chunk, with _PHASE_BYTES patched for the grid's times


class TestColumnKernel:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(2, 10**6),
        kind=st.sampled_from(["phase", "weight"]),
        fixed=st.floats(-40.0, 40.0),
        lo=st.floats(-40.0, 40.0),
        width=st.floats(1e-3, 40.0),
        columns=st.sampled_from([CHUNK - 1, CHUNK + 1, 3 * CHUNK + 2]),
        t_lo=st.floats(0.0, 30.0),
        t_steps=st.integers(2, 6),
        objective=st.sampled_from(["localized", "average", "worst_case"]),
        sp_grid=st.sampled_from([None, SuperpositionGrid(5, 8, "haar")]),
    )
    def test_scan_matches_former_column_loop(self, n, kind, fixed, lo, width, columns, t_lo,
                                             t_steps, objective, sp_grid):
        base = (RouterParams(n, fixed, 0.7) if kind == "phase" else RouterParams(n, 0.9, fixed))
        grid = ScanGrid((t_lo, t_lo + 25.0, t_steps), (lo, lo + width, columns), kind)
        if objective == "worst_case" and sp_grid is None:
            sp_grid = SuperpositionGrid(9, 12)  # the default grid's descent is slow for a test
        values, wrong = former_scan(base, grid, objective, sp_grid)
        for chunk_bytes in (96 * t_steps * CHUNK, search._PHASE_BYTES):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(search, "_PHASE_BYTES", chunk_bytes)
                surface = scan(base, grid, objective, sp_grid)
            assert same_bits(surface.values, values)
            assert same_bits(surface.wrong, wrong)

    @pytest.mark.parametrize("objective", ["localized", "average", "worst_case"])
    def test_one_column_matches_former_column_loop(self, objective):
        ts = np.linspace(0.0, 40.0, 7)
        params = RouterParams(20, 1.3, 4.7)
        sp = SuperpositionGrid(5, 8)
        values, wrong = search._surface(20, np.array([1.3]), np.array([params.phi]), ts,
                                        objective, sp)
        if objective == "localized":
            expected = transition_probability(params, ts, 1, 4)
        elif objective == "average":
            expected = average_fidelity(params, ts, sp)
        else:
            expected = min_fidelity(params, ts, sp)
        assert same_bits(values, expected[:, None])
        assert same_bits(wrong, transition_probability(params, ts, 1, 6)[:, None])

    def test_overflow_in_a_later_chunk_raises_before_any_output(self, monkeypatch, tmp_path):
        # Only the largest weights overflow w t: the first chunks are finite.
        monkeypatch.setattr(search, "_PHASE_BYTES", 96 * 3 * CHUNK)
        grid = ScanGrid((0.0, 5e305, 3), (0.0, 1000.0, 11), "weight")
        with pytest.raises(ValueError, match="the phases w t overflow"):
            scan(RouterParams(5), grid)
        target = tmp_path / "surface.csv"
        result = CliRunner().invoke(main, ["scan", "weight", "--n", "5", "--t-max", "5e305",
                                           "--t-steps", "3", "--param-max", "1000",
                                           "--param-steps", "11", "--output", str(target)])
        assert result.exit_code == 2
        assert "the phases w t overflow" in result.output
        assert not target.exists()

    @pytest.mark.parametrize("objective", ["localized", "average"])
    def test_scratch_does_not_grow_with_columns(self, objective):
        ts = np.linspace(0.0, 50.0, 201)  # 13 columns a chunk

        def peak(columns):
            betas, phis = np.full(columns, 1.0), np.linspace(0.0, 6.0, columns)
            tracemalloc.start()
            try:
                search._surface(20, betas, phis, ts, objective, SuperpositionGrid(5, 8))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(120), peak(960)
        # Beyond the (len(ts), C) values and wrong arrays, at most 64 kB more.
        assert large - small <= 2 * 8 * ts.size * (960 - 120) + 2**16
        assert large - 2 * 8 * ts.size * 960 < 6 * 2**20


class TestScanSurface:
    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            ScanSurface(
                values=np.zeros((3, 4)),
                t_values=np.arange(3.0),
                param_values=np.arange(5.0),
                param_kind="phase",
            )


    def test_wrong_shape_mismatch(self):
        with pytest.raises(ValueError, match="wrong"):
            ScanSurface(
                values=np.zeros((3, 4)),
                t_values=np.arange(3.0),
                param_values=np.arange(4.0),
                param_kind="phase",
                wrong=np.zeros((4, 3)),
            )


class TestFindPeaks:
    def test_flat_low_surface_has_no_peaks(self):
        surface = synthetic_surface(np.full((8, 8), 0.2))
        assert find_peaks(surface, threshold=0.5) == []

    def test_single_gaussian_bump(self):
        t = np.linspace(0.0, 9.0, 10)[:, None]
        p = np.linspace(0.0, 9.0, 10)[None, :]
        vals = 0.9 * np.exp(-((t - 6.0) ** 2 + (p - 3.0) ** 2) / 4.0)
        surface = synthetic_surface(vals)
        peaks = find_peaks(surface, threshold=0.3)
        assert len(peaks) == 1
        assert peaks[0].location == (6.0, 3.0)
        assert peaks[0].value == pytest.approx(0.9)
        assert peaks[0].width_t > 0.0 and peaks[0].width_param > 0.0

    def test_axis_transposition_swaps_location_and_widths(self):
        rng = np.random.default_rng(4)
        vals = rng.uniform(0.0, 0.4, (7, 9))
        vals[2, 5] = 0.95
        vals[2, 4] = 0.7
        a = find_peaks(synthetic_surface(vals), threshold=0.5)
        b = find_peaks(synthetic_surface(vals.T), threshold=0.5)
        assert len(a) == len(b) == 1
        assert a[0].location == (b[0].location[1], b[0].location[0])
        assert a[0].width_t == b[0].width_param
        assert a[0].width_param == b[0].width_t

    def test_sorts_by_value_then_width(self):
        vals = np.zeros((11, 11))
        vals[2, 2] = 0.99  # tall, narrow
        vals[7, 3:8] = 0.6  # short, broad plateau
        vals[9, 9] = 0.6  # as short, narrow
        peaks = find_peaks(synthetic_surface(vals), threshold=0.5)
        assert [p.location for p in peaks] == [(2.0, 2.0), (7.0, 3.0), (9.0, 9.0)]
        assert [p.width_param for p in peaks] == [1.0, 5.0, 1.0]

    def test_plateau_counts_once(self):
        vals = np.zeros((6, 6))
        vals[3, 2:5] = 0.8
        peaks = find_peaks(synthetic_surface(vals), threshold=0.5)
        assert len(peaks) == 1

    def test_seeded_plateau_surfaces_match_former_loops(self):
        # Five levels make many plateaus, some touching higher or equal cells.
        rng = np.random.default_rng(2024)
        total = 0
        for _ in range(200):
            shape = tuple(int(k) for k in rng.integers(1, 12, 2))
            vals = rng.integers(0, 5, shape) / 5.0 + 0.1
            cells = find_peaks_reference_keys(vals, 0.3)
            peaks = find_peaks(synthetic_surface(vals), threshold=0.3)
            assert sorted(p.location for p in peaks) == sorted(
                (float(i), float(j)) for i, j in cells
            )
            for peak in peaks:
                i, j = (int(x) for x in peak.location)
                assert peak.value == vals[i, j]
            total += len(cells)
        assert total > 200

    def test_wrong_output_attached_with_base_params(self):
        base = RouterParams(40, 1.0, 0.0)
        grid = ScanGrid((15.5, 18.0, 26), (3.1, 3.44, 18), "phase")
        surface = scan(base, grid, objective="localized")
        peaks = find_peaks(surface, threshold=0.5)
        assert peaks
        top = peaks[0]
        assert top.value > 0.8
        assert top.wrong_output_prob is not None
        assert top.wrong_output_prob <= 0.05
        t_here, p_here = top.location
        assert top.wrong_output_prob == pytest.approx(
            transition_probability(RouterParams(40, 1.0, p_here), t_here, 1, 6),
            abs=1e-12,
        )

    def test_threshold_validation(self):
        surface = synthetic_surface(np.zeros((3, 3)))
        with pytest.raises(ValueError):
            find_peaks(surface, threshold=0.0)
        with pytest.raises(ValueError):
            find_peaks(surface, threshold=1.0)


class TestRefine:
    def test_quadratic_bowl(self):
        result = refine(
            lambda t, p: -((t - 1.3) ** 2 + (p - 2.1) ** 2),
            start=(0.5, 0.5),
            bounds=((0.0, 3.0), (0.0, 4.0)),
        )
        assert result.point[0] == pytest.approx(1.3, abs=1e-3)
        assert result.point[1] == pytest.approx(2.1, abs=1e-3)
        assert result.converged
        assert result.evaluations > 0

    def test_flat_objective_returns_start(self):
        result = refine(lambda t, p: 5.0, start=(1.0, 2.0), bounds=((0.0, 3.0), (0.0, 3.0)))
        assert result.point == (1.0, 2.0)
        assert result.value == 5.0
        assert result.converged

    def test_never_below_start(self):
        rng = np.random.default_rng(8)

        def bumpy(t, p):
            return float(np.sin(3 * t) * np.cos(2 * p))

        for _ in range(5):
            start = (float(rng.uniform(0, 3)), float(rng.uniform(0, 3)))
            result = refine(bumpy, start=start, bounds=((0.0, 3.0), (0.0, 3.0)))
            assert result.value >= bumpy(*start) - 1e-15

    def test_polishes_high_fidelity_region(self):
        def objective(t, phi):
            return average_fidelity(RouterParams(20, 1.0, phi), t)

        # Start on the ridge's attraction basin: the surface is a narrow
        # diagonal ridge in (t, phi), and axis-aligned ascent from far away
        # legitimately parks on a lower shoulder.
        result = refine(
            objective, start=(18.4, 4.70), bounds=((17.0, 20.0), (4.4, 5.0))
        )
        assert result.value >= 0.99

    def test_rejects_non_finite_objective(self):
        with pytest.raises(ValueError):
            refine(
                lambda t, p: float("nan"),
                start=(0.5, 0.5),
                bounds=((0.0, 1.0), (0.0, 1.0)),
            )

    def test_rejects_start_outside_bounds(self):
        with pytest.raises(ValueError):
            refine(lambda t, p: 0.0, start=(2.0, 0.5), bounds=((0.0, 1.0), (0.0, 1.0)))

    @pytest.mark.parametrize(
        "objective, start, bounds",
        [
            (lambda t, p: -((t - 1.3) ** 2 + (p - 2.1) ** 2), (0.5, 0.5), ((0.0, 3.0), (0.0, 4.0))),
            (lambda t, p: 5.0, (1.0, 2.0), ((0.0, 3.0), (0.0, 3.0))),
            (lambda t, p: float(np.sin(3 * t) * np.cos(2 * p)), (0.3, 2.2),
             ((0.0, 3.0), (0.0, 3.0))),
            (lambda t, p: float(np.sin(3 * t) * np.cos(2 * p)), (2.9, 0.1),
             ((0.0, 3.0), (0.0, 3.0))),
            (lambda t, p: t + p, (0.5, 0.5), ((0.0, 1.0), (0.0, 1.0))),
            # The optimum (5, -1) lies outside: the ascent ends on the corner (3, 0).
            (lambda t, p: -((t - 5.0) ** 2 + (p + 1.0) ** 2), (1.0, 2.0),
             ((0.0, 3.0), (0.0, 3.0))),
            (lambda t, phi: average_fidelity(RouterParams(20, 1.0, phi), t), (18.4, 4.70),
             ((17.0, 20.0), (4.4, 5.0))),
            # A zero span: both first steps are 10 * 1e-4.
            (lambda t, p: -((t - 1.3) ** 2 + (p - 2.1) ** 2), (1.0, 2.0), ((1.0, 1.0), (0.0, 4.0))),
        ],
    )
    def test_matches_former_loop(self, objective, start, bounds):
        result = refine(objective, start, bounds)
        point, value, evaluations = refine_loop_reference(objective, start, bounds)
        assert result.point == point
        assert result.value == value
        assert result.evaluations == evaluations

    @pytest.mark.parametrize(
        "bounds, message",
        [
            (((0.0, math.inf), (0.0, 1.0)), "t_max - t_min must be finite, got t_min = 0.0, "
                                             "t_max = inf"),
            (((-math.inf, 1.0), (0.0, 1.0)), "t_max - t_min must be finite, got t_min = -inf, "
                                              "t_max = 1.0"),
            (((0.0, 1.0), (0.0, math.nan)), "param_max - param_min must be finite, got "
                                             "param_min = 0.0, param_max = nan"),
            (((0.0, 1.0), (-1e308, 1e308)), "param_max - param_min must be finite, got "
                                             "param_min = -1e+308, param_max = 1e+308"),
        ],
    )
    def test_rejects_an_infinite_span(self, bounds, message):
        # Each first step is a twentieth of its span: an infinite one never halves below
        # 1e-4, so the ascent used to loop forever; a NaN one skipped it silently.
        calls = []

        def objective(t, p):
            calls.append((t, p))
            return t

        with pytest.raises(ValueError) as err:
            refine(objective, (0.5, 0.5), bounds)
        assert str(err.value) == "bounds and their span " + message
        assert calls == []

    def test_respects_bounds(self):
        result = refine(
            lambda t, p: t + p,  # pushes toward the upper corner
            start=(0.5, 0.5),
            bounds=((0.0, 1.0), (0.0, 1.0)),
        )
        assert result.point == (1.0, 1.0)
        assert result.value == pytest.approx(2.0)

    def test_int_bounds_give_float_point(self):
        # A clamped move lands on the bound itself; int bounds once gave (1, 1).
        seen = []

        def objective(t, p):
            seen.append((t, p))
            return t + p

        result = refine(objective, start=(0.5, 0.5), bounds=((0, 1), (0, 1)))
        assert result.point == (1.0, 1.0)
        assert all(type(x) is float for x in result.point)
        assert all(type(x) is float for point in seen for x in point)
        assert json.dumps(result.point) == "[1.0, 1.0]"


def test_removed_options_are_rejected():
    # Fixed refine steps, one peak order and an always-refined worst case.
    bowl = lambda t, p: -(t * t + p * p)  # noqa: E731
    bounds = ((0.0, 1.0), (0.0, 1.0))
    with pytest.raises(TypeError):
        refine(bowl, (0.5, 0.5), bounds, initial_step=(0.1, 0.1))
    with pytest.raises(TypeError):
        refine(bowl, (0.5, 0.5), bounds, tol=1e-3)
    with pytest.raises(TypeError):
        find_peaks(synthetic_surface(np.zeros((3, 3))), 0.5, sort_by="width")
    with pytest.raises(TypeError):
        min_fidelity(RouterParams(5), 1.0, refine=False)
