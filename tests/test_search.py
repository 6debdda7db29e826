import json
import math

import numpy as np
import pytest

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


def refine_loop_reference(objective, start, bounds, initial_step=None, tol=1e-4):
    """The former ``refine`` loop: (point, value, evaluations)."""
    (t_lo, t_hi), (p_lo, p_hi) = bounds
    t, p = float(start[0]), float(start[1])
    evaluations = 0

    def evaluate(tt, pp):
        nonlocal evaluations
        evaluations += 1
        return float(objective(tt, pp))

    best = evaluate(t, p)
    if initial_step is None:
        step_t = max((t_hi - t_lo) / 20.0, 10.0 * tol)
        step_p = max((p_hi - p_lo) / 20.0, 10.0 * tol)
    else:
        step_t, step_p = float(initial_step[0]), float(initial_step[1])
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

    def test_rejects_inverted_range(self):
        with pytest.raises(ValueError):
            ScanGrid((1.0, 0.0, 5), (0.0, 1.0, 5), "phase")

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

    def test_statistics_are_looked_up_when_called(self, monkeypatch):
        # Wrappers bound to the module's names, as a tracer installs, see the scan's calls:
        # one statistic call per column, or one worst case for the whole surface.
        from qwrouter import search

        calls = []
        for name in ("transition_probability", "average_fidelity", "u_element_curve",
                     "_worst_case"):
            real = getattr(search, name)
            monkeypatch.setattr(search, name, lambda *args, name=name, real=real:
                                calls.append(name) or real(*args))
        grid = ScanGrid((0.0, 1.0, 3), (0.0, 1.0, 4), "phase")
        expected = {
            "localized": ["transition_probability"] * 8,
            "average": ["average_fidelity"] * 4 + ["transition_probability"] * 4,
            "worst_case": ["u_element_curve"] * 4 + ["_worst_case"]
            + ["transition_probability"] * 4,
        }
        for objective, names in expected.items():
            calls.clear()
            scan(RouterParams(8, 1.0, 0.0), grid, objective, SuperpositionGrid(3, 4))
            assert calls == names

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

    def test_sorting_modes(self):
        vals = np.zeros((11, 11))
        vals[2, 2] = 0.99  # tall, narrow
        vals[7, 3:8] = 0.6  # short, broad plateau
        surface = synthetic_surface(vals)
        by_value = find_peaks(surface, threshold=0.5, sort_by="value")
        by_width = find_peaks(surface, threshold=0.5, sort_by="width")
        assert by_value[0].value == pytest.approx(0.99)
        assert by_width[0].value == pytest.approx(0.6)
        assert by_width[0].width_param == pytest.approx(5.0)

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
            for sort_by in ("value", "width"):
                peaks = find_peaks(synthetic_surface(vals), threshold=0.3, sort_by=sort_by)
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
        with pytest.raises(ValueError):
            find_peaks(surface, threshold=0.5, sort_by="area")


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
        "objective, start, bounds, initial_step",
        [
            (lambda t, p: -((t - 1.3) ** 2 + (p - 2.1) ** 2), (0.5, 0.5), ((0.0, 3.0), (0.0, 4.0)),
             None),
            (lambda t, p: 5.0, (1.0, 2.0), ((0.0, 3.0), (0.0, 3.0)), None),
            (lambda t, p: float(np.sin(3 * t) * np.cos(2 * p)), (0.3, 2.2),
             ((0.0, 3.0), (0.0, 3.0)), None),
            (lambda t, p: float(np.sin(3 * t) * np.cos(2 * p)), (2.9, 0.1),
             ((0.0, 3.0), (0.0, 3.0)), (0.4, 0.05)),
            (lambda t, p: t + p, (0.5, 0.5), ((0.0, 1.0), (0.0, 1.0)), None),
            # The optimum (5, -1) lies outside: the ascent ends on the corner (3, 0).
            (lambda t, p: -((t - 5.0) ** 2 + (p + 1.0) ** 2), (1.0, 2.0),
             ((0.0, 3.0), (0.0, 3.0)), None),
            (lambda t, phi: average_fidelity(RouterParams(20, 1.0, phi), t), (18.4, 4.70),
             ((17.0, 20.0), (4.4, 5.0)), None),
        ],
    )
    def test_matches_former_loop(self, objective, start, bounds, initial_step):
        result = refine(objective, start, bounds, initial_step=initial_step)
        point, value, evaluations = refine_loop_reference(objective, start, bounds, initial_step)
        assert result.point == point
        assert result.value == value
        assert result.evaluations == evaluations

    @pytest.mark.parametrize(
        "initial_step, tol",
        [
            (None, 0.0),
            (None, -1e-4),
            (None, math.nan),
            (None, math.inf),
            ((math.inf, 0.1), 1e-4),
            ((0.1, math.nan), 1e-4),
            ((0.0, 0.1), 1e-4),
            ((0.1, -0.1), 1e-4),
        ],
    )
    def test_rejects_bad_tol_or_step(self, initial_step, tol):
        # tol = 0 or an infinite step used to loop forever; NaN or non-positive
        # values used to skip the refinement silently.
        calls = []

        def objective(t, p):
            calls.append((t, p))
            return t

        with pytest.raises(ValueError, match="finite and > 0"):
            refine(objective, (0.5, 0.5), ((0.0, 1.0), (0.0, 1.0)), initial_step, tol)
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
