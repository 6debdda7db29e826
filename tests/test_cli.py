import json
import math
import os
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from qwrouter import (
    RouterParams,
    StaticNoiseFidelity,
    SuperpositionParams,
    build_full_hamiltonian,
    build_reduced_hamiltonian,
    routing_fidelity,
    transition_probability,
)
import qwrouter
from qwrouter import cli, hamiltonian, noise
from qwrouter.cli import main


@pytest.fixture
def runner():
    return CliRunner()


# Floats at and around the ends of the range where orjson's notation equals repr's
# (0 and 1e-4 <= |x| < 1e16), subnormal and normal extremes, and non-finite values.
EDGE_FLOATS = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, math.nextafter(1e-4, 0.0), 1e-4,
               math.nextafter(1e16, 0.0), 1e16, 1.0, 0.1 + 0.2, 1e-7, 5.7492118984331466e-05,
               1.7976931348623157e308, math.nan, math.inf]
EDGE_FLOATS += [-x for x in EDGE_FLOATS if x == x and x != 0.0]
# Any float64 bit pattern (every NaN payload, subnormals, both infinities), or an edge float.
ANY_FLOAT = st.one_of(
    st.integers(0, 2**64 - 1).map(lambda bits: struct.unpack("<d", bits.to_bytes(8, "little"))[0]),
    st.sampled_from(EDGE_FLOATS))


def as_complex(pairs):
    return np.array([[complex(re, im) for re, im in row] for row in pairs])


class TestHamiltonianCommand:
    def test_reduced_matches_library(self, runner):
        result = runner.invoke(main, ["hamiltonian", "--n", "2"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["kind"] == "reduced"
        assert payload["dim"] == 6
        expected = build_reduced_hamiltonian(RouterParams(2, 1.0, 0.0)).entries
        np.testing.assert_array_equal(as_complex(payload["matrix"]), expected)

    def test_full_dimension(self, runner):
        result = runner.invoke(main, ["hamiltonian", "--n", "3", "--full"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["kind"] == "full"
        assert payload["dim"] == 8
        assert len(payload["matrix"]) == 8

    @pytest.mark.parametrize("n", [2, 3, 7])
    @pytest.mark.parametrize("full", [True, False])
    @pytest.mark.parametrize("beta, phi", [("0.3", "1.1"), ("1e-7", "3.141592653589793")])
    def test_streamed_json_is_one_dump_byte_for_byte(self, runner, n, full, beta, phi):
        # The matrix is written a row at a time; the text is still one json.dumps, also
        # with exponents ("1e-07") and signed zeros among the entries.
        params = RouterParams(n, float(beta), float(phi))
        build = build_full_hamiltonian if full else build_reduced_hamiltonian
        matrix = build(params).entries
        payload = {"kind": "full" if full else "reduced", "n": n, "beta": params.beta,
                   "phi": params.phi, "dim": matrix.shape[0],
                   "matrix": [[[float(z.real), float(z.imag)] for z in row] for row in matrix]}
        result = runner.invoke(main, ["hamiltonian", "--n", str(n), "--beta", beta,
                                      "--phi", phi, "--full" if full else "--reduced"])
        assert result.exit_code == 0
        assert result.output == json.dumps(payload, indent=2) + "\n"

    def test_full_memory_is_a_few_matrices(self, runner, tmp_path):
        # n = 255: a 512 x 512 complex matrix is 4 MiB, and its 11 MB of JSON are written
        # a row at a time.  Building every entry as nested lists first traced 102 MiB.
        tracemalloc.start()
        try:
            result = runner.invoke(main, ["hamiltonian", "--full", "--n", "255",
                                          "--output", str(tmp_path / "h.json")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.exit_code == 0
        assert peak <= 4 * 512 * 512 * 16

    def test_invalid_n_exits_2(self, runner):
        result = runner.invoke(main, ["hamiltonian", "--n", "1"])
        assert result.exit_code == 2

    def test_output_file(self, runner, tmp_path):
        target = tmp_path / "h.json"
        result = runner.invoke(
            main, ["hamiltonian", "--n", "2", "--output", str(target)]
        )
        assert result.exit_code == 0
        assert json.loads(target.read_text())["dim"] == 6


SCAN_ARGS = [
    "scan", "phase", "--n", "4",
    "--t-min", "0", "--t-max", "1", "--t-steps", "3",
    "--param-min", "0", "--param-max", "1", "--param-steps", "2",
]


class TestScanCommand:
    def test_csv_shape_and_header(self, runner):
        result = runner.invoke(main, SCAN_ARGS)
        assert result.exit_code == 0
        lines = result.output.strip().split("\n")
        assert lines[0] == "t,param,fidelity,p_wrong"
        assert len(lines) == 1 + 3 * 2
        for line in lines[1:]:
            t, p, f, w = (float(x) for x in line.split(","))
            assert 0.0 <= f <= 1.0
            assert 0.0 <= w <= 1.0

    def test_values_match_library(self, runner):
        result = runner.invoke(main, SCAN_ARGS)
        rows = [line.split(",") for line in result.output.strip().split("\n")[1:]]
        for t_s, p_s, f_s, w_s in rows:
            params = RouterParams(4, 1.0, float(p_s))
            assert float(f_s) == pytest.approx(
                transition_probability(params, float(t_s), 1, 4), abs=1e-12
            )
            assert float(w_s) == pytest.approx(
                transition_probability(params, float(t_s), 1, 6), abs=1e-12
            )

    def test_byte_determinism(self, runner):
        a = runner.invoke(main, SCAN_ARGS)
        b = runner.invoke(main, SCAN_ARGS)
        assert a.output == b.output

    def test_degenerate_grid_exits_2(self, runner):
        result = runner.invoke(
            main, ["scan", "phase", "--n", "4", "--t-steps", "1"]
        )
        assert result.exit_code == 2

    @pytest.mark.parametrize("kind", ["phase", "weight"])
    @pytest.mark.parametrize("objective", ["localized", "average", "worst_case"])
    def test_writer_matches_former_cell_loop(self, runner, monkeypatch, kind, objective):
        args = ["scan", kind, "--n", "20", "--t-min", "17", "--t-max", "19.5",
                "--t-steps", "6", "--param-min", "0.5", "--param-max", "4.75",
                "--param-steps", "5", "--objective", objective,
                "--alpha-points", "5", "--chi-points", "8"]
        result = runner.invoke(main, args)
        assert result.exit_code == 0
        monkeypatch.setattr(cli, "_surface_csv", lambda *a: [surface_csv_reference(*a)])
        reference = runner.invoke(main, args)
        assert reference.exit_code == 0
        assert result.output == reference.output
        assert len(result.output.split("\n")) == 1 + 6 * 5 + 1

    def test_writer_matches_former_cell_loop_on_special_floats(self):
        # Every edge float stands in each of the t, param, fidelity and p_wrong columns.
        ts = ps = np.array(EDGE_FLOATS)
        values = np.resize(np.array(EDGE_FLOATS[1:] + EDGE_FLOATS[:1]), (ts.size, ps.size))
        wrong = values[::-1, ::-1].copy()
        text = "".join(cli._surface_csv(ts, ps, values, wrong))
        assert text == surface_csv_reference(ts, ps, values, wrong)
        rows = [line.split(",") for line in text.split("\n")[1:-1]]
        expected = {repr(x) for x in EDGE_FLOATS}
        assert all(set(column) == expected for column in zip(*rows))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 5), st.data())
    def test_writer_matches_former_cell_loop_on_any_float(self, t_count, p_count, data):
        def floats(count):
            return np.array(data.draw(st.lists(ANY_FLOAT, min_size=count, max_size=count)))

        ts, ps = floats(t_count), floats(p_count)
        values = floats(t_count * p_count).reshape(t_count, p_count)
        # A Fortran-ordered surface: its rows are not contiguous.
        wrong = np.asfortranarray(floats(t_count * p_count).reshape(t_count, p_count))
        text = "".join(cli._surface_csv(ts, ps, values, wrong))
        assert text == surface_csv_reference(ts, ps, values, wrong)

    def test_writer_matches_former_cell_loop_on_one_column(self):
        ts, ps = np.array([0.0, 0.5, 1e-5]), np.array([3.25])
        values, wrong = np.array([[0.25], [1e-9], [-0.0]]), np.array([[1e20], [0.5], [0.125]])
        text = "".join(cli._surface_csv(ts, ps, values, wrong))
        assert text == surface_csv_reference(ts, ps, values, wrong)
        assert text.count("\n") == 1 + 3

    def test_writer_matches_former_cell_loop_where_every_cell_takes_repr(self):
        # No cell of these rows is 0 or in [1e-4, 1e16), where orjson writes repr's digits.
        rng = np.random.default_rng(5)
        ts, ps = np.linspace(0.0, 2.0, 4), np.linspace(1.0, 3.0, 7)
        values = rng.uniform(1e-12, 9e-5, (4, 7)) * rng.choice([-1.0, 1.0], (4, 7))
        wrong = np.where(rng.random((4, 7)) < 0.5, rng.uniform(1e16, 1e300, (4, 7)), np.nan)
        wrong[1] = np.array(EDGE_FLOATS)[[2, 3, 4, 7, 10, 12, 13]]
        text = "".join(cli._surface_csv(ts, ps, values, wrong))
        assert text == surface_csv_reference(ts, ps, values, wrong)

    def test_writer_matches_former_cell_loop_below_1e_4(self, runner, monkeypatch):
        # The t and param texts below 1e-4 and the cells at their first row and column.
        args = ["scan", "phase", "--n", "20", "--t-min", "1e-5", "--t-max", "2",
                "--t-steps", "4", "--param-min", "1e-6", "--param-max", "0.5",
                "--param-steps", "3"]
        result = runner.invoke(main, args)
        assert result.exit_code == 0
        assert result.output.split("\n")[1].startswith("1e-05,1e-06,")
        monkeypatch.setattr(cli, "_surface_csv", lambda *a: [surface_csv_reference(*a)])
        assert runner.invoke(main, args).output == result.output

    def test_writer_yields_the_header_then_one_chunk_per_t_row(self):
        ts, ps = np.linspace(0.0, 1.0, 5), np.linspace(0.0, 2.0, 3)
        values, wrong = np.full((5, 3), 0.5), np.full((5, 3), 0.25)
        chunks = list(cli._surface_csv(ts, ps, values, wrong))
        assert chunks[0] == "t,param,fidelity,p_wrong\n"
        assert len(chunks) == 1 + 5
        for t, chunk in zip(ts.tolist(), chunks[1:]):
            assert chunk == "".join(f"{t!r},{p!r},0.5,0.25\n" for p in ps.tolist())


def surface_csv_reference(ts, ps, values, wrong):
    """The former scan writer: ``repr(float(x))`` of every numpy cell."""
    fmt = lambda x: repr(float(x))
    lines = ["t,param,fidelity,p_wrong"]
    for i, t in enumerate(ts):
        for j, p in enumerate(ps):
            lines.append(f"{fmt(t)},{fmt(p)},{fmt(values[i, j])},{fmt(wrong[i, j])}")
    return "\n".join(lines) + "\n"


class TestTable1Command:
    def test_single_row(self, runner):
        result = runner.invoke(main, ["table1", "--row", "1000000"])
        assert result.exit_code == 0
        report = json.loads(result.output)
        assert len(report) == 1
        entry = report[0]
        assert entry["n"] == 1000000
        assert entry["statistic"] == "minimum"
        assert entry["abs_diff"] <= 0.01

    def test_unknown_row_exits_2(self, runner):
        result = runner.invoke(main, ["table1", "--row", "99"])
        assert result.exit_code == 2


class TestNoiseCommand:
    def test_vonmises_csv(self, runner):
        result = runner.invoke(
            main,
            ["noise", "vonmises", "--n", "20", "--phi", "4.712", "--k", "2",
             "--t-max", "18.55", "--t-steps", "2"],
        )
        assert result.exit_code == 0
        lines = result.output.strip().split("\n")
        assert lines[0] == "t,fidelity,stderr"
        assert len(lines) == 3
        for line in lines[1:]:
            fields = line.split(",")
            assert len(fields) == 3
            assert fields[2] == ""  # quadrature average carries no MC error
        # static noise can only hurt at the noiseless peak
        t, f, _ = lines[-1].split(",")
        sp = SuperpositionParams(0.7, 3.0 * math.pi / 2.0)
        noiseless = routing_fidelity(RouterParams(20, 1.0, 4.712), float(t), sp)
        assert float(f) < noiseless

    def test_vonmises_requires_k(self, runner):
        result = runner.invoke(
            main, ["noise", "vonmises", "--n", "20", "--t-steps", "3"]
        )
        assert result.exit_code == 2

    def test_quad_points_option_is_gone(self, runner, tmp_path):
        result = runner.invoke(
            main, ["noise", "vonmises", "--n", "20", "--k", "2", "--quad-points", "200"]
        )
        assert result.exit_code == 2
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"noise": {"quad_points": 200}}))
        result = runner.invoke(main, ["--config", str(cfg), "noise", "vonmises", "--n", "20",
                                      "--k", "2"])
        assert result.exit_code == 2
        assert "quad_points" in result.output

    def test_ou_zero_volatility_matches_noiseless(self, runner):
        result = runner.invoke(
            main,
            ["noise", "ou", "--n", "20", "--phi", "4.712", "--sigma", "0",
             "--trajectories", "2", "--t-max", "2", "--t-steps", "5"],
        )
        assert result.exit_code == 0
        sp = SuperpositionParams(0.7, 3.0 * math.pi / 2.0)
        for line in result.output.strip().split("\n")[1:]:
            t_s, f_s, e_s = line.split(",")
            expected = routing_fidelity(RouterParams(20, 1.0, 4.712), float(t_s), sp)
            assert float(f_s) == pytest.approx(expected, abs=1e-6)
            assert float(e_s) >= 0.0

    def test_vonmises_warns_when_unconverged(self, runner, monkeypatch):
        args = ["noise", "vonmises", "--n", "20", "--phi", "4.712", "--k", "2",
                "--t-max", "2", "--t-steps", "3"]
        clean = runner.invoke(main, args)
        assert clean.exit_code == 0
        assert clean.stderr == ""
        real = cli.static_noise_fidelity

        def unconverged_at_one(params, t, sp, vm):
            value = real(params, t, sp, vm)
            if t != 1.0:
                return value
            return StaticNoiseFidelity(float(value), converged=False, points_used=8256)

        monkeypatch.setattr(cli, "static_noise_fidelity", unconverged_at_one)
        result = runner.invoke(main, args)
        assert result.exit_code == 0
        assert result.stdout == clean.stdout
        warnings = result.stderr.strip().split("\n")
        assert len(warnings) == 1
        assert "t=1.0 (points_used=8256)" in warnings[0]
        assert "t=0.0" not in warnings[0] and "t=2.0" not in warnings[0]

    def test_ou_single_trajectory_exits_2(self, runner):
        result = runner.invoke(main, ["noise", "ou", "--n", "20", "--trajectories", "1"])
        assert result.exit_code == 2
        assert "trajectories" in result.output

    def test_ou_t_max_below_one_step_exits_2(self, runner):
        result = runner.invoke(
            main, ["noise", "ou", "--n", "20", "--t-max", "1", "--dt", "5"]
        )
        assert result.exit_code == 2
        assert result.stdout == ""

    def test_ou_beta_dt_beyond_fourier_limit_exits_2(self, runner):
        result = runner.invoke(
            main, ["noise", "ou", "--n", "20", "--beta", "1000", "--dt", "1",
                   "--t-max", "2", "--trajectories", "2"]
        )
        assert result.exit_code == 2
        assert "smaller dt" in result.output

    def test_ou_trajectory_steps_beyond_bound_exits_2(self, runner, monkeypatch):
        # 1e13 trajectories x 5 steps exceed the 1e12 trajectory-steps a run may take;
        # the request is rejected before any path is drawn.
        def never(*args):
            raise AssertionError("a path was drawn")

        monkeypatch.setattr(noise, "_phase_paths", never)
        result = runner.invoke(
            main, ["noise", "ou", "--n", "20", "--trajectories", "10000000000000",
                   "--t-max", "0.05"]
        )
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr.splitlines()[-1] == (
            "Error: trajectories x round(t_max / dt) must be at most 1e+12 trajectory-steps, "
            "got trajectories = 10000000000000, t_max = 0.05, dt = 0.01"
        )

    def test_ou_paths_beyond_memory_name_t_max_and_dt(self, runner, monkeypatch):
        # 1e9 steps x 2 trajectories of paths (16 GB): the failure is simulated, so
        # nothing large is ever allocated.
        def no_memory(*args):
            raise MemoryError

        monkeypatch.setattr(noise, "_phase_paths", no_memory)
        result = runner.invoke(
            main, ["noise", "ou", "--n", "5", "--t-max", "100000", "--dt", "0.0001",
                   "--trajectories", "2", "--t-steps", "3"]
        )
        assert result.exit_code == 2
        assert result.stdout == ""
        error = result.stderr.splitlines()[-1]
        assert error == (
            "Error: one block's phase paths (round(--t-max / --dt) = 1000000000 steps x up "
            "to 2 trajectories: 1.6e+10 bytes) does not fit in memory; lower --t-max or "
            "raise --dt"
        )

    def test_ou_huge_t_steps_prints_only_distinct_times(self, runner):
        # 1e14 requested times over 10 steps of dt: the grid is never built in full.
        args = ["noise", "ou", "--n", "5", "--t-steps", "100000000000000",
                "--trajectories", "2", "--t-max", "0.1"]
        result = runner.invoke(main, args)
        assert result.exit_code == 0
        assert len(result.stdout.strip().split("\n")) == 1 + 11
        warnings = result.stderr.strip().split("\n")
        assert len(warnings) == 1
        assert "100000000000000 snapshot times requested" in warnings[0]
        assert "only 11 are distinct" in warnings[0]

    def test_ou_warns_when_snapshot_times_collide(self, runner):
        args = ["noise", "ou", "--n", "20", "--trajectories", "4",
                "--t-max", "0.05", "--t-steps", "11"]
        result = runner.invoke(main, args)
        assert result.exit_code == 0
        assert len(result.stdout.strip().split("\n")) == 1 + 6
        warnings = result.stderr.strip().split("\n")
        assert len(warnings) == 1
        assert "11 snapshot times requested" in warnings[0]
        assert "only 6 are distinct" in warnings[0] and "dt=0.01" in warnings[0]

    def test_ou_distinct_snapshot_times_do_not_warn(self, runner):
        # The benchmark's OU grid: 101 times over t-max 5 at dt 0.01.
        args = ["noise", "ou", "--n", "20", "--phi", "4.712", "--trajectories", "4",
                "--t-max", "5"]
        result = runner.invoke(main, args)
        assert result.exit_code == 0
        assert len(result.stdout.strip().split("\n")) == 1 + 101
        assert result.stderr == ""

    def test_config_may_set_either_models_keys(self, runner, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"noise": {"k": 2.0, "trajectories": 3, "seed": 5}}))
        args = ["noise", "{}", "--n", "5", "--t-max", "0.05", "--t-steps", "3"]
        for model, flags in (("ou", ["--trajectories", "3", "--seed", "5"]),
                             ("vonmises", ["--k", "2"])):
            argv = [model if a == "{}" else a for a in args]
            configured = runner.invoke(main, ["--config", str(cfg)] + argv)
            assert configured.exit_code == 0, configured.output
            assert configured.stdout == runner.invoke(main, argv + flags).stdout

    def test_ou_huge_mu_is_reduced_modulo_two_pi(self, runner):
        # X_0 = mu + sqrt(var) z would round to mu = 1e300: every trajectory the same.
        args = ["noise", "ou", "--n", "20", "--phi", "4.712", "--trajectories", "200",
                "--t-max", "1", "--t-steps", "3", "--mu"]
        huge = runner.invoke(main, args + ["1e300"])
        reduced = runner.invoke(main, args + [repr(1e300 % (2.0 * math.pi))])
        assert huge.exit_code == 0 and reduced.exit_code == 0
        assert huge.stdout == reduced.stdout
        stderrs = [float(line.split(",")[2]) for line in huge.stdout.splitlines()[2:]]
        assert len(stderrs) == 2 and min(stderrs) > 1e-4

    def test_ou_seeded_runs_identical(self, runner):
        args = ["noise", "ou", "--n", "8", "--trajectories", "20",
                "--t-max", "1", "--t-steps", "4", "--seed", "99"]
        a = runner.invoke(main, args)
        b = runner.invoke(main, args)
        assert a.exit_code == 0
        assert a.output == b.output


class TestVerifyReductionCommand:
    def test_passes_on_clean_install(self, runner):
        result = runner.invoke(
            main, ["verify-reduction", "--n-max", "4", "--trials", "5"]
        )
        assert result.exit_code == 0
        assert "PASS" in result.output
        assert "FAIL" not in result.output

    def test_zero_tolerance_and_largest_graph_are_accepted(self, runner, monkeypatch):
        # The bounds are inclusive: 0 is a valid tolerance, and n_max may reach the cap
        # (lowered here to dimension 8, so that the check stays small).
        monkeypatch.setattr(hamiltonian, "_FULL_DIM_MAX", 8)
        result = runner.invoke(
            main, ["verify-reduction", "--n-max", "3", "--trials", "2", "--tolerance", "0"])
        assert result.exit_code in (0, 1)
        assert "(tolerance 0.0e+00)" in result.output
        assert result.output.count("max deviation") == 3

    def test_detects_corrupted_isometry(self, runner, monkeypatch):
        clean = hamiltonian.reduction_isometry

        def corrupted(n):
            v = clean(n).copy()
            v[0, 0] += 1e-3
            return v

        monkeypatch.setattr(hamiltonian, "reduction_isometry", corrupted)
        result = runner.invoke(
            main, ["verify-reduction", "--n-max", "3", "--trials", "3"]
        )
        assert result.exit_code == 1
        assert "FAIL" in result.output


class TestOptimizeCommand:
    def test_improves_on_start(self, runner):
        result = runner.invoke(
            main,
            ["optimize", "--n", "20", "--t0", "18.0", "--param0", "4.6",
             "--kind", "phase", "--objective", "localized"],
        )
        assert result.exit_code == 0
        payload = json.loads(result.output)
        start_value = transition_probability(RouterParams(20, 1.0, 4.6), 18.0, 1, 4)
        assert payload["value"] >= start_value
        assert payload["converged"] is True
        assert payload["evaluations"] > 0

    def test_missing_start_exits_2(self, runner):
        result = runner.invoke(main, ["optimize", "--n", "20", "--t0", "18.0"])
        assert result.exit_code == 2


@pytest.mark.parametrize("command", ["scan", "optimize"])
def test_objective_choices_are_the_objectives_table(command):
    from qwrouter.routing import _OBJECTIVES

    (option,) = [p for p in main.commands[command].params if p.name == "objective"]
    assert list(option.type.choices) == list(_OBJECTIVES)


# Invalid inputs covering every subcommand and each kind of failure (a huge n, an
# unwritable output, overflowing phases, library validation), with the exit-2 message.
INVALID_INPUTS = [
    (["hamiltonian", "--n", str(10**400)],
     "n_outputs must be at most 1.7976931348623157e+308"),
    (["hamiltonian", "--n", "3", "--output", "{missing}"],
     "cannot write output file: [Errno 2] No such file or directory: '{missing}'"),
    (["scan", "weight", "--n", "5", "--t-steps", "3", "--param-steps", "2", "--t-max", "1e308"],
     "t is too large: the phases w t overflow for this Hamiltonian"),
    (["noise", "vonmises", "--n", "5", "--k", "1", "--t-steps", "2", "--t-max", "1e308"],
     "t is too large: the phases w t overflow for this Hamiltonian"),
    (["hamiltonian", "--n", "1"], "n_outputs must be >= 2"),
    (["scan", "phase", "--n", "4", "--t-steps", "1"], "t_range: steps must be >= 2"),
    (["scan", "phase", "--n", "4", "--alpha-points", "0"], "grid must be non-empty"),
    (["table1", "--chi-points", "-3"], "grid must be non-empty"),
    (["noise", "vonmises", "--n", "20", "--k", "-1", "--t-steps", "3"],
     "k must be finite and >= 0"),
    (["noise", "vonmises", "--n", "20", "--k", "1", "--alpha", "2"], "alpha must lie in [0, 1]"),
    (["noise", "ou", "--n", "20", "--theta", "0", "--trajectories", "2", "--t-max", "0.1"],
     "theta must be finite and > 0"),
    (["noise", "ou", "--n", "20", "--trajectories", "1"],
     "need at least 2 trajectories for ensemble statistics"),
    (["noise", "ou", "--n", "20", "--phi", "4.712", "--trajectories", "50", "--t-max", "5",
      "--t-steps", "6", "--theta", "300"],
     "theta * dt must be < 2 for the Euler-Maruyama step to contract, got theta = 300.0, "
     "dt = 0.01"),
    (["noise", "ou", "--n", "20", "--trajectories", "50", "--t-max", "5", "--theta", "1e308"],
     "theta * dt must be < 2 for the Euler-Maruyama step to contract, got theta = 1e+308, "
     "dt = 0.01"),
    (["noise", "ou", "--n", "5", "--trajectories", "2", "--t-max", "0.1", "--sigma", "1e200"],
     "the stationary variance sigma_vol**2 / (2 theta) must be finite, got sigma_vol = 1e+200, "
     "theta = 1.0"),
    (["scan", "weight", "--n", "5", "--t-steps", "3", "--param-steps", "2", "--param-min",
      "-1e308", "--param-max", "1e308"],
     "param_range: bounds and their span max - min must be finite, got -1e+308 to 1e+308"),
    (["verify-reduction", "--n-max", "1"], "n_max must be >= 2"),
    (["verify-reduction", "--seed", "-5"],
     "Invalid value for '--seed': -5 is not in the range x>=0."),
    (["optimize", "--n", "20", "--t0", "99", "--param0", "1"],
     "start must lie within bounds, got (t, param) = (99.0, 1.0) for t in [0.0, 50.0], "
     "param in [0.0, 6.283185307179586]"),
    (["optimize", "--n", "5", "--t0", "60", "--param0", "1"],
     "start must lie within bounds, got (t, param) = (60.0, 1.0) for t in [0.0, 50.0], "
     "param in [0.0, 6.283185307179586]"),
    # The default --param-max of 40 is named, although it was never typed.
    (["scan", "weight", "--n", "5", "--param-min", "50"],
     "param_range: min must be < max, got 50.0 to 40.0"),
    # Step counts that used to overflow int() or numpy's dimension limit; nothing is allocated.
    (["noise", "ou", "--n", "5", "--trajectories", "4", "--t-max", "1e308", "--dt", "1e-10",
      "--t-steps", "3"],
     "t_max / dt must be a finite number of steps, got trajectories = 4, t_max = 1e+308, "
     "dt = 1e-10"),
    (["noise", "ou", "--n", "5", "--trajectories", "4", "--t-max", "0.1", "--dt", "1e-300",
      "--t-steps", "3"],
     "trajectories x round(t_max / dt) must be at most 1e+12 trajectory-steps, got "
     "trajectories = 4, t_max = 0.1, dt = 1e-300"),
    (["optimize", "--n", "20", "--t0", "1", "--param0", "1", "--alpha-points", "0"],
     "grid must be non-empty"),
    (["noise", "ou", "--n", "5", "--t-steps", str(10**400), "--trajectories", "2",
      "--t-max", "0.1"], "snapshots must be >= 2 and at most 1.7976931348623157e+308"),
    (["noise", "vonmises", "--n", "5", "--k", "1", "--t-steps", str(10**400)],
     "t-steps must be >= 2 and at most 1.7976931348623157e+308"),
    (["noise", "vonmises", "--n", "5", "--k", "1", "--t-max", "1e307", "--t-steps", "100"],
     "the row times j * t-max / (t-steps - 1) overflow: (--t-steps - 1) * --t-max "
     "= 99 * 1e+307 exceeds 1.7976931348623157e+308; lower --t-max or --t-steps"),
    *[(["verify-reduction", "--n-max", "3", "--tolerance", value],
       "--tolerance must be finite and >= 0") for value in ("nan", "-1", "inf")],
    # The full graph is capped at dimension 2048 before anything is allocated: 10^6
    # outputs would be a 16 TB matrix.
    *[(["verify-reduction", "--n-max", n],
       f"n_max must be at most 1023, so that the full graph's dimension 2 (n + 1) is at most "
       f"2048; got {n}") for n in ("1024", "1000000")],
    *[(["hamiltonian", "--full", "--n", n],
       f"n must be at most 1023, so that the full graph's dimension 2 (n + 1) is at most "
       f"2048; got {n}") for n in ("1024", "1000000")],
    (["optimize", "--n", "20", "--t0", "18.4", "--param0", "4.70", "--t-max", "inf"],
     "bounds and their span t_max - t_min must be finite, got t_min = 0.0, t_max = inf"),
    # LAPACK cannot decompose weights this large; the error names the inputs.
    (["scan", "weight", "--n", "5", "--t-steps", "2", "--param-steps", "2", "--param-min",
      "1e300", "--param-max", "1.7e308"],
     "no eigendecomposition of the reduced Hamiltonian at n=5, beta in [1e+300, 1.7e+308], "
     "phi in [0.0, 0.0]: Eigenvalues did not converge"),
    (["optimize", "--n", "5", "--t0", "1", "--param0", "1e300", "--kind", "weight",
      "--param-max", "1.7e308"],
     "no eigendecomposition of the reduced Hamiltonian at n=5, beta in [1e+300, 1e+300], "
     "phi in [0.0, 0.0]: Eigenvalues did not converge"),
    # A flag that the chosen noise model would ignore, valid or not, even at its default.
    (["noise", "vonmises", "--n", "5", "--k", "1", "--t-max", "0.1", "--t-steps", "2",
      "--trajectories", "1", "--dt", "-3", "--seed", "5"],
     "the vonmises model does not read --dt, --trajectories, --seed, which only the ou "
     "model reads"),
    *[(["noise", "vonmises", "--n", "5", "--k", "1", flag, default],
       f"the vonmises model does not read {flag}, which only the ou model reads")
      for flag, default in (("--theta", "1"), ("--sigma", "0.4"), ("--mu", "0"),
                            ("--dt", "0.01"), ("--trajectories", "2000"), ("--seed", "777"))],
    (["noise", "ou", "--n", "5", "--trajectories", "3", "--t-max", "0.05", "--t-steps", "3",
      "--k", "-5"],
     "the ou model does not read --k, which only the vonmises model reads"),
]


def test_request_beyond_memory_exits_2(runner):
    # 1e14 float64 times (800 TB) exceed the 47-bit address space, so allocating
    # them fails before any memory is touched.
    result = runner.invoke(main, ["scan", "phase", "--n", "5", "--t-steps", "100000000000000"])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert "Traceback" not in result.output
    error = result.stderr.splitlines()[-1]
    assert error.startswith("Error: the request does not fit in memory: Unable to allocate")


def test_optimize_nan_start_names_the_start_and_bounds(runner):
    # Kept out of INVALID_INPUTS, whose rows must not print "nan": here the start is nan.
    result = runner.invoke(main, ["optimize", "--n", "5", "--t0", "nan", "--param0", "1"])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.splitlines()[-1] == (
        "Error: start must lie within bounds, got (t, param) = (nan, 1.0) for t in "
        "[0.0, 50.0], param in [0.0, 6.283185307179586]"
    )


@pytest.mark.parametrize("args, message", INVALID_INPUTS)
def test_invalid_input_exits_2_with_one_error_line(runner, tmp_path, args, message):
    missing = str(tmp_path / "missing" / "out.txt")
    result = runner.invoke(main, [a.replace("{missing}", missing) for a in args])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert "Traceback" not in result.output
    assert "nan" not in result.output
    lines = result.stderr.splitlines()
    assert lines[-1] == "Error: " + message.replace("{missing}", missing)
    assert lines[1] == f"Try 'main {args[0]} --help' for help."


def traced_peak(run) -> int:
    """Peak bytes traced by ``tracemalloc`` while ``run()`` executes."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestStreamedOutput:
    def test_surface_keeps_one_row_of_text(self):
        # The joined text of this 501x401 surface is about 40 MB; one row is about 32 kB.
        rng = np.random.default_rng(11)
        ts, ps = np.linspace(0.0, 50.0, 501), np.linspace(0.0, 40.0, 401)
        values, wrong = rng.random((501, 401)), rng.random((501, 401))
        peak = traced_peak(lambda: cli._emit(cli._surface_csv(ts, ps, values, wrong),
                                             os.devnull))
        assert peak < 2 * 2**20

    def test_vonmises_keeps_one_row_of_text(self, runner, monkeypatch, tmp_path):
        monkeypatch.setattr(cli, "static_noise_fidelity",
                            lambda params, t, sp, vm: StaticNoiseFidelity(0.5, True, 8))
        target = tmp_path / "curve.csv"
        results = []
        peak = traced_peak(lambda: results.append(runner.invoke(
            main, ["noise", "vonmises", "--n", "20", "--k", "2", "--t-max", "25",
                   "--t-steps", "200000", "--output", str(target)])))
        assert results[0].exit_code == 0
        assert peak < 2 * 2**20
        with open(target, "rb") as fh:
            assert sum(1 for _ in fh) == 1 + 200000

    def test_vonmises_failure_mid_stream_keeps_the_rows_written(self, runner, monkeypatch,
                                                                 tmp_path):
        def fails_at_one(params, t, sp, vm):
            if t == 1.0:
                raise ValueError("quadrature failed")
            return StaticNoiseFidelity(0.5, True, 8)

        monkeypatch.setattr(cli, "static_noise_fidelity", fails_at_one)
        target = tmp_path / "curve.csv"
        result = runner.invoke(main, ["noise", "vonmises", "--n", "20", "--k", "2",
                                      "--t-max", "2", "--t-steps", "3", "--output", str(target)])
        assert result.exit_code == 2
        assert result.stderr.splitlines()[-1] == "Error: quadrature failed"
        assert target.read_text() == "t,fidelity,stderr\n0.0,0.5,\n"

    def test_closed_pipe_ends_quietly_with_exit_0(self):
        # Like `qwrouter scan weight --n 50 | head -1`: the reader leaves mid-stream.
        env = dict(os.environ)
        src = str(Path(qwrouter.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.Popen([sys.executable, "-m", "qwrouter.cli", "scan", "weight",
                                 "--n", "50"], stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, env=env)
        first = proc.stdout.readline()
        proc.stdout.close()
        _, stderr = proc.communicate(timeout=120)
        assert first == b"t,param,fidelity,p_wrong\n"
        assert b"Traceback" not in stderr
        assert stderr == b""
        assert proc.returncode == 0

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
    def test_full_stdout_exits_2_with_one_error_line(self):
        # Like `qwrouter hamiltonian --n 3 > /dev/full`: every write fails with ENOSPC.
        env = dict(os.environ)
        src = str(Path(qwrouter.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "qwrouter.cli", "hamiltonian", "--n", "3"],
                stdout=full, stderr=subprocess.PIPE, env=env, timeout=120)
        stderr = proc.stderr.decode()
        assert proc.returncode == 2
        assert "Traceback" not in stderr
        assert stderr.splitlines()[-1] == (
            "Error: cannot write to stdout: [Errno 28] No space left on device")


OUTPUT_COMMANDS = [
    ["scan", "weight", "--n", "5", "--t-steps", "4", "--param-steps", "3"],
    ["noise", "vonmises", "--n", "20", "--k", "2", "--t-max", "2", "--t-steps", "3"],
    ["noise", "ou", "--n", "20", "--trajectories", "4", "--t-max", "0.1", "--t-steps", "3"],
    ["table1", "--row", "20", "--alpha-points", "5", "--chi-points", "8"],
    ["optimize", "--n", "20", "--t0", "18.4", "--param0", "4.7"],
    ["verify-reduction", "--n-max", "3", "--trials", "2"],
    ["hamiltonian", "--n", "3"],
]


@pytest.mark.parametrize("args", OUTPUT_COMMANDS, ids=lambda a: " ".join(a[:2]))
def test_output_file_holds_the_stdout_bytes(runner, tmp_path, args):
    target = tmp_path / "out"
    printed = runner.invoke(main, args)
    written = runner.invoke(main, [*args, "--output", str(target)])
    assert printed.exit_code == written.exit_code == 0
    assert written.stdout_bytes == b""
    assert printed.stdout_bytes.endswith(b"\n")
    assert target.read_bytes() == printed.stdout_bytes


class TestConfigFile:
    def write_config(self, tmp_path, data):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data))
        return str(path)

    def test_config_supplies_required_option(self, runner, tmp_path):
        cfg = self.write_config(tmp_path, {"hamiltonian": {"n": 2}})
        result = runner.invoke(main, ["--config", cfg, "hamiltonian"])
        assert result.exit_code == 0
        assert json.loads(result.output)["n"] == 2

    def test_flag_overrides_config(self, runner, tmp_path):
        cfg = self.write_config(tmp_path, {"hamiltonian": {"n": 2, "beta": 3.0}})
        result = runner.invoke(main, ["--config", cfg, "hamiltonian", "--n", "3"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["n"] == 3  # flag wins
        assert payload["beta"] == 3.0  # config beats the built-in default

    def test_env_var_names_config(self, runner, tmp_path):
        cfg = self.write_config(tmp_path, {"hamiltonian": {"n": 4}})
        result = runner.invoke(main, ["hamiltonian"], env={"QWROUTER_CONFIG": cfg})
        assert result.exit_code == 0
        assert json.loads(result.output)["n"] == 4

    def test_unknown_key_rejected(self, runner, tmp_path):
        cfg = self.write_config(tmp_path, {"hamiltonian": {"qqq": 1}})
        result = runner.invoke(main, ["--config", cfg, "hamiltonian", "--n", "2"])
        assert result.exit_code == 2
        assert "qqq" in result.output

    def test_unknown_section_rejected(self, runner, tmp_path):
        cfg = self.write_config(tmp_path, {"bogus": {"n": 2}})
        result = runner.invoke(main, ["--config", cfg, "hamiltonian", "--n", "2"])
        assert result.exit_code == 2
        assert "bogus" in result.output

    def test_malformed_json_rejected(self, runner, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        result = runner.invoke(main, ["--config", str(path), "hamiltonian", "--n", "2"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("args", [
        ["scan", "phase", "--n", "6", "--t-steps", "3", "--param-steps", "2",
         "--objective", "average"],
        ["optimize", "--n", "20", "--t0", "18.4", "--param0", "4.7", "--objective", "average"],
        ["table1", "--row", "20"],
    ])
    def test_config_sets_superposition_grid(self, runner, tmp_path, args):
        cfg = self.write_config(tmp_path, {args[0]: {"alpha_points": 3, "chi_points": 4}})
        from_config = runner.invoke(main, ["--config", cfg, *args])
        from_flags = runner.invoke(main, [*args, "--alpha-points", "3", "--chi-points", "4"])
        default = runner.invoke(main, args)
        assert from_config.exit_code == from_flags.exit_code == default.exit_code == 0
        assert from_config.output == from_flags.output != default.output
