"""Command-line front end.

Subcommands emit CSV (curves/surfaces) or JSON (matrices/reports) with full
round-trip float formatting, so repeated runs with the same flags and seed
produce byte-identical output.  CSV is written as it is formatted (``_emit``),
one row, or one ``t``-row of a surface, at a time.  A JSON config file
(sections named after subcommands, keys named after flags with underscores)
can supply defaults; explicit flags win over the config, the config wins over
built-ins.  The ``QWROUTER_CONFIG`` environment variable names a default
config path.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
from collections.abc import Iterable, Iterator
from itertools import chain

import click
import numpy as np

from .dynamics import verify_reduction
from .hamiltonian import (
    TWO_PI,
    RouterParams,
    build_full_hamiltonian,
    build_reduced_hamiltonian,
)
from .noise import (
    _TRAJECTORY_BLOCK,
    OUSpec,
    StaticNoiseFidelity,
    VonMisesSpec,
    ou_fidelity_curve,
    static_noise_fidelity,
)
from .routing import (
    _OBJECTIVES,
    SuperpositionGrid,
    SuperpositionParams,
    _statistic,
    average_fidelity,
    input_state,
    min_fidelity,
    target_state,
)
from .search import ScanGrid, _with_param, refine, scan

# The five tabulated high-fidelity configurations (n, t, phi, statistic, reference).
TABLE1_ROWS = (
    (20, 18.550, 4.712, "average", 0.993),
    (20, 18.523, 4.708, "minimum", 0.984),
    (70, 18.397, 4.758, "average", 0.987),
    (70, 18.484, 4.765, "minimum", 0.976),
    (1000000, 40.068, 4.716, "minimum", 0.995),
)

_CHI_DEFAULT = 3.0 * math.pi / 2.0
# The flags that only one noise model reads.
_MODEL_FLAGS = {"vonmises": ("k",), "ou": ("theta", "sigma", "mu", "dt", "trajectories", "seed")}
_GRID_HELP = ("{} points of the superposition grid: the average is taken over it, and the "
              "worst case's descent starts from its minimum, which is an upper bound.")


class _Command(click.Command):
    """Every subcommand: a library ``ValueError`` exits 2 as a usage error, with its
    message, and so does a ``MemoryError`` from a request too large to allocate."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except ValueError as exc:
            raise click.UsageError(str(exc), ctx) from exc
        except MemoryError as exc:
            raise click.UsageError(f"the request does not fit in memory: {exc}", ctx) from exc


def _superposition_grid(command):
    """Declare ``--alpha-points``/``--chi-points`` and pass ``command`` one ``sp_grid``."""
    @click.option("--alpha-points", type=int, default=41, show_default=True,
                  help=_GRID_HELP.format("Alpha"))
    @click.option("--chi-points", type=int, default=64, show_default=True,
                  help=_GRID_HELP.format("Chi"))
    @functools.wraps(command)
    def with_grid(*args, alpha_points: int, chi_points: int, **kwargs):
        return command(*args, sp_grid=SuperpositionGrid(alpha_points, chi_points), **kwargs)

    return with_grid


def _fmt(x) -> str:
    return repr(float(x))


def _surface_csv(ts: np.ndarray, ps: np.ndarray, values: np.ndarray,
                 wrong: np.ndarray) -> Iterator[str]:
    """CSV chunks ``t,param,fidelity,p_wrong``: the header line, then one chunk per
    ``t`` holding that row's cells, one line each, t-major.

    Every cell is ``_fmt`` of its float64 value, byte for byte.  The ``t`` and
    ``param`` texts are ``repr``.  A row's ``fidelity`` and ``p_wrong`` cells are
    interleaved in one buffer and come from one ``orjson`` dump; orjson writes
    the shortest round-trip digits, as ``repr`` does, and in the same notation at
    0 and at ``1e-4 <= |x| < 1e16``.  Outside that range it differs (``1e-7`` for
    ``1e-07``, ``1e16`` for ``1e+16``, positional digits below 1e-4, ``null`` for
    nan and inf), so those cells take ``_fmt``.  Each row is one ``str.join`` of a
    list that holds the line pieces ``,param,``, fidelity, ``,``, p_wrong and
    ``\\n`` plus the next line's ``t``.  Only the surface arrays and one row of
    text are resident.
    """
    import orjson  # only the scan writes surfaces: no other command loads it

    yield "t,param,fidelity,p_wrong\n"
    size = ps.size
    buf = np.empty(2 * size)  # C-contiguous float64: the only arrays orjson dumps
    parts = [""] * (5 * size + 1)
    parts[1::5] = [f",{p!r}," for p in ps.tolist()]
    parts[3::5] = [","] * size
    parts[-1] = "\n"
    for t, row, wrow in zip(ts.tolist(), values, wrong):
        buf[0::2] = row
        buf[1::2] = wrow
        cells = orjson.dumps(buf, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].decode().split(",")
        magnitude = np.abs(buf)
        outside = ~((magnitude >= 1e-4) & (magnitude < 1e16)) & (buf != 0.0)
        fixed = np.flatnonzero(outside)
        for k, x in zip(fixed.tolist(), buf[fixed].tolist()):
            cells[k] = _fmt(x)
        prefix = repr(t)
        parts[0] = prefix
        parts[2::5] = cells[0::2]
        parts[4::5] = cells[1::2]
        parts[5:-1:5] = ["\n" + prefix] * (size - 1)
        yield "".join(parts)


def _emit(chunks: Iterable[str], output: str | None) -> None:
    """Write ``chunks`` in order, each as soon as it is produced, to the file
    ``output`` or to stdout, then flush once.

    An error raised mid-stream leaves the chunks written so far in place.  A
    reader that closes stdout early (``| head``) ends the command quietly with
    exit 0, and the remaining chunks are not produced; any other stdout write
    error (a full disk) exits 2 with its message.
    """
    if not output:
        out = click.get_text_stream("stdout")
        try:
            for chunk in chunks:
                out.write(chunk)
            out.flush()
        except OSError as exc:
            # Point stdout at devnull, so that the interpreter's final flush of
            # the unsent buffer does not fail again at exit.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, out.fileno())
            os.close(devnull)
            if not isinstance(exc, BrokenPipeError):
                raise click.UsageError(f"cannot write to stdout: {exc}")
        return
    try:
        with open(output, "w", encoding="utf-8", newline="\n") as fh:
            for chunk in chunks:
                fh.write(chunk)
    except OSError as exc:
        raise click.UsageError(f"cannot write output file: {exc}")


def _matrix_json(header: dict, matrix: np.ndarray) -> Iterator[str]:
    """``json.dumps({**header, "matrix": pairs}, indent=2)`` and a newline, one matrix
    row at a time, with ``pairs`` the row-major ``[re, im]`` pairs of the complex
    ``matrix``.

    The header's dump is left open for the matrix.  Each row is one compact dump
    of its pairs, whose separators are then replaced by the indented dump's (a
    float's text holds no ``[``, comma or space): json's C encoder writes it about
    4x as fast as its pure-Python indenting one.  Only one row's text is ever held.
    """
    yield json.dumps({**header, "matrix": None}, indent=2)[:-len("null\n}")] + "["
    for i, row in enumerate(matrix):
        text = json.dumps(np.stack([row.real, row.imag], axis=-1).tolist())  # [[re, im], ...]
        text = text.replace("], [", "\n      ],\n      [\n        ").replace(", ", ",\n        ")
        yield ("," if i else "") + "\n    [\n      [\n        " + text[2:-2] + "\n      ]\n    ]"
    yield "\n  ]\n}\n"


def _load_config(ctx: click.Context, path: str) -> None:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise click.UsageError(f"cannot read config file: {exc}")
    except json.JSONDecodeError as exc:
        raise click.UsageError(f"config file is not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise click.UsageError("config file must hold a JSON object")
    for section, values in data.items():
        command = main.commands.get(section)
        if command is None:
            raise click.UsageError(
                f"unknown config section {section!r}; valid sections: "
                + ", ".join(sorted(main.commands))
            )
        if not isinstance(values, dict):
            raise click.UsageError(f"config section {section!r} must be an object")
        known = {p.name for p in command.params}
        for key in values:
            if key not in known:
                raise click.UsageError(
                    f"unknown key {key!r} in config section {section!r}; "
                    f"valid keys: {', '.join(sorted(known))}"
                )
    ctx.default_map = data


@click.group()
@click.option(
    "--config",
    type=click.Path(dir_okay=False),
    envvar="QWROUTER_CONFIG",
    default=None,
    help="JSON config file; sections per subcommand, keys per flag.",
)
@click.pass_context
def main(ctx: click.Context, config: str | None) -> None:
    """Chiral quantum-walk router toolkit."""
    if config is not None:
        _load_config(ctx, config)


main.command_class = _Command


@main.command("hamiltonian")
@click.option("--n", type=int, required=True, help="Number of outputs (>= 2).")
@click.option("--beta", type=float, default=1.0, show_default=True)
@click.option("--phi", type=float, default=0.0, show_default=True)
@click.option(
    "--full/--reduced",
    "full",
    default=False,
    help="Emit the full 2(n+1)-dim matrix instead of the 6-dim one (n at most 1023).",
)
@click.option("--output", type=click.Path(dir_okay=False), default=None)
def hamiltonian_cmd(n: int, beta: float, phi: float, full: bool, output: str | None):
    """Dump a router Hamiltonian as JSON ([re, im] pairs, row-major)."""
    params = RouterParams(n_outputs=n, beta=beta, phi=phi)
    if full:
        matrix = build_full_hamiltonian(params).entries
        kind = "full"
    else:
        matrix = build_reduced_hamiltonian(params).entries
        kind = "reduced"
    header = {
        "kind": kind,
        "n": params.n_outputs,
        "beta": params.beta,
        "phi": params.phi,
        "dim": matrix.shape[0],
    }
    _emit(_matrix_json(header, matrix), output)


@main.command("scan")
@click.argument("kind", type=click.Choice(["phase", "weight"]))
@click.option("--n", type=int, required=True)
@click.option("--beta", type=float, default=1.0, show_default=True,
              help="Fixed weight (used when scanning the phase).")
@click.option("--phi", type=float, default=0.0, show_default=True,
              help="Fixed phase (used when scanning the weight).")
@click.option("--t-min", type=float, default=0.0, show_default=True)
@click.option("--t-max", type=float, default=50.0, show_default=True)
@click.option("--t-steps", type=int, default=501, show_default=True)
@click.option("--param-min", type=float, default=0.0, show_default=True)
@click.option("--param-max", type=float, default=None,
              help="Default: 2*pi*255/256 (phase) or 40 (weight).")
@click.option("--param-steps", type=int, default=None,
              help="Default: 256 (phase) or 401 (weight).")
@click.option("--objective", type=click.Choice(list(_OBJECTIVES)),
              default="localized", show_default=True)
@_superposition_grid
@click.option("--output", type=click.Path(dir_okay=False), default=None)
def scan_cmd(kind, n, beta, phi, t_min, t_max, t_steps, param_min, param_max,
             param_steps, objective, sp_grid, output):
    """Fidelity surface as CSV rows ``t,param,fidelity,p_wrong``.

    ``p_wrong`` is the total wrong-output probability for a localized input
    at the same grid point.
    """
    params = RouterParams(n_outputs=n, beta=beta, phi=phi)
    if param_max is None:
        param_max = TWO_PI * 255.0 / 256.0 if kind == "phase" else 40.0
    if param_steps is None:
        param_steps = 256 if kind == "phase" else 401
    grid = ScanGrid((t_min, t_max, t_steps), (param_min, param_max, param_steps), kind)
    surface = scan(params, grid, objective=objective, sp_grid=sp_grid)
    _emit(_surface_csv(surface.t_values, surface.param_values, surface.values, surface.wrong),
          output)


@main.command("table1")
@click.option("--row", type=click.Choice(["all", "20", "70", "1000000"]),
              default="all", show_default=True,
              help="Restrict to the rows with this output count.")
@_superposition_grid
@click.option("--output", type=click.Path(dir_okay=False), default=None)
def table1_cmd(row, sp_grid, output):
    """Recompute the tabulated high-fidelity configurations and compare."""
    report = []
    for n, t, phi, statistic, reference in TABLE1_ROWS:
        if row != "all" and str(n) != row:
            continue
        params = RouterParams(n_outputs=n, beta=1.0, phi=phi)
        if statistic == "average":
            computed = average_fidelity(params, t, sp_grid)
        else:
            computed = min_fidelity(params, t, sp_grid)
        report.append(
            {
                "n": n,
                "t": t,
                "phi": phi,
                "statistic": statistic,
                "computed": computed,
                "reference": reference,
                "abs_diff": abs(computed - reference),
            }
        )
    _emit([json.dumps(report, indent=2) + "\n"], output)


def _vonmises_rows(params: RouterParams, sp: SuperpositionParams, vm: VonMisesSpec,
                   t_max: float, t_steps: int, last: StaticNoiseFidelity) -> Iterator[str]:
    """CSV lines ``t,fidelity,`` of the static-noise curve at ``t_steps`` equispaced
    times in ``[0, t_max]``, each computed when requested; ``last`` is the value at
    the last time.  After the rows, one stderr warning names every unconverged time."""
    unconverged = []
    for j in range(t_steps):
        t = j * t_max / (t_steps - 1)
        value = last if j == t_steps - 1 else static_noise_fidelity(params, t, sp, vm)
        if not value.converged:
            unconverged.append(f"t={_fmt(t)} (points_used={value.points_used})")
        yield f"{_fmt(t)},{_fmt(value)},\n"
    if unconverged:
        click.echo("warning: von Mises quadrature did not converge at "
                   + ", ".join(unconverged), err=True)


@main.command("noise")
@click.argument("model", type=click.Choice(["vonmises", "ou"]))
@click.option("--n", type=int, required=True)
@click.option("--beta", type=float, default=1.0, show_default=True)
@click.option("--phi", type=float, default=0.0, show_default=True)
@click.option("--alpha", type=float, default=0.7, show_default=True)
@click.option("--chi", type=float, default=_CHI_DEFAULT,
              help="Default 3*pi/2 (input 0.7|1> - i sqrt(0.51)|2>).")
@click.option("--t-max", type=float, default=10.0, show_default=True)
@click.option("--t-steps", type=int, default=101, show_default=True)
@click.option("--k", type=float, default=None, help="von Mises concentration (required for vonmises).")
@click.option("--theta", type=float, default=1.0, show_default=True)
@click.option("--sigma", type=float, default=0.4, show_default=True)
@click.option("--mu", type=float, default=None, help="OU mean; defaults to --phi.")
@click.option("--dt", type=float, default=0.01, show_default=True)
@click.option("--trajectories", type=int, default=2000, show_default=True)
@click.option("--seed", type=int, default=777, show_default=True)
@click.option("--output", type=click.Path(dir_okay=False), default=None)
@click.pass_context
def noise_cmd(ctx, model, n, beta, phi, alpha, chi, t_max, t_steps, k, theta, sigma, mu,
              dt, trajectories, seed, output):
    """Noisy fidelity curve as CSV rows ``t,fidelity,stderr``.

    The stderr column is filled for the trajectory-averaged (ou) model and
    empty for the quadrature-averaged (vonmises) model.  A flag of the other
    model exits 2; the config file's ``noise`` section may set both models' keys.
    """
    other = "ou" if model == "vonmises" else "vonmises"
    given = [f"--{name}" for name in _MODEL_FLAGS[other]
             if ctx.get_parameter_source(name) is click.core.ParameterSource.COMMANDLINE]
    if given:
        raise click.UsageError(f"the {model} model does not read {', '.join(given)}, "
                               f"which only the {other} model reads")
    params = RouterParams(n_outputs=n, beta=beta, phi=phi)
    if t_steps < 2:
        raise click.UsageError("t-steps must be >= 2")
    if not (math.isfinite(t_max) and t_max > 0):
        raise click.UsageError("t-max must be positive")
    sp = SuperpositionParams(alpha=alpha, chi=chi)
    if model == "vonmises":
        if k is None:
            raise click.UsageError("--k is required for the vonmises model")
        vm = VonMisesSpec(k=k)
        if t_steps > sys.float_info.max:  # each row's time takes t_steps - 1 as a float
            raise click.UsageError(f"t-steps must be >= 2 and at most {sys.float_info.max!r}")
        # Row j's time is j * t_max / (t_steps - 1); the largest product is the last row's.
        last_t = (t_steps - 1) * t_max / (t_steps - 1)
        if not math.isfinite(last_t):
            raise click.UsageError(
                f"the row times j * t-max / (t-steps - 1) overflow: (--t-steps - 1) * --t-max "
                f"= {t_steps - 1} * {_fmt(t_max)} exceeds {sys.float_info.max!r}; "
                "lower --t-max or --t-steps")
        # The phase overflow ``w t`` grows with t, so evaluating t-max and the last
        # time (which can round past t-max) first rejects an overflowing --t-max
        # before any row or output file exists.
        last = static_noise_fidelity(params, t_max, sp, vm)
        if last_t != t_max:
            last = static_noise_fidelity(params, last_t, sp, vm)
        rows = _vonmises_rows(params, sp, vm, t_max, t_steps, last)
    else:
        spec = OUSpec(theta=theta, mu=mu, sigma_vol=sigma, dt=dt,
                      trajectories=trajectories, seed=seed)
        try:
            times, values, errors = ou_fidelity_curve(
                params, input_state(sp), target_state(sp), spec, t_max, snapshots=t_steps
            )
        except MemoryError:
            steps = round(t_max / spec.dt)
            block = min(trajectories, _TRAJECTORY_BLOCK + 1)
            raise click.UsageError(
                f"one block's phase paths (round(--t-max / --dt) = {steps} steps x up to "
                f"{block} trajectories: {8 * steps * block:.3g} bytes) does not fit in "
                "memory; lower --t-max or raise --dt"
            )
        if len(times) < t_steps:
            click.echo(f"warning: {t_steps} snapshot times requested but only "
                       f"{len(times)} are distinct after snapping to whole steps "
                       f"of dt={_fmt(spec.dt)}", err=True)
        rows = (f"{_fmt(t)},{_fmt(v)},{_fmt(e)}\n" for t, v, e in zip(times, values, errors))
    _emit(chain(["t,fidelity,stderr\n"], rows), output)


@main.command("verify-reduction")
@click.option("--n-max", type=int, default=8, show_default=True,
              help="Largest n checked, at most 1023 (a full graph of dimension 2048).")
@click.option("--trials", type=int, default=20, show_default=True)
@click.option("--seed", type=click.IntRange(min=0), default=1234, show_default=True)
@click.option("--tolerance", type=float, default=1e-9, show_default=True,
              help="Largest deviation that passes; finite and >= 0.")
@click.option("--output", type=click.Path(dir_okay=False), default=None)
@click.pass_context
def verify_reduction_cmd(ctx, n_max, trials, seed, tolerance, output):
    """Check the six-state model against the full graph at random parameters.

    Exits 1 if any projected full-graph evolution deviates from the reduced
    evolution by more than the tolerance.
    """
    if not (math.isfinite(tolerance) and tolerance >= 0.0):
        raise click.UsageError("--tolerance must be finite and >= 0")
    worst = verify_reduction(n_max, trials, np.random.default_rng(seed))
    lines = [f"n={n}: max deviation {w:.3e}" for n, w in enumerate(worst, start=2)]
    overall = max(worst)
    ok = overall <= tolerance
    lines.append(f"overall max deviation {overall:.3e} (tolerance {tolerance:.1e})")
    lines.append("PASS" if ok else "FAIL")
    _emit(["\n".join(lines) + "\n"], output)
    if not ok:
        ctx.exit(1)


@main.command("optimize")
@click.option("--objective", type=click.Choice(list(_OBJECTIVES)),
              default="localized", show_default=True)
@click.option("--kind", type=click.Choice(["phase", "weight"]), default="phase",
              show_default=True)
@click.option("--n", type=int, required=True)
@click.option("--beta", type=float, default=1.0, show_default=True)
@click.option("--phi", type=float, default=0.0, show_default=True)
@click.option("--t0", type=float, required=True, help="Starting time.")
@click.option("--param0", type=float, required=True, help="Starting phase/weight.")
@click.option("--t-min", type=float, default=0.0, show_default=True)
@click.option("--t-max", type=float, default=50.0, show_default=True)
@click.option("--param-min", type=float, default=0.0, show_default=True)
@click.option("--param-max", type=float, default=None,
              help="Default: 2*pi (phase) or 40 (weight).")
@_superposition_grid
@click.option("--output", type=click.Path(dir_okay=False), default=None)
def optimize_cmd(objective, kind, n, beta, phi, t0, param0, t_min, t_max,
                 param_min, param_max, sp_grid, output):
    """Locally refine (t, phase) or (t, weight) for the chosen objective."""
    params = RouterParams(n_outputs=n, beta=beta, phi=phi)
    if param_max is None:
        param_max = TWO_PI if kind == "phase" else 40.0
    result = refine(lambda t, p: _statistic(objective, _with_param(params, kind, p), t,
                                            sp_grid),
                    (t0, param0), ((t_min, t_max), (param_min, param_max)))
    payload = {
        "objective": objective,
        "kind": kind,
        "t": result.point[0],
        "param": result.point[1],
        "value": result.value,
        "converged": result.converged,
        "evaluations": result.evaluations,
    }
    _emit([json.dumps(payload, indent=2) + "\n"], output)


if __name__ == "__main__":
    main()
