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
    SuperpositionGrid,
    SuperpositionParams,
    average_fidelity,
    input_state,
    min_fidelity,
    target_state,
)
from .search import _STATISTICS, ScanGrid, _with_param, refine, scan

# The five tabulated high-fidelity configurations (n, t, phi, statistic, reference).
TABLE1_ROWS = (
    (20, 18.550, 4.712, "average", 0.993),
    (20, 18.523, 4.708, "minimum", 0.984),
    (70, 18.397, 4.758, "average", 0.987),
    (70, 18.484, 4.765, "minimum", 0.976),
    (1000000, 40.068, 4.716, "minimum", 0.995),
)

_CHI_DEFAULT = 3.0 * math.pi / 2.0
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
    ``param`` texts are ``repr``; the ``fidelity`` and ``p_wrong`` cells of a row
    come from one ``orjson`` dump each (``_row_cells``).  Only the surface arrays
    and one row of text are resident.
    """
    cols = [f",{p!r}," for p in ps.tolist()]
    yield "t,param,fidelity,p_wrong\n"
    for t, row, wrow in zip(ts.tolist(), values, wrong):
        prefix = repr(t)
        yield "".join([f"{prefix}{c}{f},{w}\n" for c, f, w in
                       zip(cols, _row_cells(row), _row_cells(wrow))])


def _row_cells(row: np.ndarray) -> list[str]:
    """``_fmt`` of every cell of the 1-D ``row``, from one ``orjson`` dump.

    orjson writes the shortest round-trip digits, as ``repr`` does, and in the
    same notation at 0 and at ``1e-4 <= |x| < 1e16``.  Outside that range it
    differs (``1e-7`` for ``1e-07``, ``1e16`` for ``1e+16``, positional digits
    below 1e-4, ``null`` for nan and inf), so those cells take ``_fmt``.
    """
    import orjson  # only the scan writes surfaces: no other command loads it

    row = np.ascontiguousarray(row, dtype=np.float64)  # orjson takes C-contiguous arrays only
    cells = orjson.dumps(row, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].decode().split(",")
    magnitude = np.abs(row)
    outside = ~((magnitude >= 1e-4) & (magnitude < 1e16)) & (row != 0.0)
    for k in np.flatnonzero(outside).tolist():
        cells[k] = _fmt(row[k])
    return cells


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


def _matrix_pairs(arr: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in arr]


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
    help="Emit the full 2(n+1)-dim matrix instead of the 6-dim one.",
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
    payload = {
        "kind": kind,
        "n": params.n_outputs,
        "beta": params.beta,
        "phi": params.phi,
        "dim": matrix.shape[0],
        "matrix": _matrix_pairs(matrix),
    }
    _emit([json.dumps(payload, indent=2) + "\n"], output)


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
@click.option("--objective", type=click.Choice(list(_STATISTICS)),
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
def noise_cmd(model, n, beta, phi, alpha, chi, t_max, t_steps, k, theta, sigma, mu,
              dt, trajectories, seed, output):
    """Noisy fidelity curve as CSV rows ``t,fidelity,stderr``.

    The stderr column is filled for the trajectory-averaged (ou) model and
    empty for the quadrature-averaged (vonmises) model.
    """
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
            rows, block = min(t_steps, steps + 1), min(trajectories, _TRAJECTORY_BLOCK + 1)
            raise click.UsageError(
                f"the fidelity table (up to {rows} snapshot times from --t-steps {t_steps} "
                f"x --trajectories {trajectories}: {8 * rows * trajectories:.3g} bytes) or "
                f"one block's phase paths (round(--t-max / --dt) = {steps} steps x up to "
                f"{block} trajectories: {8 * steps * block:.3g} bytes) does not fit in "
                "memory; lower --t-steps or --trajectories for the table, or --t-max or "
                "raise --dt for the paths"
            )
        if len(times) < t_steps:
            click.echo(f"warning: {t_steps} snapshot times requested but only "
                       f"{len(times)} are distinct after snapping to whole steps "
                       f"of dt={_fmt(spec.dt)}", err=True)
        rows = (f"{_fmt(t)},{_fmt(v)},{_fmt(e)}\n" for t, v, e in zip(times, values, errors))
    _emit(chain(["t,fidelity,stderr\n"], rows), output)


@main.command("verify-reduction")
@click.option("--n-max", type=int, default=8, show_default=True)
@click.option("--trials", type=int, default=20, show_default=True)
@click.option("--seed", type=int, default=1234, show_default=True)
@click.option("--tolerance", type=float, default=1e-9, show_default=True)
@click.option("--output", type=click.Path(dir_okay=False), default=None)
@click.pass_context
def verify_reduction_cmd(ctx, n_max, trials, seed, tolerance, output):
    """Check the six-state model against the full graph at random parameters.

    Exits 1 if any projected full-graph evolution deviates from the reduced
    evolution by more than the tolerance.
    """
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
@click.option("--objective", type=click.Choice(list(_STATISTICS)),
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
    statistic = _STATISTICS[objective]
    result = refine(lambda t, p: statistic([_with_param(params, kind, p)], t, sp_grid)[0],
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
