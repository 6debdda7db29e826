"""Output checks for benchmark operations.

An operation whose argument list was recorded in the golden file is compared
with the recorded output.  Any other operation is checked against oracles that
share no propagator code with qwrouter: ``scipy.linalg.expm`` of the full
router graph projected onto the six reduced states, ``scipy.integrate.quad``
over the von Mises density, and, for the trajectory ensemble, the golden
curve within a multiple of the combined Monte Carlo standard error.

``check(argv, text, golden, rng)`` raises ``CheckError`` on the first defect.
"""

from __future__ import annotations

import json
import math

import numpy as np
from scipy import integrate, linalg, special

GOLDEN_TOL = 1e-12  # deterministic outputs against the recorded ones
ORACLE_TOL = 1e-9  # expm of the full graph against the eigh path (seen: <= 2.1e-12)
VONMISES_TOL = 1e-8  # the library's quadrature tolerance (seen: <= 1.6e-12)
WORST_CASE_TOL = 1e-3  # a 401x1024 grid minimum can exceed the true minimum by this much
# Two-sided normal tail beyond 5.5 is 3.8e-8 per point, so a curve of at most
# 101 points fails by chance with probability below 4e-6 (Bonferroni).
OU_Z = 5.5
C8_PEAK, C8_STDERR, C8_T = 0.6356, 0.0014, (2.3, 2.6)

TWO_PI = 2.0 * math.pi
SCAN_HEADER = "t,param,fidelity,p_wrong"
NOISE_HEADER = "t,fidelity,stderr"
OU_VARIABLE_OPTIONS = ("--seed", "--trajectories", "--t-max", "--t-steps")
OU_DT = 0.01  # the CLI default, which the reference run uses


class CheckError(Exception):
    """An operation's output is wrong."""


def _require(ok, message: str) -> None:
    if not ok:
        raise CheckError(message)


def parse_argv(argv: list[str]) -> tuple[list[str], dict[str, str]]:
    """Split an operation's argument list into positionals and ``--flag value`` pairs."""
    positionals, options, i = [], {}, 0
    while i < len(argv):
        if argv[i].startswith("--"):
            options[argv[i]] = argv[i + 1]
            i += 2
        else:
            positionals.append(argv[i])
            i += 1
    return positionals, options


def golden_key(argv: list[str]) -> str:
    return " ".join(argv)


# ---------------------------------------------------------------- oracle ---

def _full_h_and_isometry(n: int, beta: float, phi: float) -> tuple[np.ndarray, np.ndarray]:
    """Full graph: internals 0..n (input 0, output 1), external n+1+m on internal m."""
    nv = n + 1
    h = np.zeros((2 * nv, 2 * nv), dtype=complex)
    h[:nv, :nv] = 1.0 - np.eye(nv)
    h[0, 1] = beta * np.exp(-1j * phi)
    h[1, 0] = np.conj(h[0, 1])
    h[np.arange(nv), nv + np.arange(nv)] = 1.0
    h[nv + np.arange(nv), np.arange(nv)] = 1.0
    v = np.zeros((2 * nv, 6))
    v[nv, 0] = v[0, 1] = v[1, 2] = v[nv + 1, 3] = 1.0
    others = np.arange(2, nv)
    v[others, 4] = v[nv + others, 5] = 1.0 / math.sqrt(n - 1.0)
    return h, v


def oracle_u(n: int, beta: float, phi: float, t: float) -> np.ndarray:
    """Six-state propagator: ``expm`` of the full graph, projected on the reduced states."""
    h, v = _full_h_and_isometry(n, beta, phi)
    return v.T @ linalg.expm(-1j * t * h) @ v


def projected_oracle_u(n: int, beta: float, phi: float, t: float) -> np.ndarray:
    """``expm`` of the full graph's projection on the reduced states.

    The reduced states span an invariant subspace, so this equals ``oracle_u``
    (which checks that on every scan cell it samples) at the cost of a 6x6 ``expm``.
    """
    h, v = _full_h_and_isometry(n, beta, phi)
    return linalg.expm(-1j * t * (v.T @ h @ v))


def _transfer_fidelity(u: np.ndarray, alphas: np.ndarray, chis: np.ndarray) -> np.ndarray:
    gammas = np.sqrt(np.clip(1.0 - alphas**2, 0.0, None))
    e = np.exp(1j * chis)
    overlap = ((alphas**2 * u[3, 0] + gammas**2 * u[2, 1])[:, None]
               + np.outer(alphas * gammas, u[3, 1] * e + u[2, 0] * np.conj(e)))
    return np.clip(np.abs(overlap) ** 2, 0.0, 1.0)


def _grid(alpha_points: int, chi_points: int) -> tuple[np.ndarray, np.ndarray]:
    return (np.linspace(0.0, 1.0, alpha_points),
            np.linspace(0.0, TWO_PI, chi_points, endpoint=False))


def oracle_average(u: np.ndarray, alpha_points=41, chi_points=64) -> float:
    return float(np.clip(_transfer_fidelity(u, *_grid(alpha_points, chi_points)).mean(), 0, 1))


def check_worst_case(u: np.ndarray, value: float, what: str,
                     alpha_points=41, chi_points=64) -> None:
    coarse = float(_transfer_fidelity(u, *_grid(alpha_points, chi_points)).min())
    dense = float(_transfer_fidelity(u, *_grid(401, 1024)).min())
    _require(dense - WORST_CASE_TOL <= value <= coarse + ORACLE_TOL,
             f"{what}: worst case {value!r} outside [{dense - WORST_CASE_TOL!r}, "
             f"{coarse + ORACLE_TOL!r}]")


def _von_mises(eps: float, k: float) -> float:
    return math.exp(k * (math.cos(eps) - 1.0)) / (TWO_PI * float(special.i0e(k)))


def oracle_static_noise(n, beta, phi, alpha, chi, k, t) -> float:
    gamma = math.sqrt(max(0.0, 1.0 - alpha * alpha))
    psi = np.array([alpha, gamma * np.exp(1j * chi), 0, 0, 0, 0], dtype=complex)
    target = np.array([0, 0, gamma * np.exp(1j * chi), alpha, 0, 0], dtype=complex)

    def integrand(eps):
        overlap = np.vdot(target, projected_oracle_u(n, beta, phi + eps, t) @ psi)
        return _von_mises(eps, k) * abs(overlap) ** 2

    half = min(math.pi, 12.0 / math.sqrt(k)) if k > 0 else math.pi
    total = 0.0
    for lo, hi in ((-half, 0.0), (0.0, half), (-math.pi, -half), (half, math.pi)):
        if hi > lo:
            total += integrate.quad(integrand, lo, hi, epsabs=1e-13, epsrel=1e-11,
                                    limit=200)[0]
    return total


# ---------------------------------------------------------------- parsing ---

def _rows(text: str, header: str, columns: int, what: str) -> np.ndarray:
    head, _, body = text.partition("\n")
    _require(head == header, f"{what}: header {head!r} is not {header!r}")
    try:
        data = np.array(body.replace(",", " ").split(), dtype=float)
    except ValueError as exc:
        raise CheckError(f"{what}: unparsable CSV ({exc})") from None
    _require(data.size % columns == 0, f"{what}: ragged CSV")
    data = data.reshape(-1, columns)
    _require(np.all(np.isfinite(data)), f"{what}: non-finite value")
    return data


def _close(a, b, tol: float, what: str) -> None:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    _require(a.shape == b.shape, f"{what}: shape {a.shape} != {b.shape}")
    worst = float(np.max(np.abs(a - b))) if a.size else 0.0
    _require(worst <= tol, f"{what}: deviation {worst:.3e} > {tol:.1e}")


def _in_unit_interval(values, what: str) -> None:
    _require(np.all((values >= 0.0) & (values <= 1.0)), f"{what}: value outside [0, 1]")


# ---------------------------------------------------------------- commands ---

def _scan_axes(kind: str, o: dict) -> tuple[np.ndarray, np.ndarray]:
    ts = np.linspace(float(o.get("--t-min", 0.0)), float(o.get("--t-max", 50.0)),
                     int(o.get("--t-steps", 501)))
    default_max = TWO_PI * 255.0 / 256.0 if kind == "phase" else 40.0
    ps = np.linspace(float(o.get("--param-min", 0.0)), float(o.get("--param-max", default_max)),
                     int(o.get("--param-steps", 256 if kind == "phase" else 401)))
    return ts, ps


def scan_summary(data: np.ndarray) -> dict:
    """What the golden file keeps of a surface: its size, column sums and a fixed row sample."""
    rows = data.shape[0]
    pick = np.random.default_rng(12345).choice(rows, size=min(rows, 200), replace=False)
    pick = sorted({0, rows - 1, *map(int, pick)})
    return {"rows": rows, "sums": data[:, 2:].sum(axis=0).tolist(),
            "sample": [[i, *data[i].tolist()] for i in pick]}


def check_scan(argv, text, golden, rng) -> None:
    (_, kind), o = parse_argv(argv)
    what = golden_key(argv)
    data = _rows(text, SCAN_HEADER, 4, what)
    ts, ps = _scan_axes(kind, o)
    _require(data.shape[0] == ts.size * ps.size, f"{what}: {data.shape[0]} rows")
    _close(data[:, 0], np.repeat(ts, ps.size), GOLDEN_TOL, f"{what} t column")
    _close(data[:, 1], np.tile(ps, ts.size), GOLDEN_TOL, f"{what} param column")
    _in_unit_interval(data[:, 2:], what)
    if golden is not None:
        _require(data.shape[0] == golden["rows"], f"{what}: row count differs from golden")
        _close(data[:, 2:].sum(axis=0), golden["sums"], GOLDEN_TOL * data.shape[0],
               f"{what} column sums")
        sample = np.array(golden["sample"])
        _close(data[sample[:, 0].astype(int)], sample[:, 1:], GOLDEN_TOL, f"{what} sampled rows")
        return
    n = int(o["--n"])
    beta, phi = float(o.get("--beta", 1.0)), float(o.get("--phi", 0.0))
    objective = o.get("--objective", "localized")
    samples = {"localized": 8, "average": 4, "worst_case": 3}[objective]
    for i in rng.choice(data.shape[0], size=min(samples, data.shape[0]), replace=False):
        t, p, fidelity, wrong = data[i]
        u = oracle_u(n, p if kind == "weight" else beta, p if kind == "phase" else phi, t)
        cell = f"{what} cell t={t!r} param={p!r}"
        _close(wrong, min(abs(u[5, 0]) ** 2, 1.0), ORACLE_TOL, f"{cell} p_wrong")
        if objective == "localized":
            _close(fidelity, min(abs(u[3, 0]) ** 2, 1.0), ORACLE_TOL, cell)
        elif objective == "average":
            _close(fidelity, oracle_average(u), ORACLE_TOL, cell)
        else:
            check_worst_case(u, fidelity, cell)


def check_noise(argv, text, golden, rng, ou_reference) -> None:
    (_, model), o = parse_argv(argv)
    what = golden_key(argv)
    lines = text.rstrip("\n").split("\n")
    if model == "vonmises":
        _require(all(line.endswith(",") for line in lines[1:]), f"{what}: stderr column filled")
        data = _rows("\n".join(line[:-1] if i else line for i, line in enumerate(lines)),
                     NOISE_HEADER, 2, what)
    else:
        data = _rows(text, NOISE_HEADER, 3, what)
        _require(np.all(data[:, 2] >= 0.0), f"{what}: negative stderr")
    _in_unit_interval(data[:, 1], what)
    t_max, t_steps = float(o.get("--t-max", 10.0)), int(o.get("--t-steps", 101))
    if model == "vonmises":
        _close(data[:, 0], [j * t_max / (t_steps - 1) for j in range(t_steps)], GOLDEN_TOL,
               f"{what} t column")
        if golden is not None:
            _close(data[:, 1], golden["fidelity"], GOLDEN_TOL, what)
            return
        n, beta, phi = int(o["--n"]), float(o.get("--beta", 1.0)), float(o.get("--phi", 0.0))
        alpha, chi = float(o.get("--alpha", 0.7)), float(o.get("--chi", 1.5 * math.pi))
        for i in rng.choice(data.shape[0], size=min(3, data.shape[0]), replace=False):
            t, value = data[i]
            expected = oracle_static_noise(n, beta, phi, alpha, chi, float(o["--k"]), t)
            _close(value, expected, VONMISES_TOL, f"{what} t={t!r}")
        return
    _check_ou(argv, data, golden, ou_reference)


def _check_ou(argv, data, golden, reference) -> None:
    what = golden_key(argv)
    if golden is not None:
        ref = np.array(golden["curve"])
        _close(data[:, 0], ref[:, 0], GOLDEN_TOL, f"{what} t column")
        worst = float(np.max(np.abs(data[:, 1] - ref[:, 1]) - ref[:, 2]))
        _require(worst <= GOLDEN_TOL, f"{what}: off the golden curve by {worst:.3e} beyond "
                 "one standard error")
        peak = int(np.argmax(data[:, 1]))
        t_peak, f_peak = data[peak, 0], data[peak, 1]
        _require(abs(f_peak - C8_PEAK) <= C8_STDERR and C8_T[0] <= t_peak <= C8_T[1],
                 f"{what}: peak {f_peak!r} at t={t_peak!r}, expected {C8_PEAK} +/- "
                 f"{C8_STDERR} near t=2.45")
        return
    _, mine = parse_argv(argv)
    ref_argv, ref_curve = reference
    _, theirs = parse_argv(ref_argv)
    strip = lambda opts: {k: v for k, v in opts.items() if k not in OU_VARIABLE_OPTIONS}
    _require(strip(mine) == strip(theirs), f"{what}: no reference curve for this configuration")
    ref = {round(row[0] / OU_DT): row for row in ref_curve}
    matched = 0
    for t, value, err in data:
        row = ref.get(round(t / OU_DT))
        if row is None:
            continue
        matched += 1
        limit = OU_Z * math.hypot(err, row[2]) + GOLDEN_TOL
        _require(abs(value - row[1]) <= limit,
                 f"{what}: t={t!r} fidelity {value!r} vs reference {row[1]!r} (limit {limit:.2e})")
    _require(matched >= data.shape[0] // 2, f"{what}: too few times on the reference grid")


def check_table1(argv, text, golden) -> None:
    """Table 1 takes no seeded input, so it is always compared with its golden record."""
    what = golden_key(argv)
    _require(golden is not None, f"{what}: no golden record")
    report = json.loads(text)
    _require(isinstance(report, list) and len(report) == len(golden["report"]),
             f"{what}: row count differs from golden")
    for got, ref in zip(report, golden["report"]):
        _require({k: got[k] for k in ("n", "t", "phi", "statistic", "reference")}
                 == {k: ref[k] for k in ("n", "t", "phi", "statistic", "reference")},
                 f"{what}: row {got} differs from golden")
        _close([got["computed"], got["abs_diff"]], [ref["computed"], ref["abs_diff"]],
               GOLDEN_TOL, f"{what} n={got['n']}")


def check_optimize(argv, text, golden) -> None:
    what = golden_key(argv)
    result = json.loads(text)
    _, o = parse_argv(argv)
    _require(o.get("--objective") == "worst_case" and o.get("--kind", "phase") == "phase",
             f"{what}: only phase/worst_case optimization is checked")
    _require(result["converged"] is True, f"{what}: not converged")
    if golden is not None:
        ref = golden["result"]
        _require(result["evaluations"] == ref["evaluations"], f"{what}: evaluation count")
        _close([result[k] for k in ("t", "param", "value")], [ref[k] for k in ("t", "param", "value")],
               GOLDEN_TOL, what)
        return
    n, beta = int(o["--n"]), float(o.get("--beta", 1.0))
    t, p = result["t"], result["param"]
    _require(float(o.get("--t-min", 0.0)) <= t <= float(o.get("--t-max", 50.0))
             and 0.0 <= p <= TWO_PI, f"{what}: optimum outside bounds")
    check_worst_case(oracle_u(n, beta, p, t), result["value"], f"{what} optimum")
    start = _transfer_fidelity(oracle_u(n, beta, float(o["--param0"]), float(o["--t0"])),
                               *_grid(401, 1024)).min()
    _require(result["value"] >= start - WORST_CASE_TOL, f"{what}: worse than the start point")


def check_verify_reduction(argv, text, golden) -> None:
    what = golden_key(argv)
    _, o = parse_argv(argv)
    n_max, tolerance = int(o.get("--n-max", 8)), float(o.get("--tolerance", 1e-9))
    lines = text.rstrip("\n").split("\n")
    _require(len(lines) == n_max + 1 and lines[-1] == "PASS", f"{what}: not a PASS report")
    deviations = []
    for n, line in zip(range(2, n_max + 1), lines):
        prefix = f"n={n}: max deviation "
        _require(line.startswith(prefix), f"{what}: line {line!r}")
        deviations.append(float(line[len(prefix):]))
    _require(max(deviations) <= tolerance, f"{what}: deviation above tolerance")
    if golden is not None:
        _close(deviations, golden["deviations"], GOLDEN_TOL, what)


def summarize(argv: list[str], text: str) -> dict:
    """The golden record of one operation's output."""
    command = argv[0]
    if command == "scan":
        return scan_summary(_rows(text, SCAN_HEADER, 4, golden_key(argv)))
    if command == "noise":
        rows = [line.split(",") for line in text.rstrip("\n").split("\n")[1:]]
        if argv[1] == "vonmises":
            return {"fidelity": [float(r[1]) for r in rows]}
        return {"curve": [[float(x) for x in r] for r in rows]}
    if command == "table1":
        return {"report": json.loads(text)}
    if command == "optimize":
        return {"result": json.loads(text)}
    if command == "verify-reduction":
        lines = text.rstrip("\n").split("\n")[:-2]
        return {"deviations": [float(line.rpartition(" ")[2]) for line in lines]}
    raise ValueError(f"no golden record for command {command!r}")


def check(argv: list[str], text: str, golden: dict | None, rng: np.random.Generator,
          ou_reference: tuple[list[str], list] | None = None) -> None:
    """Check one operation's output; raise ``CheckError`` if it is wrong."""
    command = argv[0]
    try:
        if command == "scan":
            return check_scan(argv, text, golden, rng)
        if command == "noise":
            return check_noise(argv, text, golden, rng, ou_reference)
        if command == "table1":
            return check_table1(argv, text, golden)
        if command == "optimize":
            return check_optimize(argv, text, golden)
        if command == "verify-reduction":
            return check_verify_reduction(argv, text, golden)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise CheckError(f"{golden_key(argv)}: malformed output ({exc!r})") from None
    raise CheckError(f"no check for command {command!r}")
