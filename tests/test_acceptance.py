"""End-to-end acceptance battery.

Each test exercises one headline capability at its stated tolerance and
runtime budget, and prints a single PASS/FAIL line through the
``criterion_report`` fixture (echoed again in the terminal summary).
"""

import math
import time

import numpy as np

from qwrouter import (
    DensityMatrix,
    OUSpec,
    PureState,
    RouterParams,
    ScanGrid,
    SuperpositionParams,
    VonMisesSpec,
    average_fidelity,
    build_full_hamiltonian,
    build_reduced_hamiltonian,
    evolve,
    find_peaks,
    input_state,
    min_fidelity,
    ou_fidelity_curve,
    ou_sample_path,
    ou_stationary_draws,
    per_wrong_output_probability,
    propagator,
    routing_fidelity,
    scan,
    static_noise_fidelity,
    static_noise_state,
    target_state,
    transition_probability,
    verify_reduction,
)
from qwrouter.cli import TABLE1_ROWS

TWO_PI = 2.0 * math.pi

SP_BALANCED = SuperpositionParams(0.7, 3.0 * math.pi / 2.0)


def test_c1_reduction_equivalence(criterion_report):
    """Projected full-graph evolution matches the six-state model."""
    start = time.perf_counter()
    per_n = verify_reduction(8, 50, np.random.default_rng(424242))
    worst = max(per_n)
    cases = 50 * len(per_n)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-9 and elapsed < 5.0
    criterion_report(
        "C1 reduction-equivalence", ok,
        f"max amplitude deviation {worst:.2e} over {cases} cases in {elapsed:.1f}s",
    )
    assert ok


def test_c2_tabulated_fidelities(criterion_report):
    """The five published high-fidelity configurations reproduce within 0.01."""
    start = time.perf_counter()
    details = []
    ok = True
    for n, t, phi, statistic, reference in TABLE1_ROWS:
        params = RouterParams(n_outputs=n, beta=1.0, phi=phi)
        if statistic == "average":
            computed = average_fidelity(params, t)
        else:
            computed = min_fidelity(params, t)
        diff = abs(computed - reference)
        ok = ok and diff <= 0.01
        details.append(f"n={n} {statistic}: {computed:.4f} (ref {reference}, d={diff:.4f})")
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30.0
    criterion_report(
        "C2 tabulated-fidelities", ok, "; ".join(details) + f"; {elapsed:.1f}s"
    )
    assert ok


def test_c3_phase_peak_structure(criterion_report):
    """n=40 phase scan: a strong local peak near phi = pi, plus a broad early peak.

    The pi-adjacent ridge is a *local* maximum: the same time window also
    contains the stronger 3pi/2-family optimum (about 0.995 near phi = 4.74,
    the family the tabulated configurations live on), so the check targets
    the peak in the stated pi-neighborhood rather than the windowed global
    argmax.
    """
    start = time.perf_counter()
    base = RouterParams(40, 1.0, 0.0)

    late = scan(base, ScanGrid((15.0, 19.0, 81), (0.0, TWO_PI * 255 / 256, 256), "phase"))
    near_pi = [
        p
        for p in find_peaks(late, threshold=0.8)
        if abs(p.location[1] - math.pi) <= 0.3
    ]
    first = bool(near_pi) and near_pi[0].wrong_output_prob <= 0.03
    if near_pi:
        peak_t, peak_phi = near_pi[0].location
        peak_value = near_pi[0].value
        wrong = near_pi[0].wrong_output_prob
    else:
        peak_t = peak_phi = peak_value = wrong = float("nan")

    early = scan(base, ScanGrid((3.0, 5.0, 41), (0.0, TWO_PI * 255 / 256, 256), "phase"))
    robust = [
        p for p in find_peaks(early, threshold=0.8) if p.width_param >= 0.5
    ]
    second = bool(robust)

    elapsed = time.perf_counter() - start
    ok = first and second and elapsed < 10.0
    criterion_report(
        "C3 phase-peak-structure", ok,
        f"peak near pi: {peak_value:.3f} at (t={peak_t:.2f}, phi={peak_phi:.3f}), "
        f"wrong-output {wrong:.4f}; early broad peaks: {len(robust)}; {elapsed:.1f}s",
    )
    assert ok


def test_c4_weight_ray_transfer(criterion_report):
    """n=50, phi=0: transfer along beta = 0.69 t should stay high with low leakage."""
    start = time.perf_counter()
    details = []
    ok = True
    for t in (10.0, 20.0, 30.0, 40.0):
        params = RouterParams(50, 0.69 * t, 0.0)
        p14 = transition_probability(params, t, 1, 4)
        p16 = transition_probability(params, t, 1, 6)
        here = 0.90 <= p14 <= 1.0 and p16 <= 0.05
        ok = ok and here
        details.append(
            f"t={t:.0f}: P14={p14:.4f} P16={p16:.4f} {'ok' if here else 'OUT OF BAND'}"
        )
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 5.0
    criterion_report("C4 weight-ray-transfer", ok, "; ".join(details) + f"; {elapsed:.1f}s")
    assert ok


def test_c5_size_saturation(criterion_report):
    """Worst-case fidelity is n-independent at the per-mille level for large n."""
    start = time.perf_counter()
    t, phi = 40.068, 4.716
    a = min_fidelity(RouterParams(10**3, 1.0, phi), t)
    b = min_fidelity(RouterParams(10**4, 1.0, phi), t)
    diff = abs(a - b)
    elapsed = time.perf_counter() - start
    ok = diff < 0.01 and elapsed < 2.0
    criterion_report(
        "C5 size-saturation", ok,
        f"|F(1e3) - F(1e4)| = |{a:.5f} - {b:.5f}| = {diff:.5f} in {elapsed:.1f}s",
    )
    assert ok


def test_c6_static_noise_limits(criterion_report):
    """Sharp/uniform concentration limits and monotone degradation with spread."""
    start = time.perf_counter()
    peak = RouterParams(20, 1.0, 4.712)
    t_peak = 18.550

    noiseless = routing_fidelity(peak, t_peak, SP_BALANCED)
    sharp = static_noise_fidelity(peak, t_peak, SP_BALANCED, VonMisesSpec(1e6))
    sharp_ok = abs(sharp - noiseless) < 1e-3

    uniform = static_noise_fidelity(peak, t_peak, SP_BALANCED, VonMisesSpec(0.0))
    eps = np.linspace(0.0, TWO_PI, 512, endpoint=False)
    oracle = float(
        np.mean(
            [
                routing_fidelity(RouterParams(20, 1.0, 4.712 + e), t_peak, SP_BALANCED)
                for e in eps
            ]
        )
    )
    uniform_ok = abs(uniform - oracle) < 1e-6

    monotone_ok = True
    for n, t, phi, _, _ in TABLE1_ROWS:
        params = RouterParams(n_outputs=n, beta=1.0, phi=phi)
        values = [
            static_noise_fidelity(params, t, SP_BALANCED, VonMisesSpec(k))
            for k in (25.0 / 2.0, 25.0 / 8.0, 2.0)
        ]
        monotone_ok = monotone_ok and values[0] >= values[1] >= values[2]

    elapsed = time.perf_counter() - start
    ok = sharp_ok and uniform_ok and monotone_ok and elapsed < 20.0
    criterion_report(
        "C6 static-noise-limits", ok,
        f"sharp |d|={abs(sharp - noiseless):.1e}, uniform |d|={abs(uniform - oracle):.1e}, "
        f"monotone across k at all configs: {monotone_ok}; {elapsed:.1f}s",
    )
    assert ok


def test_c7_ou_statistics(criterion_report):
    """Zero-volatility limit, stationary variance, and step-size robustness."""
    start = time.perf_counter()
    peak = RouterParams(20, 1.0, 4.712)

    from qwrouter import ou_ensemble_state

    frozen = OUSpec(sigma_vol=0.0, trajectories=4)
    state = ou_ensemble_state(peak, 18.55, input_state(SP_BALANCED), frozen)
    mean, _ = state.fidelity_with_stderr(target_state(SP_BALANCED))
    zero_diff = abs(mean - routing_fidelity(peak, 18.55, SP_BALANCED))
    zero_ok = zero_diff < 1e-6

    var_ok = True
    var_details = []
    for vol in (0.4, 0.8, 1.0):
        spec = OUSpec(mu=0.0, sigma_vol=vol, seed=2024)
        draws = ou_stationary_draws(spec, 100_000)
        sample = float(draws.var(ddof=1))
        expected = spec.stationary_variance
        se = expected * math.sqrt(2.0 / (draws.size - 1))
        var_ok = var_ok and abs(sample - expected) < 3.0 * se
        var_details.append(f"S={vol}: {sample:.4f} vs {expected:.4f}")

    coarse_spec = OUSpec(dt=0.01, trajectories=2000, seed=777)
    fine_spec = OUSpec(dt=0.005, trajectories=2000, seed=777)
    coarse = ou_ensemble_state(peak, 2.5, input_state(SP_BALANCED), coarse_spec)
    fine = ou_ensemble_state(peak, 2.5, input_state(SP_BALANCED), fine_spec)
    f1, e1 = coarse.fidelity_with_stderr(target_state(SP_BALANCED))
    f2, e2 = fine.fidelity_with_stderr(target_state(SP_BALANCED))
    halving_diff = abs(f1 - f2)
    halving_ok = halving_diff < 3.0 * math.hypot(e1, e2)

    elapsed = time.perf_counter() - start
    ok = zero_ok and var_ok and halving_ok and elapsed < 60.0
    criterion_report(
        "C7 ou-statistics", ok,
        f"frozen-noise |d|={zero_diff:.1e}; variance {', '.join(var_details)}; "
        f"dt halving |{f1:.4f}-{f2:.4f}|={halving_diff:.5f} "
        f"(3se={3.0 * math.hypot(e1, e2):.5f}); {elapsed:.1f}s",
    )
    assert ok


def test_c8_ou_peak_robustness(criterion_report):
    """Peak ensemble fidelity under dynamical noise at the n=20 configuration.

    The ensemble-averaged fidelity for the balanced superposition input is
    expected to keep a peak in [0.65, 0.95] over t in [0, 10].  The measured
    maximum sits just below that band (about 0.636 +/- 0.002, while the
    noiseless curve itself only reaches about 0.653 on this interval), so this
    check documents a genuine shortfall of the stated band rather than a
    simulator defect; the localized-input probability does peak near 0.78 on
    the same interval.
    """
    start = time.perf_counter()
    peak = RouterParams(20, 1.0, 4.712)
    spec = OUSpec()  # theta=1, sigma_vol=0.4, dt=0.01, 2000 trajectories, seed 777
    times, values, errors = ou_fidelity_curve(
        peak, input_state(SP_BALANCED), target_state(SP_BALANCED), spec,
        t_max=10.0, snapshots=201,
    )
    idx = int(np.argmax(values))
    peak_value = float(values[idx])
    elapsed = time.perf_counter() - start
    ok = 0.65 <= peak_value <= 0.95 and elapsed < 60.0
    criterion_report(
        "C8 ou-peak-robustness", ok,
        f"max fidelity {peak_value:.4f} +/- {float(errors[idx]):.4f} "
        f"at t={float(times[idx]):.2f} (band [0.65, 0.95]); {elapsed:.1f}s",
    )
    assert ok


def test_c9_invariant_battery(criterion_report):
    """Randomized structural invariants across the whole stack."""
    start = time.perf_counter()
    rng = np.random.default_rng(7777)
    cases = 0
    failures = []

    def rand_params(n_hi=60):
        return RouterParams(
            n_outputs=int(rng.integers(2, n_hi)),
            beta=float(rng.uniform(-3.0, 3.0)),
            phi=float(rng.uniform(0.0, TWO_PI)),
        )

    # Hermiticity is exact by construction, both models.
    for _ in range(300):
        p = rand_params()
        h = build_reduced_hamiltonian(p).entries
        if not np.array_equal(h, h.conj().T):
            failures.append("hermiticity(reduced)")
        cases += 1
    for _ in range(50):
        p = rand_params(10)
        h = build_full_hamiltonian(p).entries
        if not np.array_equal(h, h.conj().T):
            failures.append("hermiticity(full)")
        cases += 1

    # Unitarity of propagators.
    for _ in range(200):
        p = rand_params()
        u = propagator(build_reduced_hamiltonian(p), float(rng.uniform(0.0, 40.0)))
        defect = float(np.max(np.abs(u.matrix @ u.matrix.conj().T - np.eye(6))))
        if defect >= 1e-10:
            failures.append(f"unitarity defect {defect:.1e}")
        cases += 1

    # Probability conservation under evolution.
    for _ in range(200):
        p = rand_params()
        raw = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        psi = evolve(
            build_reduced_hamiltonian(p),
            float(rng.uniform(0.0, 40.0)),
            PureState(raw / np.linalg.norm(raw)),
        )
        if abs(np.linalg.norm(psi.amplitudes) - 1.0) >= 1e-10:
            failures.append("norm drift")
        cases += 1

    # Reversing the chirality reverses the preferred direction.
    for _ in range(150):
        n = int(rng.integers(2, 60))
        phi = float(rng.uniform(0.0, TWO_PI))
        t = float(rng.uniform(0.0, 40.0))
        fwd = transition_probability(RouterParams(n, 1.0, phi), t, 1, 4)
        bwd = transition_probability(RouterParams(n, 1.0, -phi), t, 4, 1)
        if abs(fwd - bwd) >= 1e-10:
            failures.append("direction symmetry")
        cases += 1

    # Without chirality every output is the same: P14 equals the per-output leak.
    for _ in range(100):
        n = int(rng.integers(2, 60))
        t = float(rng.uniform(0.0, 40.0))
        p = RouterParams(n, 1.0, 0.0)
        if abs(
            transition_probability(p, t, 1, 4) - per_wrong_output_probability(p, t)
        ) >= 1e-9:
            failures.append("output symmetry")
        cases += 1

    # Density-matrix validity (constructor enforces the checks).
    for _ in range(55):
        raw = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        DensityMatrix.from_pure(PureState(raw / np.linalg.norm(raw)))
        cases += 1
    for k in (0.0, 2.0, 25.0 / 2.0, 1e4, 1e6):
        static_noise_state(
            rand_params(), float(rng.uniform(0.0, 20.0)),
            input_state(SP_BALANCED), VonMisesSpec(k),
        )
        cases += 1

    elapsed = time.perf_counter() - start
    ok = not failures and cases >= 1000 and elapsed < 30.0
    criterion_report(
        "C9 invariant-battery", ok,
        f"{cases} randomized cases, {len(failures)} violations"
        + (f" ({failures[0]} ...)" if failures else "")
        + f"; {elapsed:.1f}s",
    )
    assert ok
