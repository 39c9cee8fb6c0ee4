"""Acceptance gate: the eight shipped criteria, each with pinned tolerances.

Every test prints one ``ACCEPTANCE n PASS`` line (visible under ``pytest -s``
or ``-v`` via test outcomes) and enforces its own runtime budget.
"""

import io
import json
import time
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np

from decohist import (
    AXIS_DIRECTIONS,
    HistorySpec,
    KentNotApplicable,
    NotHermitianEffects,
    ProtocolConfig,
    Step,
    Tolerances,
    apply_channel,
    check_kent,
    check_measurement_based,
    check_weak,
    decoherence_functional,
    emit_report,
    free_particle_unitary,
    gaussian_instrument,
    gaussian_wavepacket,
    GridSystem,
    interference_circuit,
    marginal_distribution,
    marginal_functional,
    omitted_distribution,
    parse_scenario,
    posterior_state,
    random_classical_spec,
    random_spec,
    run_protocol,
    run_scenario,
    spin_direction_instrument,
    spin_half_library,
    trivial_instrument,
    validate_unitary,
)
from decohist.cli import main as cli_main

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"
ARTIFACTS = Path(__file__).resolve().parents[1] / "test_artifacts"


def test_acceptance_01_spin_xy_chain():
    """y-then-x projective chain on z-up: i/4 off-diagonal, both verdicts true."""
    start = time.perf_counter()
    lib = spin_half_library()
    spec = HistorySpec(
        initial=lib.up_z,
        steps=(
            Step(lib.identity, lib.projective_y),
            Step(lib.identity, lib.projective_x),
        ),
    )
    functional = decoherence_functional(spec)
    idx = {p: i for i, p in enumerate(functional.paths)}
    value = functional.values[idx[(("y+", 0), ("x+", 0))], idx[(("y-", 0), ("x+", 0))]]
    assert abs(value - 0.25j) <= 1e-12

    assert check_weak(functional).verdict is True
    assert check_measurement_based(spec).verdict is True

    with_y = marginal_distribution(spec, (1,))
    without_y = omitted_distribution(spec, (1,))
    for dist in (with_y, without_y):
        assert abs(dist[("x+",)] - 0.5) <= 1e-12
        assert abs(dist[("x-",)] - 0.5) <= 1e-12

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"ACCEPTANCE 1 PASS: D = i/4, both verdicts true, x-dist (1/2, 1/2) [{elapsed:.2f}s]")


def test_acceptance_02_fuzzy_posteriors():
    """Fuzzy instrument on the mixed state: exact probabilities and posteriors."""
    start = time.perf_counter()
    lib = spin_half_library()
    p0, rho0 = posterior_state(lib.mixed, lib.fuzzy, "0")
    p1, rho1 = posterior_state(lib.mixed, lib.fuzzy, "1")
    assert abs(p0 - 0.75) <= 1e-12
    assert abs(p1 - 0.25) <= 1e-12
    assert np.max(np.abs(rho0.matrix - np.diag([2 / 3, 1 / 3]))) <= 1e-12
    assert np.max(np.abs(rho1.matrix - np.diag([0.0, 1.0]))) <= 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"ACCEPTANCE 2 PASS: p = (3/4, 1/4), posteriors exact [{elapsed:.2f}s]")


def test_acceptance_03_fuzzy_then_trivial():
    """Fuzzy-then-trivial: weak fails with off-diagonal 1/4, comparison passes."""
    start = time.perf_counter()
    lib = spin_half_library()
    spec = HistorySpec(
        initial=lib.mixed,
        steps=(
            Step(lib.identity, lib.fuzzy),
            Step(lib.identity, trivial_instrument(2)),
        ),
    )
    functional = decoherence_functional(spec)
    weak = check_weak(functional)
    assert weak.verdict is False
    assert weak.max_residual > 1e-9

    # Brute-force oracle: explicit operator products, no shared code path.
    inv_sqrt2 = 1 / np.sqrt(2)
    a0 = np.diag([1.0, inv_sqrt2])
    a1 = np.diag([0.0, inv_sqrt2])
    rho = np.eye(2) / 2
    c_first = np.eye(2) @ a0 @ np.eye(2)  # outcome 0 then the trivial step
    c_second = np.eye(2) @ a1 @ np.eye(2)
    oracle = np.trace(c_first @ rho @ c_second.conj().T)
    assert abs(oracle.real - 0.25) <= 1e-12
    assert abs(weak.max_residual - abs(oracle.real)) <= 1e-12

    mb = check_measurement_based(spec)
    assert mb.verdict is True
    assert mb.max_residual <= 1e-12

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"ACCEPTANCE 3 PASS: weak fails at 1/4 (= oracle), comparison passes [{elapsed:.2f}s]")


def test_acceptance_04_direction_povm():
    """Six-direction POVM then z: residual 1/3 on z-up, linear in epsilon."""
    start = time.perf_counter()
    lib = spin_half_library()
    inst = spin_direction_instrument(AXIS_DIRECTIONS)

    def residual(state):
        spec = HistorySpec(
            initial=state,
            steps=(Step(lib.identity, inst), Step(lib.identity, lib.projective_z)),
        )
        return check_measurement_based(spec).max_residual

    sharp = residual(lib.up_z)
    assert sharp > 0.01

    eps = (0.01, 0.02, 0.04)
    values = [residual(lib.near_identity(e)) for e in eps]
    base = values[0] / eps[0]
    for e, value in zip(eps, values):
        assert value > 0
        assert abs(value / (base * e) - 1.0) <= 0.2

    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(
        "ACCEPTANCE 4 PASS: residual "
        f"{sharp:.4f} on z-up, linear in epsilon within 20% [{elapsed:.2f}s]"
    )


def test_acceptance_05_gaussian_quasi_projections():
    """Gaussian quasi-projections: completeness, damping oracle, both sweeps."""
    start = time.perf_counter()

    # (a) completeness exact by construction.
    grid = GridSystem(n_points=128, x_min=-64.0, x_max=64.0)
    width = 8.0
    centers = np.arange(-64.0 - 6 * width, 64.0 + 6 * width + 1e-9, width / 2)
    inst = gaussian_instrument(grid, width=width, centers=centers)
    total = sum(e.matrix.conj().T @ e.matrix for e in inst.effects)
    assert np.max(np.abs(total - np.eye(128))) <= 1e-12

    # (b) measure-and-forget damping vs a quadrature oracle, Gaussian in x - y.
    ones = np.full((128, 128), 1.0, dtype=complex)
    damping = apply_channel(inst, ones).real
    x = grid.positions
    mu = np.linspace(centers[0], centers[-1], 20001)
    kernels = np.exp(-((x[:, None] - mu[None, :]) ** 2) / (4 * width**2))
    overlap = kernels @ kernels.T
    norm = np.sqrt(np.diag(overlap))
    oracle = overlap / np.outer(norm, norm)
    assert np.max(np.abs(damping - oracle)) <= 1e-6
    gaussian_form = np.exp(-((x[:, None] - x[None, :]) ** 2) / (8 * width**2))
    assert np.max(np.abs(damping - gaussian_form)) <= 1e-6

    # (c) static sweep: state disturbance decreasing, small at width ratio 16.
    packet = gaussian_wavepacket(grid, center=0.0, sigma=2.0)
    ident = validate_unitary(np.eye(128))
    disturbances = []
    for ratio in (1, 2, 4, 8, 16):
        w = 2.0 * ratio
        c = np.arange(-64.0 - 6 * w, 64.0 + 6 * w + 1e-9, w / 2)
        sweep_inst = gaussian_instrument(grid, width=w, centers=c)
        delta = packet.matrix - apply_channel(sweep_inst, packet.matrix)
        disturbances.append(0.5 * float(np.abs(np.linalg.eigvalsh(delta)).sum()))
        spec = HistorySpec(
            initial=packet, steps=(Step(ident, sweep_inst), Step(ident, sweep_inst))
        )
        mb = check_measurement_based(spec).max_residual
        if ratio == 16:
            assert mb <= 0.01
            assert disturbances[-1] <= 0.01
    assert all(a > b for a, b in zip(disturbances, disturbances[1:]))

    # (d) free particle: spreading to the instrument width versus an eighth of
    # it; the forward-then-reversed chain isolates the measurement back-action.
    fine = GridSystem(n_points=512, x_min=-128.0, x_max=128.0)
    packet1 = gaussian_wavepacket(fine, center=0.0, sigma=1.0)
    w = 16.0
    echo_inst = gaussian_instrument(fine, width=w, centers=np.arange(-176.0, 176.1, 8.0))
    residuals = []
    for target in (w / 8, w):
        t = float(np.sqrt(target**2 - 1.0))
        forward = free_particle_unitary(fine, mass=1.0, time=t)
        backward = free_particle_unitary(fine, mass=1.0, time=-t)
        spec = HistorySpec(
            initial=packet1, steps=(Step(forward, echo_inst), Step(backward, echo_inst))
        )
        residuals.append(check_measurement_based(spec).max_residual)
    assert residuals[1] > 10 * residuals[0]

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(
        "ACCEPTANCE 5 PASS: completeness exact, damping = oracle, static sweep "
        f"min {disturbances[-1]:.4f}, spreading ratio {residuals[1] / residuals[0]:.1f}x "
        f"[{elapsed:.2f}s]"
    )


def test_acceptance_06_dephasing_and_interference():
    """Dephasing identity, interference residuals, and the sampled protocol."""
    start = time.perf_counter()
    lib = spin_half_library()

    # The z measure-and-forget map is exactly dephasing in the z basis.
    rng = np.random.default_rng(2)
    for _ in range(20):
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        expected = np.diag(np.diag(rho))
        assert np.max(np.abs(apply_channel(lib.projective_z, rho) - expected)) <= 1e-12

    quantum = interference_circuit()
    classical = interference_circuit(classical=True)

    undisturbed = omitted_distribution(quantum, (1,))
    dephased = marginal_distribution(quantum, (1,))
    assert abs(undisturbed[("0",)] - 1.0) <= 1e-12
    assert abs(dephased[("0",)] - 0.5) <= 1e-12

    mb_quantum = check_measurement_based(quantum)
    assert mb_quantum.verdict is False
    assert abs(mb_quantum.max_residual - 0.5) <= 1e-12
    mb_classical = check_measurement_based(classical)
    assert mb_classical.verdict is True
    assert mb_classical.max_residual <= 1e-12

    shots = 100000
    sampled_q = run_protocol(ProtocolConfig(spec=quantum, subset=(1,), shots=shots, seed=3))
    sampled_c = run_protocol(ProtocolConfig(spec=classical, subset=(1,), shots=shots, seed=3))
    assert sampled_q.consistent is False
    assert sampled_c.consistent is True
    assert abs(sampled_q.tv_distance - sampled_q.exact_tv) <= 0.01
    assert abs(sampled_c.tv_distance - sampled_c.exact_tv) <= 0.01

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(
        "ACCEPTANCE 6 PASS: dephasing exact, residuals (1/2, 0), protocol verdicts "
        f"(inconsistent, consistent) [{elapsed:.2f}s]"
    )


def _property_population():
    """200 deterministic specs: dims 2-4, 1-3 steps, all generator kinds."""
    population = []
    kinds = ("projective", "generalized", "generalized_multi", "hermitian")
    for i in range(200):
        dim = 2 + i % 3
        n_steps = 1 + (i // 3) % 3
        if i % 8 == 7:
            spec = random_classical_spec(dim, n_steps, outcomes_per_step=2, seed=i)
            population.append(("classical", spec))
        else:
            kind = kinds[i % 4]
            outcomes = 2 if kind == "hermitian" else min(dim, 2 + i % 2)
            spec = random_spec(dim, n_steps, outcomes, kind=kind, seed=i)
            population.append((kind, spec))
    return population


def test_acceptance_07_property_suite():
    """Oracle equivalences and implications over 200 seeded random specs."""
    start = time.perf_counter()
    tol = Tolerances()
    relaxed = 10 * tol.decoherence
    population = _property_population()
    assert len(population) == 200

    weak_hits = kent_hits = binary_cases = 0
    converse_candidates = converse_violations = 0
    mismatches = []

    for kind, spec in population:
        functional = decoherence_functional(spec)

        # (a) functional invariants.
        v = functional.values
        assert np.max(np.abs(v - v.conj().T)) <= 1e-9
        diag = np.diagonal(v)
        assert np.max(np.abs(diag.imag)) <= 1e-9
        assert diag.real.min() >= -1e-9
        assert abs(diag.real.sum() - 1.0) <= 1e-9

        # (b) the two marginalization routes agree.
        measured = spec.measured_positions
        subsets = [(p,) for p in measured]
        if len(measured) > 1:
            subsets.append(measured)
        for subset in subsets:
            channel = marginal_functional(spec, subset, method="channel")
            pathsum = marginal_functional(spec, subset, method="pathsum")
            assert channel.paths == pathsum.paths
            assert np.max(np.abs(channel.values - pathsum.values)) <= 1e-8

        weak = check_weak(functional, tol)
        mb = check_measurement_based(spec, tol)

        # (c) projective weak decoherence implies the comparison passes.
        if kind in ("projective", "classical") and weak.verdict:
            weak_hits += 1
            assert mb.max_residual <= relaxed

        # (d, e) Kent implications where the criterion applies.
        try:
            kent = check_kent(spec, tol=tol)
        except (KentNotApplicable, NotHermitianEffects):
            kent = None
        if kent is not None and kent.verdict:
            kent_hits += 1
            assert mb.max_residual <= relaxed
        binary = all(len(spec.instrument_at(p).labels) == 2 for p in measured)
        if kent is not None and binary:
            binary_cases += 1
            if kent.verdict != mb.verdict:
                ARTIFACTS.mkdir(exist_ok=True)
                path = ARTIFACTS / f"kent_mb_mismatch_{kind}.json"
                path.write_text(json.dumps({
                    "kind": kind,
                    "dim": spec.dim,
                    "steps": len(spec.steps),
                    "kent_verdict": kent.verdict,
                    "kent_residual": kent.max_residual,
                    "mb_verdict": mb.verdict,
                    "mb_residual": mb.max_residual,
                }, indent=2, sort_keys=True) + "\n")
                mismatches.append(str(path))

        # Converse search (reported, not asserted): comparison-decoherent
        # specs that still fail the weak criterion.
        if mb.verdict:
            converse_candidates += 1
            if not weak.verdict:
                converse_violations += 1

    assert not mismatches, f"binary Kent/comparison mismatches logged: {mismatches}"
    assert weak_hits > 0
    assert kent_hits > 0
    assert binary_cases > 0

    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    print(
        f"ACCEPTANCE 7 PASS: 200 specs, weak=>comparison on {weak_hits}, "
        f"kent=>comparison on {kent_hits}, binary equivalence on {binary_cases}, "
        f"converse search {converse_violations}/{converse_candidates} violations "
        f"[{elapsed:.2f}s]"
    )


def test_acceptance_08_determinism_and_cli():
    """Byte-identical reports, exit-code contract, and runnable fixtures."""
    scenario_text = (FIXTURES / "spin_directions.yaml").read_text()
    first = emit_report(run_scenario(parse_scenario(scenario_text)), "structured")
    second = emit_report(run_scenario(parse_scenario(scenario_text)), "structured")
    assert first == second
    assert first.encode() == second.encode()

    expected_exit = {
        "spin_xy.yaml": 0,
        "gaussian_static.yaml": 0,
        "interference_classical.yaml": 0,
        "fuzzy_measurement.yaml": 1,
        "fuzzy_then_trivial.yaml": 1,
        "spin_directions.yaml": 1,
        "free_particle.yaml": 1,
        "interference.yaml": 1,
    }
    paths = sorted(FIXTURES.glob("*.yaml"))
    assert {p.name for p in paths} == set(expected_exit)
    for path in paths:
        parse_scenario(path.read_text())
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            code = cli_main(["check", str(path)])
        assert code == expected_exit[path.name], path.name

    buffer = io.StringIO()
    with redirect_stdout(buffer):
        assert cli_main(["check", "/no/such/file.yaml", "--format", "structured"]) == 2
    assert "error" in json.loads(buffer.getvalue())

    print("ACCEPTANCE 8 PASS: deterministic reports, exit codes 0/1/2, all fixtures run")
