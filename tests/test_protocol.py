"""Tests for trajectory sampling and the two-ensemble comparison protocol."""

import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import decohist
from decohist import (
    AXIS_DIRECTIONS,
    DEFAULT_TOLERANCES,
    GridSystem,
    HistorySpec,
    ProtocolConfig,
    Step,
    ValidationError,
    apply_channel,
    free_particle_unitary,
    gaussian_instrument,
    gaussian_wavepacket,
    interference_circuit,
    marginal_distribution,
    omitted_distribution,
    random_spec,
    run_protocol,
    sample_history,
    spin_direction_instrument,
    spin_half_library,
    tv_distance,
)
from decohist import protocol
from decohist.protocol import _chi_square_tail, _ensemble_stream, _sample_counts

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"


def _run_python(code: str, hash_seed: int = 0) -> str:
    """stdout of ``code`` run in a fresh interpreter that imports this decohist."""
    src = str(Path(decohist.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = {**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": str(hash_seed)}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    return done.stdout


def _xy_spec():
    lib = spin_half_library()
    return HistorySpec(
        initial=lib.up_z,
        steps=(
            Step(lib.identity, lib.projective_y),
            Step(lib.identity, lib.projective_x),
        ),
    )


def _direction_spec():
    lib = spin_half_library()
    return HistorySpec(
        initial=lib.up_z,
        steps=(
            Step(lib.identity, spin_direction_instrument(AXIS_DIRECTIONS)),
            Step(lib.identity, lib.projective_z),
        ),
    )


class TestTvDistance:
    def test_disjoint_distributions(self):
        """Fully disjoint supports give TV distance 1."""
        assert tv_distance({"a": 1.0}, {"b": 1.0}) == pytest.approx(1.0)

    def test_known_value(self):
        """TV of (3/4, 1/4) vs (1/2, 1/2) is 1/4."""
        p = {"a": 0.75, "b": 0.25}
        q = {"a": 0.5, "b": 0.5}
        assert tv_distance(p, q) == pytest.approx(0.25)

    def test_identical_distributions(self):
        """TV of a distribution with itself is 0."""
        p = {"x": 0.3, "y": 0.7}
        assert tv_distance(p, p) == 0.0


    def test_independent_of_hash_order(self):
        """Three-category TV is the same float under every string-hash seed."""
        code = ("from decohist import ProtocolConfig, random_spec, run_protocol\n"
                "spec = random_spec(4, 3, 3, kind='generalized', seed=11)\n"
                "cfg = ProtocolConfig(spec=spec, subset=(1,), shots=1, seed=0)\n"
                "print(repr(run_protocol(cfg, mode='exact').exact_tv))")
        outputs = {_run_python(code, hash_seed) for hash_seed in range(8)}
        assert len(outputs) == 1


def test_import_leaves_scipy_stats_unloaded():
    """Importing decohist loads no scipy module at all."""
    code = ("import sys, decohist\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert _run_python(code).strip() == "[]"


def test_cli_runs_without_scipy():
    """The protocol fixture runs end to end when scipy cannot be imported."""
    fixture = Path(__file__).resolve().parents[1] / "fixtures" / "interference.yaml"
    code = ("import sys\nsys.modules['scipy'] = None\n"
            "from decohist.cli import main\n"
            f"print('exit', main(['check', {str(fixture)!r}]))")
    out = _run_python(code)
    assert "[protocol] verdict: FAIL (inconsistent)" in out
    assert out.rstrip().endswith("exit 1")


@pytest.mark.parametrize("dof", [*range(1, 60), 99, 100, 255, 256, 1000, 2024, 5000])
def test_chi_square_tail_matches_scipy(dof):
    """The stdlib chi-square tail agrees with scipy's chdtrc to 1e-10 relative."""
    chdtrc = pytest.importorskip("scipy.special").chdtrc
    for x in np.linspace(0.0, 5 * dof + 50, 200):
        expected = chdtrc(dof, x)
        if expected > 1e-300:
            assert _chi_square_tail(dof, float(x)) == pytest.approx(expected, rel=1e-10, abs=0)


class TestMeasureAndForget:
    def test_projective_channel_dephases(self):
        """Forgetting a z measurement zeroes off-diagonals in the z basis."""
        lib = spin_half_library()
        out = apply_channel(lib.projective_z, lib.up_x.matrix)
        np.testing.assert_allclose(out, np.diag([0.5, 0.5]), atol=1e-12)

    def test_trace_preserving(self):
        """The channel preserves trace on seeded states."""
        lib = spin_half_library()
        rng = np.random.default_rng(3)
        for _ in range(10):
            g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            rho = g @ g.conj().T
            rho /= np.trace(rho).real
            assert np.trace(apply_channel(lib.fuzzy, rho)).real == pytest.approx(1.0, abs=1e-12)


class TestSampleHistory:
    def test_deterministic_outcome(self):
        """Measuring z on the z-up state always returns z+."""
        lib = spin_half_library()
        spec = HistorySpec(initial=lib.up_z, steps=(Step(lib.identity, lib.projective_z),))
        rng = np.random.default_rng(0)
        for _ in range(50):
            assert sample_history(spec, rng) == ("z+",)

    def test_fuzzy_frequency_matches_born_rule(self):
        """Fuzzy outcome 0 on the mixed state appears with frequency near 3/4."""
        lib = spin_half_library()
        spec = HistorySpec(initial=lib.mixed, steps=(Step(lib.identity, lib.fuzzy),))
        rng = np.random.default_rng(12345)
        shots = 100000
        hits = sum(sample_history(spec, rng) == ("0",) for _ in range(shots))
        sigma = np.sqrt(0.75 * 0.25 / shots)
        assert abs(hits / shots - 0.75) <= 4 * sigma

    def test_posterior_feeds_next_step(self):
        """After y+ the x outcomes stay unbiased: joint frequencies near 1/4."""
        rng = np.random.default_rng(777)
        shots = 20000
        from collections import Counter

        counts = Counter(sample_history(_xy_spec(), rng) for _ in range(shots))
        for key, count in counts.items():
            assert count / shots == pytest.approx(0.25, abs=0.02)


def _grid_echo_spec():
    """64-point free-particle echo: declared pure packet, Fourier-diagonal unitaries."""
    grid = GridSystem(n_points=64, x_min=-16.0, x_max=16.0)
    inst = gaussian_instrument(grid, 2.0, np.arange(-11.0, 11.5, 1.0))
    t = float(np.sqrt(3.0))
    return HistorySpec(initial=gaussian_wavepacket(grid, 0.0, 1.0), steps=(
        Step(free_particle_unitary(grid, 1.0, t), inst),
        Step(free_particle_unitary(grid, 1.0, -t), inst)))


class TestBatchedSampler:
    def test_counts_equal_per_trajectory_loop(self):
        """_sample_counts equals a Counter of sample_history over the same stream."""
        specs = [_xy_spec(), _direction_spec(), interference_circuit(),
                 interference_circuit(classical=True), _grid_echo_spec()]
        for kind in ("projective", "generalized", "generalized_multi", "hermitian"):
            for seed in range(3):
                specs.append(random_spec(2 + seed, 3, 2, kind=kind, seed=seed))
        for number, spec in enumerate(specs):
            for ensemble in (0, 1):
                batched = _sample_counts(spec.initial.matrix, spec.steps, 400, number,
                                         ensemble, DEFAULT_TOLERANCES)
                stream = _ensemble_stream(number, ensemble)
                looped = Counter(sample_history(spec, stream) for _ in range(400))
                assert batched == looped

    def test_counts_equal_per_trajectory_loop_across_chunks(self, monkeypatch):
        """With 7-row chunks, counts still equal the loop at shots that are not
        multiples of the chunk size."""
        monkeypatch.setattr(protocol, "_CHUNK_ROWS", 7)
        specs = [_xy_spec(), _direction_spec(), interference_circuit(),
                 interference_circuit(classical=True)]
        for kind in ("projective", "generalized", "generalized_multi", "hermitian"):
            for seed in range(3):
                specs.append(random_spec(2 + seed, 3, 2, kind=kind, seed=seed))
        for number, spec in enumerate(specs):
            shots = 7 * (number % 5) + 1 + number % 6
            for ensemble in (0, 1):
                batched = _sample_counts(spec.initial.matrix, spec.steps, shots, number,
                                         ensemble, DEFAULT_TOLERANCES)
                stream = _ensemble_stream(number, ensemble)
                looped = Counter(sample_history(spec, stream) for _ in range(shots))
                assert batched == looped


def test_grid_protocol_runs_in_bounded_memory():
    """A 64-point grid protocol at 1e5 shots completes under a 1 GiB address cap."""
    limit = 1 << 30
    code = (
        "import os, resource\n"
        "os.environ['OPENBLAS_NUM_THREADS'] = '1'\n"
        f"resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))\n"
        "import yaml\n"
        "from decohist import parse_scenario, run_scenario\n"
        f"doc = yaml.safe_load(open({str(FIXTURES / 'free_particle.yaml')!r}).read())\n"
        "doc['system'].update(n_points=64, x_min=-16.0, x_max=16.0)\n"
        "for step in doc['steps']:\n"
        "    step['instrument']['centers'].update(start=-24.0, stop=24.0)\n"
        "doc.update(checks=['protocol'], S=[1], check_options={'shots': 100000})\n"
        "report = run_scenario(parse_scenario(yaml.safe_dump(doc)))\n"
        "print(report.checks[0][1].mode)"
    )
    assert _run_python(code).strip() == "sample"


class TestRunProtocol:
    def test_exact_mode_consistent_chain(self):
        """Exact distributions agree when the first step is non-disturbing."""
        cfg = ProtocolConfig(spec=_xy_spec(), subset=(1,), shots=1000, seed=0)
        result = run_protocol(cfg, mode="exact")
        assert result.mode == "exact"
        assert result.consistent is True
        assert result.tv_distance == pytest.approx(0.0, abs=1e-12)
        assert result.exact_tv == result.tv_distance
        assert result.statistic is None and result.p_value is None

    def test_exact_mode_direction_chain(self):
        """The direction chain shifts the final z distribution by exactly 1/3 TV."""
        cfg = ProtocolConfig(spec=_direction_spec(), subset=(1,), shots=1000, seed=0)
        result = run_protocol(cfg, mode="exact")
        assert result.consistent is False
        assert result.exact_tv == pytest.approx(1 / 3, abs=1e-12)

    def test_sample_mode_detects_disturbance(self):
        """At 1e5 shots the chi-square rejects the disturbed direction chain."""
        cfg = ProtocolConfig(spec=_direction_spec(), subset=(1,), shots=100000, seed=11)
        result = run_protocol(cfg)
        assert result.mode == "sample"
        assert result.consistent is False
        assert result.p_value < 1e-6
        assert result.tv_distance == pytest.approx(result.exact_tv, abs=0.01)

    def test_sample_mode_accepts_consistent(self):
        """The undisturbed y-then-x chain passes the chi-square test."""
        cfg = ProtocolConfig(spec=_xy_spec(), subset=(1,), shots=100000, seed=7)
        result = run_protocol(cfg)
        assert result.consistent is True
        assert result.p_value >= 0.01

    def test_deterministic_in_seed(self):
        """The same seed reproduces identical empirical distributions."""
        cfg = ProtocolConfig(spec=_direction_spec(), subset=(1,), shots=5000, seed=21)
        a = run_protocol(cfg)
        b = run_protocol(cfg)
        assert a == b

    def test_seeds_differ(self):
        """Different seeds give different samples (same verdict)."""
        base = dict(spec=_direction_spec(), subset=(1,), shots=5000)
        a = run_protocol(ProtocolConfig(seed=1, **base))
        b = run_protocol(ProtocolConfig(seed=2, **base))
        assert a.dist_with != b.dist_with

    def test_empirical_tracks_exact_as_shots_grow(self):
        """TV between empirical and exact distributions shrinks with shots."""
        spec = _direction_spec()
        exact = marginal_distribution(spec, (1,))
        errors = []
        for shots in (1000, 10000, 100000):
            cfg = ProtocolConfig(spec=spec, subset=(1,), shots=shots, seed=5)
            result = run_protocol(cfg)
            err = tv_distance(result.dist_with, exact)
            errors.append(err)
            k = len(exact)
            assert err <= 5 * np.sqrt(k / shots)
        assert errors[0] > errors[2]

    def test_ensembles_match_their_analytic_targets(self):
        """Ensemble A tracks the marginal and ensemble B the omitted law."""
        spec = _direction_spec()
        cfg = ProtocolConfig(spec=spec, subset=(1,), shots=100000, seed=13)
        result = run_protocol(cfg)
        assert tv_distance(result.dist_with, marginal_distribution(spec, (1,))) <= 0.01
        assert tv_distance(result.dist_without, omitted_distribution(spec, (1,))) <= 0.01

    def test_rejects_bad_config(self):
        """Nonpositive shots and out-of-range alpha are rejected."""
        with pytest.raises(ValidationError):
            ProtocolConfig(spec=_xy_spec(), subset=(1,), shots=0, seed=0)
        with pytest.raises(ValidationError):
            ProtocolConfig(spec=_xy_spec(), subset=(1,), shots=10, seed=0, alpha=1.5)
        with pytest.raises(ValidationError):
            run_protocol(
                ProtocolConfig(spec=_xy_spec(), subset=(1,), shots=10, seed=0),
                mode="smoke",
            )

    def test_degenerate_distributions_compare_equal(self):
        """Deterministic identical ensembles collapse to one bin and p = 1."""
        lib = spin_half_library()
        spec = HistorySpec(
            initial=lib.up_z,
            steps=(
                Step(lib.identity, lib.projective_z),
                Step(lib.identity, lib.projective_z),
            ),
        )
        cfg = ProtocolConfig(spec=spec, subset=(1,), shots=500, seed=0)
        result = run_protocol(cfg)
        assert result.consistent is True
        assert result.p_value == 1.0
        assert result.dof == 0
