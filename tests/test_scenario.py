"""Tests for scenario parsing, report serialization, and the command line."""

import gc
import json
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import pytest
import yaml

import decohist
from decohist import (
    DimensionMismatch,
    GridSystem,
    ScenarioSyntaxError,
    Tolerances,
    UnknownKey,
    UnknownModel,
    ValidationError,
    emit_report,
    gaussian_instrument,
    parse_report,
    parse_scenario,
    run_scenario,
    spin_direction_instrument,
    spin_half_library,
    validate_unitary,
    with_overrides,
)
from decohist.cli import main as cli_main
from decohist.models import SIGMA_Y, SIGMA_Z

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"

MINIMAL = """
system: {model: spin_half}
initial_state: up_z
steps:
  - {unitary: identity, instrument: projective_y}
  - {unitary: identity, instrument: projective_x}
checks: [weak, measurement_based]
"""


class TestParseScenario:
    def test_minimal_scenario(self):
        """A minimal document parses with default options."""
        scenario = parse_scenario(MINIMAL)
        assert scenario.checks == ("weak", "measurement_based")
        assert scenario.spec.measured_positions == (1, 2)
        assert scenario.shots == 100000
        assert scenario.seed == 0

    def test_all_fixture_files_parse(self):
        """Every shipped fixture parses cleanly."""
        paths = sorted(FIXTURES.glob("*.yaml"))
        assert len(paths) == 8
        for path in paths:
            scenario = parse_scenario(path.read_text())
            assert scenario.checks

    def test_missing_required_key(self):
        """Omitting the steps list is an error naming the key."""
        text = "system: {model: spin_half}\ninitial_state: up_z\nchecks: [weak]\n"
        with pytest.raises(ScenarioSyntaxError, match="steps"):
            parse_scenario(text)

    def test_unknown_top_level_key(self):
        """An unrecognized top-level key is rejected by name."""
        with pytest.raises(UnknownKey, match="stepz"):
            parse_scenario(MINIMAL.replace("steps:", "stepz:"))

    def test_misspelled_option_is_caught(self):
        """check_options rejects 'tolerence' instead of silently ignoring it."""
        text = MINIMAL + "check_options: {tolerence: 1e-6}\n"
        with pytest.raises(UnknownKey, match="tolerence"):
            parse_scenario(text)

    def test_syntax_error_carries_position(self):
        """Malformed YAML raises ScenarioSyntaxError with a line number."""
        with pytest.raises(ScenarioSyntaxError) as err:
            parse_scenario("steps: [unclosed\nchecks: [weak]\n")
        assert err.value.line is not None

    def test_unknown_state_name(self):
        """Naming a state the model does not define raises UnknownModel."""
        with pytest.raises(UnknownModel, match="sideways"):
            parse_scenario(MINIMAL.replace("up_z", "sideways"))

    def test_unknown_check_name(self):
        """An unrecognized check name is rejected."""
        with pytest.raises(ScenarioSyntaxError, match="strong"):
            parse_scenario(MINIMAL.replace("[weak, measurement_based]", "[strong]"))

    def test_scientific_notation_tolerance(self):
        """A bare 1e-6 tolerance parses as a float."""
        text = MINIMAL + "check_options: {decoherence_tol: 1e-6}\n"
        scenario = parse_scenario(text)
        assert scenario.tolerances.decoherence == pytest.approx(1e-6)

    def test_protocol_subset_key(self):
        """The S key selects the omitted steps for the protocol."""
        text = MINIMAL.replace("[weak, measurement_based]", "[protocol]") + "S: [1]\n"
        scenario = parse_scenario(text)
        assert scenario.subset == (1,)

    def test_inline_effect_matrices(self):
        """Instruments can be given as explicit effect matrices."""
        text = """
system: {model: custom, dim: 2}
initial_state:
  matrix: [[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]]
steps:
  - unitary: {matrix: [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}
    instrument:
      effects:
        - {label: "0", index: 0, matrix: [[[1, 0], [0, 0]], [[0, 0], [0.7071067811865476, 0]]]}
        - {label: "1", index: 0, matrix: [[[0, 0], [0, 0]], [[0, 0], [0.7071067811865476, 0]]]}
checks: [weak]
"""
        scenario = parse_scenario(text)
        report = run_scenario(scenario)
        assert report.verdicts() == (False,)


SPIN = {"model": "spin_half"}
GRID = {"model": "grid", "n_points": 64, "x_min": -16.0, "x_max": 16.0}
CUSTOM = {"model": "custom", "dim": 2}
MIXED_MATRIX = {"matrix": [[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]]}
EYE3 = [[[1.0 if r == c else 0.0, 0.0] for c in range(3)] for r in range(3)]
PACKET = {"name": "wavepacket", "center": 0.0, "sigma": 1.0}
CENTERS = {"start": -24.0, "stop": 24.0, "spacing": 2.0}


def _document(system=SPIN, initial_state="up_z", unitary="identity",
              instrument="projective_z", step=None, **extra):
    """A one-step scenario document with the given pieces, as YAML text."""
    if step is None:
        step = {"unitary": unitary, "instrument": instrument}
    doc = {"system": system, "initial_state": initial_state, "steps": [step],
           "checks": ["weak"], **extra}
    return yaml.safe_dump(doc)


def _grid(**pieces):
    return _document(system=GRID, initial_state=pieces.pop("initial_state", PACKET), **pieces)


def _custom(**pieces):
    return _document(system=CUSTOM, initial_state=pieces.pop("initial_state", MIXED_MATRIX),
                     **pieces)


# (document, exception type, text the message must contain)
MALFORMED = {
    "near_identity-missing-epsilon": (
        _document(initial_state={"name": "near_identity"}), ScenarioSyntaxError, "epsilon"),
    "wavepacket-missing-sigma": (
        _grid(initial_state={"name": "wavepacket", "center": 0.0}), ScenarioSyntaxError, "sigma"),
    "free_particle-missing-time": (
        _grid(unitary={"name": "free_particle", "mass": 1.0}), ScenarioSyntaxError, "time"),
    "gaussian-missing-centers": (
        _grid(instrument={"name": "gaussian", "width": 2.0}), ScenarioSyntaxError, "centers"),
    "near_identity-unknown-param": (
        _document(initial_state={"name": "near_identity", "epsilon": 0.1, "delta": 1}),
        UnknownKey, "delta"),
    "up_z-unknown-param": (
        _document(initial_state={"name": "up_z", "epsilon": 0.1}), UnknownKey, "epsilon"),
    "gaussian-unknown-param": (
        _grid(instrument={"name": "gaussian", "width": 2.0, "centers": CENTERS, "height": 1}),
        UnknownKey, "height"),
    "spin-unknown-state": (_document(initial_state="sideways"), UnknownModel, "sideways"),
    "spin-unknown-unitary": (_document(unitary="rotate"), UnknownModel, "rotate"),
    "spin-unknown-instrument": (_document(instrument="projective_w"), UnknownModel, "projective_w"),
    "grid-unknown-state": (_grid(initial_state="up_z"), UnknownModel, "up_z"),
    "grid-unknown-unitary": (_grid(unitary="hadamard"), UnknownModel, "hadamard"),
    "grid-unknown-instrument": (_grid(instrument="fuzzy"), UnknownModel, "fuzzy"),
    "custom-named-state": (_custom(initial_state="up_z"), UnknownModel, "initial_state"),
    "custom-unknown-unitary": (_custom(unitary="hadamard"), UnknownModel, "hadamard"),
    "custom-unknown-instrument": (_custom(instrument="fuzzy"), UnknownModel, "fuzzy"),
    "centers-missing-spacing": (
        _grid(instrument={"name": "gaussian", "width": 2.0,
                          "centers": {"start": -24.0, "stop": 24.0}}),
        ScenarioSyntaxError, "spacing"),
    "centers-stop-below-start": (
        _grid(instrument={"name": "gaussian", "width": 2.0,
                          "centers": {"start": 24.0, "stop": -24.0, "spacing": 2.0}}),
        ScenarioSyntaxError, "stop"),
    "directions-not-a-list": (
        _document(instrument={"name": "directions", "directions": "diagonals"}),
        ScenarioSyntaxError, "directions"),
    "directions-short-vector": (
        _document(instrument={"name": "directions", "directions": [[1.0, 0.0]]}),
        ScenarioSyntaxError, "directions[0]"),
    "state-matrix-wrong-dim": (
        _document(initial_state={"matrix": EYE3}), DimensionMismatch, "initial_state"),
    "unitary-matrix-wrong-dim": (
        _document(unitary={"matrix": EYE3}), DimensionMismatch, "steps[0].unitary"),
    "effect-matrix-wrong-dim": (
        _document(instrument={"effects": [{"label": "0", "matrix": EYE3}]}),
        DimensionMismatch, "effects[0]"),
    "effect-matrix-and-diagonal": (
        _document(instrument={"effects": [{"label": "0", **MIXED_MATRIX,
                                           "diagonal": [[1, 0], [1, 0]]}]}),
        ScenarioSyntaxError, "exactly one of 'matrix' and 'diagonal'"),
    "effect-without-operator": (
        _document(instrument={"effects": [{"label": "0"}]}),
        ScenarioSyntaxError, "exactly one of 'matrix' and 'diagonal'"),
    "effect-diagonal-wrong-dim": (
        _document(instrument={"effects": [{"label": "0", "diagonal": [[1, 0]] * 3}]}),
        DimensionMismatch, "effects[0].diagonal"),
    "effect-diagonal-bad-pair": (
        _document(instrument={"effects": [{"label": "0", "diagonal": [[1, 0], 1]}]}),
        ScenarioSyntaxError, "effects[0].diagonal[1]"),
    "effect-without-label": (
        _document(instrument={"effects": [{"matrix": MIXED_MATRIX["matrix"]}]}),
        ScenarioSyntaxError, "label"),
    "step-without-instrument": (
        _document(step={"unitary": "identity"}), ScenarioSyntaxError, "instrument"),
    "unknown-model": (_document(system={"model": "qutrit"}), UnknownModel, "qutrit"),
    "custom-dim-zero": (
        _document(system={"model": "custom", "dim": 0}, initial_state=MIXED_MATRIX),
        ScenarioSyntaxError, "dim"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_document_is_rejected(case):
    """Each malformed document raises its typed error, naming the offending key or name."""
    text, error, needle = MALFORMED[case]
    with pytest.raises(error) as err:
        parse_scenario(text)
    assert needle in str(err.value)


def _first_step(text):
    spec = parse_scenario(text).spec
    return spec.initial, spec.steps[0].unitary, spec.steps[0].instrument


def _bits(obj):
    """Bitwise-comparable form of a state, a unitary or an instrument."""
    if hasattr(obj, "effects"):
        return obj.kind, [(e.outcome_label, e.internal_index, e.matrix.tobytes())
                          for e in obj.effects]
    return obj.matrix.tobytes()


LIB = spin_half_library()
GRID_SYSTEM = GridSystem(n_points=64, x_min=-16.0, x_max=16.0)
TILTED = [[0.6, 0.8, 0.0], [-0.6, -0.8, 0.0]]
LIST_CENTERS = [-24.0 + 3.0 * k for k in range(17)]

# Library names no fixture uses: (document, piece of the first step, models API value)
UNUSED_NAMES = {
    "down_z": (_document(initial_state="down_z"), 0, LIB.down_z),
    "up_x": (_document(initial_state="up_x"), 0, LIB.up_x),
    "near_identity": (_document(initial_state={"name": "near_identity", "epsilon": 0.3}), 0,
                      LIB.near_identity(0.3)),
    "sigma_y": (_document(unitary="sigma_y"), 1, validate_unitary(SIGMA_Y)),
    "sigma_z": (_document(unitary="sigma_z"), 1, validate_unitary(SIGMA_Z)),
    "list-centers": (_grid(instrument={"name": "gaussian", "width": 2.0, "centers": LIST_CENTERS}),
                     2, gaussian_instrument(GRID_SYSTEM, 2.0, LIST_CENTERS)),
    "list-directions": (_document(instrument={"name": "directions", "directions": TILTED}), 2,
                        spin_direction_instrument(TILTED)),
}


@pytest.mark.parametrize("name", sorted(UNUSED_NAMES))
def test_unused_library_names_match_models_api(name):
    """Names no fixture exercises resolve to exactly what the models API builds."""
    text, piece, expected = UNUSED_NAMES[name]
    assert _bits(_first_step(text)[piece]) == _bits(expected)

class TestOverrides:
    def test_tolerance_and_seed(self):
        """Command-line style overrides replace the stored options."""
        scenario = parse_scenario(MINIMAL)
        updated = with_overrides(scenario, tol=1e-3, seed=9, shots=500)
        assert updated.tolerances.decoherence == pytest.approx(1e-3)
        assert updated.seed == 9
        assert updated.shots == 500
        assert updated.tolerances.validation == scenario.tolerances.validation

    def test_subset_policy(self):
        """The singletons policy propagates into the comparison check."""
        scenario = parse_scenario(MINIMAL)
        updated = with_overrides(scenario, subsets="singletons")
        report = run_scenario(updated)
        block = dict(report.checks)
        assert block["measurement_based"].policy == "singletons"


def test_diagonal_declaration_matches_matrix_fixture():
    """fuzzy_measurement.yaml with its effects declared by `diagonal:` takes the
    fast path and reports the same bytes as the shipped `matrix:` file, apart
    from the echo of the scenario document itself."""
    text = (FIXTURES / "fuzzy_measurement.yaml").read_text()
    doc = yaml.safe_load(text)
    for effect in doc["steps"][0]["instrument"]["effects"]:
        matrix = effect.pop("matrix")
        effect["diagonal"] = [row[r] for r, row in enumerate(matrix)]
    shipped, variant = parse_scenario(text), parse_scenario(yaml.safe_dump(doc))
    assert shipped.spec.steps[0].instrument._diagonal_stack is None
    assert variant.spec.steps[0].instrument._diagonal_stack is not None
    assert variant.echo["steps"][0]["instrument"]["effects"][1]["diagonal"] == [
        [0.0, 0.0], [0.7071067811865476, 0.0]]
    expected = emit_report(run_scenario(shipped), "structured")
    report = run_scenario(variant)
    assert emit_report(replace(report, scenario=shipped.echo), "structured") == expected


@pytest.mark.parametrize("spacing, needle", [
    (0.001, "176001 centers x 256 grid points"),  # refused by gaussian_instrument
    (1e-9, "centers exceed the cap"),  # refused by the parser before listing the centers
])
def test_oversized_center_grid_exits_2_in_bounded_memory(tmp_path, spacing, needle):
    """free_particle.yaml with too fine a center spacing exits 2 with
    BudgetExceeded before allocating, well inside a 1 GiB address cap."""
    doc = yaml.safe_load((FIXTURES / "free_particle.yaml").read_text())
    for step in doc["steps"]:
        step["instrument"]["centers"]["spacing"] = spacing
    path = tmp_path / "dense_centers.yaml"
    path.write_text(yaml.safe_dump(doc))
    limit = 1 << 30
    code = (
        "import resource, sys\n"
        f"resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))\n"
        "from decohist.cli import main\n"
        f"sys.exit(main(['check', {str(path)!r}]))\n"
    )
    src = str(Path(decohist.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 2, done.stderr
    assert "BudgetExceeded" in done.stderr and needle in done.stderr


def test_large_grid_echo_runs_in_bounded_memory(tmp_path):
    """free_particle.yaml at 2,048 points, which dense states and unitaries
    would need gigabytes for, completes under a 1 GiB address cap and exits 1
    with the measurement-based check failed."""
    doc = yaml.safe_load((FIXTURES / "free_particle.yaml").read_text())
    doc["system"]["n_points"] = 2048
    path = tmp_path / "large_grid.yaml"
    path.write_text(yaml.safe_dump(doc))
    limit = 1 << 30
    code = (
        "import resource, sys\n"
        f"resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))\n"
        "from decohist.cli import main\n"
        f"sys.exit(main(['check', {str(path)!r}, '--format', 'structured']))\n"
    )
    src = str(Path(decohist.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 1, done.stderr
    report = parse_report(done.stdout)
    assert [name for name, _ in report.checks] == ["measurement_based"]
    assert report.verdicts() == (False,)


class TestRunScenario:
    def test_spin_xy_fixture_passes(self):
        """The reference fixture passes both of its checks."""
        scenario = parse_scenario((FIXTURES / "spin_xy.yaml").read_text())
        report = run_scenario(scenario)
        assert report.verdicts() == (True, True)
        assert sum(p for _, p in report.probabilities) == pytest.approx(1.0, abs=1e-12)

    def test_fuzzy_fixture_fails_weak_only(self):
        """The fuzzy fixture fails weak but passes the other two checks."""
        scenario = parse_scenario((FIXTURES / "fuzzy_measurement.yaml").read_text())
        report = run_scenario(scenario)
        verdicts = dict(zip((name for name, _ in report.checks), report.verdicts()))
        assert verdicts == {"weak": False, "measurement_based": True, "kent": True}

    def test_checks_run_in_declared_order(self):
        """Report blocks follow the order in the checks list."""
        scenario = parse_scenario(MINIMAL)
        report = run_scenario(scenario)
        assert tuple(name for name, _ in report.checks) == ("weak", "measurement_based")
        assert report.checks[0][1].criterion == "weak"
        assert report.checks[1][1].criterion == "measurement_based"


def test_repeated_runs_do_not_grow_the_heap():
    """Ten rounds of parse, run and emit over every fixture leave less than
    1 MB of new traced allocations behind. Protocol shots are capped at
    2,000; one untraced round first fills the one-off caches."""
    texts = [p.read_text() for p in sorted(FIXTURES.glob("*.yaml"))]

    def one_round():
        for text in texts:
            scenario = parse_scenario(text)
            scenario = with_overrides(scenario, shots=min(scenario.shots, 2000))
            emit_report(run_scenario(scenario), "structured")

    one_round()
    tracemalloc.start()
    try:
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(10):
            one_round()
        gc.collect()
        growth = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert growth < 2**20, f"{growth} bytes retained after 10 rounds"


class TestReports:
    def test_structured_output_is_deterministic(self):
        """The same scenario and seed give byte-identical structured reports."""
        scenario = parse_scenario((FIXTURES / "spin_directions.yaml").read_text())
        a = emit_report(run_scenario(scenario), "structured")
        b = emit_report(run_scenario(scenario), "structured")
        assert a == b

    def test_structured_roundtrip(self):
        """Parsing an emitted report reproduces the report object, for every fixture."""
        for path in sorted(FIXTURES.glob("*.yaml")):
            report = run_scenario(parse_scenario(path.read_text()))
            again = parse_report(emit_report(report, "structured"))
            assert again == report, path.name

    def test_structured_is_json_with_versions(self):
        """Structured output is valid JSON carrying both version stamps."""
        report = run_scenario(parse_scenario(MINIMAL))
        doc = json.loads(emit_report(report, "structured"))
        assert doc["format_version"] == "1"
        assert "package_version" in doc
        assert doc["seed"] == 0

    def test_text_output_names_verdicts(self):
        """Text output has one PASS/FAIL line per requested check."""
        report = run_scenario(parse_scenario(MINIMAL))
        text = emit_report(report, "text")
        assert "weak" in text and "measurement_based" in text
        assert text.count("PASS") == 2

    def test_unknown_format_rejected(self):
        """Anything but text or structured is an error."""
        report = run_scenario(parse_scenario(MINIMAL))
        with pytest.raises(Exception):
            emit_report(report, "xml")


class TestCli:
    def test_exit_codes_follow_verdicts(self, capsys):
        """Exit 0 when every check passes, 1 when any fails."""
        assert cli_main(["check", str(FIXTURES / "spin_xy.yaml")]) == 0
        assert cli_main(["check", str(FIXTURES / "fuzzy_measurement.yaml")]) == 1
        capsys.readouterr()

    def test_missing_file_is_usage_error(self, capsys):
        """A nonexistent scenario path exits 2 with a structured error."""
        code = cli_main(["check", "/nonexistent.yaml", "--format", "structured"])
        captured = capsys.readouterr()
        assert code == 2
        doc = json.loads(captured.out)
        assert "error" in doc

    def test_non_utf8_file_is_usage_error(self, tmp_path, capsys):
        """A scenario file that is not UTF-8 exits 2 with a typed error, not a traceback."""
        path = tmp_path / "latin1.yaml"
        path.write_bytes("# caf\xe9\n".encode("latin-1") + MINIMAL.encode())
        code = cli_main(["check", str(path), "--format", "structured"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 2
        assert doc["error"]["type"] == "UnicodeDecodeError"

    def test_structured_output_parses(self, capsys):
        """The structured CLI output is a loadable report."""
        code = cli_main(
            ["check", str(FIXTURES / "interference_classical.yaml"), "--format", "structured"]
        )
        captured = capsys.readouterr()
        assert code == 0
        report = parse_report(captured.out)
        assert all(report.verdicts())

    def test_overrides_change_the_run(self, capsys):
        """--tol flips a verdict that sits between the two tolerances."""
        path = str(FIXTURES / "fuzzy_measurement.yaml")
        assert cli_main(["check", path, "--tol", "0.3"]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan", "0"])
    def test_non_finite_tolerance_flag_is_refused(self, value, capsys):
        """--tol inf would pass every check vacuously; it exits 2 instead."""
        code = cli_main(["check", str(FIXTURES / "spin_xy.yaml"), f"--tol={value}"])
        assert code == 2
        assert "ValidationError" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["decoherence_tol", "validation_tol"])
    def test_infinite_tolerance_option_is_refused(self, key, tmp_path, capsys):
        """An infinite tolerance in check_options exits 2 with ValidationError."""
        path = tmp_path / "inf.yaml"
        path.write_text(MINIMAL + f"check_options: {{{key}: .inf}}\n")
        assert cli_main(["check", str(path)]) == 2
        assert "ValidationError: tolerances must be finite" in capsys.readouterr().err
        with pytest.raises(ValidationError):
            Tolerances(**{key.removesuffix("_tol"): float("inf")})

    def test_seed_flag_threads_through(self, capsys):
        """--seed is recorded in the emitted report."""
        code = cli_main(
            ["check", str(FIXTURES / "spin_xy.yaml"), "--seed", "42", "--format", "structured"]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert json.loads(captured.out)["seed"] == 42


# SHA-256 of emit_report(run_scenario(parse_scenario(F)), "structured") for
# every shipped fixture. A change to the propagation code must leave these
# bytes alone; a deliberate change to a report updates its digest here. The
# digests were taken with numpy 2.4 on OpenBLAS 0.3.31, one BLAS thread and
# OPENBLAS_CORETYPE=Haswell, the environment the pinned_digests fixture sets.
# Other OpenBLAS kernels (Sandybridge, Prescott) differ in the last bits of
# the grid fixtures' reports. free_particle.yaml and gaussian_static.yaml were
# retaken when their declared pure states began to be walked as vectors.
FIXTURE_REPORT_SHA256 = {
    "free_particle.yaml": "23ec3be2ed2f463f448be544d3d46f827b222f38ecccf7d7a79c027db0f58a9c",
    "fuzzy_measurement.yaml": "ff3bfaf46d3e8f99c3708358f9cb5826cae82ef42ddaff4a532ee4bb80feb502",
    "fuzzy_then_trivial.yaml": "10f89091f58f923b1fa8fa27ea685054bd9a83b6285f7ffae249d491b494cf38",
    "gaussian_static.yaml": "7526c7e6e347af5805a2555ea13027b20bba417ef3a71f270df68bffb3282e82",
    "interference.yaml": "1a8f6427a6571d0715a195721385029d9fb39857257ff4772c42476a703ff5f3",
    "interference_classical.yaml": "b57d1d0a45bc08c3451e90f457498fdd314f799cb29af0c58f1f01409305daa4",
    "spin_directions.yaml": "5b9f3e4f9e5d70f20c6b6eab6275a7ba2dbc7386ec1e1d62c5ac004e9c85deee",
    "spin_xy.yaml": "93dc066027b8b302c0a8ff152d104118861fe6601aee688f299eccccdf93d18b",
}

_DIGEST_CODE = """
import hashlib, json, sys
from dataclasses import replace
from pathlib import Path
from decohist import emit_report, parse_scenario, run_scenario
digests = {}
for path in sorted(Path(sys.argv[1]).glob("*.yaml")):
    out = emit_report(run_scenario(parse_scenario(path.read_text(encoding="utf-8"))), "structured")
    digests[path.name] = hashlib.sha256(out.encode()).hexdigest()
print(json.dumps(digests))
"""


@pytest.fixture(scope="module")
def pinned_digests():
    """Report digests of every fixture from one child process with one BLAS
    thread and Haswell kernels, whatever the environment of the test run."""
    src = str(Path(decohist.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1", "OPENBLAS_CORETYPE": "Haswell"}
    done = subprocess.run([sys.executable, "-c", _DIGEST_CODE, str(FIXTURES)], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


@pytest.mark.parametrize("name", sorted(FIXTURE_REPORT_SHA256))
def test_fixture_report_bytes_are_pinned(name, pinned_digests):
    """Each fixture's structured report hashes to its pinned digest."""
    assert pinned_digests[name] == FIXTURE_REPORT_SHA256[name]
