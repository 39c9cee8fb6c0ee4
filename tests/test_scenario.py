"""Tests for scenario parsing, report serialization, and the command line."""

import hashlib
import json
from pathlib import Path

import pytest

from decohist import (
    ScenarioSyntaxError,
    UnknownKey,
    UnknownModel,
    emit_report,
    parse_report,
    parse_scenario,
    run_scenario,
    with_overrides,
)
from decohist.cli import main as cli_main

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


class TestReports:
    def test_structured_output_is_deterministic(self):
        """The same scenario and seed give byte-identical structured reports."""
        scenario = parse_scenario((FIXTURES / "spin_directions.yaml").read_text())
        a = emit_report(run_scenario(scenario), "structured")
        b = emit_report(run_scenario(scenario), "structured")
        assert a == b

    def test_structured_roundtrip(self):
        """Parsing an emitted report reproduces the report object."""
        scenario = parse_scenario((FIXTURES / "interference.yaml").read_text())
        report = run_scenario(scenario)
        again = parse_report(emit_report(report, "structured"))
        assert again == report

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
# digests were taken with numpy 2.4 on OpenBLAS 0.3.31 (Haswell kernels);
# other BLAS builds may differ in the last bits of some floats.
FIXTURE_REPORT_SHA256 = {
    "free_particle.yaml": "93da2bbf126126840de7d3a284e6e9949309b205ab4fb301432df786497a2b31",
    "fuzzy_measurement.yaml": "ff3bfaf46d3e8f99c3708358f9cb5826cae82ef42ddaff4a532ee4bb80feb502",
    "fuzzy_then_trivial.yaml": "10f89091f58f923b1fa8fa27ea685054bd9a83b6285f7ffae249d491b494cf38",
    "gaussian_static.yaml": "49c5cdb93c246185978a73a99a24870a6e470c7401c1be830c2342fdf2a794c2",
    "interference.yaml": "1a8f6427a6571d0715a195721385029d9fb39857257ff4772c42476a703ff5f3",
    "interference_classical.yaml": "b57d1d0a45bc08c3451e90f457498fdd314f799cb29af0c58f1f01409305daa4",
    "spin_directions.yaml": "5b9f3e4f9e5d70f20c6b6eab6275a7ba2dbc7386ec1e1d62c5ac004e9c85deee",
    "spin_xy.yaml": "93dc066027b8b302c0a8ff152d104118861fe6601aee688f299eccccdf93d18b",
}


@pytest.mark.parametrize("name", sorted(FIXTURE_REPORT_SHA256))
def test_fixture_report_bytes_are_pinned(name):
    """Each fixture's structured report hashes to its pinned digest."""
    text = (FIXTURES / name).read_text(encoding="utf-8")
    out = emit_report(run_scenario(parse_scenario(text)), "structured")
    assert hashlib.sha256(out.encode()).hexdigest() == FIXTURE_REPORT_SHA256[name]
