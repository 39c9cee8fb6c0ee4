"""Scenario files, check orchestration and reports.

Scenarios are YAML mappings parsed fail-closed: unknown keys are errors, and
every step must name its unitary and instrument explicitly (including
"identity" and "none"), so a file cannot silently get default physics.
Matrices on the wire are nested arrays of [re, im] pairs, unambiguous across
languages. An inline effect gives either its ``matrix`` or, to declare a
diagonal effect, its ``diagonal`` as a flat list of [re, im] pairs.

Reports carry the scenario echo, the outcome-probability table, one entry per
requested check, and version/seed stamps. The structured form is stable,
sorted JSON with no timestamps, so identical inputs and seed produce
byte-identical output; parse_report(emit_report(r)) == r.
"""

from __future__ import annotations

import importlib.metadata
import json
from dataclasses import asdict, dataclass, replace

import numpy as np
import yaml

from . import core
from .core import Effect, Instrument, Tolerances
from .criteria import (
    CriterionReport,
    Witness,
    check_kent,
    check_measurement_based,
    check_weak,
    trivial_instrument,
)
from .errors import (
    BudgetExceeded,
    DimensionMismatch,
    ScenarioSyntaxError,
    UnknownKey,
    UnknownModel,
    ValidationError,
)
from .histories import (
    DEFAULT_PATH_PAIR_BUDGET,
    HistorySpec,
    Step,
    _normalize_subset,
    decoherence_functional,
    marginal_distribution,
)
from .models import (
    AXIS_DIRECTIONS,
    MAX_PROFILE_ENTRIES,
    GridSystem,
    free_particle_unitary,
    gaussian_instrument,
    gaussian_wavepacket,
    spin_direction_instrument,
    spin_half_library,
)
from .protocol import ProtocolConfig, ProtocolResult, run_protocol

REPORT_FORMAT_VERSION = "1"

try:
    PACKAGE_VERSION = importlib.metadata.version("artifact")
except importlib.metadata.PackageNotFoundError:  # running from a source tree
    PACKAGE_VERSION = "0.1.0"

CHECK_NAMES = ("weak", "measurement_based", "kent", "protocol")

_OPTION_DEFAULTS = {
    "validation_tol": 1e-9,
    "decoherence_tol": 1e-9,
    "subset_policy": "all",
    "kent_policy": "all",
    "shots": 100000,
    "seed": 0,
    "alpha": 0.01,
    "budget": DEFAULT_PATH_PAIR_BUDGET,
}


@dataclass(frozen=True, eq=False)
class Scenario:
    """A parsed, resolved scenario ready to run."""

    spec: HistorySpec
    checks: tuple[str, ...]
    subset: tuple[int, ...]
    tolerances: Tolerances
    subset_policy: str
    kent_policy: str
    shots: int
    seed: int
    alpha: float
    budget: int
    echo: dict

    def options(self) -> dict:
        return {
            "validation_tol": self.tolerances.validation,
            "decoherence_tol": self.tolerances.decoherence,
            "subset_policy": self.subset_policy,
            "kent_policy": self.kent_policy,
            "shots": self.shots,
            "seed": self.seed,
            "alpha": self.alpha,
            "budget": self.budget,
        }


@dataclass(frozen=True)
class Report:
    format_version: str
    package_version: str
    seed: int
    scenario: dict
    options: dict
    probabilities: tuple[tuple[tuple[str, ...], float], ...]
    checks: tuple[tuple[str, object], ...]

    def verdicts(self) -> tuple[bool, ...]:
        out = []
        for _, payload in self.checks:
            if isinstance(payload, CriterionReport):
                out.append(payload.verdict)
            else:
                out.append(payload.consistent)
        return tuple(out)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def _fields(node, path: str, required=(), optional=()) -> dict:
    """Check that ``node`` is a mapping with every required key and no others.

    Passing ``node`` itself as ``optional`` checks only the required keys."""
    if not isinstance(node, dict):
        raise ScenarioSyntaxError(f"{path}: expected a mapping, got {type(node).__name__}")
    allowed = {*required, *optional}
    for key in node:
        if key not in allowed:
            raise UnknownKey(f"{path}: unknown key {key!r} (allowed: {sorted(allowed)})")
    for key in required:
        if key not in node:
            raise ScenarioSyntaxError(f"{path}: missing key {key!r}")
    return node


def _nonempty_list(node, path: str) -> list:
    if not isinstance(node, list) or not node:
        raise ScenarioSyntaxError(f"{path}: expected a nonempty list")
    return node


def _as_float(node, path: str) -> float:
    if isinstance(node, bool) or node is None:
        raise ScenarioSyntaxError(f"{path}: expected a number")
    if isinstance(node, (int, float)):
        return float(node)
    if isinstance(node, str):
        # YAML 1.1 reads bare scientific notation like 1e-9 as a string.
        try:
            return float(node)
        except ValueError:
            pass
    raise ScenarioSyntaxError(f"{path}: expected a number, got {node!r}")


def _as_int(node, path: str) -> int:
    if isinstance(node, bool) or not isinstance(node, int):
        raise ScenarioSyntaxError(f"{path}: expected an integer, got {node!r}")
    return node


def _as_str(node, path: str) -> str:
    if not isinstance(node, str):
        raise ScenarioSyntaxError(f"{path}: expected a string, got {node!r}")
    return node


def _parse_entries(node, path: str) -> list[complex]:
    """A nonempty list of [re, im] pairs."""
    if not isinstance(node, list) or not node:
        raise ScenarioSyntaxError(f"{path}: expected a nonempty list of [re, im] pairs")
    entries = []
    for c, cell in enumerate(node):
        if not isinstance(cell, list) or len(cell) != 2:
            raise ScenarioSyntaxError(f"{path}[{c}]: expected [re, im], got {cell!r}")
        entries.append(complex(_as_float(cell[0], f"{path}[{c}][0]"),
                               _as_float(cell[1], f"{path}[{c}][1]")))
    return entries


def _parse_matrix(node, dim: int, path: str) -> np.ndarray:
    """Nested arrays of [re, im] pairs forming a dim x dim matrix."""
    if not isinstance(node, list) or not node:
        raise ScenarioSyntaxError(f"{path}: expected a nonempty list of rows")
    rows = []
    for r, row in enumerate(node):
        if not isinstance(row, list) or len(row) != len(node):
            raise ScenarioSyntaxError(f"{path}[{r}]: matrix must be square")
        rows.append(_parse_entries(row, f"{path}[{r}]"))
    if len(rows) != dim:
        raise DimensionMismatch(f"{path}: matrix dim {len(rows)} != system dim {dim}")
    return np.array(rows, dtype=np.complex128)


def _parse_diagonal(node, dim: int, path: str) -> np.ndarray:
    """A list of dim [re, im] pairs: the diagonal of a diagonal effect."""
    entries = _parse_entries(node, path)
    if len(entries) != dim:
        raise DimensionMismatch(f"{path}: diagonal length {len(entries)} != system dim {dim}")
    return np.array(entries, dtype=np.complex128)


@dataclass(frozen=True, eq=False)
class _System:
    model: str
    dim: int
    grid: GridSystem | None = None


_SYSTEM_KEYS = {"spin_half": (), "grid": ("n_points", "x_min", "x_max"), "custom": ("dim",)}


def _parse_system(node, path: str) -> _System:
    # The other allowed keys depend on the model, so only 'model' is checked first.
    model = _as_str(_fields(node, path, ("model",), node)["model"], f"{path}.model")
    if model not in _SYSTEM_KEYS:
        raise UnknownModel(f"{path}.model: unknown model {model!r} "
                           f"(known: {', '.join(_SYSTEM_KEYS)})")
    node = _fields(node, path, ("model", *_SYSTEM_KEYS[model]))
    if model == "grid":
        grid = GridSystem(
            n_points=_as_int(node["n_points"], f"{path}.n_points"),
            x_min=_as_float(node["x_min"], f"{path}.x_min"),
            x_max=_as_float(node["x_max"], f"{path}.x_max"),
        )
        return _System(model="grid", dim=grid.n_points, grid=grid)
    if model == "custom":
        dim = _as_int(node["dim"], f"{path}.dim")
        if dim < 1:
            raise ScenarioSyntaxError(f"{path}.dim: must be >= 1")
        return _System(model="custom", dim=dim)
    return _System(model="spin_half", dim=2)


def _parse_centers(node, path: str) -> list[float]:
    if isinstance(node, list):
        return [_as_float(c, f"{path}[{k}]") for k, c in enumerate(node)]
    node = _fields(node, path, ("start", "stop", "spacing"))
    start = _as_float(node["start"], f"{path}.start")
    stop = _as_float(node["stop"], f"{path}.stop")
    spacing = _as_float(node["spacing"], f"{path}.spacing")
    if spacing <= 0 or stop < start:
        raise ScenarioSyntaxError(f"{path}: need stop >= start and spacing > 0")
    count = int(np.floor((stop - start) / spacing + 0.5)) + 1
    if count > MAX_PROFILE_ENTRIES:  # more than any grid of >= 2 points could take
        raise BudgetExceeded(f"{path}: {count} centers exceed the cap {MAX_PROFILE_ENTRIES}")
    return [start + k * spacing for k in range(count)]


def _parse_directions(node, path: str) -> tuple:
    if node == "axes":
        return AXIS_DIRECTIONS
    if not isinstance(node, list):
        raise ScenarioSyntaxError(f"{path}: expected 'axes' or a list")
    vecs = []
    for k, v in enumerate(node):
        if not isinstance(v, list) or len(v) != 3:
            raise ScenarioSyntaxError(f"{path}[{k}]: expected a 3-vector")
        vecs.append(tuple(_as_float(c, f"{path}[{k}][{j}]") for j, c in enumerate(v)))
    return tuple(vecs)


# Library parameters are numbers, except these.
_PARAM_PARSERS = {"centers": _parse_centers, "directions": _parse_directions}


def _spin(attr: str):
    """Builder for a named spin-1/2 library object; bare matrices become unitaries."""
    def build(system, tol):
        obj = getattr(spin_half_library(tol), attr)
        return core.validate_unitary(obj, tol) if isinstance(obj, np.ndarray) else obj
    return build


# (model, role, name) -> (required params, optional params with defaults, builder).
# Model None marks names every system has. Builders take (system, tol, **params).
_LIBRARY = {
    (None, "unitary", "identity"): (
        (), {}, lambda system, tol: core.validate_unitary(np.eye(system.dim), tol)),
    (None, "instrument", "trivial"): (
        (), {}, lambda system, tol: trivial_instrument(system.dim, tol)),
    **{("spin_half", role, name): ((), {}, _spin(name)) for role, names in (
        ("state", ("up_z", "down_z", "up_x", "mixed")),
        ("unitary", ("hadamard", "sigma_x", "sigma_y", "sigma_z")),
        ("instrument", ("projective_x", "projective_y", "projective_z", "fuzzy")),
    ) for name in names},
    ("spin_half", "state", "near_identity"): (
        ("epsilon",), {},
        lambda system, tol, epsilon: spin_half_library(tol).near_identity(epsilon, tol)),
    ("spin_half", "instrument", "directions"): (
        (), {"directions": "axes"},
        lambda system, tol, directions: spin_direction_instrument(directions, tol)),
    ("grid", "state", "wavepacket"): (
        ("center", "sigma"), {},
        lambda system, tol, center, sigma: gaussian_wavepacket(system.grid, center, sigma, tol)),
    ("grid", "unitary", "free_particle"): (
        ("mass", "time"), {},
        lambda system, tol, mass, time: free_particle_unitary(system.grid, mass, time, tol)),
    ("grid", "instrument", "gaussian"): (
        ("width", "centers"), {},
        lambda system, tol, width, centers: gaussian_instrument(system.grid, width, centers, tol)),
}


def _parse_named(node, role: str, system: _System, tol: Tolerances, path: str):
    """Resolve 'name' or {name: ..., params...} against the library for ``role``."""
    if isinstance(node, str):
        name, params = node, {}
    else:
        params = dict(_fields(node, path, ("name",), node))
        name = _as_str(params.pop("name"), f"{path}.name")
    entry = _LIBRARY.get((None, role, name)) or _LIBRARY.get((system.model, role, name))
    if entry is None:
        raise UnknownModel(f"{path}: unknown {system.model} {role} {name!r}")
    required, optional, build = entry
    params = {**optional, **_fields(params, path, required, optional)}
    return build(system, tol, **{
        key: _PARAM_PARSERS.get(key, _as_float)(params[key], f"{path}.{key}")
        for key in (*required, *optional)
    })


def _parse_operator(node, role: str, system: _System, tol: Tolerances, path: str):
    """A state or a unitary: an inline {matrix: ...} or a library name."""
    if isinstance(node, dict) and "matrix" in node:
        m = _parse_matrix(_fields(node, path, ("matrix",))["matrix"], system.dim, f"{path}.matrix")
        return (core.validate_density if role == "state" else core.validate_unitary)(m, tol)
    return _parse_named(node, role, system, tol, path)


def _parse_instrument(node, system: _System, tol: Tolerances, path: str) -> Instrument | None:
    if node == "none":
        return None
    if not (isinstance(node, dict) and "effects" in node):
        return _parse_named(node, "instrument", system, tol, path)
    effects = []
    for k, e in enumerate(_nonempty_list(_fields(node, path, ("effects",))["effects"],
                                         f"{path}.effects")):
        where = f"{path}.effects[{k}]"
        e = _fields(e, where, ("label",), ("index", "matrix", "diagonal"))
        if ("matrix" in e) == ("diagonal" in e):
            raise ScenarioSyntaxError(f"{where}: give exactly one of 'matrix' and 'diagonal'")
        if "matrix" in e:
            m = _parse_matrix(e["matrix"], system.dim, f"{where}.matrix")
        else:
            m = _parse_diagonal(e["diagonal"], system.dim, f"{where}.diagonal")
        effects.append(Effect(_as_str(e["label"], f"{where}.label"),
                              _as_int(e.get("index", 0), f"{where}.index"), m))
    return core.validate_instrument(effects, tol)


_OPTION_PARSERS = {float: _as_float, int: _as_int, str: _as_str}


def parse_scenario(text: str) -> Scenario:
    """Parse and resolve a scenario document; strict about unknown keys."""
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        line = mark.line + 1 if mark is not None else None
        column = mark.column + 1 if mark is not None else None
        where = f" at line {line}, column {column}" if line is not None else ""
        raise ScenarioSyntaxError(f"not valid YAML{where}: {exc}", line=line, column=column)
    doc = _fields(doc, "scenario", ("system", "initial_state", "steps", "checks"),
                  ("S", "check_options"))

    opts = dict(_OPTION_DEFAULTS)
    for key, value in _fields(doc.get("check_options") or {}, "check_options",
                              (), _OPTION_DEFAULTS).items():
        opts[key] = _OPTION_PARSERS[type(_OPTION_DEFAULTS[key])](value, f"check_options.{key}")
    if opts["subset_policy"] not in ("all", "singletons"):
        raise ScenarioSyntaxError("check_options.subset_policy: expected 'all' or 'singletons'")
    if opts["kent_policy"] not in ("all", "singletons_plus_full"):
        raise ScenarioSyntaxError(
            "check_options.kent_policy: expected 'all' or 'singletons_plus_full'"
        )
    tol = Tolerances(validation=opts["validation_tol"], decoherence=opts["decoherence_tol"])

    system = _parse_system(doc["system"], "system")
    initial = _parse_operator(doc["initial_state"], "state", system, tol, "initial_state")
    steps = []
    for k, s in enumerate(_nonempty_list(doc["steps"], "steps")):
        s = _fields(s, f"steps[{k}]", ("unitary", "instrument"))
        steps.append(Step(
            unitary=_parse_operator(s["unitary"], "unitary", system, tol, f"steps[{k}].unitary"),
            instrument=_parse_instrument(s["instrument"], system, tol, f"steps[{k}].instrument"),
        ))
    spec = HistorySpec(initial=initial, steps=tuple(steps))

    checks = []
    for k, c in enumerate(_nonempty_list(doc["checks"], "checks")):
        name = _as_str(c, f"checks[{k}]")
        if name not in CHECK_NAMES:
            raise ScenarioSyntaxError(
                f"checks[{k}]: unknown check {name!r} (known: {', '.join(CHECK_NAMES)})"
            )
        if name in checks:
            raise ScenarioSyntaxError(f"checks[{k}]: duplicate check {name!r}")
        checks.append(name)

    subset_node = doc.get("S", [])
    if not isinstance(subset_node, list):
        raise ScenarioSyntaxError("S: expected a list of step positions")
    subset = tuple(_as_int(v, f"S[{k}]") for k, v in enumerate(subset_node))

    return Scenario(
        spec=spec,
        checks=tuple(checks),
        subset=_normalize_subset(spec, subset),
        tolerances=tol,
        subset_policy=opts["subset_policy"],
        kent_policy=opts["kent_policy"],
        shots=opts["shots"],
        seed=opts["seed"],
        alpha=opts["alpha"],
        budget=opts["budget"],
        echo=doc,
    )


def with_overrides(
    scenario: Scenario,
    tol: float | None = None,
    subsets: str | None = None,
    shots: int | None = None,
    seed: int | None = None,
    alpha: float | None = None,
    budget: int | None = None,
) -> Scenario:
    """Apply CLI-style overrides; ``tol`` replaces the decoherence tolerance."""
    tolerances = scenario.tolerances
    if tol is not None:
        tolerances = Tolerances(validation=tolerances.validation, decoherence=tol)
    return replace(
        scenario,
        tolerances=tolerances,
        subset_policy=subsets if subsets is not None else scenario.subset_policy,
        shots=shots if shots is not None else scenario.shots,
        seed=seed if seed is not None else scenario.seed,
        alpha=alpha if alpha is not None else scenario.alpha,
        budget=budget if budget is not None else scenario.budget,
    )


# ---------------------------------------------------------------------------
# Running
# ---------------------------------------------------------------------------


def run_scenario(scenario: Scenario) -> Report:
    """Execute the requested checks in declared order; never partial — any
    check error propagates (the CLI turns it into an error report, exit 2)."""
    spec = scenario.spec
    tol = scenario.tolerances
    probabilities = marginal_distribution(spec, (), tol, scenario.budget)
    checks: list[tuple[str, object]] = []
    for name in scenario.checks:
        if name == "weak":
            functional = decoherence_functional(spec, tol, scenario.budget)
            checks.append((name, check_weak(functional, tol)))
        elif name == "measurement_based":
            checks.append((name, check_measurement_based(
                spec, tol, subset_policy=scenario.subset_policy, budget=scenario.budget
            )))
        elif name == "kent":
            checks.append((name, check_kent(spec, tol=tol, policy=scenario.kent_policy)))
        elif name == "protocol":
            cfg = ProtocolConfig(
                spec=spec,
                subset=scenario.subset,
                shots=scenario.shots,
                seed=scenario.seed,
                alpha=scenario.alpha,
            )
            checks.append((name, run_protocol(cfg, tol)))
    return Report(
        format_version=REPORT_FORMAT_VERSION,
        package_version=PACKAGE_VERSION,
        seed=scenario.seed,
        scenario=scenario.echo,
        options=scenario.options(),
        probabilities=tuple(sorted((tuple(k), float(v)) for k, v in probabilities.items())),
        checks=tuple(checks),
    )


# ---------------------------------------------------------------------------
# Emission and round-trip
# ---------------------------------------------------------------------------


def _tuplify(obj):
    if isinstance(obj, list):
        return tuple(_tuplify(o) for o in obj)
    return obj


def _criterion_from_json(d: dict) -> CriterionReport:
    return CriterionReport(
        criterion=d["criterion"],
        verdict=bool(d["verdict"]),
        max_residual=float(d["max_residual"]),
        witnesses=tuple(
            Witness(location=_tuplify(w["location"]), residual=float(w["residual"]))
            for w in d["witnesses"]
        ),
        per_subset=None if d["per_subset"] is None else tuple(
            (tuple(int(i) for i in subset), float(residual))
            for subset, residual in d["per_subset"]
        ),
        policy=d["policy"],
        notes=tuple(d["notes"]),
    )


def _dist_to_json(dist: dict) -> list:
    return [[list(k), v] for k, v in sorted(dist.items())]


def _dist_from_json(rows: list) -> dict:
    return {tuple(k): float(v) for k, v in rows}


def _protocol_to_json(r: ProtocolResult) -> dict:
    return {**asdict(r), "dist_with": _dist_to_json(r.dist_with),
            "dist_without": _dist_to_json(r.dist_without)}


def _protocol_from_json(d: dict) -> ProtocolResult:
    return ProtocolResult(
        dist_with=_dist_from_json(d["dist_with"]),
        dist_without=_dist_from_json(d["dist_without"]),
        tv_distance=float(d["tv_distance"]),
        exact_tv=float(d["exact_tv"]),
        consistent=bool(d["consistent"]),
        statistic=None if d["statistic"] is None else float(d["statistic"]),
        p_value=None if d["p_value"] is None else float(d["p_value"]),
        dof=None if d["dof"] is None else int(d["dof"]),
        mode=d["mode"],
    )


def report_to_json(report: Report) -> dict:
    checks = []
    for name, payload in report.checks:
        if isinstance(payload, CriterionReport):
            checks.append({"check": name, "kind": "criterion", "report": asdict(payload)})
        else:
            checks.append({"check": name, "kind": "protocol",
                           "result": _protocol_to_json(payload)})
    return {
        "format_version": report.format_version,
        "package_version": report.package_version,
        "seed": report.seed,
        "scenario": report.scenario,
        "options": report.options,
        "probabilities": [[list(labels), p] for labels, p in report.probabilities],
        "checks": checks,
    }


def report_from_json(doc: dict) -> Report:
    checks = []
    for entry in doc["checks"]:
        if entry["kind"] == "criterion":
            checks.append((entry["check"], _criterion_from_json(entry["report"])))
        else:
            checks.append((entry["check"], _protocol_from_json(entry["result"])))
    return Report(
        format_version=doc["format_version"],
        package_version=doc["package_version"],
        seed=int(doc["seed"]),
        scenario=doc["scenario"],
        options=doc["options"],
        probabilities=tuple(
            (tuple(labels), float(p)) for labels, p in doc["probabilities"]
        ),
        checks=tuple(checks),
    )


def parse_report(text: str) -> Report:
    """Inverse of emit_report(..., 'structured')."""
    return report_from_json(json.loads(text))


def _format_labels(labels: tuple[str, ...]) -> str:
    return "(" + ", ".join(labels) + ")" if labels else "()"


def _emit_text(report: Report) -> str:
    lines: list[str] = []
    lines.append("decohist report")
    lines.append(f"format {report.format_version}, package {report.package_version}, "
                 f"seed {report.seed}")
    lines.append("")
    lines.append("outcome probabilities:")
    width = max((len(_format_labels(lbls)) for lbls, _ in report.probabilities), default=2)
    total = 0.0
    for labels, p in report.probabilities:
        lines.append(f"  {_format_labels(labels):<{width}}  {p:.12f}")
        total += p
    tol = report.options["validation_tol"]
    lines.append(f"  sum = {total:.12f} (|sum - 1| = {abs(total - 1.0):.3e}, "
                 f"tolerance {tol:g})")
    for name, payload in report.checks:
        lines.append("")
        if isinstance(payload, CriterionReport):
            verdict = "PASS (decoherent)" if payload.verdict else "FAIL (not decoherent)"
            lines.append(f"[{name}] verdict: {verdict}")
            lines.append(f"  max residual {payload.max_residual:.6e} "
                         f"(tolerance {report.options['decoherence_tol']:g}, "
                         f"policy {payload.policy})")
            if payload.per_subset is not None:
                lines.append("  per-subset residuals:")
                for subset, residual in payload.per_subset:
                    label = "{" + ", ".join(str(k) for k in subset) + "}"
                    lines.append(f"    S={label:<12} {residual:.6e}")
            if payload.witnesses:
                lines.append("  worst witnesses:")
                for w in payload.witnesses:
                    lines.append(f"    {w.location!r}  residual {w.residual:.6e}")
            for note in payload.notes:
                lines.append(f"  note: {note}")
        else:
            verdict = "PASS (consistent)" if payload.consistent else "FAIL (inconsistent)"
            lines.append(f"[{name}] verdict: {verdict}")
            lines.append(f"  mode {payload.mode}, tv {payload.tv_distance:.6e}, "
                         f"exact tv {payload.exact_tv:.6e}")
            if payload.p_value is not None:
                lines.append(f"  chi-square {payload.statistic:.6f}, dof {payload.dof}, "
                             f"p {payload.p_value:.6g}, alpha {report.options['alpha']:g}")
            lines.append("  distributions (with | without):")
            keys = sorted(set(payload.dist_with) | set(payload.dist_without))
            for key in keys:
                lines.append(
                    f"    {_format_labels(key):<{max(width, 2)}}  "
                    f"{payload.dist_with.get(key, 0.0):.6f} | "
                    f"{payload.dist_without.get(key, 0.0):.6f}"
                )
    lines.append("")
    return "\n".join(lines)


def emit_report(report: Report, format: str = "text") -> str:
    """Render a report; 'structured' is stable sorted JSON, 'text' is aligned tables."""
    if format == "structured":
        return json.dumps(report_to_json(report), indent=2, sort_keys=True) + "\n"
    if format == "text":
        return _emit_text(report)
    raise ValidationError(f"unknown report format {format!r}")
