"""The benchmark's four workloads.

Each workload turns a seed into a fixed list of operations. An operation is
one call a decohist user waits for; the harness times `run`, then checks the
result outside the timed region: `verify` against an oracle the first time,
and `key` equality with that verified result on every repeat (in the same
worker, in later workers and in the traced pass).

Sizes are chosen so that each layer someone is likely to optimise dominates
one workload and is nearly absent from another (see README.md).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
FIXTURES = os.path.join(ROOT, "fixtures")
CLI_CHILD = os.path.join(HERE, "cli_child.py")


class Mismatch(Exception):
    """An operation's output disagrees with its oracle."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise Mismatch(message)


@dataclass
class Op:
    name: str
    run: Callable[[dict], object]  # receives this set's earlier results by op name
    verify: Callable[[object, dict], None]
    # What a repeat must reproduce. Floats are compared to 12 significant
    # digits: sums over Python sets (tv_distance) follow the per-process
    # string-hash order, so their last bit can differ between processes.
    key: Callable[[object], object]
    tv_err: Callable[[object], float | None] | None = None


def _digits(x: float) -> str:
    return f"{x:.12g}"


def report_key(report) -> tuple:
    return (report.verdict, _digits(report.max_residual),
            tuple(w.location for w in report.witnesses))


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable  # (seed, toy, tracer) -> list[Op]
    ops_per_set: Callable[[bool], int]
    in_process: bool = True
    # None: one worker measures the whole budget; n: a fresh worker per n sets.
    sets_per_worker: int | None = None
    expected_peak_mb: Callable[[bool], float] | None = None


# ---------------------------------------------------------------------------
# cli-fixtures: every shipped fixture through `decohist check` in a fresh
# interpreter, as a CLI user runs it.
# ---------------------------------------------------------------------------

# README's "Shipped fixtures" table: exit status and each declared check's verdict.
FIXTURE_TABLE = {
    "spin_xy.yaml": (0, (("weak", True), ("measurement_based", True))),
    "gaussian_static.yaml": (0, (("measurement_based", True),)),
    "interference_classical.yaml": (0, (("weak", True), ("measurement_based", True),
                                        ("kent", True), ("protocol", True))),
    "fuzzy_measurement.yaml": (1, (("weak", False), ("measurement_based", True),
                                   ("kent", True))),
    "fuzzy_then_trivial.yaml": (1, (("weak", False), ("measurement_based", True))),
    "spin_directions.yaml": (1, (("measurement_based", False), ("protocol", False))),
    "free_particle.yaml": (1, (("measurement_based", False),)),
    "interference.yaml": (1, (("measurement_based", False), ("protocol", False))),
}
TOY_FIXTURES = ("spin_xy.yaml", "interference.yaml")


def _report_verdicts(stdout: str) -> tuple:
    doc = json.loads(stdout)
    return tuple(
        (c["check"],
         c["report"]["verdict"] if c["kind"] == "criterion" else c["result"]["consistent"])
        for c in doc["checks"]
    )


def _verify_fixture(fixture: str, result, results) -> None:
    code, stdout = result
    want_code, want_verdicts = FIXTURE_TABLE[fixture]
    expect(code == want_code, f"{fixture}: exit {code}, expected {want_code}")
    verdicts = _report_verdicts(stdout)
    expect(verdicts == want_verdicts, f"{fixture}: verdicts {verdicts}, expected {want_verdicts}")


def _report_tv_err(result) -> float | None:
    doc = json.loads(result[1])
    errs = [abs(c["result"]["tv_distance"] - c["result"]["exact_tv"])
            for c in doc["checks"] if c["kind"] == "protocol"]
    return max(errs) if errs else None


def _run_cli(argv: list[str], tracer) -> tuple[int, str]:
    if tracer is None:
        cmd = [sys.executable, "-m", "decohist.cli", *argv]
    else:
        cmd = [sys.executable, CLI_CHILD, *argv]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=150)
    if tracer is None:
        return proc.returncode, proc.stdout
    if not proc.stdout:
        raise RuntimeError(f"traced CLI child exited {proc.returncode}: {proc.stderr[-2000:]}")
    doc = json.loads(proc.stdout)
    tracer.adopt(doc["spans"])
    tracer.add_counts(doc["counts"])
    return doc["exit"], doc["stdout"]


def build_cli_fixtures(seed: int, toy: bool, tracer) -> list[Op]:
    rng = random.Random(seed)
    ops = []
    for fixture in (TOY_FIXTURES if toy else FIXTURE_TABLE):
        argv = ["check", os.path.join("fixtures", fixture), "--format", "structured",
                "--seed", str(rng.randrange(2**32))]
        if toy:
            argv += ["--shots", "2000"]
        ops.append(Op(
            name=fixture,
            run=lambda results, argv=argv: _run_cli(argv, tracer),
            verify=lambda result, results, fixture=fixture: _verify_fixture(
                fixture, result, results),
            key=lambda result: result,
            tv_err=_report_tv_err,
        ))
    return ops


# ---------------------------------------------------------------------------
# criteria-paths: small dimension, exponentially many paths and selections.
# ---------------------------------------------------------------------------


def _verify_functional(spec, functional, results) -> None:
    import numpy as np

    from spans import spec_paths

    values = functional.values
    expect(functional.n_paths == spec_paths(spec), "path count differs from the spec's")
    expect(float(np.max(np.abs(values - values.conj().T))) <= 1e-9, "D not Hermitian")
    expect(abs(float(np.trace(values).real) - 1.0) <= 1e-9, "diagonal of D does not sum to 1")


def _verify_verdict(report, tol) -> None:
    expect(math.isfinite(report.max_residual), f"{report.criterion}: residual not finite")
    expect(report.verdict == (report.max_residual <= tol.decoherence),
           f"{report.criterion}: verdict {report.verdict} disagrees with residual "
           f"{report.max_residual:.3e}")


def _verify_weak(report, results, tol) -> None:
    import numpy as np

    import decohist as dh

    functional = results["functional"]
    residuals = np.abs(functional.values.real)
    np.fill_diagonal(residuals, 0.0)
    expect(report.max_residual == float(residuals.max()),
           "check_weak.max_residual differs from max |Re D| off the diagonal")
    _verify_verdict(report, tol)
    above = int(np.count_nonzero(np.triu(residuals, 1) > tol.decoherence))
    expect(len(report.witnesses) == min(dh.MAX_WITNESSES, above), "wrong number of witnesses")
    index = {p: k for k, p in enumerate(functional.paths)}
    for w in report.witnesses:
        a, b = (index[p] for p in w.location)
        expect(w.residual == residuals[a, b], "witness residual differs from |Re D|")


def _verify_measurement_based(spec, report, tol) -> None:
    from oracles import all_subsets, subset_residual_pathsum

    subsets = [s for s, _ in report.per_subset]
    expect(subsets == all_subsets(spec), "per-subset table does not list every subset")
    for subset, residual in report.per_subset:
        if subset:
            oracle = subset_residual_pathsum(spec, subset, tol)
            expect(abs(residual - oracle) <= 1e-10,
                   f"subset {subset}: residual {residual:.6e}, path-sum oracle {oracle:.6e}")
    expect(report.max_residual == max(r for _, r in report.per_subset), "max residual")
    _verify_verdict(report, tol)


def _verify_kent(spec, report, tol) -> None:
    from oracles import kent_residuals

    residuals = kent_residuals(spec, tol)
    expect(abs(report.max_residual - float(residuals.max())) <= 1e-10,
           f"Kent residual {report.max_residual:.6e}, oracle {float(residuals.max()):.6e}")
    _verify_verdict(report, tol)


def build_criteria_paths(seed: int, toy: bool, tracer) -> list[Op]:
    import numpy as np

    import decohist as dh

    rng = np.random.default_rng(seed)
    tol = dh.DEFAULT_TOLERANCES
    paths_steps, kent_steps = (3, 3) if toy else (6, 5)
    gen = dh.random_spec(4, paths_steps, 3, kind="generalized", seed=int(rng.integers(2**31)))
    herm = dh.random_spec(4, kent_steps, 3, kind="hermitian", seed=int(rng.integers(2**31)))
    return [
        Op("functional", lambda r: dh.decoherence_functional(gen),
           lambda d, r: _verify_functional(gen, d, r),
           key=lambda d: hashlib.sha256(np.round(d.values, 12).tobytes()).hexdigest()),
        Op("weak", lambda r: dh.check_weak(r["functional"]),
           lambda rep, r: _verify_weak(rep, r, tol), report_key),
        Op("measurement_based", lambda r: dh.check_measurement_based(gen),
           lambda rep, r: _verify_measurement_based(gen, rep, tol), report_key),
        Op("kent", lambda r: dh.check_kent(herm),
           lambda rep, r: _verify_kent(herm, rep, tol), report_key),
    ]


# ---------------------------------------------------------------------------
# protocol-shots: the two-ensemble sampler, linear in shots.
# ---------------------------------------------------------------------------

# The random case is redrawn until its exact TV distance is at least
# MIN_RANDOM_TV, so that the chi-square test at its shot count rejects with
# certainty and the sampled verdict must equal the exact one, and until no
# outcome of a step before the last is likelier than MAX_STEP_P. The sampler
# copies the state stack of each outcome's shots, so the second rule keeps
# the worker's peak RSS in one band across seeds instead of following the
# draw's most likely outcome.
MIN_RANDOM_TV = 0.02
MAX_STEP_P = 0.45


def _random_case_ok(spec, tol) -> bool:
    import decohist as dh

    probe = dh.ProtocolConfig(spec=spec, subset=(1,), shots=1, seed=0)
    if dh.run_protocol(probe, tol, mode="exact").exact_tv < MIN_RANDOM_TV:
        return False
    for skipped in ((), (1,)):  # ensemble A, ensemble B
        dist = dh.omitted_distribution(spec, skipped, tol)
        n_steps = len(next(iter(dist)))
        for j in range(n_steps - 1):
            marginal: dict[str, float] = {}
            for labels, p in dist.items():
                marginal[labels[j]] = marginal.get(labels[j], 0.0) + p
            if max(marginal.values()) > MAX_STEP_P:
                return False
    return True


def _verify_exact(cfg, result, tol) -> None:
    import decohist as dh

    oracle_with = dh.grouped_diagonal(
        dh.marginal_functional(cfg.spec, cfg.subset, tol, method="pathsum"), tol)
    oracle_without = dh.grouped_diagonal(dh.omit_functional(cfg.spec, cfg.subset, tol), tol)
    for got, want, side in ((result.dist_with, oracle_with, "performed"),
                            (result.dist_without, oracle_without, "omitted")):
        expect(set(got) == set(want) and all(abs(got[k] - want[k]) <= 1e-10 for k in want),
               f"exact {side} distribution differs from the functional's diagonal")
    exact = dh.tv_distance(oracle_with, oracle_without)
    expect(abs(result.exact_tv - exact) <= 1e-10, "exact TV differs from the oracle")
    expect(result.consistent == (result.exact_tv <= tol.decoherence), "exact verdict")


def _verify_sample(case: str, cfg, result, results) -> None:
    exact = results[f"{case}.exact"]
    expect(result.consistent == (result.p_value >= cfg.alpha),
           f"{case}: verdict {result.consistent} disagrees with p = {result.p_value:.3g}")
    expect(result.exact_tv == exact.exact_tv, f"{case}: exact TV differs between modes")
    expect(result.consistent == exact.consistent,
           f"{case}: sampled verdict {result.consistent}, exact verdict {exact.consistent}")
    for dist in (result.dist_with, result.dist_without):
        expect(abs(sum(dist.values()) - 1.0) <= 1e-9, f"{case}: frequencies do not sum to 1")


def build_protocol_shots(seed: int, toy: bool, tracer) -> list[Op]:
    import numpy as np

    import decohist as dh

    rng = np.random.default_rng(seed)
    fixture_shots, random_shots, random_steps = (2000, 2000, 2) if toy else (300_000, 200_000, 3)
    cases = []
    for name in ("spin_directions", "interference"):
        with open(os.path.join(FIXTURES, f"{name}.yaml"), encoding="utf-8") as handle:
            scenario = dh.parse_scenario(handle.read())
        cases.append((name, scenario.spec, scenario.subset, fixture_shots, scenario.tolerances))
    tol = dh.DEFAULT_TOLERANCES
    for _ in range(1000):
        spec = dh.random_spec(4, random_steps, 3, kind="generalized", seed=int(rng.integers(2**31)))
        if _random_case_ok(spec, tol):
            break
    else:
        raise RuntimeError("no random protocol case met the redraw rules")
    cases.append(("random", spec, (1,), random_shots, tol))

    ops = []
    for name, spec, subset, shots, case_tol in cases:
        cfg = dh.ProtocolConfig(spec=spec, subset=subset, shots=shots,
                                seed=int(rng.integers(2**63)))
        ops.append(Op(
            f"{name}.exact",
            lambda r, cfg=cfg, t=case_tol: dh.run_protocol(cfg, t, mode="exact"),
            lambda res, r, cfg=cfg, t=case_tol: _verify_exact(cfg, res, t),
            key=lambda res: (res.consistent, _digits(res.exact_tv)),
        ))
        ops.append(Op(
            f"{name}.sample",
            lambda r, cfg=cfg, t=case_tol: dh.run_protocol(cfg, t),
            lambda res, r, name=name, cfg=cfg: _verify_sample(name, cfg, res, r),
            # The counts themselves must repeat exactly for the same seed.
            key=lambda res: (res.consistent, tuple(res.dist_with.items()),
                             tuple(res.dist_without.items())),
            tv_err=lambda res: abs(res.tv_distance - res.exact_tv),
        ))
    return ops


# ---------------------------------------------------------------------------
# grid-sweep: large dimension, few paths; a free-particle echo on a position
# grid with the instrument width varied between points.
# ---------------------------------------------------------------------------

# Spread-to-width ratio bands of the three sweep points, in increasing order:
# the echo residual grows with the ratio.
RATIO_BANDS = ((0.2, 0.3), (0.45, 0.6), (0.85, 1.0))
N_CENTERS = 45


def _grid_size(toy: bool) -> tuple[int, float, tuple[float, float]]:
    """(grid points, half span, instrument width range)."""
    return (256, 64.0, (7.0, 9.0)) if toy else (512, 128.0, (14.0, 18.0))


def grid_peak_mb(toy: bool) -> float:
    """Expected worker peak: interpreter and imports, every point's
    instrument (kept alive by core's instrument cache), and the transient
    branch stack of the measurement-based check."""
    d = _grid_size(toy)[0]
    effect_mb = 16 * N_CENTERS * d * d / 2**20
    return 200 + (len(RATIO_BANDS) + 2) * effect_mb


def _verify_point(index: int, report, results, tol) -> None:
    _verify_verdict(report, tol)
    if index:
        previous = results.get(f"point{index}")
        expect(previous is not None, f"point{index} missing, cannot check growth")
        expect(report.max_residual > previous.max_residual,
               f"residual {report.max_residual:.3e} did not grow past point{index}'s "
               f"{previous.max_residual:.3e}")


def _echo_point(grid, width: float, spread: float):
    import numpy as np

    import decohist as dh

    t = math.sqrt(spread**2 - 1.0)
    forward = dh.free_particle_unitary(grid, mass=1.0, time=t)
    backward = dh.free_particle_unitary(grid, mass=1.0, time=-t)
    centers = (np.arange(N_CENTERS) - N_CENTERS // 2) * width / 2
    inst = dh.gaussian_instrument(grid, width=width, centers=centers)
    packet = dh.gaussian_wavepacket(grid, center=0.0, sigma=1.0)
    spec = dh.HistorySpec(initial=packet, steps=(dh.Step(forward, inst), dh.Step(backward, inst)))
    return dh.check_measurement_based(spec)


def build_grid_sweep(seed: int, toy: bool, tracer) -> list[Op]:
    import numpy as np

    import decohist as dh

    rng = np.random.default_rng(seed)
    n_points, half, (w_lo, w_hi) = _grid_size(toy)
    grid = dh.GridSystem(n_points=n_points, x_min=-half, x_max=half)
    tol = dh.DEFAULT_TOLERANCES
    ops = []
    for j, (lo, hi) in enumerate(RATIO_BANDS):
        width = float(rng.uniform(w_lo, w_hi))
        spread = float(rng.uniform(lo, hi)) * width
        ops.append(Op(
            f"point{j + 1}",
            lambda r, w=width, s=spread: _echo_point(grid, w, s),
            lambda rep, r, j=j: _verify_point(j, rep, r, tol),
            report_key,
        ))
    return ops


WORKLOADS = {
    w.name: w
    for w in (
        Workload("cli-fixtures", build_cli_fixtures,
                 lambda toy: len(TOY_FIXTURES if toy else FIXTURE_TABLE), in_process=False),
        Workload("criteria-paths", build_criteria_paths, lambda toy: 4),
        Workload("protocol-shots", build_protocol_shots, lambda toy: 6),
        Workload("grid-sweep", build_grid_sweep, lambda toy: len(RATIO_BANDS),
                 sets_per_worker=1, expected_peak_mb=grid_peak_mb),
    )
}
