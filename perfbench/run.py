"""decohist benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all          # every workload, one table

Run from the repository root. Each workload runs in its own worker process
(a fresh interpreter) in a closed loop with one client, until S seconds of
operation time are measured; the first full set of operations always runs.
With --trace 0 the last line of standard output is a JSON object holding the
end-to-end metrics; with --trace 1 half the time is spent untraced and half
with every public decohist call spanned, and the last line holds the
per-layer metrics. The line before it records the environment, the
per-operation medians and any failure with its traceback. See README.md.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")

# Pinned before anything imports numpy; workers and CLI children inherit them.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"
# A fixed glibc mmap threshold: every array of 1 MiB or more is mapped on
# allocation and returned on free. glibc's default raises the threshold
# after each large free, so which arrays then stay on the heap depends on
# the order of earlier frees; that made protocol-shots' peak RSS move by
# 70 MB between seeds with the same array sizes.
os.environ["MALLOC_MMAP_THRESHOLD_"] = str(2**20)
os.environ["PYTHONPATH"] = SRC
if SRC not in sys.path:
    sys.path.insert(0, SRC)

import argparse  # noqa: E402
import json  # noqa: E402
import pickle  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

from workloads import WORKLOADS  # noqa: E402

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "import.decohist.s": "s",
    "cli.main.s": "s",
    "cli.self_s": "s",
    "scenario.parse_scenario.s": "s",
    "scenario.run_scenario.s": "s",
    "scenario.emit_report.s": "s",
    "scenario.self_s": "s",
    "scenario.report_bytes": "bytes",
    "models.gaussian_instrument.s": "s",
    "models.free_particle_unitary.s": "s",
    "models.gaussian_wavepacket.s": "s",
    "models.self_s": "s",
    "models.gaussian_instrument.rss_mb": "MB",
    "models.effect_bytes": "bytes",
    "histories.decoherence_functional.s": "s",
    "histories.marginal_distribution.s": "s",
    "histories.omitted_distribution.s": "s",
    "histories.self_s": "s",
    "histories.paths": "count",
    "histories.path_pairs": "count",
    "histories.stack_bytes": "bytes",
    "criteria.check_weak.s": "s",
    "criteria.check_measurement_based.s": "s",
    "criteria.check_kent.s": "s",
    "criteria.self_s": "s",
    "criteria.subsets": "count",
    "criteria.kent_selections": "count",
    "criteria.weak_witness_yield": "ratio",
    "criteria.kent_witness_yield": "ratio",
    "protocol.run_protocol.s": "s",
    "protocol.run_protocol_exact.s": "s",
    "protocol.self_s": "s",
    "protocol.shots": "count",
    "protocol.label_prefixes": "count",
    "protocol.state_stack_bytes": "bytes",
    "protocol_tv_err": "1",
    "rss_growth_mb": "MB",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.unaccounted_share": "ratio",
}

# Counts derived from a call's inputs rather than measured.
COMPUTED = ("scenario.report_bytes", "models.effect_bytes", "histories.paths",
            "histories.path_pairs", "histories.stack_bytes", "criteria.subsets",
            "criteria.kent_selections", "protocol.shots", "protocol.label_prefixes",
            "protocol.state_stack_bytes")

# Useful outcomes over attempts: witnesses returned over locations above tolerance.
YIELDS = {
    "criteria.weak_witness_yield": ("criteria.weak_witnesses", "criteria.weak_pairs_above_tol"),
    "criteria.kent_witness_yield": ("criteria.kent_witnesses",
                                    "criteria.kent_selections_above_tol"),
}

SETUP_CODE = "import time, decohist; print(time.monotonic_ns(), decohist.__file__)"
RUN_DEADLINE_S = 160.0
# How long an overrunning worker gets to stop its CLI child before it is killed.
TERM_GRACE_S = 10.0
# Stop starting per-set workers this long before the deadline.
WORKER_MARGIN_S = 40.0


class BenchError(Exception):
    """The benchmark cannot run here at all (no result is printed)."""


def measure_setup(repeats: int) -> list[float]:
    """Seconds from spawning a fresh interpreter until `import decohist` returns."""
    if not os.path.isfile(os.path.join(SRC, "decohist", "__init__.py")):
        raise BenchError(f"no decohist package under {SRC}")
    samples = []
    for _ in range(repeats):
        start = time.monotonic_ns()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], capture_output=True,
                              text=True, cwd=ROOT, timeout=60)
        if proc.returncode != 0:
            raise BenchError(f"import decohist failed:\n{proc.stderr}")
        stamp, path = proc.stdout.split(maxsplit=1)
        if not os.path.abspath(path.strip()).startswith(SRC + os.sep):
            raise BenchError(f"decohist imported from {path.strip()}, not from {SRC}")
        samples.append((int(stamp) - start) / 1e9)
    return samples


def mem_available_mb() -> float:
    with open("/proc/meminfo") as handle:
        for line in handle:
            if line.startswith("MemAvailable:"):
                return int(line.split()[1]) / 1024
    raise BenchError("MemAvailable missing from /proc/meminfo")


def spawn_worker(deadline: float, *args) -> dict:
    """Runs worker.py in a fresh interpreter and returns its result.

    A worker that overruns the deadline is asked to stop (SIGTERM), which
    makes it kill and wait for the CLI child it may be running; if it has
    not ended after TERM_GRACE_S it is killed. Either way it is waited for
    before this returns."""
    proc = subprocess.Popen([sys.executable, WORKER, json.dumps(args)], cwd=ROOT,
                            stdout=subprocess.PIPE)
    out = None
    try:
        data, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        if data:
            out = pickle.loads(data)
    except subprocess.TimeoutExpired:
        pass
    finally:
        if proc.returncode is None:
            proc.terminate()
            try:
                proc.communicate(timeout=TERM_GRACE_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
    if out is None:
        out = {"error": f"worker ended with exit code {proc.returncode} and no result"}
    return out


def failed_set(workload, toy: bool, reason: str) -> dict:
    n = workload.ops_per_set(toy)
    return {"attempted": n, "failed": n, "failures": [{"op": "*", "traceback": reason}]}


def run_pass(workload, seed: int, toy: bool, budget: float, traced: bool,
             deadline: float) -> list[dict]:
    """Workers until `budget` seconds of operations are measured."""
    outs = []
    while True:
        if workload.expected_peak_mb is not None:
            need, available = workload.expected_peak_mb(toy), mem_available_mb()
            if available < need:
                outs.append(failed_set(workload, toy, f"MemAvailable {available:.0f} MB is below "
                                                      f"the expected peak {need:.0f} MB"))
                break
        out = spawn_worker(deadline, workload.name, seed, toy, budget, traced,
                           workload.sets_per_worker)
        if "error" in out:
            outs.append(failed_set(workload, toy, out["error"]))
            break
        outs.append(out)
        budget -= out["measured"]
        if (workload.sets_per_worker is None or budget <= 0
                or time.monotonic() > deadline - WORKER_MARGIN_S):
            break
    return outs


def cross_check(outs: list[dict]) -> None:
    """Every worker's verified results must equal the first worker's."""
    first: dict = {}
    for out in outs:
        for op, key in out.get("keys", {}).items():
            if op in first and first[op] != key:
                out["failed"] += 1
                out["failures"].append({"op": op, "traceback": "result differs between workers"})
            first.setdefault(op, key)


def wall_per_op(outs: list[dict]) -> dict[str, list[float]]:
    times: dict[str, list[float]] = {}
    for out in outs:
        for op, samples in out.get("times", {}).items():
            times.setdefault(op, []).extend(samples)
    return {op: samples for op, samples in times.items() if samples}


def op_set_wall(outs: list[dict]) -> float:
    """Seconds for one set of operations: the sum of each operation's median."""
    return sum(statistics.median(s) for s in wall_per_op(outs).values())


def median_of(outs: list[dict], key: str) -> float:
    values = [out[key] for out in outs if key in out]
    return statistics.median(values) if values else 0.0


def layer_metrics(workload, plain: list[dict], traced: list[dict]) -> dict[str, float]:
    """Per-layer metrics from the traced pass, for one set of operations.

    For each operation the repeat with the median traced wall time is taken
    whole, so layer self times plus the unaccounted share add up to
    trace.wall_s exactly."""
    reps: dict[str, list[dict]] = {}
    for out in traced:
        for op, rows in out.get("breakdowns", {}).items():
            reps.setdefault(op, []).extend(rows)
    totals: dict[str, float] = {}
    for rows in reps.values():
        if not rows:
            continue
        rows.sort(key=lambda row: row["trace.wall_s"])
        for key, value in rows[(len(rows) - 1) // 2].items():
            totals[key] = totals.get(key, 0.0) + value
    if workload.in_process:
        totals["import.decohist.s"] = median_of(traced, "import_s")
    wall = totals.get("trace.wall_s", 0.0)
    totals["trace.overhead_s"] = wall - op_set_wall(plain)
    totals["trace.unaccounted_share"] = totals.get("bench.self_s", 0.0) / wall if wall else 0.0
    for name, (found, tried) in YIELDS.items():
        tried = totals.get(tried, 0.0)
        totals[name] = totals.get(found, 0.0) / tried if tried else 0.0
    return totals


def run_workload(name: str, seed: int, seconds: float, trace: bool, toy: bool) -> tuple[dict, dict]:
    """Returns (detail record, result object for the last line)."""
    workload = WORKLOADS[name]
    deadline = time.monotonic() + RUN_DEADLINE_S
    setup = measure_setup(2 if toy else 5)
    if trace:
        plain = run_pass(workload, seed, toy, seconds / 2, False, deadline)
        traced = run_pass(workload, seed, toy, seconds / 2, True, deadline)
    else:
        plain = run_pass(workload, seed, toy, seconds, False, deadline)
        traced = []
    outs = plain + traced
    cross_check(outs)
    attempted = sum(o["attempted"] for o in outs)
    failed = sum(o["failed"] for o in outs)
    summary = {
        "setup_s": statistics.median(setup),
        "wall_s": op_set_wall(plain),
        "peak_rss_mb": median_of(plain, "peak_rss_mb"),
        "error_rate": failed / attempted,
        "rss_growth_mb": median_of(plain, "rss_growth_mb"),
        "protocol_tv_err": max((e for o in outs for e in o.get("tv_errs", [])), default=0.0),
    }
    if trace:
        totals = layer_metrics(workload, plain, traced)
        totals.update({k: summary[k] for k in ("rss_growth_mb", "protocol_tv_err")})
        metrics = {k: {"value": totals.get(k, 0.0), "unit": u} for k, u in PER_LAYER.items()}
        spans_file = os.path.join(HERE, "out", f"spans-{name}-seed{seed}.json")
        os.makedirs(os.path.dirname(spans_file), exist_ok=True)
        with open(spans_file, "w", encoding="utf-8") as handle:
            json.dump({"workload": name, "seed": seed,
                       "fields": ["name", "layer", "start", "end", "parent", "op"],
                       "workers": [o.get("spans", []) for o in traced]}, handle)
    else:
        metrics = {k: {"value": summary[k], "unit": u} for k, u in END_TO_END.items()}
        spans_file = None
    detail = {
        "workload": name,
        "trace": int(trace),
        "toy": toy,
        "env": next((o["env"] for o in outs if "env" in o), None),
        "summary": summary,
        "setup_samples_s": setup,
        "per_op": {op: {"median_s": statistics.median(s), "samples_s": s}
                   for op, s in wall_per_op(plain).items()},
        "workers": len(plain) + len(traced),
        "computed_counts": list(COMPUTED) if trace else [],
        "spans_file": spans_file and os.path.relpath(spans_file, ROOT),
        "failures": [f for o in outs for f in o.get("failures", [])],
    }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return detail, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=18.0,
                        help="measured operation time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="tiny inputs, for the harness self-test")
    args = parser.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        rows = []
        for name in names:
            detail, result = run_workload(name, args.seed, args.seconds, bool(args.trace), args.toy)
            print(json.dumps(detail))
            print(json.dumps(result), flush=True)
            rows.append((name, detail["summary"]))
    except BenchError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        columns = ("setup_s", "wall_s", "peak_rss_mb", "error_rate", "rss_growth_mb",
                   "protocol_tv_err")
        print(f"{'workload':16s}" + "".join(f"{c:>16s}" for c in columns))
        for name, summary in rows:
            print(f"{name:16s}" + "".join(f"{summary[c]:16.6g}" for c in columns))
    return 0


if __name__ == "__main__":
    sys.exit(main())
