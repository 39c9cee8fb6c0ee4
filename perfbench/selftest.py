"""Harness self-test at toy size, about a minute.

    python3 perfbench/selftest.py        # from the repository root

1. Runs every workload at toy size with --trace 0 and --trace 1 and checks
   the last output line: its keys, no failed operation, and every metric
   BENCHMARK.json names, with its unit. On the traced run it also checks
   that the layers a workload exists to stress are busy, and that layer self
   times plus the unaccounted share add up to the traced wall time.
2. Builds every workload's toy operations in-process, flips each result
   (a verdict, or D's trace) and checks that the verifier rejects it, both
   when called directly and when the worker loop runs the corrupted
   operations, where each must count as a failed operation.
"""

import dataclasses
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

import run  # noqa: E402  (pins BLAS threads and the import path first)
import worker  # noqa: E402
import workloads  # noqa: E402

# Busy times that must be nonzero on each workload's traced run.
EXERCISED = {
    "cli-fixtures": ("import.decohist.s", "cli.main.s", "scenario.parse_scenario.s",
                     "scenario.emit_report.s", "protocol.run_protocol.s"),
    "criteria-paths": ("histories.decoherence_functional.s", "criteria.check_weak.s",
                       "criteria.check_measurement_based.s", "criteria.check_kent.s"),
    "protocol-shots": ("protocol.run_protocol.s", "protocol.run_protocol_exact.s"),
    "grid-sweep": ("models.gaussian_instrument.s", "models.free_particle_unitary.s",
                   "histories.marginal_distribution.s", "criteria.check_measurement_based.s"),
}
LAYERS = ("cli", "scenario", "models", "histories", "criteria", "protocol")


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def check_run(name: str, trace: int, bench: dict) -> None:
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", name, "--seed", "7", "--seconds", "1",
         "--trace", str(trace), "--toy"],
        capture_output=True, text=True, cwd=ROOT, timeout=170)
    check(proc.returncode == 0, f"{name} --trace {trace} exited {proc.returncode}: {proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{name}: result keys")
    check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
          f"{name} --trace {trace}: {result['failed']} of {result['attempted']} failed")
    wanted = bench["per_layer"] if trace else bench["end_to_end"]
    metrics = result["metrics"]
    check(set(metrics) == {m["name"] for m in wanted}, f"{name} --trace {trace}: metric names")
    for m in wanted:
        got = metrics[m["name"]]
        check(set(got) == {"value", "unit"} and got["unit"] == m["unit"],
              f"{name}: {m['name']} emitted as {got}")
        check(isinstance(got["value"], (int, float)) and math.isfinite(got["value"]),
              f"{name}: {m['name']} value {got['value']!r}")
        if not trace:
            check(got["value"] > 0, f"{name}: end-to-end {m['name']} is not positive")
    if trace:
        value = {k: v["value"] for k, v in metrics.items()}
        for key in EXERCISED[name]:
            check(value[key] > 0, f"{name}: {key} is zero on the workload meant to stress it")
        accounted = sum(value[f"{layer}.self_s"] for layer in LAYERS)
        accounted += value["trace.unaccounted_share"] * value["trace.wall_s"]
        if name == "cli-fixtures":  # the per-fixture import is part of each operation
            accounted += value["import.decohist.s"]
        check(abs(accounted - value["trace.wall_s"]) <= 1e-6 * max(1.0, value["trace.wall_s"]),
              f"{name}: layer self times {accounted} do not add up to {value['trace.wall_s']}")
    print(f"ok  {name} --trace {trace}: {result['attempted']} operations", flush=True)


def flipped(result):
    """The result with its verdict flipped (D gets twice its trace)."""
    import decohist as dh

    if isinstance(result, dh.CriterionReport):
        return dataclasses.replace(result, verdict=not result.verdict)
    if isinstance(result, dh.ProtocolResult):
        return dataclasses.replace(result, consistent=not result.consistent)
    if isinstance(result, dh.DecoherenceFunctional):
        return dh.DecoherenceFunctional(paths=result.paths, values=2 * result.values,
                                        positions=result.positions, labels=result.labels)
    code, stdout = result
    doc = json.loads(stdout)
    first = doc["checks"][0]
    payload = first["report"] if first["kind"] == "criterion" else first["result"]
    field = "verdict" if first["kind"] == "criterion" else "consistent"
    payload[field] = not payload[field]
    return code, json.dumps(doc)


def check_corruption(name: str) -> None:
    workload = workloads.WORKLOADS[name]
    ops = workload.build(7, True, None)
    results: dict = {}
    for op in ops:
        results[op.name] = op.run(results)
        op.verify(results[op.name], results)
        try:
            op.verify(flipped(results[op.name]), results)
        except workloads.Mismatch:
            continue
        check(False, f"{name}/{op.name}: verifier accepted a flipped result")

    def corrupted_build(seed, toy, tracer):
        return [dataclasses.replace(op, run=lambda r, run=op.run: flipped(run(r)))
                for op in workload.build(seed, toy, tracer)]

    workloads.WORKLOADS[name] = dataclasses.replace(workload, build=corrupted_build)
    try:
        out = worker.run(name, 7, True, 0.0, False, 1)
    finally:
        workloads.WORKLOADS[name] = workload
    check(out["attempted"] == len(ops) and out["failed"] == len(ops),
          f"{name}: worker counted {out['failed']} of {out['attempted']} corrupted "
          "operations as failed")
    print(f"ok  {name}: every flipped result is a failed operation", flush=True)


def main() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    check(set(run.END_TO_END.items()) == {(m["name"], m["unit"]) for m in bench["end_to_end"]},
          "run.py's end-to-end metrics differ from BENCHMARK.json")
    check(set(run.PER_LAYER.items()) == {(m["name"], m["unit"]) for m in bench["per_layer"]},
          "run.py's per-layer metrics differ from BENCHMARK.json")
    check([w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS),
          "workloads differ from BENCHMARK.json")
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            check_run(name, trace, bench)
    for name in workloads.WORKLOADS:
        check_corruption(name)
    print("selftest passed")


if __name__ == "__main__":
    main()
