"""Worker process: runs one workload's operations in a closed loop.

One client: each operation starts when the previous one has finished and
been checked. run.py starts it as a script in a fresh interpreter, which
inherits the pinned BLAS thread count and PYTHONPATH from run.py:

    python3 perfbench/worker.py '[name, seed, toy, budget, traced, max_sets]'
"""

from __future__ import annotations

import json
import os
import pickle
import resource
import signal
import sys
import time
import traceback

from spans import Tracer, op_breakdown, vm_rss_mb
from workloads import WORKLOADS, expect


def _peak_rss_mb() -> float:
    """Peak RSS of this worker or of any child it waited for, in MB."""
    with open("/proc/self/status") as handle:
        own = next(int(line.split()[1]) for line in handle if line.startswith("VmHWM:"))
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024


def env_record(seed: int) -> dict:
    """Machine, versions and the BLAS thread count this worker actually runs with."""
    import ctypes
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps") as handle:
        libs = sorted({line.split()[-1] for line in handle if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None and threads is None:
                fn.restype = ctypes.c_int
                threads = fn()
    with open("/proc/meminfo") as handle:
        mem_total = next(int(line.split()[1]) for line in handle if line.startswith("MemTotal:"))
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "mem_total_mb": round(mem_total / 1024),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "OMP_NUM_THREADS": os.environ["OMP_NUM_THREADS"],
        "MALLOC_MMAP_THRESHOLD_": os.environ["MALLOC_MMAP_THRESHOLD_"],
        "load_model": "closed loop, one client, one worker process at a time",
    }


def run(name: str, seed: int, toy: bool, budget: float, traced: bool,
        max_sets: int | None) -> dict:
    workload = WORKLOADS[name]
    import_s = None
    if workload.in_process:
        start = time.perf_counter()
        import decohist  # noqa: F401
        import decohist.cli  # noqa: F401

        import_s = time.perf_counter() - start
    tracer = Tracer() if traced else None
    ops = workload.build(seed, toy, tracer)
    restore = tracer.install() if traced and workload.in_process else None

    times: dict[str, list[float]] = {op.name: [] for op in ops}
    traced_ops: dict[str, list[int]] = {op.name: [] for op in ops}
    keys: dict[str, object] = {}
    failures: list[dict] = []
    rss: list[float] = []
    tv_errs: list[float] = []
    attempted = failed = sets = op_id = 0
    measured = 0.0
    try:
        while sets == 0 or (measured < budget and (max_sets is None or sets < max_sets)):
            results: dict[str, object] = {}
            for op in ops:
                # The first set always completes; later ones stop at the budget.
                if sets and measured >= budget:
                    break
                attempted += 1
                op_id += 1
                try:
                    start = time.perf_counter()
                    if tracer:
                        tracer.begin_op(op_id, start)
                    try:
                        result = op.run(results)
                    finally:
                        end = time.perf_counter()
                        if tracer:
                            tracer.end_op(end)
                    measured += end - start
                    results[op.name] = result
                    # Checked outside the timed region: the oracle once, then
                    # equality with the verified result on every repeat.
                    key = op.key(result)
                    if op.name in keys:
                        expect(key == keys[op.name], f"{op.name}: result changed on repeat")
                    else:
                        op.verify(result, results)
                        keys[op.name] = key
                    times[op.name].append(end - start)
                    traced_ops[op.name].append(op_id)
                    if op.tv_err is not None and (err := op.tv_err(result)) is not None:
                        tv_errs.append(err)
                except Exception:
                    failed += 1
                    failures.append({"op": op.name, "traceback": traceback.format_exc()})
                rss.append(vm_rss_mb())
            sets += 1
    finally:
        if restore:
            restore()

    breakdowns = {}
    if tracer:
        for op_name, ids in traced_ops.items():
            breakdowns[op_name] = [{**op_breakdown(tracer.spans, i), **tracer.counts[i]}
                                   for i in ids]
    return {
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "times": times,
        "keys": keys,
        "measured": measured,
        "sets": sets,
        "import_s": import_s,
        "peak_rss_mb": _peak_rss_mb(),
        "rss_growth_mb": rss[-1] - rss[0],
        "tv_errs": tv_errs,
        "breakdowns": breakdowns,
        "spans": tracer.spans if tracer else [],
        "env": env_record(seed),
    }


def main() -> None:
    """Runs `run(*args)` for the JSON argument list in argv[1] and writes the
    pickled result to standard output. Anything else printed goes to stderr."""
    # SIGTERM unwinds like an exception, so subprocess.run kills and waits
    # for a running CLI child before the worker exits.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    result = os.fdopen(os.dup(1), "wb")
    os.dup2(2, 1)
    try:
        out = run(*json.loads(sys.argv[1]))
    except Exception:
        out = {"error": traceback.format_exc()}
    with result:
        result.write(pickle.dumps(out))


if __name__ == "__main__":
    main()
