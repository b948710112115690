#!/usr/bin/env python3
"""hyperfock benchmark: one client drives the library and the CLI.

Run from the root of a checkout:

    python3 hfbench/run.py --workload wln_points --seed 1 --seconds 36 --trace 0

The load is a closed loop in one process: each op starts when the previous
one has finished. Ops come from the seeded stream in workloads.py and go
through hyperfock's public entry points (`hyperfock.cli.main` and the
functions the package exports). Every output is checked; a failed check,
an exception or a non-zero exit code counts the op as failed and the run
goes on.

--trace 0 prints the end-to-end metrics: throughput, median and tail op
latency, set-up time (a fresh interpreter importing hyperfock and running
the workload's first op cold, median of SETUP_REPS) and peak memory.
--trace 1 runs half the time untraced and half with spans around every
layer (tracing.py), and prints per-layer self time, call counts and shares.

The last line of stdout is the result:
{"correct", "attempted", "failed", "metrics"}. The line before it is a
summary with sample counts and the inputs digest, and the full record (run
context, every op's inputs and latency, failures) is written to
.hfbench/records/ under the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from collections import defaultdict
from time import perf_counter

import tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".hfbench")
OUTPUT_DIR_ENV = "HYPERFOCK_OUTPUT_DIR"
SETUP_REPS = 5
MAX_FAILURES_KEPT = 20
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def import_hyperfock():
    """Import hyperfock from this checkout's sources, never an installed copy."""
    if not os.path.isfile(os.path.join(SRC, "hyperfock", "__init__.py")):
        raise SystemExit(f"hfbench: no hyperfock sources under {SRC}")
    sys.path.insert(0, SRC)
    import hyperfock
    import hyperfock.cli  # noqa: F401  (the CLI ops call hyperfock.cli.main)

    if not os.path.abspath(hyperfock.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"hfbench: imported hyperfock from {hyperfock.__file__}")
    return hyperfock


def leggauss_counts(hf):
    """Counters of the Gauss-Legendre rule cache, read without wrapping it;
    zeros if the program no longer has that cache."""
    cache = getattr(hf.wigner, "_leggauss_cached", None)
    if cache is None:
        return {"hits": 0, "misses": 0}
    info = cache.cache_info()
    return {"hits": info.hits, "misses": info.misses}


def run_one(hf, op, outdir, tracer=None):
    """Execute and check one op; returns (latency_s, error or None)."""
    span = tracer.op() if tracer else contextlib.nullcontext()
    error = None
    t0 = perf_counter()
    try:
        with span:
            out = workloads.execute(hf, op)
    except Exception as exc:  # an op that raises is a failed op, not a crash
        error = f"{type(exc).__name__}: {exc}"
    latency = perf_counter() - t0
    if error is None:
        try:
            workloads.check(op, out, outdir)
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
    return latency, error


def run_loop(hf, workload, seed, seconds, outdir, tracer=None):
    """Closed loop over the op stream until `seconds` of wall clock pass,
    then on to the end of the op block under way. Every run is made of
    whole blocks, so each covers the workload's parameter strata evenly."""
    stream = workloads.op_stream(workload, seed)
    ops, latencies, failures = [], [], []
    deadline = perf_counter() + seconds
    op = next(stream)
    while not ops or perf_counter() < deadline or op["block"] == ops[-1]["block"]:
        latency, error = run_one(hf, op, outdir, tracer)
        if error is not None:
            failures.append({"op": len(ops), "error": error})
        ops.append(op)
        latencies.append(latency)
        op = next(stream)
    return {"ops": ops, "latencies": latencies, "failures": failures}


def ops_per_s(loop):
    """Completed ops per second for an op block run at median speed: the
    ops in a block over the sum, across the block's slots, of each slot's
    median latency in the run. A slot is an op's place in its block, which
    fixes its parameter stratum, so every slot weighs the same whatever
    the seed draws within it. The medians keep a burst of load from
    elsewhere on the machine, or a slow stretch shorter than half the run,
    from moving the figure. Failed ops count against it by their share of
    the run. The untimed output checks are left out."""
    by_slot = defaultdict(list)
    for op, latency in zip(loop["ops"], loop["latencies"]):
        by_slot[op["slot"]].append(latency)
    block_s = math.fsum(statistics.median(v) for v in by_slot.values())
    done = 1.0 - len(loop["failures"]) / len(loop["ops"])
    return len(by_slot) * done / block_s


def tail(latencies):
    """Latency at the highest percentile with at least ten samples beyond
    it, and that percentile; the maximum when there are ten or fewer."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def digest(ops):
    return hashlib.sha256(json.dumps(ops, sort_keys=True).encode()).hexdigest()


# ------------------------------------------------------------ set-up time


def cold_op(workload, seed):
    """Child-process entry: import hyperfock and run the first op cold."""
    op = next(workloads.op_stream(workload, seed))
    t0 = perf_counter()
    hf = import_hyperfock()
    t1 = perf_counter()
    before = leggauss_counts(hf)
    latency, error = run_one(hf, op, os.environ[OUTPUT_DIR_ENV])
    print(json.dumps({"setup_s": t1 - t0 + latency, "import_s": t1 - t0,
                      "first_op_s": latency, "error": error,
                      "leggauss_before": before, "leggauss_after": leggauss_counts(hf)}))


def measure_setup(workload, seed):
    reps = []
    for _ in range(SETUP_REPS):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--cold", "--workload", workload,
             "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child exited {proc.returncode}: {proc.stderr[-2000:]}")
        reps.append(json.loads(proc.stdout.splitlines()[-1]))
    return reps


# ------------------------------------------------------------ run context


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    """HEAD of the checkout when it is a git work tree, else 'unknown'."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_context(args):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "git_commit": _git_commit(), "setup_reps": SETUP_REPS,
    }


# ------------------------------------------------------------ metrics


def end_to_end(loop, setup):
    tail_s, tail_pct = tail(loop["latencies"])
    metrics = {
        "ops_per_s": (ops_per_s(loop), "1/s"),
        "op_s_p50": (statistics.median(loop["latencies"]), "s"),
        "op_s_tail": (tail_s, "s"),
        "setup_s": (statistics.median(r["setup_s"] for r in setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return metrics, {"op_s_tail_percentile": tail_pct,
                     "setup_leggauss": {k: setup[0][k] for k in
                                        ("leggauss_before", "leggauss_after")}}


# per-op self time and share of op time for each traced layer
_LAYER_TIME_METRICS = {
    "cli": "cli.self_s", "states": "states.s", "fockspace": "fockspace.s",
    "measures": "measures.self_s", "measures.scalar": "measures.scalar_s",
    "entanglement.dense": "entanglement.dense_s",
    "entanglement.closed": "entanglement.closed_s",
    "wigner.wln": "wigner.wln.s", "wigner.grid": "wigner.grid_s",
    "wigner.point": "wigner.point_s", "wigner.oracle": "wigner.oracle_s",
}


def per_layer(summary, plain, traced, cache):
    ops = summary["ops"]
    op_time = summary["op_time_s"]
    layers = summary["layers"]

    def layer(name):
        return layers.get(name, {"calls": 0, "self_s": 0.0, "errors": {}, "fine_points": 0})

    metrics = {}
    for name, metric in _LAYER_TIME_METRICS.items():
        metrics[metric] = (layer(name)["self_s"] / ops, "s/op")
        metrics[name + ".share"] = (layer(name)["self_s"] / op_time, "ratio")
    metrics["unattributed.share"] = (layer(tracing.ROOT)["self_s"] / op_time, "ratio")
    wln = layer("wigner.wln")
    metrics["states.calls"] = (layer("states")["calls"] / ops, "calls/op")
    metrics["wigner.wln.calls"] = (wln["calls"] / ops, "calls/op")
    metrics["wigner.wln.not_converged"] = (wln["errors"].get("QuadratureNotConverged", 0),
                                           "count")
    metrics["wigner.wln.fine_points"] = (wln["fine_points"] / wln["calls"] if wln["calls"]
                                         else 0.0, "computed_pts")
    lookups = cache["hits"] + cache["misses"]
    metrics["wigner.leggauss.hits"] = (cache["hits"], "count")
    metrics["wigner.leggauss.misses"] = (cache["misses"], "count")
    metrics["wigner.leggauss.hit_ratio"] = (cache["hits"] / lookups if lookups else 0.0,
                                            "ratio")
    metrics["ops_per_s.untraced"] = (ops_per_s(plain), "1/s")
    metrics["ops_per_s.traced"] = (ops_per_s(traced), "1/s")
    metrics["trace_overhead"] = (ops_per_s(traced) - ops_per_s(plain), "1/s")
    attempted = len(plain["ops"]) + len(traced["ops"])
    failed = len(plain["failures"]) + len(traced["failures"])
    metrics["failed_ops_ratio"] = (failed / attempted, "ratio")
    return metrics


# ------------------------------------------------------------ main


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--cold", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def measure_untraced(args, hf, outdir):
    setup = measure_setup(args.workload, args.seed)
    loop = run_loop(hf, args.workload, args.seed, args.seconds, outdir)
    metrics, extra = end_to_end(loop, setup)
    return metrics, [loop], setup, extra


def measure_traced(args, hf, outdir):
    half = args.seconds / 2.0
    plain = run_loop(hf, args.workload, args.seed, half, outdir)
    tracer = tracing.Tracer()
    before = leggauss_counts(hf)
    tracer.install()
    try:
        traced = run_loop(hf, args.workload, args.seed, half, outdir, tracer)
    finally:
        tracer.uninstall()
    after = leggauss_counts(hf)
    cache = {k: after[k] - before[k] for k in after}
    summary = tracing.summarise(tracer.spans)
    return per_layer(summary, plain, traced, cache), [plain, traced], [], {"trace": summary}


def measure(args, hf, outdir):
    """One benchmark run; returns (result line, summary line, record)."""
    context = run_context(args)
    # warm-up: op 0 once, untimed; the loop runs and checks it again
    run_one(hf, next(workloads.op_stream(args.workload, args.seed)), outdir)
    measure_fn = measure_traced if args.trace else measure_untraced
    metrics, loops, setup, extra = measure_fn(args, hf, outdir)
    # a failed cold op in set-up counts as a failed op too
    attempted = sum(len(lp["ops"]) for lp in loops) + len(setup)
    failed = sum(len(lp["failures"]) for lp in loops) + sum(bool(r["error"]) for r in setup)
    summary = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "samples": [len(lp["latencies"]) for lp in loops],
        "failed_ops_ratio": failed / attempted,
        "inputs_sha256": [digest(lp["ops"]) for lp in loops],
        **{k: v for k, v in extra.items() if k != "trace"},
    }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    record = {"context": context, "summary": summary, "result": result, "setup": setup,
              "trace": extra.get("trace"),
              "loops": [{"inputs": lp["ops"], "latencies": lp["latencies"],
                         "failures": lp["failures"][:MAX_FAILURES_KEPT]} for lp in loops]}
    return result, summary, record


def main(argv=None):
    args = parse_args(argv)
    # One client thread: BLAS adds none of its own, unless the caller's
    # environment says otherwise. The CLI's --jobs pool is the only other.
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    if args.cold:
        cold_op(args.workload, args.seed)
        return 0
    hf = import_hyperfock()
    os.makedirs(WORK_DIR, exist_ok=True)
    outdir = tempfile.mkdtemp(prefix="out-", dir=WORK_DIR)
    os.environ[OUTPUT_DIR_ENV] = outdir
    try:
        result, summary, record = measure(args, hf, outdir)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    records = os.path.join(WORK_DIR, "records")
    os.makedirs(records, exist_ok=True)
    path = os.path.join(records, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh)
    summary["record"] = os.path.relpath(path, ROOT)
    print(json.dumps(summary))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
