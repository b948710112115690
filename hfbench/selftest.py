#!/usr/bin/env python3
"""Self-test of the benchmark. Run from the root of a checkout:

    python3 hfbench/selftest.py

It checks that
- the op stream is a function of the seed alone;
- every workload, run for one second with --trace 0 and --trace 1, prints
  a result line with every metric BENCHMARK.json names, in its unit;
- corrupted outputs are counted as failed ops rather than accepted: a NaN
  WLN with a NaN refinement delta reported as converged, and a closed-form
  purity off by 1e-6;
- without the hyperfock sources next to it, the benchmark exits non-zero
  and prints no result.

Exits 0 when every check passes.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

import run
import tracing
import workloads

BENCHMARK = os.path.join(run.ROOT, "BENCHMARK.json")
RUN_PY = os.path.join(run.ROOT, "hfbench", "run.py")

_failures = []


def expect(ok, label):
    print(f"{'ok  ' if ok else 'FAIL'} {label}")
    if not ok:
        _failures.append(label)


def check_seeding():
    def first(workload, seed):
        return list(itertools.islice(workloads.op_stream(workload, seed), 40))

    for w in workloads.WORKLOADS:
        expect(first(w, 1) == first(w, 1), f"{w}: same seed, same ops")
        expect(first(w, 1) != first(w, 2), f"{w}: another seed, other ops")


def check_metrics_emitted(spec):
    for w in workloads.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, RUN_PY, "--workload", w, "--seed", "1",
                 "--seconds", "1", "--trace", str(trace)],
                capture_output=True, text=True, timeout=300, cwd=run.ROOT)
            label = f"{w} --trace {trace}"
            if proc.returncode != 0:
                expect(False, f"{label}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                continue
            result = json.loads(proc.stdout.splitlines()[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{label}: result keys")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == want, f"{label}: every {key} metric with its unit")
            expect(all(isinstance(v["value"], (int, float)) and math.isfinite(v["value"])
                       for v in result["metrics"].values()), f"{label}: finite values")
            expect(result["failed"] == 0 and result["correct"],
                   f"{label}: {result['failed']} of {result['attempted']} ops failed")


@contextlib.contextmanager
def patched(original, replacement):
    done = tracing.patch_everywhere(original, replacement)
    try:
        yield
    finally:
        for module, name in done:
            setattr(module, name, original)


def failed_count(hf, workload, n):
    ops = itertools.islice(workloads.op_stream(workload, 3), n)
    outdir = os.environ[run.OUTPUT_DIR_ENV]
    return sum(run.run_one(hf, op, outdir)[1] is not None for op in ops)


def check_corruption_detected():
    hf = run.import_hyperfock()
    nan = float("nan")
    n = 3

    def nan_wln(state, quad=None):
        return hf.WlnResult(value=nan, nodes=1024, angular_nodes=512,
                            refinement_delta=nan, abs_integral=nan,
                            wigner_integral=nan)

    def purity_off(p):
        return original_purity(p) + 1e-6

    original_purity = hf.purity_closed_form_pahs
    expect(failed_count(hf, "wln_points", n) == 0, "wln_points: clean ops pass")
    with patched(hf.wigner_log_negativity_detailed, nan_wln):
        expect(failed_count(hf, "wln_points", n) == n,
               "wln_points: NaN WLN with NaN delta counted as failed")
    expect(failed_count(hf, "oracle_crosscheck", n) == 0, "oracle_crosscheck: clean ops pass")
    with patched(original_purity, purity_off):
        expect(failed_count(hf, "oracle_crosscheck", n) == n,
               "oracle_crosscheck: purity off by 1e-6 counted as failed")


def check_fails_without_sources():
    os.makedirs(run.WORK_DIR, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=run.WORK_DIR)
    try:
        shutil.copy(BENCHMARK, bare)
        shutil.copytree(os.path.dirname(RUN_PY), os.path.join(bare, "hfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, os.path.join("hfbench", "run.py"), "--workload", "wln_points",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, timeout=180, cwd=bare)
        expect(proc.returncode != 0 and '"metrics"' not in proc.stdout,
               "without sources: non-zero exit and no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    with open(BENCHMARK) as fh:
        spec = json.load(fh)
    os.makedirs(run.WORK_DIR, exist_ok=True)
    outdir = tempfile.mkdtemp(prefix="selftest-", dir=run.WORK_DIR)
    os.environ[run.OUTPUT_DIR_ENV] = outdir
    try:
        check_seeding()
        check_corruption_detected()
        check_fails_without_sources()
        check_metrics_emitted(spec)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    print(f"{len(_failures)} check(s) failed" if _failures else "all checks passed")
    return 1 if _failures else 0


if __name__ == "__main__":
    sys.exit(main())
