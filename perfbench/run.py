#!/usr/bin/env python3
"""Benchmark of the ckml package: one workload per run, one process of load.

    python3 perfbench/run.py --workload step-fullgraph --seed 1 --seconds 15 --trace 0

`--trace 0` prints the end-to-end metrics; `--trace 1` prints the per-layer
metrics of a separate traced run. The last stdout line is the JSON result;
the line before it holds the run's facts (sample counts, dtypes, hashes,
versions). `--workload all` runs every workload in turn and prints a table.
See perfbench/README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
# BLAS and OpenMP pools are pinned to one thread: unpinned, the step median
# on a 2-core machine moved by a third between runs.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
WORKLOAD_NAMES = ("step-fullgraph", "epoch-large-batch", "eval-wide")


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0,
                    help="measuring time of an untraced run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smoke-test sizes instead of the benchmark sizes")
    return ap.parse_args(argv)


# ------------------------------------------------------------ environment

def git_sha():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment():
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_lines = sum(len(p.read_text().splitlines())
                    for p in (ROOT / "src" / "ckml").glob("*.py"))
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "git_sha": git_sha(),
        "src_ckml_lines": src_lines,
    }


# ------------------------------------------------------------------ runs

def tail(samples):
    """(percentile, value): the highest percentile with at least ten samples
    beyond it, or (None, None) when that would not lie above the median."""
    n = len(samples)
    if n < 21:
        return None, None
    ordered = sorted(samples)
    return 100.0 * (n - 10) / n, ordered[n - 11]


def prepare_inputs(wl, seed, data_dir):
    """Generate the inputs in a child process, so that its memory does not
    count towards the measured peak RSS."""
    code = ("import json, sys, workloads; workloads.prepare("
            "workloads.Workload(**json.loads(sys.argv[1])), int(sys.argv[2]), sys.argv[3])")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(HERE), str(ROOT / "src")]))
    subprocess.run([sys.executable, "-c", code, json.dumps(dataclasses.asdict(wl)),
                    str(seed), str(data_dir)],
                   env=env, stdout=sys.stderr, check=True, timeout=600)


def run_units(runner, count, seconds, tracer=None):
    """Timed units until `seconds` have passed and at least `count` ran
    (with seconds=0: exactly `count`). Returns the samples of the
    successful units."""
    units = []
    start = time.perf_counter()
    ran = 0
    while ran < count or time.perf_counter() - start < seconds:
        if tracer is not None:
            tracer.group = f"unit-{ran}"
            idx = tracer.begin(tracer.UNIT_SPAN)
        try:
            out = runner.unit()
        finally:
            if tracer is not None:
                tracer.end(idx)
        ran += 1
        if out is not None:
            units.extend(out)
    return units


def run_workload(name, seed, seconds, trace, tiny):
    import workloads as W
    from ckml import dataio
    from spans import Tracer

    wl = W.WORKLOADS[name]
    if tiny:
        wl = dataclasses.replace(wl, **W.TINY)
    data_dir = WORK / f"{name}-{seed}-{os.getpid()}"
    data_dir.mkdir(parents=True)
    try:
        prepare_inputs(wl, seed, data_dir)
        tracer = Tracer() if trace else None
        ops = W.Ops(log, calibrate=not trace)
        setup_s, hashes = [], []
        for i in range(wl.setups):
            if tracer is not None:
                tracer.group = f"setup-{i}"
            with tracer if tracer is not None else contextlib.nullcontext():
                out, dt = ops.run("set-up", W.setup, wl, seed, str(data_dir))
            if out is not None:
                state = out
                setup_s.append(dt)
                hashes.append((W.params_hash(state.params),
                               dataio.dataset_hash(state.dataset)))
        if not setup_s:
            raise RuntimeError(f"every set-up failed: {ops.errors}")
        ops.run("set-up determinism", W.expect_equal, "set-up parameters and dataset",
                hashes[0], hashes[-1])
        runner = W.Runner(wl, seed, state, ops)
        runner.warm_up()
        if tracer is None:
            units = run_units(runner, wl.min_units, seconds)
            traced = []
        else:
            units = run_units(runner, wl.trace_units, 0)
            with tracer:
                traced = run_units(runner, wl.trace_units, 0, tracer)
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)

    unit_ms = [u[0] * 1000.0 for u in units]
    users = len(state.dataset.test_positive)
    pct, tail_ms = tail(unit_ms)
    facts = {
        "workload": name, "seed": seed, "trace": trace, "tiny": tiny,
        "units": len(unit_ms), "unit_ms_samples": unit_ms,
        "unit_tail_percentile": pct, "unit_ms_tail": tail_ms,
        "setup_s_samples": setup_s, "eval_s_samples": runner.eval_seconds,
        "calibration_ms_p50": W.median(ops.calibrations) * 1000.0 or None,
        "target_ndcg10": runner.target_ndcg,
        "error_rate": ops.failed / ops.attempted, "errors": ops.errors,
        "precision": wl.precision, **runner.facts, **environment(),
    }
    if tracer is None:
        metrics = {
            "setup_s": (W.median(setup_s), "s"),
            "unit_ms_p50": (W.median(unit_ms), "ms"),
            "work_per_s": (sum(u[2] for u in units) / sum(u[1] for u in units)
                           if units else 0.0, "1/s"),
            "eval_users_per_s": (users / W.median(runner.eval_seconds)
                                 if runner.eval_seconds else 0.0, "1/s"),
            "target_ndcg10": (runner.target_ndcg or 0.0, "ndcg"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "MB"),
        }
    else:
        metrics = layer_metrics(tracer, units, traced)
        facts["spans_file"] = str(tracer.write_jsonl(
            WORK / "spans" / f"{name}-seed{seed}.jsonl").relative_to(ROOT))
    return facts, metrics, ops


def layer_metrics(tracer, untraced, traced):
    import spans as T
    self_s, calls = tracer.self_times()
    metrics = {}
    for name in T.SPAN_NAMES:
        metrics[f"{name}.s"] = (self_s[name], "s")
        metrics[f"{name}.calls"] = (calls[name], "count")
    for op in T.OPS:
        metrics[f"autodiff.{op}.fwd_s"] = (self_s[f"autodiff.{op}.fwd"], "s")
        metrics[f"autodiff.{op}.bwd_s"] = (self_s[f"autodiff.{op}.bwd"], "s")
        metrics[f"autodiff.{op}.calls"] = (tracer.counts[f"autodiff.{op}.calls"],
                                           "count")
    for name in T.WORK_COUNTS:
        unit = "bytes_computed" if name == "autodiff.scatter_bytes" else "count"
        metrics[name] = (tracer.counts[name], unit)
    untraced_s = sum(u[0] for u in untraced)
    traced_s = sum(u[0] for u in traced)
    metrics["trace.units"] = (len(traced), "count")
    metrics["trace.untraced_s"] = (untraced_s, "s")
    metrics["trace.traced_s"] = (traced_s, "s")
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    metrics["trace.unattributed_s"] = (self_s[T.UNIT_SPAN], "s")
    return metrics


def run_all(args):
    """Every workload in its own process; prints each metric with its unit."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"{name}: failed (exit {proc.returncode})")
            status = 1
            continue
        facts = json.loads(lines[-2])["facts"]
        result = json.loads(lines[-1])
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} error_rate={facts['error_rate']} "
              f"units={facts['units']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric} = {m['value']} {m['unit']}")
    return status


def main(argv=None):
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (ROOT / "src" / "ckml" / "__init__.py").exists():
        log(f"no ckml package under {ROOT / 'src'}; run from a full checkout")
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args)
    facts, metrics, ops = run_workload(args.workload, args.seed, args.seconds,
                                       args.trace, args.tiny)
    for name, (value, unit) in metrics.items():
        log(f"{args.workload} {name} = {value} {unit}")
    log(f"{args.workload} error_rate = {facts['error_rate']} "
        f"({ops.failed} of {ops.attempted} operations failed)")
    print(json.dumps({"facts": facts}))
    print(json.dumps({
        "correct": ops.failed == 0, "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
