"""Benchmark entry point: one closed-loop workload per process.

    python3 perfbench/run.py --workload battery --seed 1 --seconds 20 --trace 0

Set-up runs in a child process, which builds the inputs with the program
and writes them into a work directory; the measured process loads them. A
single client then runs operations back to back for ``--seconds`` seconds
(and at least the workload's ``acc_ops``), each timed around the program
calls only and followed by an output check. ``--trace 0`` reports the
end-to-end metrics of BENCHMARK.json; ``--trace 1`` alternates untraced and
traced runs of the same operation inputs and reports the per-layer metrics.
``--workload all`` runs every workload, each in a fresh process, and prints
one table. The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Set-up is repeated at least MIN_SETUPS times, and until it has taken
# SETUP_BUDGET_S or MAX_SETUPS repeats, so that fast set-ups report a steady median.
MIN_SETUPS, MAX_SETUPS, SETUP_BUDGET_S = 3, 25, 4.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Accounted share of traced op time below which the trace is reported broken.
MIN_ACCOUNTED = 0.95


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def thread_env_error() -> str | None:
    for var in THREAD_VARS:
        raw = os.environ.get(var)
        if raw is None:
            continue
        if not raw.isdigit() or int(raw) > nproc():
            return f"{var}={raw} must be a whole number no larger than nproc={nproc()}"
    return None


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": nproc(),
        **{var: os.environ[var] for var in THREAD_VARS if var in os.environ},
    }


def run_op(workload, i: int, tracer, traced: bool) -> tuple[float, float, float | None]:
    """One operation: (wall s, cpu s, accuracy or None when it failed)."""
    idx = None
    if traced:
        tracer.enabled = True
        idx = tracer.open("op", op=i)
    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        result = workload.run(i)
    except Exception:  # an op that raises is counted as failed; the run goes on
        traceback.print_exc()
        result = None
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    if traced:
        tracer.close(idx)
        tracer.enabled = False
    if result is None:
        return wall, cpu, None
    try:
        return wall, cpu, workload.check(i, result)
    except Exception:
        traceback.print_exc()
        return wall, cpu, None


def prepare_repeatedly(args) -> list[float]:
    """Set-up process: build the workload's inputs into ``--prepare-into``,
    repeatedly, and return the time of each repeat."""
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, Path(args.prepare_into))
    times = []
    while len(times) < MIN_SETUPS or (len(times) < MAX_SETUPS and sum(times) < SETUP_BUDGET_S):
        t0 = time.perf_counter()
        workload.prepare()
        times.append(time.perf_counter() - t0)
    return times


def prepare_in_child(args, src: Path, work: Path) -> list[float]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--src", str(src), "--prepare-into", str(work)]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(args, src: Path) -> dict:
    from workloads import WORKLOADS

    import spans as tracing

    out = HERE / "out"
    work = out / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, work)
        prepare_s = prepare_in_child(args, src, work)
        load_s = []
        for _ in range(MIN_SETUPS):
            t0 = time.perf_counter()
            workload.load()
            load_s.append(time.perf_counter() - t0)

        tracer = tracing.Tracer()
        if args.trace:
            tracing.install(tracer)
        walls, cpus, accs, untraced, traced_ops = [], [], [], [], []
        start = time.perf_counter()
        if args.trace:
            # Warm-up op, so that one-time lazy initialisation does not land
            # on the untraced side of trace.overhead_ratio.
            accs.append(run_op(workload, 0, tracer, False)[2])
        i = len(accs)
        min_ops = 1 if args.trace else workload.acc_ops
        while len(untraced) < min_ops or time.perf_counter() - start < args.seconds:
            for traced in ((False, True) if args.trace else (False,)):
                wall, cpu, acc = run_op(workload, i, tracer, traced)
                walls.append(wall)
                cpus.append(cpu)
                accs.append(acc)
                if traced:
                    traced_ops.append(i)
                else:
                    untraced.append(wall)
            i += 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(a is None for a in accs)
    correct = failed == 0
    if args.trace:
        tracer.write(out / f"trace-{args.workload}-seed{args.seed}.jsonl")
        values, accounted = tracing.layer_metrics(tracer, traced_ops, untraced)
        if not MIN_ACCOUNTED <= accounted <= 1.0 + 1e-9:
            print(f"trace accounts for {accounted:.3f} of traced op time", file=sys.stderr)
            correct = False
        missing = tracing.missing_layers(tracer, traced_ops, workload.layers)
        if missing:
            print(f"traced ops reached no span of: {', '.join(missing)}", file=sys.stderr)
            correct = False
    else:
        scored = [a for a in accs[:workload.acc_ops] if a is not None]
        values = {
            "setup_s": statistics.median(prepare_s) + statistics.median(load_s),
            "ops_per_s": len(walls) / sum(walls),
            "op_p50_s": statistics.median(walls),
            "cpu_s_per_op": sum(cpus) / len(cpus),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "accuracy": statistics.fmean(scored) if scored else 0.0,
            "ok_ratio": 1 - failed / len(accs),
        }
    return {"correct": correct, "attempted": len(accs), "failed": failed, "values": values, "op_s": walls}


def result_line(res: dict, spec: dict, trace: bool) -> dict:
    metrics = {}
    for m in spec["per_layer" if trace else "end_to_end"]:
        value = res["values"][m["name"]]
        if not math.isfinite(value):
            raise ValueError(f"metric {m['name']} is {value}")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return {k: res[k] for k in ("correct", "attempted", "failed")} | {"metrics": metrics}


def run_all(args, spec: dict) -> int:
    """Every workload in a fresh process, so that peak RSS and BLAS state do
    not leak from one into the next."""
    rows = {}
    for w in spec["workloads"]:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", w["name"], "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.src:
            cmd += ["--src", args.src]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        rows[w["name"]] = json.loads(proc.stdout.strip().splitlines()[-1])
    names = list(next(iter(rows.values()))["metrics"])
    print(f"{'metric':<28}{'unit':<8}" + "".join(f"{w:>14}" for w in rows))
    for name in names:
        unit = next(iter(rows.values()))["metrics"][name]["unit"]
        print(f"{name:<28}{unit:<8}" + "".join(f"{r['metrics'][name]['value']:>14.5g}" for r in rows.values()))
    print(json.dumps(rows))
    return 0 if all(r["correct"] for r in rows.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, help="a workload of BENCHMARK.json, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--src", default=None, help="source tree holding robustgsl/ (default: src/)")
    parser.add_argument("--prepare-into", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names + ["all"]:
        parser.error(f"--workload must be one of {names + ['all']}")
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    error = thread_env_error()
    if error:
        print(f"refusing to run: {error}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args, spec)

    src = Path(args.src).resolve() if args.src else ROOT / "src"
    if not (src / "robustgsl" / "__init__.py").is_file():
        print(f"no robustgsl package under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(HERE)]
    if args.prepare_into:
        print(json.dumps(prepare_repeatedly(args)))
        return 0

    res = run_workload(args, src)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "env": environment(), "op_s": res["op_s"]}))
    for name, value in res["values"].items():
        print(f"{name} {value:.6g}")
    print(json.dumps(result_line(res, spec, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
