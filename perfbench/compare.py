"""Compare a parent and a change source tree with the same benchmark code.

    python3 perfbench/compare.py --parent ../parent --change . --workloads battery,scale

Each tree is a directory holding ``src/robustgsl``. Every run lasts the
``run_seconds`` of BENCHMARK.json. Pair k of 10 runs both trees at workload
seed k; even pairs run the parent first, odd pairs the change first. Per
workload and end-to-end metric the report gives each side's median and
quartiles, the pairs the change won and a verdict:

- ``gain``: the change won at least 9 of 10 pairs (ties count for neither)
  and the medians differ by more than the parent's interquartile range;
- ``regression``: the change's median is worse than the parent's by more
  than the metric's bound in BENCHMARK.json;
- ``unresolved``: a side's spread (interquartile range over median) is
  wider than the bound, unless every change run beats every parent run;
- ``same`` otherwise.

A gain does not count when the change fails more operations than the parent.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
PAIRS, MIN_WINS = 10, 9


def run_once(tree: Path, workload: str, seed: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--trace", "0", "--src", str(tree / "src")]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def better(a: float, b: float, direction: str) -> bool:
    return a < b if direction == "lower" else a > b


def verdict(parent: list[float], change: list[float], metric: dict, more_failed: bool) -> dict:
    p_q = statistics.quantiles(parent, n=4)
    c_q = statistics.quantiles(change, n=4)
    p_med, c_med = statistics.median(parent), statistics.median(change)
    direction, bound = metric["better"], metric["bound"]
    wins = sum(better(c, p, direction) for p, c in zip(parent, change))
    spread = max((p_q[2] - p_q[0]) / abs(p_med), (c_q[2] - c_q[0]) / abs(c_med))
    all_better = all(better(c, p, direction) for c in change for p in parent)
    worse_by = (c_med - p_med) / abs(p_med) * (1 if direction == "lower" else -1)
    if spread > bound and not all_better:
        call = "unresolved"
    elif (wins >= MIN_WINS and better(c_med, p_med, direction)
          and abs(c_med - p_med) > p_q[2] - p_q[0] and not more_failed):
        call = "gain"
    elif worse_by > bound:
        call = "regression"
    else:
        call = "same"
    return {
        "parent": [p_q[0], p_med, p_q[2]],
        "change": [c_q[0], c_med, c_q[2]],
        "wins": wins,
        "pairs": len(parent),
        "spread": spread,
        "verdict": call,
    }


def main(argv=None) -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", required=True, type=Path, help="parent source tree")
    parser.add_argument("--change", required=True, type=Path, help="change source tree")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--out", type=Path, default=None, help="write raw runs and verdicts as JSON")
    args = parser.parse_args(argv)

    report = {}
    for workload in args.workloads.split(","):
        runs = {"parent": [], "change": []}
        for k in range(PAIRS):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            for side in order:
                tree = args.parent if side == "parent" else args.change
                runs[side].append(run_once(tree.resolve(), workload, k))
        failed = {side: sum(r["failed"] for r in rs) for side, rs in runs.items()}
        rows = {}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = {side: [r["metrics"][name]["value"] for r in rs] for side, rs in runs.items()}
            rows[name] = verdict(values["parent"], values["change"], metric, failed["change"] > failed["parent"])
        report[workload] = {"failed": failed, "metrics": rows, "runs": runs}

        print(f"\n{workload}  (failed ops: parent {failed['parent']}, change {failed['change']})")
        print(f"{'metric':<14}{'parent q1/med/q3':>32}{'change q1/med/q3':>32}{'wins':>7}{'spread':>8}  verdict")
        for name, row in rows.items():
            fmt = lambda q: "/".join(f"{v:.4g}" for v in q)  # noqa: E731
            print(f"{name:<14}{fmt(row['parent']):>32}{fmt(row['change']):>32}"
                  f"{row['wins']:>4}/{row['pairs']:<2}{row['spread']:>8.3f}  {row['verdict']}")
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
