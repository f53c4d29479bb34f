"""Steadiness check: repeated runs of every workload, spread against the bounds.

    python3 perfbench/steady.py --runs 10 --seed 100 --out set1.json
    python3 perfbench/steady.py --runs 10 --seed 100 --out set2.json --against set1.json

Run ``i`` uses seed ``--seed + i`` and visits the workloads in declared
order on even ``i`` and reversed on odd ``i``.  For every (workload,
end-to-end metric) it prints the median, the quartiles (``statistics
.quantiles(n=4)``) and their distance as a share of the median, next to
the metric's bound from ``BENCHMARK.json``.  With ``--against`` it also
compares medians with an earlier set and requires the answer digest of
every (workload, seed) to be identical.  Exits non-zero when a run fails
or is incorrect, when a spread reaches its metric's bound, or when a
comparison fails.  Every run uses ``run_seconds`` of ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    started = time.perf_counter()
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = completed.stdout.strip().splitlines()
    digest = next((line.split("digest=")[1].split()[0] for line in lines if "digest=" in line), None)
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    return {
        "workload": workload, "seed": seed, "exit": completed.returncode,
        "wall_s": round(time.perf_counter() - started, 1),
        "digest": digest, "result": result, "report": lines[:-1],
        "stderr": completed.stderr[-2000:] if completed.returncode else "",
    }


def summarize(runs, spec) -> tuple:
    problems, table = [], {}
    for workload in [entry["name"] for entry in spec["workloads"]]:
        mine = [run for run in runs if run["workload"] == workload]
        for run in mine:
            if run["exit"] != 0 or not run["result"] or not run["result"]["correct"]:
                problems.append(f"{workload} seed {run['seed']}: exit {run['exit']} {run['stderr'][-300:]}")
        good = [run["result"] for run in mine if run["result"]]
        for metric in spec["end_to_end"]:
            values = [result["metrics"][metric["name"]]["value"] for result in good]
            if len(values) < 2:
                continue
            q1, q2, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            spread = (q3 - q1) / median if median else float("inf")
            table[(workload, metric["name"])] = {
                "median": median, "q1": q1, "q3": q3, "spread": spread,
                "bound": metric["bound"], "n": len(values),
            }
            if spread >= metric["bound"]:
                problems.append(f"{workload} {metric['name']}: spread {spread:.3f} >= bound {metric['bound']}")
    return table, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=100)
    parser.add_argument("--out", help="write runs and summary to this JSON file")
    parser.add_argument("--against", help="an earlier --out file to compare with")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [entry["name"] for entry in spec["workloads"]]
    seconds = spec["run_seconds"]
    runs = []
    for index in range(args.runs):
        for workload in names if index % 2 == 0 else names[::-1]:
            run = run_once(workload, args.seed + index, seconds)
            runs.append(run)
            metrics = run["result"]["metrics"] if run["result"] else {}
            compact = " ".join(f"{name}={value['value']:.4g}" for name, value in metrics.items())
            print(f"run {index} {workload} seed {run['seed']} exit {run['exit']} wall {run['wall_s']}s "
                  f"digest {run['digest']} {compact}", flush=True)
            for line in run["report"][1:]:
                print("   " + line, flush=True)

    table, problems = summarize(runs, spec)
    print(f"\n{'workload':<18} {'metric':<18} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>7} {'bound':>6}  verdict")
    for (workload, metric), row in table.items():
        if row["spread"] < row["bound"] / 3:
            verdict = "steady"
        elif row["spread"] < row["bound"]:
            verdict = "within bound"
        else:
            verdict = "TOO WIDE"
        print(f"{workload:<18} {metric:<18} {row['median']:>12.5g} {row['q1']:>12.5g} "
              f"{row['q3']:>12.5g} {row['spread']:>7.3f} {row['bound']:>6}  {verdict}")

    if args.against:
        earlier = json.loads(Path(args.against).read_text(encoding="utf-8"))
        before = {(row["workload"], row["metric"]): row for row in earlier["summary"]}
        better = {metric["name"]: metric["better"] for metric in spec["end_to_end"]}
        print("\ncomparison with", args.against)
        for key, row in table.items():
            old = before.get(key)
            if old is None:
                continue
            change = (row["median"] - old["median"]) / old["median"] if old["median"] else 0.0
            worse = change if better[key[1]] == "lower" else -change
            verdict = "ok" if worse <= row["bound"] else "WORSE THAN BOUND"
            if verdict != "ok":
                problems.append(f"{key[0]} {key[1]}: median moved {change:+.3f}")
            print(f"  {key[0]:<18} {key[1]:<18} {old['median']:>12.5g} -> {row['median']:>12.5g} "
                  f"({change:+.3f}, bound {row['bound']})  {verdict}")
        old_digests = {(run["workload"], run["seed"]): run["digest"] for run in earlier["runs"]}
        for run in runs:
            previous = old_digests.get((run["workload"], run["seed"]))
            if previous is not None and previous != run["digest"]:
                problems.append(f"{run['workload']} seed {run['seed']}: digest {previous} != {run['digest']}")
        print("  digests: " + ("identical" if not any("digest" in p for p in problems) else "DIFFER"))

    if args.out:
        Path(args.out).write_text(json.dumps({
            "runs": runs,
            "summary": [{"workload": w, "metric": m, **row} for (w, m), row in table.items()],
        }, indent=1), encoding="utf-8")
    for problem in problems:
        print("PROBLEM:", problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
