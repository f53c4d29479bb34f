"""The repository benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload corpus_zipf_live --seed 1 --seconds 20 --trace 0

Workloads and metrics are declared in ``BENCHMARK.json`` at the repo
root.  With ``--trace 0`` the last line of standard output carries every
end-to-end metric; with ``--trace 1`` every per-layer metric, taken from
a run whose layer calls are wrapped in spans (see
``harness/spans.py``).  Lines before it are the human-readable report:
every metric with unit, sample count, raw and drift-normalized value,
the answer digest and the run conditions.  The exit status is non-zero
when any output check fails.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro" / "__init__.py").is_file() or not spec_path.is_file():
        return _fail(f"no program sources under {ROOT / 'src'}; run from a full checkout")
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    if args.workload not in {workload["name"] for workload in spec["workloads"]}:
        return _fail(f"unknown workload {args.workload!r}")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))

    import importlib

    from harness.calibration import CalibrationError
    from harness.context import Context
    from harness.report import run_conditions

    modules = {
        "serve_fresh_tcp": "harness.serve",
        "corpus_zipf_live": "harness.corpus",
        "retrain_table9": "harness.retrain",
    }
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{args.trace}"
    work.mkdir(parents=True, exist_ok=True)
    ctx = Context(root=ROOT, work=work, seed=args.seed, seconds=args.seconds,
                  trace=bool(args.trace))
    try:
        outcome = importlib.import_module(modules[args.workload]).run(ctx)
    except CalibrationError as error:
        print(f"perfbench: calibration guard failed the run: {error}", file=sys.stderr)
        return 1

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    conditions = run_conditions(ROOT, args.seed, outcome.sizes, outcome.calibration)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"  attempted={outcome.attempted} failed={outcome.failed} digest={outcome.digest}")
    metrics = {}
    if args.trace:
        for entry in declared:
            # A layer the workload never calls reports 0.
            value = float(outcome.layers.get(entry["name"], 0.0))
            metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
            print(f"  {entry['name']:<30} {value:>14.6g} {entry['unit']}")
    else:
        for name, metric in outcome.metrics.items():
            print(metric.row(name))
        for entry in declared:
            if entry["name"] in outcome.metrics or outcome.correct:  # a failed run may stop early
                metric = outcome.metrics[entry["name"]]
                metrics[entry["name"]] = {"value": metric.value, "unit": metric.unit}
    for failure in outcome.check_failures[:20]:
        print(f"  CHECK FAILED: {failure}")
    print("  conditions: " + json.dumps(conditions, sort_keys=True))
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
