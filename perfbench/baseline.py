#!/usr/bin/env python3
"""Run the benchmark twice over ten seeds and summarise each metric.

Usage:
    python3 perfbench/baseline.py [--out FILE]

Runs two sets. In each set, every workload runs ``run.py --trace 0`` once
per seed (1 to RUNS) and ``run.py --trace 1`` once on seed 1, with
``run_seconds`` from BENCHMARK.json. For every end-to-end metric it reports
each set's median, quartiles (``statistics.quantiles(values, n=4)``) and
their distance as a share of the median, next to the metric's bound, and
how far the second set's median lies from the first. With ``--out`` it
writes the whole record, including each run's values, provenance and
per-layer metrics, as JSON, after every workload of every set;
``perfbench/baseline.json`` is such a record.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Seeds per workload in one set.
RUNS = 10
#: Sets of runs; the second repeats the first to show they agree.
SETS = 2


def run_once(workload, seed, seconds, trace):
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]  # fmt: skip
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=True)
    detail_line, result_line = proc.stdout.strip().splitlines()[-2:]
    return json.loads(detail_line), json.loads(result_line)


def summarise(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def run_set(spec, workload):
    seconds = spec["run_seconds"]
    runs = []
    for seed in range(1, RUNS + 1):
        detail, result = run_once(workload, seed, seconds, 0)
        if not result["correct"]:
            raise SystemExit(f"{workload} seed {seed}: incorrect result: {detail['failures']}")
        metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
        runs.append(
            {
                "seed": seed,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "latency_tail": detail["latency_tail"],
                "speed": detail["speed"],
                "unscaled": detail["unscaled"],
                "metrics": metrics,
            }
        )
        print(workload, seed, {k: round(v, 4) for k, v in metrics.items()}, "speed", round(detail["speed"], 3))
    summary = {}
    for metric in spec["end_to_end"]:
        name = metric["name"]
        summary[name] = summarise([run["metrics"][name] for run in runs])
        print(f"  {name:<16} median {summary[name]['median']:.4g}  spread {summary[name]['spread']:.3f}"
              f"  (bound {metric['bound']})", flush=True)  # fmt: skip
    trace_detail, trace_result = run_once(workload, 1, seconds, 1)
    return {
        "provenance": detail["provenance"],
        "end_to_end": summary,
        "runs": runs,
        "per_layer": {
            "seed": 1,
            "correct": trace_result["correct"],
            "metrics": trace_result["metrics"],
            "computed": trace_detail["computed"],
        },
    }


def agreement(spec, sets):
    """Change of each median from the first set to the second, as a share
    of the first, signed so that positive is worse."""
    result = {}
    for workload in sets[0]:
        result[workload] = {}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            first, second = (s[workload]["end_to_end"][name]["median"] for s in sets)
            worse = (second - first) / first * (1 if metric["better"] == "lower" else -1)
            result[workload][name] = {"worse_by": worse, "bound": metric["bound"]}
            print(f"{workload:<12} {name:<16} second median worse by {worse:+.3f}  (bound {metric['bound']})")
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    record = {"run_seconds": spec["run_seconds"], "runs_per_workload": RUNS, "sets": []}
    for _ in range(SETS):
        record["sets"].append({})
        for workload in spec["workloads"]:
            record["sets"][-1][workload["name"]] = run_set(spec, workload["name"])
            if args.out:
                Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    record["agreement"] = agreement(spec, record["sets"])
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
