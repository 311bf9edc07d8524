#!/usr/bin/env python3
"""Record one ``BENCH_<pr>.json`` at the repository root.

Usage:
    python3 tools/record_bench.py --pr N [--seed S] [--seconds T]

Runs ``perfbench/run.py`` unchanged on every workload of BENCHMARK.json,
once with ``--trace 0`` and once with ``--trace 1``, and keeps each run's
detail line (provenance and the details behind the metrics) and result
line as they were printed. It adds the Tier-1 wall time, the time of every
suite at the sample sizes of ``tests/test_acceptance.py`` (best of
SUITE_REPEATS in one process, with a digest of its check rows and, for the
testbed, of its node table), and where the ``lattice`` workload's pairings
come from, for the note on ``lattice.pair_per_class``.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from baseline import run_once  # noqa: E402  (perfbench/baseline.py)

#: The suite runs of tests/test_acceptance.py, at its seed and sizes.
ACCEPTANCE_SEED = 20260810
ACCEPTANCE_RUNS = (
    dict(suite="criteria-equivalence", dims=(4, 8, 12), samples=500),
    dict(suite="induced-structure", dims=(4, 8), samples=100),
    dict(suite="gram-schmidt", dims=(4, 8, 12), samples=70),
    dict(suite="hitchin", dims=(4, 8), samples=100),
    dict(suite="preservance", dims=(4, 8), samples=100),
    dict(suite="section-theorem", dims=(4, 8), samples=100),
    dict(suite="testbed-nijenhuis", grid_n=64, modes=3, control="closed"),
    dict(suite="testbed-nijenhuis", grid_n=64, control="nonclosed", t_value=0.5),
    dict(suite="lattice-sections", samples=100),
    dict(suite="twistor-curve", samples=100),
)
SUITE_REPEATS = 3
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"]
PAIR = "lattice.IntegralLattice.pair"


def tier1() -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    start = time.perf_counter()
    proc = subprocess.run(TIER1, cwd=ROOT, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - start
    return {"command": " ".join(TIER1[1:]), "wall_s": wall, "summary": proc.stdout.strip().splitlines()[-1]}


def acceptance_suites() -> list:
    from csympl.suites import SuiteConfig, run_suite, testbed_node_csv

    rows = []
    for config in ACCEPTANCE_RUNS:
        times = []
        for _ in range(SUITE_REPEATS):
            start = time.perf_counter()
            report = run_suite(SuiteConfig(seed=ACCEPTANCE_SEED, **config))
            times.append(time.perf_counter() - start)
        digest = hashlib.sha256(json.dumps(report.checks, sort_keys=True).encode()).hexdigest()
        row = {"config": config, "best_s": min(times), "runs_s": times, "passed": report.passed, "checks_sha256": digest}
        if report.nodes is not None:
            row["nodes_sha256"] = hashlib.sha256(testbed_node_csv(report).encode()).hexdigest()
        rows.append(row)
    return rows


def lattice_pairings(seed: int) -> dict:
    """``IntegralLattice.pair`` calls in request 0 of the ``lattice``
    workload, by the suite that made them, read off the tracer's spans."""
    from tracing import Tracer
    from workloads import request_seed, run_request

    tracer = Tracer()
    with tracer.installed(), tracer.span("request", request=0):
        run_request("lattice", request_seed(seed, 0), tracer)
    spans = tracer.last_spans
    counts = {}
    for name, _, _, parent, _ in spans:
        if name != PAIR:
            continue
        while not spans[parent][0].startswith("suites."):
            parent = spans[parent][3]
        suite = spans[parent][0].removeprefix("suites.")
        counts[suite] = counts.get(suite, 0) + 1
    classes = tracer.calls.get("lattice.random_primitive_isotropic", 0) + tracer.calls.get(
        "lattice.random_isometry_images", 0
    )
    return {"pair_calls_by_suite": counts, "classes": classes}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--seed", type=int, default=1)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args(argv)

    workloads = {}
    for workload in (entry["name"] for entry in spec["workloads"]):
        workloads[workload] = {}
        for trace in (0, 1):
            detail, result = run_once(workload, args.seed, args.seconds, trace)
            workloads[workload][f"trace{trace}"] = {"detail": detail, "result": result}

    pairings = lattice_pairings(args.seed)
    twistor = pairings["pair_calls_by_suite"].get("twistor-curve", 0)
    total = sum(pairings["pair_calls_by_suite"].values())
    record = {
        "pr": args.pr,
        "git_commit": workloads["recognition"]["trace0"]["detail"]["provenance"]["git_commit"],
        "command": f"python3 tools/record_bench.py --pr {args.pr} --seed {args.seed} --seconds {args.seconds:g}",
        "workloads": workloads,
        "tier1": tier1(),
        "acceptance_suites": acceptance_suites(),
        "lattice_pairings": pairings,
        "notes": {
            "lattice.pair_per_class": (
                f"counts every IntegralLattice.pair call of a request over the classes drawn; in request 0 of "
                f"seed {args.seed}, {twistor} of {total} pairings are twistor-curve pairings, not class pairings"
            ),
            "kernels.wedge_scatter.bytes": (
                "computed by perfbench/tracing.py as the nbytes of the kernel's first four positional arrays "
                "plus 48 B per product"
            ),
        },
    }
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(out)


if __name__ == "__main__":
    main()
