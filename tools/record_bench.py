#!/usr/bin/env python3
"""Record one ``BENCH_<pr>.json`` at the repository root.

Usage:
    python3 tools/record_bench.py --pr N [--seed S] [--seconds T]
        [--parent REV --workload W [--pairs K]]

Runs ``perfbench/run.py`` unchanged on every workload of BENCHMARK.json,
once with ``--trace 0`` and once with ``--trace 1``, and keeps each run's
detail line (provenance and the details behind the metrics) and result
line as they were printed. It adds the Tier-1 wall time, the time of every
suite at the sample sizes of ``tests/test_acceptance.py`` (best of
SUITE_REPEATS in one process, with a digest of its check rows and, for the
testbed, of its node table), and where the ``lattice`` workload's pairings
come from, for the note on ``lattice.pair_per_class``.

With ``--parent REV`` it also writes a ``claim`` and a ``guards`` block. It
copies REV's tree with ``git archive`` into a temporary directory (removed
afterwards, also on failure) and runs K pairs on every workload: in each
pair, REV's own ``perfbench/run.py --trace 0`` and this checkout's, on one
seed, the side that runs first alternating from pair to pair. Each side
keeps its bytecode in one ``PYTHONPYCACHEPREFIX`` of its own for the whole
record, never in a checkout's possibly stale ``__pycache__``, and one
untimed ``setup`` worker per side fills it before each workload's pairs: so
both sides' timed runs read warm bytecode. The seeds are
``PAIR_SEEDS_PER_PR * N + 1`` onwards, so no two PRs share one. For every
end-to-end metric both blocks give both sides' median and quartiles, the
pairs the change won (ties count for neither side), whether the medians
differ by more than the parent's quartile distance, whether the
change's median is worse than the parent's by more than the metric's
``bound`` in BENCHMARK.json, and whether the parent's own spread is too
wide to tell against that bound. They also give each pair's change/parent
ratio with the ratios' median and quartiles: both runs of a pair share the
machine's load at that time, so the ratios do not read load drift between
pairs as spread. ``claim`` holds workload W, the one the change
claims a gain on; ``guards`` holds every other workload, where the change
must not get worse beyond a bound.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from baseline import run_once, summarise  # noqa: E402  (perfbench/baseline.py)

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
#: Pair seeds of PR N start at PAIR_SEEDS_PER_PR * N + 1.
PAIR_SEEDS_PER_PR = 1000


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


@contextlib.contextmanager
def parent_tree(rev: str):
    """A copy of the tree of ``rev`` in a temporary directory."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, check=True, capture_output=True)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "parent"
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            tar.extractall(path, filter="data")
        yield path


def side_env(pycache: str) -> dict:
    """The environment of one side's runs: bytecode is read from and written
    to ``pycache`` alone, also where the caller's environment forbids
    writing it (``PYTHONDONTWRITEBYTECODE``)."""
    env = {name: value for name, value in os.environ.items() if name != "PYTHONDONTWRITEBYTECODE"}
    return {**env, "PYTHONPYCACHEPREFIX": pycache}


def warm_checkout(root: Path, workload: str, env: dict) -> None:
    """One untimed ``setup`` worker of checkout ``root``, which compiles the
    modules a ``workload`` request imports into ``env``'s bytecode cache."""
    command = [sys.executable, str(root / "perfbench" / "worker.py"), "setup", workload, "0", "0"]
    subprocess.run(command, cwd=root, env=env, capture_output=True, check=True)


def run_checkout(root: Path, workload: str, seed: int, seconds: float, env: dict) -> dict:
    """One ``--trace 0`` run of the ``perfbench/run.py`` of checkout ``root``
    in environment ``env``, with the CPU model and CPU count of its detail
    line's provenance."""
    command = [
        sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]  # fmt: skip
    proc = subprocess.run(command, cwd=root, env=env, capture_output=True, text=True, check=True)
    detail, result = map(json.loads, proc.stdout.strip().splitlines()[-2:])
    return {
        "seed": seed,
        "provenance": {key: detail["provenance"][key] for key in ("cpu", "nproc")},
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: entry["value"] for name, entry in result["metrics"].items()},
    }


def claim_metrics(end_to_end: list, parent_runs: list, change_runs: list) -> dict:
    """Per end-to-end metric: both sides' median and quartiles, the pairs
    the change won, whether the medians differ by more than the parent's
    quartile distance, and how much worse the change's median is than the
    parent's, as a share of the parent's, against the metric's bound; and
    each pair's change/parent ratio, in pair order, with the ratios' median
    and quartiles.

    A metric is ``unresolved`` when the parent's spread (q3 - q1) / median
    exceeds the bound, so that its median alone cannot tell a change of that
    size, unless every change run is better than every parent run."""
    metrics = {}
    for metric in end_to_end:
        name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
        parent = [run["metrics"][name] for run in parent_runs]
        change = [run["metrics"][name] for run in change_runs]
        ratios = [c / p for p, c in zip(parent, change)]
        parent_summary, change_summary = summarise(parent), summarise(change)
        shift = change_summary["median"] - parent_summary["median"]
        worse_by = -sign * shift / parent_summary["median"]
        metrics[name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            "parent": parent_summary,
            "change": change_summary,
            "wins": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
            "pairs": len(parent),
            "median_ratio": change_summary["median"] / parent_summary["median"],
            "beyond_parent_iqr": abs(shift) > parent_summary["q3"] - parent_summary["q1"],
            "worse_by": worse_by,
            "bound": metric["bound"],
            "worse_beyond_bound": worse_by > metric["bound"],
            "unresolved": parent_summary["spread"] > metric["bound"]
            and not all(sign * (c - p) > 0 for c in change for p in parent),
            "pair_ratios": ratios,
            "pair_ratio": summarise(ratios),
        }
    return metrics


def pair_claim(spec: dict, parent: str, workload: str, pairs: int, seconds: float, pr: int) -> tuple:
    """The ``claim`` block for ``workload`` and the ``guards`` block for
    every other workload, from ``pairs`` alternating pairs on each."""
    commit = subprocess.run(["git", "rev-parse", parent], cwd=ROOT, check=True, capture_output=True, text=True)
    seeds = range(PAIR_SEEDS_PER_PR * pr + 1, PAIR_SEEDS_PER_PR * pr + pairs + 1)
    blocks = {}
    with parent_tree(parent) as parent_root, tempfile.TemporaryDirectory() as pycache:
        sides = [("parent", parent_root), ("change", ROOT)]
        envs = {side: side_env(os.path.join(pycache, side)) for side, _ in sides}
        for name in (entry["name"] for entry in spec["workloads"]):
            for side, root in sides:
                warm_checkout(root, name, envs[side])
            runs = {"parent": [], "change": []}
            for i, seed in enumerate(seeds):
                for side, root in sides[:: 1 if i % 2 == 0 else -1]:
                    runs[side].append(run_checkout(root, name, seed, seconds, envs[side]))
            blocks[name] = {
                "metrics": claim_metrics(spec["end_to_end"], runs["parent"], runs["change"]),
                "failed": {side: sum(run["failed"] for run in side_runs) for side, side_runs in runs.items()},
                "runs": runs,
            }
    provenance = {"parent_commit": commit.stdout.strip(), "seconds": seconds, "seeds": list(seeds)}
    claim = {**provenance, "workload": workload, **blocks.pop(workload)}
    return claim, {**provenance, "workloads": blocks}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--seed", type=int, default=1)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--parent", help="revision to claim against, run in pairs with this checkout")
    parser.add_argument("--workload", choices=[entry["name"] for entry in spec["workloads"]])
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.parent is not None and (args.workload is None or args.pairs < 2):
        parser.error("--parent needs --workload and at least 2 --pairs")

    workloads = {}
    for workload in (entry["name"] for entry in spec["workloads"]):
        workloads[workload] = {}
        for trace in (0, 1):
            detail, result = run_once(workload, args.seed, args.seconds, trace)
            workloads[workload][f"trace{trace}"] = {"detail": detail, "result": result}

    claim = guards = None
    if args.parent:
        claim, guards = pair_claim(spec, args.parent, args.workload, args.pairs, args.seconds, args.pr)
    pairings = lattice_pairings(args.seed)
    twistor = pairings["pair_calls_by_suite"].get("twistor-curve", 0)
    total = sum(pairings["pair_calls_by_suite"].values())
    command = f"python3 tools/record_bench.py --pr {args.pr} --seed {args.seed} --seconds {args.seconds:g}"
    if claim:
        command += f" --parent {args.parent} --workload {args.workload} --pairs {args.pairs}"
    record = {
        "pr": args.pr,
        "git_commit": workloads["recognition"]["trace0"]["detail"]["provenance"]["git_commit"],
        "command": command,
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
    if claim:
        record["claim"] = claim
        record["guards"] = guards
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(out)


if __name__ == "__main__":
    main()
