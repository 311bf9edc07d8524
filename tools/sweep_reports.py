#!/usr/bin/env python3
"""Sweep every acceptance-size suite over many seeds, and compare two trees.

Usage:
    python3 tools/sweep_reports.py [--seeds 0-39,20260810] [--scale K] [--compare REV]

For every seed, a fresh process imports csympl from the tree's ``src/`` and
runs each configuration of ``ACCEPTANCE_RUNS`` (``tools/record_bench.py``,
the sizes of ``tests/test_acceptance.py``) at that seed, timing each run. A
report is summarized by ``record_bench.report_digests``: the sha256 of its
check rows and, for the testbed, of its node table. The run prints the
worst value of every (check, dim): the one closest to the check's bound in
``suites.CHECKS``. ``--scale K`` multiplies each run's ``samples`` by K; the
testbed runs have no ``samples`` and stay as they are.

With ``--compare REV`` it copies REV's tree with ``git archive`` into a
temporary directory (removed afterwards, also on failure), sweeps it the
same way, and prints the reports whose digests differ, the rows whose
pass/fail flipped, and the worst value of every (check, dim) on each side.
It then exits with status 1 when a report changed or a row flipped, and 0
otherwise, so a claim that every report stayed byte-identical is the
status of one command.
"""

import argparse
import json
import math
import os
import re
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SEEDS = "0-39,20260810"


def parse_seeds(text: str) -> list:
    """Seeds from comma-separated non-negative values and inclusive ranges
    ``a-b`` with ``a <= b``. Raises ``ValueError`` for any other part, for a
    reversed range and for a seed given more than once."""
    seeds = []
    for part in text.split(","):
        match = re.fullmatch(r"(\d+)(?:-(\d+))?", part, re.ASCII)
        if not match:
            raise ValueError(f"{part!r} is not a non-negative seed or a range a-b of them")
        first, last = int(match[1]), int(match[2] or match[1])
        if first > last:
            raise ValueError(f"range {part!r} is reversed")
        seeds.extend(range(first, last + 1))
    repeated = sorted(seed for seed, count in Counter(seeds).items() if count > 1)
    if repeated:
        raise ValueError(f"seeds given more than once: {', '.join(map(str, repeated))}")
    return seeds


def run_label(config: dict) -> str:
    """The name of one acceptance run: its suite, and the testbed's control."""
    return config["suite"] + (f"/{config['control']}" if "control" in config else "")


def scaled_runs(runs, scale: int) -> list:
    """``runs`` with each ``samples`` multiplied by ``scale``."""
    return [{**run, "samples": run["samples"] * scale} if "samples" in run else run for run in runs]


def worker(job: dict) -> dict:
    """Run every configuration of ``job`` at its seed with the csympl of
    ``job["src"]``: per run, its digests, its rows with their bounds and its
    wall time in seconds."""
    sys.path.insert(0, job["src"])
    from csympl.suites import CHECKS, SuiteConfig, run_suite

    # after csympl: importing record_bench puts this checkout's src/ first on the path
    from record_bench import report_digests

    reports = {}
    for config in job["runs"]:
        start = time.perf_counter()
        report = run_suite(SuiteConfig(seed=job["seed"], **config))
        seconds = time.perf_counter() - start
        digest = "/".join(report_digests(report).values())
        rows = [
            {**row, "bounds": [CHECKS[row["check"]].low, CHECKS[row["check"]].high]} for row in report.checks
        ]
        reports[run_label(config)] = {"digest": digest, "rows": rows, "s": seconds}
    return reports


def sweep(tree: Path, seeds, runs) -> dict:
    """``{(run label, seed): report}`` of ``tree``, one fresh process per seed."""
    reports = {}
    for seed in seeds:
        job = {"src": str(tree / "src"), "seed": seed, "runs": runs}
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--worker"],
            input=json.dumps(job), capture_output=True, text=True, check=True, cwd=tree,
            env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
        )  # fmt: skip
        for label, report in json.loads(proc.stdout).items():
            reports[label, seed] = report
    return reports


def worst_values(reports: dict) -> dict:
    """The worst value of each (check, dim) over all reports: NaN if any
    value is NaN, else the value with the least margin to the bounds."""
    values, bounds = {}, {}
    for report in reports.values():
        for row in report["rows"]:
            key = row["check"], row["dim"]
            values.setdefault(key, []).append(row["max_residual"])
            bounds[key] = row["bounds"]
    worst = {}
    for key, found in values.items():
        low, high = bounds[key]
        worst[key] = math.nan if any(map(math.isnan, found)) else min(found, key=lambda v: min(v - low, high - v))
    return worst


def compare(this: dict, other: dict) -> dict:
    """The reports of ``this`` whose digests differ from ``other``'s (or that
    only one side has), and the rows whose pass/fail flipped."""
    digest = lambda reports, key: reports.get(key, {}).get("digest")
    changed = sorted(key for key in this.keys() | other.keys() if digest(this, key) != digest(other, key))
    flipped = []
    for key in sorted(this.keys() & other.keys()):
        passes = {(row["check"], row["dim"]): row["pass"] for row in other[key]["rows"]}
        for row in this[key]["rows"]:
            before = passes.get((row["check"], row["dim"]))
            if before is not None and before != row["pass"]:
                flipped.append((*key, row["check"], row["dim"], before, row["pass"]))
    return {"changed": changed, "flipped": flipped}


def print_worst(sides: dict) -> None:
    worst = {name: worst_values(reports) for name, reports in sides.items()}
    keys = sorted(set().union(*worst.values()))
    print(f"worst value per (check, dim): {' | '.join(sides)}")
    for check, dim in keys:
        cells = " | ".join(f"{worst[name].get((check, dim), math.nan):.6e}" for name in sides)
        print(f"  {check:<30} {dim:>3}  {cells}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default=DEFAULT_SEEDS, help="comma-separated seeds and ranges a-b")
    parser.add_argument("--scale", type=int, default=1, metavar="K", help="multiply each run's samples by K")
    parser.add_argument("--compare", metavar="REV", help="revision to sweep and compare with this checkout")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.scale < 1:
        parser.error(f"--scale must be at least 1, got {args.scale}")
    if args.worker:
        print(json.dumps(worker(json.load(sys.stdin))))
        return 0
    sys.path.insert(0, str(ROOT / "tools"))
    from record_bench import ACCEPTANCE_RUNS, parent_tree

    try:
        seeds = parse_seeds(args.seeds)
    except ValueError as error:
        parser.error(f"--seeds: {error}")
    runs = scaled_runs(ACCEPTANCE_RUNS, args.scale)
    sides = {"this checkout": sweep(ROOT, seeds, runs)}
    print(f"seeds: {args.seeds} ({len(seeds)}); runs per seed: {len(runs)}; scale: {args.scale}")
    status = 0
    if args.compare:
        with parent_tree(args.compare) as tree:
            sides[args.compare] = sweep(tree, seeds, runs)
        found = compare(*sides.values())
        print(f"reports: {len(sides['this checkout'])}; changed: {len(found['changed'])}; "
              f"flipped rows: {len(found['flipped'])}")  # fmt: skip
        for label, seed in found["changed"]:
            print(f"  changed: {label} seed {seed}")
        for label, seed, check, dim, before, after in found["flipped"]:
            print(f"  flipped: {label} seed {seed} {check} dim {dim}: pass {before} -> {after}")
        status = int(bool(found["changed"] or found["flipped"]))
    print_worst(sides)
    return status


if __name__ == "__main__":
    sys.exit(main())
