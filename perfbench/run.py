#!/usr/bin/env python3
"""csympl benchmark: closed-loop suite requests, end to end or traced per layer.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client submits a request (a set of ``run_suite`` calls, see
``workloads.py``) and waits for its verified report before submitting the
next. Request seeds are drawn from ``--seed``. The package is imported from
``src/`` of the checkout this file sits in; nothing is installed or built.

With ``--trace 0`` the run starts SETUP_RUNS fresh worker processes, each
timing ``import csympl`` plus the cold first request; the middle one then
runs the timed loop. With ``--trace 1`` one worker runs the same requests
untraced and then traced, and reports the per-layer metrics. The last line
of standard output is the result object; the line before it holds the
provenance and the details behind the metrics.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402  (imports nothing from csympl)

#: Fresh processes whose set-up time is measured; the median is reported.
SETUP_RUNS = 5
#: BLAS/OpenMP threads per worker, capped at nproc. One client runs one
#: request at a time on matrices of size <= 12 (or stacks of them), so extra
#: BLAS threads would add only scheduling noise.
BLAS_THREADS = 1
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
#: Time of ``workloads.calibrate()`` on the reference machine (a 2-core
#: Xeon, Python 3.11, numpy 2.4). Times are scaled by this over the calibration time
#: measured next to them, so a slower phase of a shared machine does not
#: read as a slower program.
REFERENCE_CALIBRATION_S = 0.004
#: A worker that outlives the timed loop by this much has hung.
WORKER_GRACE_S = 90


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def blas_threads() -> int:
    return min(BLAS_THREADS, nproc())


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """Commit of the checkout, read from ``.git`` directly; "unknown" outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: ") :]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def call_worker(mode: str, args) -> dict:
    env = dict(os.environ, **{name: str(blas_threads()) for name in THREAD_VARIABLES})
    command = [sys.executable, str(HERE / "worker.py"), mode, args.workload, str(args.seed), str(args.seconds)]
    proc = subprocess.run(
        command, cwd=ROOT, env=env, capture_output=True, text=True, timeout=args.seconds + WORKER_GRACE_S
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{mode} worker exited with status {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail_latency(latencies):
    """Highest whole percentile with at least ten requests beyond it, by
    nearest rank, as ``(percentile, value)``; the maximum if there are at
    most ten requests."""
    ordered = sorted(latencies)
    n = len(ordered)
    percentile = 100 * (n - 10) // n if n > 10 else 100
    return percentile, ordered[max(1, -(-percentile * n // 100)) - 1]


def scaled_latencies(loop: dict):
    """Each latency scaled to the reference speed by the median of the
    calibrations within four of the request, before and after it."""
    calibrations = loop["calibrations"]
    return [
        latency * REFERENCE_CALIBRATION_S / statistics.median(calibrations[max(0, i - 3) : i + 5])
        for i, latency in enumerate(loop["latencies"])
    ]


def scaled_setup(worker: dict) -> float:
    return worker["setup_s"] * REFERENCE_CALIBRATION_S / statistics.median(worker["setup_calibrations"])


def throughput(loop: dict, latencies) -> float:
    """Verified requests per second of request time."""
    return (len(latencies) - loop["failed"]) / sum(latencies)


def latency_metrics(loop: dict, latencies) -> dict:
    return {
        "throughput_rps": (throughput(loop, latencies), "1/s"),
        "latency_p50_s": (statistics.median(latencies), "s"),
        "latency_tail_s": (tail_latency(latencies)[1], "s"),
    }


def end_to_end(args, detail):
    # set-up samples before and after the timed loop see different phases
    # of the machine's load
    before = [call_worker("setup", args) for _ in range(SETUP_RUNS // 2)]
    main = call_worker("run", args)
    workers = before + [main] + [call_worker("setup", args) for _ in range(SETUP_RUNS - 1 - len(before))]
    loop = main["timed"]
    metrics = latency_metrics(loop, scaled_latencies(loop))
    metrics["setup_s"] = (statistics.median(scaled_setup(worker) for worker in workers), "s")
    metrics["peak_rss_mb"] = (main["peak_rss_mb"], "MB")
    unscaled = latency_metrics(loop, loop["latencies"])
    unscaled["setup_s"] = (statistics.median(worker["setup_s"] for worker in workers), "s")
    detail.update(
        latency_tail={"percentile": tail_latency(loop["latencies"])[0], "samples": len(loop["latencies"])},
        unscaled={name: value for name, (value, _) in unscaled.items()},
        speed=REFERENCE_CALIBRATION_S / statistics.median(loop["calibrations"]),
    )
    return workers, main, metrics


def traced(args, detail):
    main = call_worker("trace", args)
    metrics = {name: tuple(entry) for name, entry in main["layers"].items()}
    untraced = throughput(main["untraced"], scaled_latencies(main["untraced"]))
    traced_rps = throughput(main["traced"], scaled_latencies(main["traced"]))
    metrics["trace.untraced_rps"] = (untraced, "1/s")
    metrics["trace.traced_rps"] = (traced_rps, "1/s")
    metrics["trace.overhead_rps"] = (traced_rps - untraced, "1/s")
    detail["computed"] = ["kernels.wedge_scatter.entries", "kernels.wedge_scatter.bytes"]
    return [main], main, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "csympl" / "__init__.py").is_file():
        sys.exit(f"no csympl sources at {ROOT / 'src' / 'csympl'}; run from a checkout of the repository")

    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds}
    workers, main_worker, metrics = (traced if args.trace else end_to_end)(args, detail)

    failures = [failure for worker in workers for failure in worker["failures"]]
    attempted = sum(worker["attempted"] for worker in workers)
    # every worker ran request 0 of the seed in a fresh process
    deterministic = all(worker["cold_rows"] == workers[0]["cold_rows"] for worker in workers)
    detail.update(
        fail_ratio=len(failures) / attempted,
        failures=failures[:5],
        deterministic_across_processes=deterministic,
        provenance={
            "cpu": cpu_model(),
            "nproc": nproc(),
            **main_worker["versions"],
            "blas_threads": blas_threads(),
            "git_commit": git_commit(),
            "workload_seed": args.seed,
            "requests": WORKLOADS[args.workload],
        },
    )
    print(json.dumps(detail))
    print(
        json.dumps(
            {
                "correct": not failures and deterministic,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )


if __name__ == "__main__":
    main()
