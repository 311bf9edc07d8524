"""One benchmark worker process; ``run.py`` starts each one fresh.

Usage: python3 perfbench/worker.py {setup|run|trace} WORKLOAD SEED SECONDS

Every mode times ``import csympl`` plus the first (cold) request, which is
request 0 of the workload seed, then runs calibration loops.
``setup`` stops there. ``run`` then warms up and runs the timed closed loop.
``trace`` splits the time between an untraced and a traced loop over the
same requests. The worker prints one JSON object.
"""

import json
import platform
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SOURCE = HERE.parent / "src"

#: The warm-up runs requests for at least this long, and at least two.
WARMUP_S = 1.0
#: Calibration loops after the cold request (numpy is loaded by then).
SETUP_CALIBRATIONS = 5


def main(argv):
    mode, workload, workload_seed, seconds = argv[0], argv[1], int(argv[2]), float(argv[3])
    sys.path[:0] = [str(SOURCE), str(HERE)]
    from workloads import SUITES_USED, WORKLOADS, calibrate, request_seed, run_request, timed_requests

    if workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {workload!r}")

    start = time.perf_counter()
    import csympl

    ok, rows, error = run_request(workload, request_seed(workload_seed, 0))
    setup_s = time.perf_counter() - start
    calibrations = [calibrate() for _ in range(SETUP_CALIBRATIONS)]
    if not Path(csympl.__file__).resolve().is_relative_to(SOURCE):
        raise SystemExit(f"csympl was imported from {csympl.__file__}, not from {SOURCE}")

    result = {"setup_s": setup_s, "setup_calibrations": calibrations, "cold_rows": rows, "failures": []}
    if not ok:
        result["failures"].append({"request": 0, "error": error})

    index = 1
    if mode != "setup":
        began = time.perf_counter()
        while index < 3 or time.perf_counter() - began < WARMUP_S:
            ok, _, error = run_request(workload, request_seed(workload_seed, index))
            if not ok:
                result["failures"].append({"request": index, "error": error})
            index += 1
    result["attempted"] = index

    def loop(seconds, tracer=None):
        latencies, calibrations, failures = timed_requests(workload, workload_seed, index, seconds, tracer)
        result["attempted"] += len(latencies)
        result["failures"] += failures
        return {"latencies": latencies, "calibrations": calibrations, "failed": len(failures)}

    if mode == "run":
        result["timed"] = loop(seconds)
    elif mode == "trace":
        from tracing import Tracer

        result["untraced"] = loop(seconds / 2)
        tracer = Tracer()
        with tracer.installed():
            result["traced"] = loop(seconds / 2, tracer)
        result["layers"] = tracer.metrics(SUITES_USED)

    import numpy

    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["versions"] = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "csympl_backend": csympl.BACKEND,
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
