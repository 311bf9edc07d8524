"""Workload definitions and the request that every benchmark phase runs.

A request is one set of ``run_suite(SuiteConfig(...))`` calls, which is what
``csympl run`` does after parsing its arguments. Sizes are one tenth of the
sample counts in ``tests/test_acceptance.py``, at the acceptance dims and grids,
except ``lattice-sections`` (see ``WORKLOADS``).

This module imports nothing from csympl at import time, so a worker can
time ``import csympl`` itself.
"""

import functools
import hashlib
import time
from contextlib import nullcontext

WORKLOADS = {
    # The power criterion's wedge chain (forms/kernels/multiindex) at dim 12,
    # plus per-form kernel SVDs.
    "recognition": (
        dict(suite="criteria-equivalence", dims=(4, 8, 12), samples=50),
        dict(suite="induced-structure", dims=(4, 8), samples=10),
        dict(suite="gram-schmidt", dims=(4, 8, 12), samples=7),
    ),
    # Repeated kernel analysis per form, Hodge splits and pullbacks, with
    # wedges only at dim <= 8. hitchin is left out: its fixed 100-trial
    # brute-force check does not scale with the sample count.
    "deformation": (
        dict(suite="preservance", dims=(4, 8), samples=10),
        dict(suite="section-theorem", dims=(4, 8), samples=10),
    ),
    # Exact Python-int lattice arithmetic with no numpy form layers;
    # twistor-curve at 10 samples sweeps one curve of 100 planes.
    # lattice-sections runs 3 classes, not a tenth of 100: with 10 a request
    # takes about 1 s, a run holds about 20 requests, and the tail latency
    # (ten requests beyond it) would fall at the median.
    "lattice": (
        dict(suite="lattice-sections", samples=3),
        dict(suite="twistor-curve", samples=10),
    ),
    # The same c-symplectic math stacked over every node of the torus grid
    # in single numpy calls; grid 64 (coarse grid 32) is the acceptance grid.
    "testbed": (
        dict(suite="testbed-nijenhuis", grid_n=64, modes=3, t_value=-1.0, control="closed"),
        dict(suite="testbed-nijenhuis", grid_n=64, t_value=0.5, control="nonclosed"),
    ),
}

#: Every suite some workload runs, in a fixed order for the per-layer metrics.
SUITES_USED = tuple(dict.fromkeys(cfg["suite"] for configs in WORKLOADS.values() for cfg in configs))

#: Matrices in the calibration loop.
CALIBRATION_MATRICES = 100


def request_seed(workload_seed: int, index: int) -> int:
    """Suite seed of request ``index``, drawn from the workload seed."""
    digest = hashlib.sha256(f"{workload_seed}/{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def _no_span(name, request=None):
    return nullcontext()


def run_request(workload: str, seed: int, tracer=None):
    """Run one request and return ``(ok, rows, error)``.

    ``ok`` is False when a suite raises or any check row has
    ``pass == False``; ``rows`` lists every check row of every suite.
    With a tracer, each ``run_suite`` call is a ``suites.<suite>`` span.
    """
    from csympl.suites import SuiteConfig, run_suite

    span = tracer.span if tracer else _no_span
    rows = []
    try:
        for config in WORKLOADS[workload]:
            with span(f"suites.{config['suite']}"):
                report = run_suite(SuiteConfig(seed=seed, **config))
            rows.extend(dict(row, suite=config["suite"]) for row in report.checks)
    except Exception as exc:  # a raising suite is a failed request, not a crash
        return False, rows, f"{type(exc).__name__}: {exc}"
    ok = bool(rows) and all(row["pass"] for row in rows)
    return ok, rows, None if ok else "a check row failed"


@functools.cache
def _calibration_matrices():
    import numpy as np

    return np.random.default_rng(0).standard_normal((CALIBRATION_MATRICES, 8, 8))


def calibrate() -> float:
    """Time to take the eigenvalues of fixed 8x8 matrices one at a time,
    about 4 ms: how fast the machine runs right now. Like the suites, it is
    small numpy calls; nothing in csympl can change it."""
    import numpy as np

    matrices = _calibration_matrices()
    start = time.perf_counter()
    for matrix in matrices:
        np.linalg.eigvals(matrix)
    return time.perf_counter() - start


def timed_requests(workload: str, workload_seed: int, first: int, seconds: float, tracer=None):
    """Closed loop from request index ``first`` until ``seconds`` have passed.

    Returns ``(latencies, calibrations, failures)``. Each request starts only
    after the previous one has returned; ``calibrate()`` runs before each
    request and once after the last, outside the request's time. With a
    tracer, each request is the root span of its own spans.
    """
    span = tracer.span if tracer else _no_span
    latencies, calibrations, failures = [], [], []
    index = first
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or not latencies:
        calibrations.append(calibrate())
        seed = request_seed(workload_seed, index)
        began = time.perf_counter()
        with span("request", request=index):
            ok, _, error = run_request(workload, seed, tracer)
        latencies.append(time.perf_counter() - began)
        if not ok:
            failures.append({"request": index, "seed": seed, "error": error})
        index += 1
    calibrations.append(calibrate())
    return latencies, calibrations, failures
