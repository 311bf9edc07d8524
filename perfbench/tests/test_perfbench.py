"""Tests of the benchmark itself.

Run from the repository root: python3 -m pytest perfbench/tests
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import workloads  # noqa: E402
from run import tail_latency  # noqa: E402
from tracing import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [workload["name"] for workload in SPEC["workloads"]]


def run_benchmark(workload, trace, root=ROOT):
    command = [
        sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
        "--seed", "3", "--seconds", "1", "--trace", str(trace),
    ]  # fmt: skip
    return subprocess.run(command, cwd=root, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_minimal_run_emits_every_declared_metric(workload, trace):
    proc = run_benchmark(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {metric["name"]: metric["unit"] for metric in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == declared
    if not trace:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_run_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_benchmark("lattice", 0, root=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def _bindings():
    """Every attribute of the loaded csympl and numpy.linalg modules, and
    every attribute of the classes csympl defines."""
    state = {}
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "csympl" or name.startswith(("csympl.", "numpy.linalg"))):
            continue
        for key, value in vars(module).items():
            state[(name, key)] = value
            if isinstance(value, type) and value.__module__.startswith("csympl"):
                for attribute, raw in vars(value).items():
                    state[(name, key, attribute)] = raw
    return state


def test_traced_run_restores_every_wrapped_attribute():
    import numpy
    import csympl

    before = _bindings()
    original_svd, original_kernel = numpy.linalg.svd, csympl.csymplectic.form_kernel
    tracer = Tracer()
    with tracer.installed():
        assert numpy.linalg.svd is not original_svd
        assert csympl.csymplectic.form_kernel is not original_kernel
        assert csympl.form_kernel is csympl.csymplectic.form_kernel is csympl.forms.form_kernel
        for workload in WORKLOAD_NAMES:
            workloads.timed_requests(workload, 5, 0, 0.0, tracer)
    assert tracer.requests == len(WORKLOAD_NAMES)
    after = _bindings()
    changed = [key for key, value in before.items() if after.get(key) is not value]
    assert changed == []


def test_nested_self_times_sum_to_the_request_time():
    tracer = Tracer()
    with tracer.installed():
        workloads.timed_requests("deformation", 5, 0, 0.0, tracer)
    spans = tracer.last_spans
    roots = [span for span in spans if span[3] == -1]
    assert [root[0] for root in roots] == ["request"]
    assert len(spans) > 100 and {span[4] for span in spans} == {0}
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            assert spans[parent][1] <= start <= end <= spans[parent][2], name
    self_times = Tracer.self_times(spans)
    assert min(self_times) > -1e-9
    request_time = roots[0][2] - roots[0][1]
    assert math.isclose(sum(self_times), request_time, rel_tol=1e-9)


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_same_seed_gives_identical_check_rows(workload):
    seed = workloads.request_seed(11, 0)
    first = workloads.run_request(workload, seed)
    second = workloads.run_request(workload, seed)
    assert first[0] and first[1]
    assert first == second


@pytest.mark.parametrize("n", [1, 10, 11, 57, 105, 1000])
def test_tail_percentile_has_ten_requests_beyond_it(n):
    latencies = [float(i) for i in range(n, 0, -1)]
    percentile, value = tail_latency(latencies)
    beyond = sum(latency > value for latency in latencies)
    if n <= 10:
        assert (percentile, value) == (100, float(n))
    else:
        assert beyond >= 10
        next_rank = -(-(percentile + 1) * n // 100)
        assert n - next_rank < 10
