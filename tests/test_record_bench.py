"""The claim arithmetic of tools/record_bench.py's pair mode, and its
acceptance-suite times."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

SPEC = importlib.util.spec_from_file_location(
    "record_bench", Path(__file__).resolve().parent.parent / "tools" / "record_bench.py"
)
record_bench = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(record_bench)

END_TO_END = [
    {"name": "throughput_rps", "unit": "1/s", "better": "higher", "bound": 0.2},
    {"name": "latency_p50_s", "unit": "s", "better": "lower", "bound": 0.2},
]


def runs(throughput, latency):
    return [{"metrics": {"throughput_rps": t, "latency_p50_s": s}} for t, s in zip(throughput, latency)]


def test_claim_counts_wins_by_direction_and_ties_for_neither_side():
    parent = runs([5.0, 5.2, 5.4, 5.6, 5.8], [0.18, 0.18, 0.19, 0.17, 0.18])
    change = runs([7.0, 7.1, 5.0, 7.3, 5.8], [0.13, 0.19, 0.19, 0.13, 0.12])
    claim = record_bench.claim_metrics(END_TO_END, parent, change)
    throughput, latency = claim["throughput_rps"], claim["latency_p50_s"]
    assert throughput["wins"] == 3 and throughput["pairs"] == 5  # 5.0 < 5.4 loses, 5.8 = 5.8 ties
    assert latency["wins"] == 3  # lower is better; 0.19 = 0.19 ties
    assert throughput["parent"]["median"] == 5.4 and throughput["change"]["median"] == 7.0
    assert throughput["median_ratio"] == pytest.approx(7.0 / 5.4)
    assert throughput["beyond_parent_iqr"]  # parent quartiles 5.1 and 5.7


def test_claim_is_not_beyond_the_parent_iqr_inside_its_quartiles():
    parent = runs([5.0, 6.0, 7.0, 8.0], [0.1, 0.1, 0.1, 0.1])
    change = runs([7.0, 7.0, 7.0, 7.0], [0.1, 0.1, 0.1, 0.1])
    claim = record_bench.claim_metrics(END_TO_END, parent, change)
    assert not claim["throughput_rps"]["beyond_parent_iqr"]
    assert claim["latency_p50_s"]["wins"] == 0 and not claim["latency_p50_s"]["beyond_parent_iqr"]


def test_guard_verdict_holds_each_metric_to_its_bound_in_its_direction():
    parent = runs([5.0, 5.0, 5.0, 5.0], [0.10, 0.10, 0.10, 0.10])
    within = record_bench.claim_metrics(END_TO_END, parent, runs([4.1, 4.1, 4.1, 4.1], [0.119, 0.119, 0.119, 0.119]))
    assert within["throughput_rps"]["worse_by"] == pytest.approx(0.18)
    assert within["latency_p50_s"]["worse_by"] == pytest.approx(0.19)
    assert not within["throughput_rps"]["worse_beyond_bound"] and not within["latency_p50_s"]["worse_beyond_bound"]
    beyond = record_bench.claim_metrics(END_TO_END, parent, runs([3.9, 3.9, 3.9, 3.9], [0.121, 0.121, 0.121, 0.121]))
    assert beyond["throughput_rps"]["worse_beyond_bound"] and beyond["latency_p50_s"]["worse_beyond_bound"]
    # a gain is never worse: higher throughput and lower latency read negative
    better = record_bench.claim_metrics(END_TO_END, parent, runs([9.0, 9.0, 9.0, 9.0], [0.01, 0.01, 0.01, 0.01]))
    assert better["throughput_rps"]["worse_by"] < 0 and better["latency_p50_s"]["worse_by"] < 0
    assert not better["throughput_rps"]["worse_beyond_bound"] and not better["latency_p50_s"]["worse_beyond_bound"]


def test_pair_ratios_stay_tight_when_the_parent_drifts():
    # the machine slows down after pair 6 and both sides slow alike: the
    # parent's quartiles widen with the drift, each pair's ratio does not
    parent = [9.2, 9.4, 9.3, 9.5, 9.1, 9.3, 7.0, 7.3, 6.9, 7.2]
    change = [p * r for p, r in zip(parent, [1.20, 1.21, 1.19, 1.20, 1.22, 1.20, 1.21, 1.19, 1.20, 1.20])]
    claim = record_bench.claim_metrics(END_TO_END, runs(parent, [0.1] * 10), runs(change, [0.1] * 10))
    throughput = claim["throughput_rps"]
    assert throughput["pair_ratios"] == pytest.approx([c / p for p, c in zip(parent, change)])
    ratio = throughput["pair_ratio"]
    assert ratio["median"] == pytest.approx(1.20) and ratio["q3"] - ratio["q1"] <= 0.02 and ratio["spread"] < 0.02
    assert throughput["parent"]["spread"] > 0.2  # the drift, read as spread
    # beyond_parent_iqr keeps its definition, the median shift against the
    # parent's quartile distance, and the drift still hides the gain there
    quartiles = throughput["parent"]["q3"] - throughput["parent"]["q1"]
    shift = throughput["change"]["median"] - throughput["parent"]["median"]
    assert throughput["beyond_parent_iqr"] == (abs(shift) > quartiles)
    assert not throughput["beyond_parent_iqr"]
    assert throughput["wins"] == 10 and throughput["median_ratio"] == pytest.approx(1.20, abs=0.01)
    assert claim["latency_p50_s"]["pair_ratios"] == [1.0] * 10


#: BENCH_20.json's ten lattice latency_tail_s runs per side, in seconds.
LATTICE_TAIL = {
    "parent": [0.01676, 0.02890, 0.02186, 0.02053, 0.01800, 0.01642, 0.01872, 0.02647, 0.03126, 0.03841],
    "change": [0.01555, 0.01977, 0.01963, 0.01451, 0.01662, 0.01570, 0.01800, 0.02016, 0.02795, 0.03325],
}
TAIL = [{"name": "latency_tail_s", "unit": "s", "better": "lower", "bound": 0.25}]


def tail_runs(values):
    return [{"metrics": {"latency_tail_s": value}} for value in values]


def test_a_parent_spread_wider_than_the_bound_is_unresolved():
    parent = tail_runs(LATTICE_TAIL["parent"])
    tail = record_bench.claim_metrics(TAIL, parent, tail_runs(LATTICE_TAIL["change"]))["latency_tail_s"]
    summary = tail["parent"]
    assert (summary["q1"], summary["median"], summary["q3"]) == pytest.approx((0.0177, 0.0212, 0.0295), abs=1e-4)
    assert summary["spread"] == pytest.approx(0.557, abs=1e-3) and summary["spread"] > tail["bound"]
    # the change won all ten pairs, but its slowest run is slower than the
    # parent's fastest, and its median is no verdict inside a 56 % spread
    assert tail["wins"] == 10 and not tail["worse_beyond_bound"]
    assert tail["unresolved"]
    # separated runs resolve any spread; a spread within the bound needs no separation
    separated = record_bench.claim_metrics(TAIL, parent, tail_runs([0.0160] * 10))["latency_tail_s"]
    assert not separated["unresolved"]
    narrow = tail_runs([0.020, 0.021, 0.022, 0.021])
    unseparated = tail_runs([0.019, 0.030, 0.020, 0.021])
    assert not record_bench.claim_metrics(TAIL, narrow, unseparated)["latency_tail_s"]["unresolved"]



def test_a_pair_run_keeps_the_cpus_it_ran_on(monkeypatch, tmp_path):
    detail = {"workload": "testbed", "provenance": {"cpu": "Example CPU", "nproc": 2, "numpy": "2.4.6"}}
    metrics = {"throughput_rps": {"value": 8.9, "unit": "1/s"}}
    result = {"correct": True, "attempted": 12, "failed": 0, "metrics": metrics}
    stdout = json.dumps(detail) + "\n" + json.dumps(result) + "\n"
    commands = []

    def run(command, **kwargs):
        commands.append(command)
        return subprocess.CompletedProcess(command, 0, stdout=stdout, stderr="")

    monkeypatch.setattr(record_bench.subprocess, "run", run)
    got = record_bench.run_checkout(tmp_path, "testbed", 25001, 12.0, {})
    assert got == {
        "seed": 25001,
        "provenance": {"cpu": "Example CPU", "nproc": 2},
        "correct": True,
        "attempted": 12,
        "failed": 0,
        "metrics": {"throughput_rps": 8.9},
    }
    assert commands[0][1:] == [
        str(tmp_path / "perfbench" / "run.py"), "--workload", "testbed", "--seed", "25001", "--seconds", "12.0",
        "--trace", "0",
    ]  # fmt: skip


def test_each_side_reads_one_warm_bytecode_cache_of_its_own(monkeypatch, tmp_path):
    # a checkout's stale __pycache__, or a cache emptied for every run, would
    # cost the timed runs of one side, or of both, compilation time
    detail = {"workload": "testbed", "provenance": {"cpu": "Example CPU", "nproc": 2}}
    result = {"correct": True, "attempted": 1, "failed": 0, "metrics": {"throughput_rps": {"value": 9.0}}}
    stdout = json.dumps(detail) + "\n" + json.dumps(result) + "\n"
    calls = []

    def run(command, *, cwd, env=None, **kwargs):
        if command[0] == "git":
            return subprocess.CompletedProcess(command, 0, stdout="0" * 40 + "\n", stderr="")
        assert "PYTHONDONTWRITEBYTECODE" not in env and env["PATH"] == record_bench.os.environ["PATH"]
        calls.append((Path(cwd).name, Path(command[1]).name, env["PYTHONPYCACHEPREFIX"]))
        return subprocess.CompletedProcess(command, 0, stdout=stdout, stderr="")

    @record_bench.contextlib.contextmanager
    def parent_tree(rev):
        yield tmp_path / "parent"

    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    monkeypatch.setenv("PYTHONPYCACHEPREFIX", str(tmp_path / "inherited"))
    monkeypatch.setattr(record_bench, "ROOT", tmp_path / "change")
    monkeypatch.setattr(record_bench, "parent_tree", parent_tree)
    monkeypatch.setattr(record_bench.subprocess, "run", run)
    spec = {"workloads": [{"name": "testbed"}, {"name": "lattice"}], "end_to_end": END_TO_END[:1]}
    record_bench.pair_claim(spec, "HEAD", "testbed", 2, 1.0, 37)
    caches = {side: {cache for name, _, cache in calls if name == side} for side in ("parent", "change")}
    # one cache per side for the whole record, the caller's own never
    assert all(len(cache) == 1 for cache in caches.values()) and caches["parent"] != caches["change"]
    assert str(tmp_path / "inherited") not in caches["parent"] | caches["change"]
    # each workload's untimed setup workers run before its timed pairs
    scripts = [script for _, script, _ in calls]
    assert scripts == 2 * (["worker.py", "worker.py"] + ["run.py"] * 4)
    assert [name for name, script, _ in calls if script == "worker.py"] == ["parent", "change"] * 2
    assert not any(Path(cache).exists() for cache in caches["parent"] | caches["change"])  # removed afterwards


def test_acceptance_suites_time_each_run_once_in_each_fresh_process(monkeypatch):
    swept = []

    def sweep(tree, seeds, runs):
        swept.append((tree, seeds, runs))
        seconds = float(len(swept))
        return {
            (record_bench.run_label(config), seeds[0]): {
                "digest": "c" if "control" not in config else "c/n",
                "rows": [{"pass": True}, {"pass": config["suite"] != "twistor-curve"}],
                "s": seconds,
            }
            for config in runs
        }

    monkeypatch.setattr(record_bench, "sweep", sweep)
    rows = record_bench.acceptance_suites()
    processes = record_bench.ACCEPTANCE_PROCESSES
    runs = record_bench.ACCEPTANCE_RUNS
    assert swept == [(record_bench.ROOT, [record_bench.ACCEPTANCE_SEED], runs)] * processes
    times = [float(k) for k in range(1, processes + 1)]
    assert [row["config"] for row in rows] == list(runs)
    for row in rows:
        assert row["runs_s"] == times
        assert {key: row[key] for key in ("median", "q1", "q3", "spread")} == record_bench.summarise(times)
        assert row["passed"] == (row["config"]["suite"] != "twistor-curve")
        expected = {"checks_sha256": "c", "nodes_sha256": "n"} if "control" in row["config"] else {"checks_sha256": "c"}
        assert {key: value for key, value in row.items() if key.endswith("_sha256")} == expected
    # a run whose report differs between fresh processes is no timing of one report
    def diverging_sweep(tree, seeds, runs):
        swept.append(runs)
        return {(record_bench.run_label(config), seeds[0]): {"digest": str(len(swept)), "rows": [], "s": 1.0} for config in runs}

    monkeypatch.setattr(record_bench, "sweep", diverging_sweep)
    with pytest.raises(RuntimeError, match=r"^criteria-equivalence: fresh processes gave different reports"):
        record_bench.acceptance_suites()
