"""The claim arithmetic of tools/record_bench.py's pair mode."""

import importlib.util
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
