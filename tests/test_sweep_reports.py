"""The report sweep of tools/sweep_reports.py: its comparison of two trees
and its worst value per (check, dim)."""

import contextlib
import importlib.util
import math
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = importlib.util.spec_from_file_location("sweep_reports", ROOT / "tools" / "sweep_reports.py")
sweep_reports = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(sweep_reports)

#: A canned sweep small enough for Tier-1: two form suites and a coarse testbed.
CANNED_RUNS = [
    dict(suite="preservance", dims=(4,), samples=5),
    dict(suite="section-theorem", dims=(4,), samples=5),
    dict(suite="testbed-nijenhuis", grid_n=16, modes=3, control="closed"),
]


def test_a_tree_compared_with_itself_reads_no_changes():
    first = sweep_reports.sweep(ROOT, [0, 3], CANNED_RUNS)
    second = sweep_reports.sweep(ROOT, [0, 3], CANNED_RUNS)
    assert sorted(first) == sorted(second) == sorted(
        (label, seed) for label in ("preservance", "section-theorem", "testbed-nijenhuis/closed") for seed in (0, 3)
    )
    assert sweep_reports.compare(first, second) == {"changed": [], "flipped": []}
    assert first[("testbed-nijenhuis/closed", 0)]["digest"].count("/") == 1  # the node table's digest
    worst = sweep_reports.worst_values(first)
    assert {check for check, dim in worst} == {
        "preservance", "preservance-fiber-lagrangian", "holomorphize", "holomorphize-graph-lagrangian",
        "section-holomorphy", "section-nijenhuis", "section-closedness", "closed-decay-rate",
        "closed-control-nijenhuis",
    }  # fmt: skip


def report(digest, *rows):
    return {"digest": digest, "rows": [dict(zip(("check", "dim", "max_residual", "pass", "bounds"), row)) for row in rows]}


def test_compare_names_changed_reports_and_flipped_rows():
    bound = [-math.inf, 1e-9]
    this = {("preservance", 0): report("a", ("preservance", 4, 2e-9, False, bound)), ("hitchin", 0): report("h")}
    other = {("preservance", 0): report("b", ("preservance", 4, 1e-12, True, bound)), ("gram-schmidt", 1): report("g")}
    found = sweep_reports.compare(this, other)
    assert found["changed"] == [("gram-schmidt", 1), ("hitchin", 0), ("preservance", 0)]
    assert found["flipped"] == [("preservance", 0, "preservance", 4, True, False)]


@pytest.mark.parametrize(
    "digest, passes, status, counts",
    [("a", True, 0, "changed: 0; flipped rows: 0"), ("b", True, 1, "changed: 1; flipped rows: 0"),
     ("b", False, 1, "changed: 1; flipped rows: 1")],
    ids=["identical", "changed", "flipped"],
)  # fmt: skip
def test_compare_exits_1_when_a_report_changed_or_a_row_flipped(digest, passes, status, counts, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    import record_bench

    bound = [-math.inf, 1e-9]
    this = {("preservance", 0): report("a", ("preservance", 4, 1e-12, True, bound))}
    other = {("preservance", 0): report(digest, ("preservance", 4, 1e-12 if passes else 2e-9, passes, bound))}
    sides = iter([this, other])
    monkeypatch.setattr(sweep_reports, "sweep", lambda tree, seeds, runs: next(sides))
    monkeypatch.setattr(record_bench, "parent_tree", lambda rev: contextlib.nullcontext(ROOT))
    assert sweep_reports.main(["--seeds", "0", "--compare", "REV"]) == status
    assert f"reports: 1; {counts}\n" in capsys.readouterr().out


def test_the_worst_value_is_the_one_nearest_a_bound():
    reports = {
        ("a", 0): report("x", ("upper", 4, 1e-12, True, [-math.inf, 1e-9]), ("lower", 4, 5.0, True, [math.pi, math.inf]),
                         ("window", 4, 3.0, True, [2.5, 6.0]), ("nan", 4, 0.0, True, [-math.inf, 1.0])),
        ("a", 1): report("y", ("upper", 4, 3e-10, True, [-math.inf, 1e-9]), ("lower", 4, 4.0, True, [math.pi, math.inf]),
                         ("window", 4, 5.9, True, [2.5, 6.0]), ("nan", 4, math.nan, False, [-math.inf, 1.0])),
    }  # fmt: skip
    worst = sweep_reports.worst_values(reports)
    assert worst[("upper", 4)] == 3e-10 and worst[("lower", 4)] == 4.0 and worst[("window", 4)] == 5.9
    assert math.isnan(worst[("nan", 4)])


def test_seeds_are_values_and_inclusive_ranges():
    assert sweep_reports.parse_seeds("0-2,7,10-10") == [0, 1, 2, 7, 10]
    assert len(sweep_reports.parse_seeds(sweep_reports.DEFAULT_SEEDS)) == 41


@pytest.mark.parametrize(
    "text, message",
    [
        ("5-3", "range '5-3' is reversed"),
        ("0-2,1", "seeds given more than once: 1"),
        ("0-3,2-5,9,9", "seeds given more than once: 2, 3, 9"),
        ("-1", "'-1' is not a non-negative seed or a range a-b of them"),
        ("", "'' is not a non-negative seed or a range a-b of them"),
        ("1,,2", "'' is not a non-negative seed or a range a-b of them"),
        ("1-", "'1-' is not a non-negative seed or a range a-b of them"),
        ("1-2-3", "'1-2-3' is not a non-negative seed or a range a-b of them"),
        ("x", "'x' is not a non-negative seed or a range a-b of them"),
    ],
    ids=["reversed", "repeated", "repeated-in-ranges", "negative", "empty", "empty-part", "open-range", "three-bounds",
         "not-a-number"],
)  # fmt: skip
def test_main_refuses_seeds_that_are_not_distinct_non_negative_values_and_ranges(text, message, monkeypatch, capsys):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        sweep_reports.parse_seeds(text)
    monkeypatch.setattr(sweep_reports, "sweep", lambda *args: pytest.fail("swept with refused seeds"))
    with pytest.raises(SystemExit) as exit_status:
        sweep_reports.main(["--seeds", text])
    assert exit_status.value.code == 2
    assert capsys.readouterr().err.endswith(f"error: --seeds: {message}\n")


def test_scale_multiplies_each_runs_samples_and_leaves_the_testbed():
    plain = sweep_reports.sweep(ROOT, [0], CANNED_RUNS)
    scaled = sweep_reports.sweep(ROOT, [0], sweep_reports.scaled_runs(CANNED_RUNS, 2))
    assert sorted(scaled) == sorted(plain)
    for key, report in plain.items():
        samples = [row["samples"] for row in report["rows"]]
        expected = samples if key[0].startswith("testbed") else [2 * count for count in samples]
        assert [row["samples"] for row in scaled[key]["rows"]] == expected
    assert scaled[("testbed-nijenhuis/closed", 0)]["digest"] == plain[("testbed-nijenhuis/closed", 0)]["digest"]


def test_main_sweeps_the_acceptance_runs_at_the_given_scale(monkeypatch, capsys):
    swept = []
    monkeypatch.setattr(sweep_reports, "sweep", lambda tree, seeds, runs: swept.append((seeds, runs)) or {})
    assert sweep_reports.main(["--seeds", "3", "--scale", "3"]) == 0
    from record_bench import ACCEPTANCE_RUNS

    [(seeds, runs)] = swept
    assert seeds == [3] and len(runs) == len(ACCEPTANCE_RUNS)
    for run, base in zip(runs, ACCEPTANCE_RUNS):
        assert run == ({**base, "samples": 3 * base["samples"]} if "samples" in base else base)
    assert "scale: 3" in capsys.readouterr().out


def test_a_scale_below_one_is_refused():
    with pytest.raises(SystemExit):
        sweep_reports.main(["--scale", "0"])
