"""Suite runner determinism, exit-status contract, replay, lattice CLI."""

import importlib.util
import io
import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from csympl import cli, csymplectic, deformation, forms, linalg, suites, torus
from csympl.csymplectic import Q_BLOCK
from csympl.cli import main
from csympl.linalg import PostconditionError
from csympl.suites import SuiteConfig, replay_case, run_suite

ROOT = Path(__file__).resolve().parent.parent


def strip_volatile(report_json):
    data = dict(report_json)
    data.pop("wall_time_s", None)
    return data


def test_unknown_suite_exits_2(capsys):
    assert main(["run", "--suite", "nonsense"]) == 2
    assert "unknown suite" in capsys.readouterr().err


@pytest.mark.parametrize("out", [None, "report.json"])
def test_nodes_csv_with_another_suite_exits_2_before_running(out, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    args = ["run", "--suite", "gram-schmidt", "--n", "2", "--dims", "4", "--nodes-csv", "x.csv"]
    assert main(args + (["--out", out] if out else [])) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--nodes-csv only applies" in captured.err
    assert not list(tmp_path.iterdir())  # no report, node table or failure case


@pytest.mark.parametrize("option", ["--out", "--nodes-csv"])
def test_output_in_a_missing_directory_exits_2_before_running(option, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "run_suite", lambda cfg: pytest.fail("the suite ran"))
    monkeypatch.chdir(tmp_path)
    assert main(["run", "--suite", "testbed-nijenhuis", "--grid", "16", option, "missing/out.txt"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"{option}: directory missing does not exist" in captured.err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("option", ["--out", "--nodes-csv"])
def test_output_that_cannot_be_written_exits_2_with_an_error(option, tmp_path, capsys):
    # the path is an existing directory: the run finishes, its write fails
    assert main(["run", "--suite", "testbed-nijenhuis", "--grid", "16", option, str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1].startswith("error: ") and "Is a directory" in err
    assert not list(tmp_path.iterdir())


def test_suite_runner_rejects_unknown_name():
    with pytest.raises(KeyError):
        run_suite(SuiteConfig(suite="nonsense"))


def test_passing_suite_exits_0(capsys, tmp_path):
    out = tmp_path / "report.json"
    code = main(
        ["run", "--suite", "gram-schmidt", "--dims", "4", "--n", "5", "--seed", "11",
         "--out", str(out)]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["pass"] is True
    assert report["checks"][0]["check"] == "q-block-residual"


def test_csv_format(capsys, tmp_path):
    out = tmp_path / "report.csv"
    code = main(
        ["run", "--suite", "lattice-sections", "--n", "5", "--seed", "3",
         "--out", str(out), "--format", "csv"]
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "check,dim,samples,max_residual,pass,seed"
    assert lines[1].startswith("section-class,22,5,")


def test_determinism_identical_reports():
    cfg = dict(suite="preservance", dims=(4,), samples=8, seed=123)
    first = run_suite(SuiteConfig(**cfg))
    second = run_suite(SuiteConfig(**cfg))
    assert strip_volatile(first.to_json()) == strip_volatile(second.to_json())


def test_determinism_across_suites():
    for suite, kwargs in (
        ("criteria-equivalence", dict(dims=(4,), samples=30)),
        ("twistor-curve", dict(samples=10)),
        ("testbed-nijenhuis", dict(grid_n=32)),
    ):
        a = run_suite(SuiteConfig(suite=suite, seed=5, **kwargs))
        b = run_suite(SuiteConfig(suite=suite, seed=5, **kwargs))
        assert strip_volatile(a.to_json()) == strip_volatile(b.to_json())


def test_invalid_grid_is_a_usage_error(capsys):
    assert main(["run", "--suite", "testbed-nijenhuis", "--grid", "50"]) == 2
    assert "invalid configuration" in capsys.readouterr().err


def test_invalid_dims_is_a_usage_error(capsys):
    assert main(["run", "--suite", "gram-schmidt", "--dims", "5", "--n", "2"]) == 2
    assert "invalid configuration" in capsys.readouterr().err


def test_negative_complex_t_parses(tmp_path):
    out = tmp_path / "r.json"
    code = main(
        ["run", "--suite", "testbed-nijenhuis", "--grid", "32", "--t", "-1,0",
         "--out", str(out)]
    )
    assert code == 0


def test_seed_is_not_read_from_the_environment(monkeypatch):
    built = []
    monkeypatch.setenv("CSYMPL_SEED", "5")
    monkeypatch.setattr("csympl.cli.run_suite", lambda cfg: built.append(cfg) or passing_report(cfg))
    assert main(["run", "--suite", "gram-schmidt", "--n", "1"]) == 0
    assert built == [SuiteConfig(suite="gram-schmidt", samples=1, seed=0)]


def test_synthetic_failure_roundtrip(tmp_path, capsys):
    # a case file claiming an impossible residual must replay cleanly and
    # report the honest (passing) outcome for its configuration
    case = {
        "suite": "gram-schmidt",
        "check": "q-block-residual",
        "dim": 4,
        "seed": 9,
        "index": 2,
        "residual": 1.0,
        "detail": "synthetic",
        "config": {"samples": 4, "tol": 1e-9},  # older case files store the pinned tol
    }
    path = tmp_path / "case.json"
    path.write_text(json.dumps(case))
    code = main(["replay", str(path)])
    output = capsys.readouterr().out
    assert "replaying gram-schmidt:q-block-residual" in output
    assert code == 0


def test_replay_reproduces_identical_residuals(tmp_path):
    case = {
        "suite": "preservance",
        "check": "preservance",
        "dim": 4,
        "seed": 42,
        "index": 0,
        "residual": 0.0,
        "config": {"samples": 5, "tol": 1e-9},
    }
    first = replay_case(case)
    second = replay_case(case)
    assert [c["max_residual"] for c in first.checks] == [c["max_residual"] for c in second.checks]


def test_replay_malformed_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["replay", str(bad)]) == 2
    incomplete = tmp_path / "incomplete.json"
    incomplete.write_text(json.dumps({"suite": "gram-schmidt"}))
    capsys.readouterr()
    assert main(["replay", str(incomplete)]) == 2
    assert capsys.readouterr().err == "malformed case file: missing 'check'\n"
    mistyped = tmp_path / "mistyped.json"
    case = {"suite": "gram-schmidt", "check": "q-block-residual", "dim": 4, "seed": 0, "index": 0}
    mistyped.write_text(json.dumps({**case, "config": {"samples": "many"}}))
    assert main(["replay", str(mistyped)]) == 2
    negative = tmp_path / "negative-seed.json"
    negative.write_text(json.dumps({**case, "seed": -1}))
    assert main(["replay", str(negative)]) == 2
    assert "seed must be non-negative" in capsys.readouterr().err
    testbed = {"suite": "testbed-nijenhuis", "check": "section-nijenhuis", "dim": 4, "seed": 0, "index": 16}
    # replayed as written or not at all: no value is cast or dropped
    for name, bad, message in [
        ("fractional-seed", {**case, "seed": 1.5}, "seed must be an integer, got 1.5"),
        ("boolean-seed", {**case, "seed": True}, "seed must be an integer, got True"),
        ("fractional-samples", {**case, "config": {"samples": 2.5}}, "samples must be an integer, got 2.5"),
        ("fractional-dim", {**case, "dim": 4.0}, "dims must be an integer, got 4.0"),
        ("float-grid", {**testbed, "config": {"grid": 16.0}}, "grid must be an integer, got 16.0"),
        ("float-modes", {**testbed, "config": {"modes": 3.0}}, "modes must be an integer, got 3.0"),
        ("other-tol", {**case, "config": {"samples": 2, "tol": 1e-8}}, "tol 1e-08 is not the pinned tolerance 1e-09"),
        ("fractional-index", {**case, "index": 1.5}, "index must be a non-negative integer, got 1.5"),
        ("negative-index", {**case, "index": -1}, "index must be a non-negative integer, got -1"),
        ("boolean-index", {**case, "index": True}, "index must be a non-negative integer, got True"),
        ("string-index", {**case, "index": "1"}, "index must be a non-negative integer, got '1'"),
        ("list-config", {**case, "config": []}, "config must be a JSON object, got []"),
        ("null-config", {**case, "config": None}, "config must be a JSON object, got None"),
        ("zero-dim", {**case, "dim": 0}, "dims must be positive multiples of 4, got (0,)"),
        ("false-dim", {**case, "dim": False}, "dims must be an integer, got False"),
    ]:
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(bad))
        assert main(["replay", str(path)]) == 2, name
        err = capsys.readouterr().err
        assert err.startswith("malformed case file: ") and message in err, name
        assert err.count("malformed case file") == 1, name


@pytest.mark.parametrize("check", ["uniqueness", "section-nijenhuis", "bogus"])
def test_replay_of_a_check_its_suite_never_emits_exits_2(check, tmp_path, monkeypatch, capsys):
    # neither the case is rebuilt nor the suite re-run
    monkeypatch.setattr(suites, "run_suite", lambda cfg: pytest.fail("the suite ran"))
    case = {"suite": "preservance", "check": check, "dim": 4, "seed": 0, "index": 0, "config": {"samples": 2}}
    path = tmp_path / "case.json"
    path.write_text(json.dumps(case))
    assert main(["replay", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"malformed case file: suite 'preservance' emits no check {check!r}\n"


@pytest.mark.parametrize("control, check", [("closed", "nonclosed-nijenhuis"), ("nonclosed", "section-nijenhuis")])
def test_replay_of_a_check_the_testbed_control_never_emits_exits_2(control, check, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(suites, "run_suite", lambda cfg: pytest.fail("the suite ran"))
    case = {"suite": "testbed-nijenhuis", "check": check, "dim": 4, "seed": 0, "index": 16,
            "config": {"grid": 16, "control": control, "t": [0.5, 0.0]}}
    path = tmp_path / "case.json"
    path.write_text(json.dumps(case))
    assert main(["replay", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"malformed case file: the {control} control emits no check {check!r}\n"


def test_replay_unknown_control_exits_2(tmp_path, capsys):
    case = {"suite": "testbed-nijenhuis", "check": "section-nijenhuis", "dim": 4, "seed": 0, "index": 16,
            "config": {"grid": 16, "control": "bogus"}}
    path = tmp_path / "case.json"
    path.write_text(json.dumps(case))
    assert main(["replay", str(path)]) == 2
    assert "control must be" in capsys.readouterr().err


def passing_report(cfg):
    return suites.SuiteReport(cfg.suite, cfg.seed, True, [], 0.0)


@pytest.fixture
def raising_preservance_case(monkeypatch):
    """Make every preservance case raise mid-run, as a broken postcondition would."""

    def raising(cfg, dim, indices):
        raise PostconditionError("deformed form failed c-symplecticity")

    monkeypatch.setattr(suites, "_preservance_case", raising)
    monkeypatch.setitem(suites.CHECKS, "preservance", suites.CHECKS["preservance"]._replace(case=raising))


@pytest.mark.parametrize("tol", ["0.5", "1e-17"])
def test_suite_that_raises_exits_1(tol, tmp_path, monkeypatch, capsys):
    # a valid configuration whose forms the rank criterion rejects mid-run:
    # the pinned rank cutoff is swapped for one far too loose or too tight
    pinned = linalg.numerical_rank

    def rank_at_tol(s, cutoff=linalg.DEFAULT_TOL):
        return pinned(s, float(tol) if cutoff == linalg.DEFAULT_TOL else cutoff)

    for module in (linalg, forms, csymplectic):
        monkeypatch.setattr(module, "numerical_rank", rank_at_tol)
    monkeypatch.chdir(tmp_path)
    assert main(["run", "--suite", "preservance", "--dims", "4", "--n", "3"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: not c-symplectic") and "invalid configuration" not in err
    assert not list(tmp_path.iterdir())


def test_suite_whose_case_raises_exits_1(raising_preservance_case, tmp_path, monkeypatch, capsys):
    # a valid configuration whose suite raises mid-run
    monkeypatch.chdir(tmp_path)
    assert main(["run", "--suite", "preservance", "--dims", "4", "--n", "3"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: deformed form failed") and "invalid configuration" not in err
    assert not list(tmp_path.iterdir())


def test_replay_of_a_case_whose_suite_raises_exits_1(raising_preservance_case, tmp_path, capsys):
    case = {"suite": "preservance", "check": "preservance", "dim": 4, "seed": 0, "index": 0,
            "config": {"samples": 3}}
    path = tmp_path / "case.json"
    path.write_text(json.dumps(case))
    assert main(["replay", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: deformed form failed") and "malformed" not in err
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("suite", list(suites.SUITES))
def test_run_without_size_flags_uses_the_suite_defaults(suite, monkeypatch, capsys):
    built = []
    monkeypatch.setattr("csympl.cli.run_suite", lambda cfg: built.append(cfg) or passing_report(cfg))
    assert main(["run", "--suite", suite]) == 0
    assert built == [SuiteConfig(suite=suite, seed=0)]


def test_case_file_round_trips_every_stored_field(monkeypatch, capsys):
    cfg = SuiteConfig(suite="testbed-nijenhuis", grid_n=32, modes=2, t_value=0.3 + 0.2j, seed=3)
    case = json.loads(json.dumps(suites._failure(cfg, "section-nijenhuis", 4, 32, 0.0)))
    replayed = []
    monkeypatch.setattr(suites, "run_suite", lambda cfg: replayed.append(cfg) or passing_report(cfg))
    replay_case(case)
    for field in ("suite", "seed", *suites.CASE_CONFIG.values()):
        assert getattr(replayed[0], field) == getattr(cfg, field), field


def test_nonclosed_failure_records_the_row_deviation():
    cfg = SuiteConfig(suite="testbed-nijenhuis", grid_n=16, control="nonclosed", t_value=0.5)
    report = run_suite(cfg)
    failure = report.failure_case
    row = next(row for row in report.checks if row["check"] == "nonclosed-nijenhuis" and row["samples"] == 8 * 8)
    assert failure["check"] == "nonclosed-nijenhuis" and failure["index"] == 8
    assert failure["residual"] == row["max_residual"]
    assert failure["detail"].startswith("value=") and " continuum=" in failure["detail"]


def test_closed_testbed_builds_each_structure_field_once(monkeypatch):
    grids = []
    build = suites.deformed_structure_field
    monkeypatch.setattr(suites, "deformed_structure_field", lambda eta, *a: grids.append(len(eta)) or build(eta, *a))
    monkeypatch.setattr(torus, "deformed_structure_field", suites.deformed_structure_field)
    assert run_suite(SuiteConfig(suite="testbed-nijenhuis", grid_n=64)).passed
    assert sorted(grids) == [64, 64]


def distinct_nodes(eta, t):
    """Distinct node matrices of the stack a structure field is built from."""
    stack = Q_BLOCK + complex(t) * eta
    return len({node.tobytes() for node in stack.reshape(-1, 4, 4)})


@pytest.mark.parametrize("control", ["closed", "nonclosed"])
def test_testbed_decides_each_distinct_node_once(control, monkeypatch):
    # one list per structure field: the stack sizes of its kernel SVDs (complex
    # forms) and of its real-span SVDs (real), appended by the chunks' threads
    fields = []
    svd, induce = np.linalg.svd, torus.induced_structures

    def recording_svd(a, *args, **kwargs):
        fields[-1]["kernel" if np.iscomplexobj(a) else "real-span"].append(a.shape[:-2])
        return svd(a, *args, **kwargs)

    def recording_induce(omegas):
        fields.append({"kernel": [], "real-span": []})
        return induce(omegas)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    monkeypatch.setattr(torus, "induced_structures", recording_induce)
    t = 0.5 if control == "nonclosed" else -1.0
    cfg = SuiteConfig(suite="testbed-nijenhuis", grid_n=64, control=control, t_value=t)
    assert run_suite(cfg).passed
    eta = suites.testbed_inputs(cfg)[1][64]
    if control == "closed":  # the section's field at t = -1, then the closed control's at t = 1
        counts = [distinct_nodes(eta, t), distinct_nodes(torus.closed_control_form(torus.TorusGrid(len(eta))), 1.0)]
    else:
        counts = [distinct_nodes(eta, t)]
    assert counts[-1] < 64 * 64
    assert len(fields) == len(counts)
    for field, count in zip(fields, counts):
        # each distinct node in exactly one kernel SVD chunk, and each chunk's
        # kernels in one real-span SVD of the same size
        sizes = [size for (size,) in field["kernel"]]
        assert sum(sizes) == count and max(sizes) <= csymplectic.CHUNK
        assert sorted(field["real-span"]) == sorted(field["kernel"])


def test_coarse_rows_at_complex_t_are_the_half_grid_runs_fine_rows():
    # the coarse grid is read off the fine one; its rows must be bit for bit
    # those of a run on the coarse grid itself, at complex t too
    def section_rows(grid_n):
        cfg = SuiteConfig(suite="testbed-nijenhuis", grid_n=grid_n, modes=2, t_value=0.3 + 0.2j, seed=1)
        return {row["samples"]: row for row in run_suite(cfg).checks if row["check"] == "section-nijenhuis"}

    coarse, fine = section_rows(32)[16 * 16], section_rows(16)[16 * 16]
    assert coarse["max_residual"].hex() == fine["max_residual"].hex() and coarse == fine


def test_closed_testbed_samples_each_section_form_once(monkeypatch):
    grids, differentials = [], []
    sample = suites.sample_section_form
    monkeypatch.setattr(suites, "sample_section_form", lambda sigma, grid: grids.append(grid.n) or sample(sigma, grid))
    monkeypatch.setattr(torus, "sample_section_form", suites.sample_section_form)
    differential = torus.SmoothSection.differential
    counted = lambda self, x, y: differentials.append(np.broadcast(x, y).shape) or differential(self, x, y)
    monkeypatch.setattr(torus.SmoothSection, "differential", counted)
    assert run_suite(SuiteConfig(suite="testbed-nijenhuis", grid_n=64)).passed
    # the section form and the holomorphy check read one sample of d sigma
    assert grids == [64] and differentials == [(64, 64)]


@pytest.mark.parametrize("control", [["--control", "closed"], ["--control", "nonclosed", "--t", "0.5"]])
def test_nodes_csv_reuses_the_run(control, tmp_path, monkeypatch):
    calls = []
    for name in ("deformed_structure_field", "sample_section_form", "verify_section_holomorphic"):
        original = getattr(torus, name)
        counted = lambda *a, name=name, original=original, **k: calls.append(name) or original(*a, **k)
        monkeypatch.setattr(torus, name, counted)
        monkeypatch.setattr(suites, name, counted)
    monkeypatch.chdir(tmp_path)
    args = ["run", "--suite", "testbed-nijenhuis", "--grid", "32", *control]
    code = main(args)
    without = sorted(calls)
    calls.clear()
    assert main([*args, "--nodes-csv", "nodes.csv"]) == code
    assert sorted(calls) == without and "deformed_structure_field" in without
    assert len((tmp_path / "nodes.csv").read_text().splitlines()) == 1 + 32 * 32


def test_failure_case_serialized(tmp_path, monkeypatch):
    # force a failure by running the nonclosed control with an absurd
    # tolerance through a doctored suite config: simplest honest failure
    # is an unknown-dimension criteria run; instead patch the threshold
    cfg = SuiteConfig(suite="criteria-equivalence", dims=(4,), samples=5, seed=1)
    report = run_suite(cfg)
    assert report.passed and report.failure_case is None

    def broken(cfg):
        checks = [
            {"check": "criteria-agree", "dim": 4, "samples": 5, "max_residual": 1.0,
             "pass": False, "seed": cfg.seed}
        ]
        return checks, {"suite": cfg.suite, "check": "criteria-agree", "dim": 4,
                        "seed": cfg.seed, "index": 0, "residual": 1.0, "detail": "",
                        "config": {"samples": 5}}

    monkeypatch.setitem(suites.SUITES, "criteria-equivalence", suites.Suite(broken, 5, (4,)))
    monkeypatch.chdir(tmp_path)
    code = main(["run", "--suite", "criteria-equivalence", "--n", "5", "--seed", "1"])
    assert code == 1
    case_file = tmp_path / "criteria-equivalence-failure.json"
    assert case_file.exists()
    assert json.loads(case_file.read_text())["check"] == "criteria-agree"



@pytest.mark.parametrize(
    "args, message",
    [
        pytest.param(["--suite", "criteria-equivalence", "--n", "0"], "samples must", id="zero-samples"),
        pytest.param(["--suite", "lattice-sections", "--n", "-3"], "samples must", id="negative-samples"),
        pytest.param(["--suite", "gram-schmidt", "--n", "2", "--seed", "-1"], "seed must", id="negative-seed"),
        pytest.param(["--suite", "criteria-equivalence", "--dims", "0"], "dims must", id="zero-dim"),
        pytest.param(["--suite", "gram-schmidt", "--dims", "4,4", "--n", "3"], "dims must be distinct, got (4, 4)",
                     id="repeated-dim"),
        pytest.param(["--suite", "gram-schmidt", "--dims", "4,,8,", "--n", "2"],
                     "argument --dims: invalid _parse_dims value: '4,,8,'", id="empty-dim-parts"),
        pytest.param(["--suite", "testbed-nijenhuis", "--dims", ","], "argument --dims: invalid",
                     id="empty-dims-ignored-suite"),
        pytest.param(["--suite", "induced-structure", "--dims", "6"], "dims must", id="dim-6"),
        pytest.param(["--suite", "induced-structure", "--dims", "2"], "dims must", id="dim-2"),
        pytest.param(["--suite", "testbed-nijenhuis", "--modes", "0"], "modes must", id="zero-modes"),
        pytest.param(["--suite", "testbed-nijenhuis", "--modes", "-1"], "modes must", id="negative-modes"),
        pytest.param(["--suite", "testbed-nijenhuis", "--control", "nonclosed"], "t must", id="nonclosed-default-t"),
        pytest.param(
            ["--suite", "testbed-nijenhuis", "--control", "nonclosed", "--t", "0.3,0.2", "--nodes-csv", "nodes.csv"],
            "t must",
            id="nonclosed-complex-t",
        ),
        pytest.param(["--suite", "testbed-nijenhuis", "--control", "nonclosed", "--t", "0"], "t must", id="nonclosed-zero-t"),
        pytest.param(["--suite", "testbed-nijenhuis", "--control", "nonclosed", "--t", "2.5"], "t must", id="nonclosed-t-2.5"),
        pytest.param(["--suite", "testbed-nijenhuis", "--t", "nan"], "t must be finite", id="nan-t"),
        pytest.param(["--suite", "testbed-nijenhuis", "--t", "inf,0"], "t must be finite", id="inf-t"),
        pytest.param(["--suite", "testbed-nijenhuis", "--grid", "50"], "grid resolution", id="grid-50"),
        pytest.param(["--suite", "testbed-nijenhuis", "--control", "bogus"], "control must", id="unknown-control"),
        pytest.param(
            ["--suite", "gram-schmidt", "--n", "2", "--control", "bogus"], "control must", id="unknown-control-any-suite"
        ),
    ],
)
def test_invalid_configuration_exits_2(args, message, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    # a value argparse cannot parse is refused there, before any configuration
    by_argparse = message.startswith("argument ")
    if by_argparse:
        with pytest.raises(SystemExit) as exit_info:
            main(["run", *args])
        assert exit_info.value.code == 2
    else:
        assert main(["run", *args]) == 2
    err = capsys.readouterr().err
    assert message in err and ("invalid configuration" in err) != by_argparse
    assert not list(tmp_path.iterdir())  # no report, node table or failure case


def test_tol_option_is_gone(capsys):
    # tolerances are pinned: --tol is an unknown argument, not a setting
    with pytest.raises(SystemExit) as exit_info:
        main(["run", "--suite", "criteria-equivalence", "--tol", "1e-9"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --tol 1e-9" in capsys.readouterr().err


def test_nonclosed_t_rule():
    def nonclosed(value):
        return SuiteConfig(suite="testbed-nijenhuis", control="nonclosed", t_value=value)

    assert nonclosed(0.3).t_value == 0.3 and nonclosed(-0.7).t_value == -0.7
    for bad in (0.3 + 0.2j, 0.0, 1.0, -1.0, 2.5):
        with pytest.raises(ValueError, match="t must"):
            nonclosed(bad)


def test_nonclosed_node_csv_uses_the_suite_t():
    def nonclosed(t):
        return SuiteConfig(suite="testbed-nijenhuis", grid_n=16, control="nonclosed", t_value=t)

    def node_table(t):
        return np.loadtxt(io.StringIO(suites.testbed_node_csv(run_suite(nonclosed(t)))), delimiter=",", skiprows=1)

    assert not np.array_equal(node_table(0.3), node_table(0.5))
    for t in (0.3, -0.7):
        continuum = suites._nonclosed_continuum_max(t)
        rows = [row for row in run_suite(nonclosed(t)).checks if row["check"] == "nonclosed-nijenhuis"]
        csv_deviation = abs(node_table(t)[:, 3].max() - continuum) / continuum
        assert csv_deviation == pytest.approx(rows[-1]["max_residual"], rel=1e-12)


def test_node_csv_matches_the_suite_fields():
    def node_table(**kwargs):
        cfg = SuiteConfig(suite="testbed-nijenhuis", grid_n=16, **kwargs)
        return cfg, np.loadtxt(io.StringIO(suites.testbed_node_csv(run_suite(cfg))), delimiter=",", skiprows=1)

    cfg, closed = node_table()
    fine = [row for row in run_suite(cfg).checks if row["check"] == "section-nijenhuis"][-1]
    assert closed.shape == (256, 4)
    assert closed[:, 3].max() == pytest.approx(fine["max_residual"], rel=1e-11)
    _, low = node_table(control="nonclosed", t_value=0.3)
    _, high = node_table(control="nonclosed", t_value=0.5)
    assert not low[:, 2].any() and not np.array_equal(low[:, 3], high[:, 3])


def test_nan_residual_fails_its_row(monkeypatch):
    monkeypatch.setattr(suites, "c_symplectic_bases", lambda omegas: np.full(omegas.shape, np.nan))
    report = run_suite(SuiteConfig(suite="gram-schmidt", dims=(4,), samples=3, seed=0))
    assert not report.passed and np.isnan(report.checks[0]["max_residual"])
    assert report.failure_case["check"] == "q-block-residual" and report.failure_case["index"] == 0


def test_nan_fiber_restriction_fails_the_preservance_row(monkeypatch):
    restrict = deformation.restrictions

    def nan_restriction(structures, bases):
        restricted, residual = restrict(structures, bases)
        return np.full_like(restricted, np.nan), residual

    monkeypatch.setattr(deformation, "restrictions", nan_restriction)
    report = run_suite(SuiteConfig(suite="preservance", dims=(4,), samples=3, seed=0))
    assert not report.passed and np.isnan(report.checks[0]["max_residual"])


#: Small runs of every per-sample suite, for the replay tests.
REPLAY_RUNS = (
    SuiteConfig(suite="criteria-equivalence", dims=(4, 8), samples=3, seed=0),
    SuiteConfig(suite="induced-structure", dims=(4,), samples=3, seed=0),
    SuiteConfig(suite="gram-schmidt", dims=(4, 8), samples=2, seed=0),
    SuiteConfig(suite="hitchin", dims=(4,), samples=2, seed=0),
    SuiteConfig(suite="preservance", dims=(4,), samples=2, seed=0),
    SuiteConfig(suite="section-theorem", dims=(4,), samples=2, seed=0),
    SuiteConfig(suite="lattice-sections", samples=3, seed=0),
    SuiteConfig(suite="twistor-curve", samples=10, seed=0),
)


def assert_same_inputs(replayed, used):
    assert replayed.keys() == used.keys()
    for name, value in used.items():
        assert np.array_equal(replayed[name], value), name


def test_replay_rebuilds_the_inputs_each_check_measured(monkeypatch, capsys):
    used = {}

    def recording(case):
        def record(cfg, dim, indices, **kwargs):
            cases = case(cfg, dim, indices, **kwargs)
            for index, (inputs, measurements) in zip(indices, cases, strict=True):
                for check, *_ in measurements:
                    used[cfg.suite, check, dim, index] = inputs
            return cases

        return record

    per_sample = {check for check, entry in suites.CHECKS.items() if entry.case is not None}
    for case in {suites.CHECKS[check].case for check in per_sample}:
        monkeypatch.setattr(suites, case.__name__, recording(case))
    emitted = {row["check"] for cfg in REPLAY_RUNS for row in run_suite(cfg).checks}
    assert emitted == per_sample

    configs = {cfg.suite: cfg for cfg in REPLAY_RUNS}
    replayed = set()
    for (suite, check, dim, index), inputs in used.items():
        if index < 4:  # includes hitchin's maximality trial 3, drawn from stream (0, 4, 10003)
            case = {"suite": suite, "check": check, "dim": dim, "index": index}
            assert_same_inputs(suites.describe_case(case, configs[suite])[0], inputs)
            replayed.add(check)
    assert replayed == per_sample
    assert ("hitchin", "maximality-brute-force", 4, 3) in used


def test_testbed_replay_rebuilds_the_suite_fields(monkeypatch, capsys):
    testbed_inputs = suites.testbed_inputs
    used = []
    monkeypatch.setattr(suites, "testbed_inputs", lambda cfg: used.append(testbed_inputs(cfg)) or used[-1])
    for control, t in (("closed", -1.0), ("nonclosed", 0.5)):
        cfg = SuiteConfig(suite="testbed-nijenhuis", grid_n=16, control=control, t_value=t)
        run_suite(cfg)
        section, fields = used[-1]
        case = {"suite": cfg.suite, "check": "section-nijenhuis", "dim": 4, "index": 16}
        replayed = suites.describe_case(case, cfg)[0]
        assert replayed.pop("section modes", None) == getattr(section, "modes", None)
        assert_same_inputs(replayed, {f"field at grid {n}": field for n, field in fields.items()})


# -- induced-structure range case ----------------------------------------------------


def induced_case_reference(cfg, dim, indices):
    """The per-index ``induced-structure`` case that the range case replaced:
    each form and its rescaling decided on its own by
    ``induced_complex_structure``."""
    cases = []
    for index in indices:
        rng = suites._case_rng(cfg, dim, index)
        (structure,), omegas = suites._structures_with_forms([rng], dim)
        (omega,) = forms.ComplexTwoForm.from_skew(omegas)
        induced = csymplectic.induced_complex_structure(omega).matrix
        inputs = {"omega": omega.matrix, "structure": structure}
        measurements = [("uniqueness", linalg.max_abs(induced - structure))]
        if index < 20:
            lam = 0j
            while abs(lam) < 1e-3:
                lam = complex(rng.standard_normal() + 1j * rng.standard_normal())
            inputs["lambda"] = lam
            rescaled = csymplectic.induced_complex_structure(omega * lam).matrix
            measurements.append(("scaling-invariance", linalg.max_abs(rescaled - induced)))
        cases.append((inputs, measurements))
    return cases


def case_bits(case):
    inputs, measurements = case
    return (
        {name: np.asarray(value).tobytes() for name, value in inputs.items()},
        [(check, np.float64(value).tobytes()) for check, value in measurements],
    )


@pytest.mark.parametrize("dim", [4, 8])
def test_the_induced_range_case_is_the_per_index_cases_bit_for_bit(dim):
    cfg = SuiteConfig(suite="induced-structure", seed=3)
    indices = range(30)  # the first 20 rescale their form
    cases = suites._induced_case(cfg, dim, indices)
    reference = induced_case_reference(cfg, dim, indices)
    assert [case_bits(case) for case in cases] == [case_bits(case) for case in reference]
    alone = [suites._induced_case(cfg, dim, range(index, index + 1))[0] for index in indices]
    assert [case_bits(case) for case in cases] == [case_bits(case) for case in alone]


@pytest.mark.parametrize(
    "dim, reject, message",
    [
        (4, "form", "kernel dimension 4 != 2"),
        (8, "form", "kernel dimension 8 != 4"),
        (4, "structure", "induced structure rejected"),
    ],
)
def test_a_non_c_symplectic_instance_raises_the_single_form_message(dim, reject, message, monkeypatch):
    # the range case and the reference's stacks of one both draw through
    # _structures_with_forms, so the sixth instance either draws is zeroed
    draw, drawn = suites._structures_with_forms, []

    def zero_at_the_sixth_draw(rngs, dim):
        structures, omegas = draw(rngs, dim)
        for k in range(len(rngs)):
            drawn.append(dim)
            if len(drawn) == 6:
                omegas[k] = 0.0
        return structures, omegas

    if reject == "form":
        monkeypatch.setattr(suites, "_structures_with_forms", zero_at_the_sixth_draw)
    else:
        monkeypatch.setattr(csymplectic, "_structure_accepted", lambda square, linearity: np.zeros(len(square), bool))
    cfg = SuiteConfig(suite="induced-structure", dims=(dim,), samples=10, seed=2)
    with pytest.raises(ValueError) as stacked:
        run_suite(cfg)
    drawn.clear()
    with pytest.raises(ValueError) as alone:
        induced_case_reference(cfg, dim, range(10))
    assert str(stacked.value) == str(alone.value) == f"not c-symplectic (rank criterion): {message}"


@pytest.mark.parametrize("check, index", [("uniqueness", 23), ("scaling-invariance", 4)])
def test_replay_of_an_induced_case_prints_what_the_per_index_case_prints(check, index, tmp_path, monkeypatch, capsys):
    case = {"suite": "induced-structure", "check": check, "dim": 8, "seed": 5, "index": index, "residual": 0.0,
            "config": {"samples": 25}}  # fmt: skip
    path = tmp_path / "case.json"
    path.write_text(json.dumps(case))
    assert main(["replay", str(path)]) == 0
    replayed = capsys.readouterr().out
    monkeypatch.setattr(suites, "_induced_case", induced_case_reference)
    for name in ("uniqueness", "scaling-invariance"):
        monkeypatch.setitem(suites.CHECKS, name, suites.CHECKS[name]._replace(case=induced_case_reference))
    assert main(["replay", str(path)]) == 0
    assert replayed == capsys.readouterr().out
    measured = [line.split(":")[0] for line in replayed.splitlines() if " ok=" in line]
    assert measured == (["uniqueness", "scaling-invariance"] if index < 20 else ["uniqueness"])


# -- gram-schmidt range case ---------------------------------------------------------


def gram_schmidt_case_reference(cfg, dim, indices):
    """The per-index ``q-block-residual`` case that the range case replaced:
    each form's basis built on its own by ``c_symplectic_basis``."""
    cases = []
    for index in indices:
        omegas = csymplectic.random_c_symplectics([suites._case_rng(cfg, dim, index)], dim)[0]
        (omega,) = forms.ComplexTwoForm.from_skew(omegas)
        b = csymplectic.c_symplectic_basis(omega)
        residual = linalg.max_abs(b.T @ omega.matrix @ b - csymplectic.q_block_form(dim // 4).matrix) / omega.norm()
        cases.append(({"omega": omega.matrix}, [("q-block-residual", residual)]))
    return cases


@pytest.mark.parametrize("dim", [4, 8, 12])
def test_the_gram_schmidt_range_case_is_the_per_index_cases_bit_for_bit(dim):
    cfg = SuiteConfig(suite="gram-schmidt", seed=3)
    indices = range(30)
    cases = [case_bits(case) for case in suites._gram_schmidt_case(cfg, dim, indices)]
    assert cases == [case_bits(case) for case in gram_schmidt_case_reference(cfg, dim, indices)]
    assert cases == [case_bits(suites._gram_schmidt_case(cfg, dim, range(index, index + 1))[0]) for index in indices]


@pytest.mark.parametrize("dim, index", [(8, 11), (12, 4)])
def test_replay_of_a_gram_schmidt_case_prints_what_the_range_case_measured(dim, index, tmp_path, monkeypatch, capsys):
    case = {"suite": "gram-schmidt", "check": "q-block-residual", "dim": dim, "seed": 5, "index": index,
            "residual": 0.0, "config": {"samples": 15}}  # fmt: skip
    path = tmp_path / "case.json"
    path.write_text(json.dumps(case))
    assert main(["replay", str(path)]) == 0
    replayed = capsys.readouterr().out
    cfg = SuiteConfig(suite="gram-schmidt", dims=(dim,), samples=15, seed=5)
    (_, ((_, measured),)) = suites._gram_schmidt_case(cfg, dim, range(15))[index]
    assert f"\nq-block-residual: {measured:.6e} ok=True\n" in replayed
    monkeypatch.setattr(suites, "_gram_schmidt_case", gram_schmidt_case_reference)
    entry = suites.CHECKS["q-block-residual"]
    monkeypatch.setitem(suites.CHECKS, "q-block-residual", entry._replace(case=gram_schmidt_case_reference))
    assert main(["replay", str(path)]) == 0
    assert replayed == capsys.readouterr().out


def test_a_gram_schmidt_request_decides_one_structure_stack_per_dim(monkeypatch):
    # the benchmark's recognition workload: one induced_structures call per
    # dim, against one per 4x4 block of every form (42) before
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    decide, calls = csymplectic.induced_structures, []
    monkeypatch.setattr(csymplectic, "induced_structures", lambda omegas: calls.append(omegas.shape) or decide(omegas))
    (config,) = [config for config in workloads.WORKLOADS["recognition"] if config["suite"] == "gram-schmidt"]
    assert run_suite(SuiteConfig(seed=1, **config)).passed
    assert calls == [(config["samples"], dim, dim) for dim in config["dims"]]


# -- deformation range cases ---------------------------------------------------------


def lagrangian_instance_reference(cfg, dim, index):
    """One index's generator, space and fiber, its form decided on its own."""
    rng = suites._case_rng(cfg, dim, index)
    (omega,) = forms.ComplexTwoForm.from_skew(csymplectic.random_c_symplectics([rng], dim)[0])
    space = csymplectic.CSymplecticSpace.from_form(omega)
    (fiber,) = suites.random_lagrangians([space], [rng])
    return rng, space, fiber, {"omega": space.omega.matrix, "fiber basis": fiber.basis}


def hitchin_case_reference(cfg, dim, indices):
    """The per-index ``structure-invariance`` case that the range case replaced."""
    cases = []
    for index in indices:
        _, space, fiber, inputs = lagrangian_instance_reference(cfg, dim, index)
        q = fiber.orthonormal_basis()
        image = space.structure.matrix @ q
        residual = linalg.max_abs(image - q @ (q.T @ image)) / max(linalg.max_abs(image), 1e-300)
        cases.append((inputs, [("structure-invariance", residual)]))
    return cases


def preservance_case_reference(cfg, dim, indices):
    """The per-index ``preservance`` case that the range case replaced: each
    instance's family decided on its own by ``verify_preservance``."""
    cases = []
    for index in indices:
        rng, space, fiber, inputs = lagrangian_instance_reference(cfg, dim, index)
        projection = deformation.LagrangianProjection.build(space, fiber)
        (gamma,) = forms.ComplexTwoForm.from_skew(deformation.random_base_forms(projection, [rng], scale=0.5))
        inputs["gamma"] = gamma.matrix
        report = deformation.verify_preservance(projection, gamma, deformation.DEFAULT_T_SAMPLES)
        measurements = [
            ("preservance", report.max_residual),
            ("preservance-fiber-lagrangian", float(not report.fiber_lagrangian_ok)),
        ]
        cases.append((inputs, measurements))
    return cases


def section_theorem_case_reference(cfg, dim, indices):
    """The per-index ``section-theorem`` case that the range case replaced:
    each section holomorphized on its own by ``holomorphize_section``."""
    cases = []
    for index in indices:
        rng, space, fiber, inputs = lagrangian_instance_reference(cfg, dim, index)
        projection = deformation.LagrangianProjection.build(space, fiber)
        section = deformation.LinearSection.random_many(projection, [rng])
        inputs["section map"] = section.maps[0]
        _, _, certificate = deformation.holomorphize_section(section)
        measurements = [
            ("holomorphize", certificate.max_residual),
            ("holomorphize-graph-lagrangian", float(not certificate.graph_is_lagrangian)),
        ]
        cases.append((inputs, measurements))
    return cases


def maximality_case_reference(cfg, dim, indices):
    """The per-index ``maximality-brute-force`` case that the range case replaced."""
    cases = []
    for index in indices:
        rng = suites._case_rng(cfg, dim, 10_000 + index)
        (omega,) = forms.ComplexTwoForm.from_skew(csymplectic.random_c_symplectics([rng], dim)[0])
        space = csymplectic.CSymplecticSpace.from_form(omega)
        subspace = suites._random_candidate_subspace(space, rng)
        by_dimension = csymplectic.is_c_lagrangian(subspace, space.omega, 1e-8)
        by_search = suites._brute_force_maximal(subspace, space.omega, rng)
        inputs = {"omega": space.omega.matrix, "candidate basis": subspace.basis}
        cases.append((inputs, [("maximality-brute-force", float(by_dimension != by_search))]))
    return cases


#: Each range case that decides its spaces in one call, by name: its suite
#: and its per-index reference.
SPACE_CASES = {
    "_hitchin_case": ("hitchin", hitchin_case_reference),
    "_maximality_case": ("hitchin", maximality_case_reference),
    "_preservance_case": ("preservance", preservance_case_reference),
    "_section_theorem_case": ("section-theorem", section_theorem_case_reference),
}


@pytest.mark.parametrize("dim", [4, 8])
@pytest.mark.parametrize("name", list(SPACE_CASES))
def test_a_space_range_case_is_the_per_index_cases_bit_for_bit(name, dim):
    suite, reference = SPACE_CASES[name]
    case = getattr(suites, name)
    cfg = SuiteConfig(suite=suite, seed=3)
    indices = range(30)
    cases = [case_bits(case) for case in case(cfg, dim, indices)]
    assert cases == [case_bits(case) for case in reference(cfg, dim, indices)]
    assert cases == [case_bits(case(cfg, dim, range(index, index + 1))[0]) for index in indices]


#: The modules that bind each stacked decision the deformation suites make.
DECISIONS = {
    "induced_structures": (csymplectic, deformation),
    "power_verdicts": (csymplectic, deformation),
}


def recorded_stacks(name, cfg, dim, index, monkeypatch):
    """The stacks handed to ``induced_structures`` when ``index``'s case is
    built alone: its space's form, then, in preservance and section-theorem,
    its family members."""
    stacks = []
    decide = csymplectic.induced_structures
    with monkeypatch.context() as patch:
        for module in DECISIONS["induced_structures"]:
            patch.setattr(module, "induced_structures", lambda omegas: stacks.append(omegas.copy()) or decide(omegas))
        SPACE_CASES[name][1](cfg, dim, range(index, index + 1))
    return stacks


def fail_the_form(kind, target, monkeypatch):
    """Make the criteria fail on the one form ``target`` wherever it is
    decided: ``rank`` and ``power`` decide a zero form in its place, and
    ``structure`` rejects the structure solved from it."""
    hit = lambda omegas: (omegas == target).all(axis=(-2, -1))
    if kind == "structure":
        solve = csymplectic.structures_from_forms

        def rejecting(omegas):
            real, square, linearity = solve(omegas)
            return real, square, np.where(hit(omegas), np.inf, linearity)

        monkeypatch.setattr(csymplectic, "structures_from_forms", rejecting)
        return
    name = "rank_verdicts" if kind == "rank" else "power_verdicts"
    decide = getattr(csymplectic, name)
    zeroed = lambda omegas: decide(np.where(hit(omegas)[:, None, None], 0, omegas))
    for module in (csymplectic, deformation):
        if hasattr(module, name):
            monkeypatch.setattr(module, name, zeroed)


SPACE_FAILURES = {
    "rank": "not c-symplectic (rank criterion): kernel dimension 4 != 2",
    "power": "not c-symplectic (power criterion): zero form",
    "structure": "not c-symplectic (rank criterion): induced structure rejected",
}
MEMBER_FAILURES = {
    "rank": "deformed form failed c-symplecticity: rank: kernel dimension 4 != 2; power: ok",
    "power": "deformed form failed c-symplecticity: rank: ok; power: zero form",
    "structure": "deformed form failed c-symplecticity: rank: induced structure rejected; power: ok",
}


@pytest.mark.parametrize("kind", ["rank", "power", "structure"])
@pytest.mark.parametrize(
    "name, phase", [("_hitchin_case", 0), ("_maximality_case", 0), ("_preservance_case", 0), ("_preservance_case", 1),
                    ("_section_theorem_case", 0), ("_section_theorem_case", 1)]
)  # fmt: skip
def test_a_failing_instance_raises_in_the_range_what_it_raises_alone(name, phase, kind, monkeypatch):
    # instance 6 of 10: in phase 0 its space's form fails, in phase 1 the
    # last of its family members
    suite, reference = SPACE_CASES[name]
    case = getattr(suites, name)
    cfg = SuiteConfig(suite=suite, dims=(4,), samples=10, seed=2)
    target = recorded_stacks(name, cfg, 4, 6, monkeypatch)[phase][-1]
    fail_the_form(kind, target, monkeypatch)
    error = ValueError if phase == 0 else PostconditionError
    with pytest.raises(error) as stacked:
        case(cfg, 4, range(10))
    with pytest.raises(error) as alone:
        reference(cfg, 4, range(10))
    with pytest.raises(error) as own_range:
        case(cfg, 4, range(6, 7))
    expected = (SPACE_FAILURES if phase == 0 else MEMBER_FAILURES)[kind]
    assert str(stacked.value) == str(alone.value) == str(own_range.value) == expected
    case(cfg, 4, range(6))  # the instances before it pass


def recorded_splits(name, cfg, dim, index, monkeypatch):
    """The matrices handed to ``hodge_parts`` when ``index``'s case is built
    alone: in preservance its raw base form, then its gamma; in
    section-theorem its section form, then the same form as gamma."""
    splits = []
    split = deformation.hodge_parts
    with monkeypatch.context() as patch:
        patch.setattr(deformation, "hodge_parts", lambda m, s: splits.append(m.copy()) or split(m, s))
        SPACE_CASES[name][1](cfg, dim, range(index, index + 1))
    return splits


def fail_the_phase(phase, target, monkeypatch):
    """Make ``phase`` fail for the one instance whose input is ``target``:
    ``fiber`` finds its fiber basis dependent, ``projection`` finds its
    fiber not c-Lagrangian for its form, and ``gamma`` and ``section-form``
    find a (0,2) part of norm 1 in its split."""
    hit = lambda matrices: (matrices == target).all(axis=(-2, -1))
    if phase == "fiber":
        svd = np.linalg.svd

        def dependent(a, *args, compute_uv=True, **kwargs):
            result = svd(a, *args, compute_uv=compute_uv, **kwargs)
            if compute_uv or a.shape[-2:] != target.shape:
                return result
            return np.where(hit(a)[..., None], 0.0, result)

        monkeypatch.setattr(np.linalg, "svd", dependent)
    elif phase == "projection":
        isotropic = deformation.c_isotropic
        monkeypatch.setattr(deformation, "c_isotropic", lambda b, omegas, *tol: isotropic(b, omegas, *tol) & ~hit(omegas))
    else:
        split = deformation.hodge_parts

        def anti_holomorphic(matrices, structures):
            c20, c11, c02 = split(matrices, structures)
            return c20, c11, np.where(hit(matrices)[..., None], c02 + 1.0, c02)

        monkeypatch.setattr(deformation, "hodge_parts", anti_holomorphic)


#: Per build phase of the deformation cases: the error it raises and the
#: index into the inputs recorded alone (an input name or a ``hodge_parts`` call).
PHASE_FAILURES = {
    "fiber": (ValueError, "basis columns are not linearly independent", "fiber basis"),
    "projection": (ValueError, "fiber is not c-Lagrangian for the given form", "omega"),
    "gamma": (ValueError, "gamma has a (0,2) component of norm 1.000e+00; deformation requires Hodge type (2,0)+(1,1)",
              -1),
    "section-form": (PostconditionError, "(0,2) component of a section form is 1.000e+00; this contradicts the "
                     "Hodge-type property", 0),
}  # fmt: skip


@pytest.mark.parametrize(
    "name, phase", [("_hitchin_case", "fiber"), ("_preservance_case", "fiber"), ("_preservance_case", "projection"),
                    ("_preservance_case", "gamma"), ("_section_theorem_case", "fiber"),
                    ("_section_theorem_case", "projection"), ("_section_theorem_case", "section-form")]
)  # fmt: skip
def test_a_failing_instance_raises_in_the_range_what_it_raises_alone_in_each_build_phase(name, phase, monkeypatch):
    # instance 6 of 10 fails the phase's check, as in the decisions' test above
    suite, reference = SPACE_CASES[name]
    case = getattr(suites, name)
    cfg = SuiteConfig(suite=suite, dims=(4,), samples=10, seed=2)
    error, expected, source = PHASE_FAILURES[phase]
    if isinstance(source, str):
        target = reference(cfg, 4, range(6, 7))[0][0][source]
    else:
        target = recorded_splits(name, cfg, 4, 6, monkeypatch)[source]
    fail_the_phase(phase, target, monkeypatch)
    with pytest.raises(error) as stacked:
        case(cfg, 4, range(10))
    with pytest.raises(error) as alone:
        reference(cfg, 4, range(10))
    with pytest.raises(error) as own_range:
        case(cfg, 4, range(6, 7))
    assert str(stacked.value) == str(alone.value) == str(own_range.value) == expected
    case(cfg, 4, range(6))  # the instances before it pass


@pytest.mark.parametrize(
    "name, check, dim, index",
    [("_preservance_case", "preservance-fiber-lagrangian", 8, 7), ("_section_theorem_case", "holomorphize", 8, 12),
     ("_hitchin_case", "structure-invariance", 8, 3), ("_maximality_case", "maximality-brute-force", 4, 11)],
)  # fmt: skip
def test_replay_of_a_space_case_prints_what_the_per_index_case_prints(
    name, check, dim, index, tmp_path, monkeypatch, capsys
):
    suite, reference = SPACE_CASES[name]
    case = {"suite": suite, "check": check, "dim": dim, "seed": 5, "index": index, "residual": 0.0,
            "config": {"samples": 15}}  # fmt: skip
    path = tmp_path / "case.json"
    path.write_text(json.dumps(case))
    assert main(["replay", str(path)]) == 0
    replayed = capsys.readouterr().out
    monkeypatch.setattr(suites, name, reference)
    for check_name, entry in suites.CHECKS.items():
        if entry.case is not None and entry.case.__name__ == name:
            monkeypatch.setitem(suites.CHECKS, check_name, entry._replace(case=reference))
    assert main(["replay", str(path)]) == 0
    assert replayed == capsys.readouterr().out
    assert f"\n{check}: " in replayed


def test_a_deformation_request_decides_each_suite_dim_in_two_calls_of_each(monkeypatch):
    # the benchmark's deformation workload: per (suite, dim) one call for the
    # spaces and one for the family members, against one per instance before
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    calls, counts = [], Counter()
    for name, modules in DECISIONS.items():
        decide = getattr(csymplectic, name)
        counted = lambda omegas, name=name, decide=decide: calls.append((omegas.shape[-1], name)) or decide(omegas)
        for module in modules:
            monkeypatch.setattr(module, name, counted)
    configs = workloads.WORKLOADS["deformation"]
    for config in configs:
        calls.clear()
        assert run_suite(SuiteConfig(seed=1, **config)).passed
        counts.update((config["suite"], dim, name) for dim, name in calls)
    assert set(counts) == {(cfg["suite"], dim, name) for cfg in configs for dim in cfg["dims"] for name in DECISIONS}
    assert max(counts.values()) <= 2, counts


# -- check table ---------------------------------------------------------------------


#: Small runs of every suite, both testbed controls included.
SMALL_RUNS = REPLAY_RUNS + (
    SuiteConfig(suite="testbed-nijenhuis", grid_n=16, seed=0),
    SuiteConfig(suite="testbed-nijenhuis", grid_n=16, control="nonclosed", t_value=0.5, seed=0),
)


def test_every_row_is_decided_by_its_suites_table_entry():
    emitted = set()
    for cfg in SMALL_RUNS:
        for row in run_suite(cfg).checks:
            entry = suites.CHECKS[row["check"]]
            assert entry.suite == cfg.suite, row
            assert entry.control == (cfg.control if cfg.suite == "testbed-nijenhuis" else None), row
            assert row["pass"] == entry.passes(row["max_residual"]), row
            emitted.add(row["check"])
    assert emitted == set(suites.CHECKS)


@pytest.mark.parametrize("check", list(suites.CHECKS))
def test_a_nan_value_fails_every_check(check):
    entry = suites.CHECKS[check]
    assert not entry.passes(np.nan)
    passing = entry.low if np.isfinite(entry.low) else entry.high
    assert entry.passes(passing)
    # beside a passing case, a NaN case is one failing case, or the row's maximum
    folded = entry.row_value([passing, np.nan])
    assert folded == 1 if entry.fold == "count" else entry.fold == "max" and np.isnan(folded)


@pytest.mark.parametrize(
    "control, t, checks",
    [("closed", -1.0, ("section-holomorphy", "section-nijenhuis")), ("nonclosed", 0.5, ("nonclosed-nijenhuis",))],
)
def test_one_failed_node_fails_the_testbed_rows_by_value(control, t, checks, monkeypatch):
    cfg = SuiteConfig(suite="testbed-nijenhuis", grid_n=64, control=control, t_value=t)
    assert run_suite(cfg).passed
    build = torus.deformed_structure_field

    def one_failed_node(eta, t):
        structure = build(eta, t)
        structure[0, 0] = np.nan  # a node of the coarse grid too
        return structure

    for module in (torus, suites):
        monkeypatch.setattr(module, "deformed_structure_field", one_failed_node)
    report = run_suite(cfg)
    rows = [row for row in report.checks if row["check"] in checks]
    assert {row["check"] for row in rows} == set(checks)
    for row in rows:
        assert np.isnan(row["max_residual"]) and not row["pass"], row
    assert not report.passed


def rows_of(report, check):
    return [row for row in report.checks if row["check"] == check]


@pytest.mark.parametrize(
    "suite, split, kept", [("preservance", "preservance-fiber-lagrangian", "preservance"),
                           ("section-theorem", "holomorphize-graph-lagrangian", "holomorphize")]
)
def test_a_subspace_that_is_not_c_lagrangian_fails_its_own_row(suite, split, kept, monkeypatch):
    # the fiber under Omega_t and the graph under Omega' are checked at
    # STRUCTURE_TOL; hand those checks a generic subspace of the same dimension
    isotropic = deformation.c_isotropic
    rng = np.random.default_rng(0)

    def generic(bases, omegas, tol=linalg.DEFAULT_TOL):
        if tol == linalg.STRUCTURE_TOL:
            bases = np.linalg.qr(rng.standard_normal(bases.shape))[0]
        return isotropic(bases, omegas, tol)

    monkeypatch.setattr(deformation, "c_isotropic", generic)
    report = run_suite(SuiteConfig(suite=suite, dims=(4,), samples=3, seed=0))
    (row,) = rows_of(report, split)
    assert row["max_residual"] == 3 and not row["pass"]
    assert all(row["pass"] for row in rows_of(report, kept))
    assert not report.passed and report.failure_case["check"] == split


def test_an_eta_that_is_not_closed_fails_the_closedness_rows(monkeypatch):
    derivative = suites.exterior_derivative_fd
    monkeypatch.setattr(suites, "exterior_derivative_fd", lambda field: derivative(field) + 1e-9)
    report = run_suite(SuiteConfig(suite="testbed-nijenhuis", grid_n=64))
    closedness = rows_of(report, "section-closedness")
    assert [row["samples"] for row in closedness] == [32 * 32, 64 * 64]
    assert all(row["max_residual"] == 1e-9 and not row["pass"] for row in closedness)
    assert all(row["pass"] for row in rows_of(report, "section-nijenhuis"))
    assert not report.passed


def test_a_rough_closed_control_fails_its_nijenhuis_row(monkeypatch):
    control = torus.deformed_structure_field(torus.closed_control_form(torus.TorusGrid(64)), 1.0)
    scale = 2e-4 / torus.nijenhuis_norm(control)
    norm = suites.nijenhuis_norm
    monkeypatch.setattr(suites, "nijenhuis_norm", lambda structures: scale * norm(structures))
    report = run_suite(SuiteConfig(suite="testbed-nijenhuis", grid_n=64))
    (row,) = rows_of(report, "closed-control-nijenhuis")
    assert row["max_residual"] == pytest.approx(2e-4, rel=1e-12) and not row["pass"]
    assert rows_of(report, "closed-decay-rate")[0]["pass"]
    assert not report.passed


# -- lattice subcommands ------------------------------------------------------------


def test_lattice_find_section_cli(capsys):
    e = ",".join(["1"] + ["0"] * 21)
    assert main(["lattice", "find-section", "--e", e]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["pair_se"] == 1 and data["pair_ss"] == -2


def test_lattice_find_section_wrong_length(capsys):
    assert main(["lattice", "find-section", "--e", "1,0"]) == 2


@pytest.mark.parametrize(
    "e",
    [
        pytest.param(",".join(["1", ""] + ["0"] * 21), id="empty-inner-part"),
        pytest.param(",".join(["1"] + ["0"] * 21) + ",", id="trailing-comma"),
    ],
)
def test_lattice_find_section_refuses_an_empty_part(e, capsys):
    # 23 parts, one of them empty: never read as the 22-vector of the others
    with pytest.raises(SystemExit) as exit_info:
        main(["lattice", "find-section", "--e", e])
    assert exit_info.value.code == 2
    out = capsys.readouterr()
    assert out.out == "" and "argument --e: invalid" in out.err


def test_lattice_twistor_param_refuses_an_empty_part(capsys):
    args = [arg for arg in twistor_param_args() if not arg.startswith("--omega-im")]
    with pytest.raises(SystemExit) as exit_info:
        main([*args, "--omega-im=" + ",".join(["0"] * 22) + ","])
    assert exit_info.value.code == 2
    assert "argument --omega-im: invalid" in capsys.readouterr().err


def test_lattice_find_section_invalid_vector(capsys):
    e = ",".join(["2"] + ["0"] * 21)
    assert main(["lattice", "find-section", "--e", e]) == 1


def test_lattice_find_section_postcondition_exits_1(capsys, monkeypatch):
    from csympl import lattice

    # a broken extended gcd makes dual_vector return b = 0, so (b, e) = 0
    monkeypatch.setattr(lattice, "_xgcd", lambda a, b: (1, 0, 0))
    e = ",".join(["1", "0", "1"] + ["0"] * 19)
    assert main(["lattice", "find-section", "--e", e]) == 1
    assert "error: (b, e) = 0 != 1" in capsys.readouterr().err


def test_lattice_sections_counts_postcondition_failures(monkeypatch):
    from csympl import lattice

    monkeypatch.setattr(lattice, "_xgcd", lambda a, b: (1, 0, 0))
    report = run_suite(SuiteConfig(suite="lattice-sections", samples=3, seed=0))
    assert not report.passed
    assert report.checks[0]["max_residual"] > 0
    assert report.failure_case["check"] == "section-class"


def test_invalid_twistor_direction_fails_every_plane(monkeypatch):
    def reject(point, e):
        raise ValueError("(e, e) != 0: direction must be isotropic")

    monkeypatch.setattr(suites, "TwistorCurve", reject)
    _, measurements = suites._twistor_case(SuiteConfig(suite="twistor-curve", samples=10, seed=0), 22, range(1))[0]
    planes = [m for m in measurements if m[0] == "plane-gram-constant"]
    assert len(planes) == 100
    for _, deviation, detail in planes:
        assert np.isnan(deviation) and not suites.CHECKS["plane-gram-constant"].passes(deviation)
        assert detail.startswith("plane (") and detail.endswith("): (e, e) != 0: direction must be isotropic")


def test_a_twistor_plane_that_is_not_positive_fails_alone(monkeypatch):
    class Tilted(suites.TwistorCurve):
        # (a, e) = -(a, a)/4 makes (v1, v1) = (a, a)(1 - x), so the planes
        # of large x are not positive while those of small x are
        def __post_init__(self):
            super().__post_init__()
            aa, ab, bb, _, be, ee = self._pairings
            object.__setattr__(self, "_pairings", (aa, ab, bb, -(aa // 4), be, ee))

    monkeypatch.setattr(suites, "TwistorCurve", Tilted)
    inputs, measurements = suites._twistor_case(SuiteConfig(suite="twistor-curve", samples=10, seed=0), 22, range(1))[0]
    curve = Tilted(suites.PeriodPoint(suites.standard_k3_lattice(), inputs["omega"]), inputs["e"])
    planes = [(x, y) for x in np.linspace(-2, 2, 10) for y in np.linspace(-2, 2, 10)]
    rows = [m for m in measurements if m[0] == "plane-gram-constant"]
    rejected = 0
    for (x, y), (_, deviation, detail) in zip(planes, rows, strict=True):
        try:
            curve.plane(float(x), float(y))
        except ValueError as exc:
            rejected += 1
            assert str(exc).startswith("plane is not positive: Gram eigenvalues [")
            assert detail == f"plane ({x}, {y}): {exc}"
            assert np.isnan(deviation)
        else:
            assert detail == "" and np.isfinite(deviation)
    assert 0 < rejected < len(planes)


def twistor_param_args(omega_re_first="1", omega_im_first="0"):
    """``lattice twistor-param`` at the standard period point, with the first
    entries of --omega-re and --omega-im given."""
    zeros = ["0"] * 22
    omega_re = list(zeros)
    omega_re[0], omega_re[1] = omega_re_first, "1"
    omega_im = list(zeros)
    omega_im[0] = omega_im_first
    omega_im[2] = omega_im[3] = "1"
    s_vec = list(zeros)
    e_vec = list(zeros)
    e_vec[4] = "1"
    s_vec[5] = "1"  # (s, e) = 1 via the U pairing
    return [
        "lattice", "twistor-param",
        "--s", ",".join(s_vec),
        "--e", ",".join(e_vec),
        "--omega-re=" + ",".join(omega_re),  # "=" so that a leading "-inf" is not read as an option
        "--omega-im=" + ",".join(omega_im),
    ]


def test_lattice_twistor_param_cli(capsys):
    assert main(twistor_param_args()) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["substitution_residual"] < 1e-12


@pytest.mark.parametrize("option", ["--omega-re", "--omega-im"])
@pytest.mark.parametrize("value", ["1", "1,1"])
def test_lattice_twistor_param_rejects_a_short_period(option, value, capsys):
    # a period vector of length 1 must not broadcast against the other one
    args = [arg for arg in twistor_param_args() if not arg.startswith(option)] + [option, value]
    assert main(args) == 2
    out = capsys.readouterr()
    assert out.out == "" and "all vectors must have length 22" in out.err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("option", ["--omega-re", "--omega-im"])
def test_lattice_twistor_param_rejects_a_non_finite_period(option, value, capsys):
    args = twistor_param_args(**{"omega_re_first" if option == "--omega-re" else "omega_im_first": value})
    assert main(args) == 2
    out = capsys.readouterr()
    assert out.out == "" and f"{option} entries must be finite" in out.err


def test_lattice_curve_cli(capsys):
    assert main(["lattice", "curve", "--grid", "10"]) == 0
    assert capsys.readouterr().out == (
        '{"grid": 10, "gram": [[8.0, 0.0], [0.0, 8.0]], "max_gram_deviation": 0.0, "positive_definite": true}\n'
    )


@pytest.mark.parametrize("option, value", [("--grid", "0"), ("--grid", "-1"), ("--extent", "nan"), ("--extent", "inf")])
def test_lattice_curve_rejects_bad_grid_or_extent(option, value, capsys):
    assert main(["lattice", "curve", option, value]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "--grid must be at least 1 and --extent finite" in out.err


@pytest.mark.parametrize("extent, grid", [("1e308", "2"), ("1e308", "1"), ("-1e308", "10"), ("1.7e308", "3")])
def test_lattice_curve_rejects_an_extent_whose_sweep_overflows(extent, grid, capsys):
    # finite, but linspace's step overflows and the sweep points are NaN
    assert main(["lattice", "curve", f"--extent={extent}", "--grid", grid]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "--extent finite with finite sweep points" in out.err


def test_twistor_plane_grams_are_exact_on_a_seed_that_rounded_past_the_bound():
    # the float plane Grams of this seed's curve deviated by 1.58e-12 > 1e-12
    report = run_suite(SuiteConfig(suite="twistor-curve", samples=10, seed=68608236))
    rows = {row["check"]: row for row in report.checks}
    assert report.passed
    assert rows["plane-gram-constant"]["max_residual"] == 0
