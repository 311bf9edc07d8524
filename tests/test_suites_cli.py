"""Suite runner determinism, exit-status contract, replay, lattice CLI."""

import io
import json

import numpy as np
import pytest

from csympl import cli, csymplectic, forms, linalg, suites, torus
from csympl.csymplectic import Q_BLOCK
from csympl.cli import main
from csympl.linalg import ComplexStructure, PostconditionError
from csympl.suites import SuiteConfig, replay_case, run_suite


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
    ]:
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(bad))
        assert main(["replay", str(path)]) == 2, name
        err = capsys.readouterr().err
        assert err.startswith("malformed case file: ") and message in err, name
        assert err.count("malformed case file") == 1, name


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
    monkeypatch.setitem(suites.CASES, "preservance", raising)


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
    stacks = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda a, *args, **k: stacks.append(a.shape[:-2]) or svd(a, *args, **k))
    t = 0.5 if control == "nonclosed" else -1.0
    cfg = SuiteConfig(suite="testbed-nijenhuis", grid_n=64, control=control, t_value=t)
    assert run_suite(cfg).passed
    eta = suites.testbed_inputs(cfg)[1][64]
    if control == "closed":  # the section's field at t = -1, then the closed control's at t = 1
        fields = [distinct_nodes(eta, t), distinct_nodes(torus.closed_control_form(torus.TorusGrid(len(eta))), 1.0)]
    else:
        fields = [distinct_nodes(eta, t)]
    assert fields[-1] < 64 * 64
    # each field's full SVD and its kernels' real-span SVD
    assert stacks == [(count,) for count in fields for _ in range(2)]


def test_coarse_rows_at_complex_t_are_the_half_grid_runs_fine_rows():
    # the coarse grid is read off the fine one; its rows must be bit for bit
    # those of a run on the coarse grid itself, at complex t too
    def section_rows(grid_n):
        cfg = SuiteConfig(suite="testbed-nijenhuis", grid_n=grid_n, modes=2, t_value=0.3 + 0.2j, seed=1)
        return {row["samples"]: row for row in run_suite(cfg).checks if row["check"] == "section-nijenhuis"}

    coarse, fine = section_rows(32)[16 * 16], section_rows(16)[16 * 16]
    assert coarse["max_residual"].hex() == fine["max_residual"].hex() and coarse == fine


def test_closed_testbed_samples_each_section_form_once(monkeypatch):
    grids = []
    sample = suites.sample_section_form
    monkeypatch.setattr(suites, "sample_section_form", lambda sigma, grid: grids.append(grid.n) or sample(sigma, grid))
    monkeypatch.setattr(torus, "sample_section_form", suites.sample_section_form)
    assert run_suite(SuiteConfig(suite="testbed-nijenhuis", grid_n=64)).passed
    assert grids == [64]


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
    assert main(["run", *args]) == 2
    err = capsys.readouterr().err
    assert "invalid configuration" in err and message in err
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
    monkeypatch.setattr(suites, "c_symplectic_basis", lambda omega: np.full((4, 4), np.nan))
    report = run_suite(SuiteConfig(suite="gram-schmidt", dims=(4,), samples=3, seed=0))
    assert not report.passed and np.isnan(report.checks[0]["max_residual"])
    assert report.failure_case["check"] == "q-block-residual" and report.failure_case["index"] == 0


def test_nan_fiber_restriction_fails_the_preservance_row(monkeypatch):
    restrict = ComplexStructure.restrict

    def nan_restriction(self, subspace):
        restricted, residual = restrict(self, subspace)
        return np.full_like(restricted, np.nan), residual

    monkeypatch.setattr(ComplexStructure, "restrict", nan_restriction)
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

    for case in set(suites.CASES.values()):
        monkeypatch.setattr(suites, case.__name__, recording(case))
    emitted = {row["check"] for cfg in REPLAY_RUNS for row in run_suite(cfg).checks}
    assert emitted == set(suites.CASES)

    configs = {cfg.suite: cfg for cfg in REPLAY_RUNS}
    replayed = set()
    for (suite, check, dim, index), inputs in used.items():
        if index < 4:  # includes hitchin's maximality trial 3, drawn from stream (0, 4, 10003)
            case = {"suite": suite, "check": check, "dim": dim, "index": index}
            assert_same_inputs(suites.describe_case(case, configs[suite])[0], inputs)
            replayed.add(check)
    assert replayed == set(suites.CASES)
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


# -- lattice subcommands ------------------------------------------------------------


def test_lattice_find_section_cli(capsys):
    e = ",".join(["1"] + ["0"] * 21)
    assert main(["lattice", "find-section", "--e", e]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["pair_se"] == 1 and data["pair_ss"] == -2


def test_lattice_find_section_wrong_length(capsys):
    assert main(["lattice", "find-section", "--e", "1,0"]) == 2


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
    for _, deviation, ok, detail in planes:
        assert not ok and np.isnan(deviation)
        assert detail.startswith("plane (") and detail.endswith("): (e, e) != 0: direction must be isotropic")


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
    data = json.loads(capsys.readouterr().out)
    assert data["positive_definite"] is True
    assert data["max_gram_deviation"] < 1e-12


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
