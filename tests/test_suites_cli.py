"""Suite runner determinism, exit-status contract, replay, lattice CLI."""

import io
import json

import numpy as np
import pytest

from csympl import suites
from csympl.cli import main
from csympl.suites import SuiteConfig, nonclosed_t, replay_case, run_suite


def strip_volatile(report_json):
    data = dict(report_json)
    data.pop("wall_time_s", None)
    return data


def test_unknown_suite_exits_2(capsys):
    assert main(["run", "--suite", "nonsense"]) == 2
    assert "unknown suite" in capsys.readouterr().err


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


def test_env_seed_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("CSYMPL_SEED", "77")
    out = tmp_path / "r.json"
    main(["run", "--suite", "gram-schmidt", "--dims", "4", "--n", "3", "--out", str(out)])
    assert json.loads(out.read_text())["seed"] == 77


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
        "config": {"samples": 4, "tol": 1e-9},
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
    first = replay_case(case, verbose=False)
    second = replay_case(case, verbose=False)
    assert [c["max_residual"] for c in first.checks] == [c["max_residual"] for c in second.checks]


def test_replay_malformed_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["replay", str(bad)]) == 2
    incomplete = tmp_path / "incomplete.json"
    incomplete.write_text(json.dumps({"suite": "gram-schmidt"}))
    assert main(["replay", str(incomplete)]) == 2


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
                        "config": {"samples": 5, "tol": cfg.tol}}

    monkeypatch.setitem(suites.SUITES, "criteria-equivalence", broken)
    monkeypatch.chdir(tmp_path)
    code = main(["run", "--suite", "criteria-equivalence", "--n", "5", "--seed", "1"])
    assert code == 1
    case_file = tmp_path / "criteria-equivalence-failure.json"
    assert case_file.exists()
    assert json.loads(case_file.read_text())["check"] == "criteria-agree"



def test_nonclosed_t_rule():
    def t_of(value):
        return nonclosed_t(SuiteConfig(suite="testbed-nijenhuis", t_value=value))

    assert t_of(0.3) == 0.3 and t_of(-0.7) == -0.7
    for bad in (0.3 + 0.2j, 0.0, 1.0, -1.0, 2.5):
        assert t_of(bad) == 0.5


def test_nonclosed_node_csv_uses_the_suite_t():
    def nonclosed(t):
        return SuiteConfig(suite="testbed-nijenhuis", grid_n=16, control="nonclosed", t_value=t)

    def node_table(t):
        return np.loadtxt(io.StringIO(suites.testbed_node_csv(nonclosed(t))), delimiter=",", skiprows=1)

    assert np.array_equal(node_table(0.3 + 0.2j), node_table(0.5))
    assert not np.array_equal(node_table(0.3), node_table(0.5))
    assert run_suite(nonclosed(0.3 + 0.2j)).checks == run_suite(nonclosed(0.5)).checks

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


def test_lattice_twistor_param_cli(capsys):
    zeros = ["0"] * 22
    omega_re = list(zeros)
    omega_re[0] = omega_re[1] = "1"
    omega_im = list(zeros)
    omega_im[2] = omega_im[3] = "1"
    s_vec = list(zeros)
    e_vec = list(zeros)
    e_vec[4] = "1"
    s_vec[5] = "1"  # (s, e) = 1 via the U pairing
    code = main(
        [
            "lattice", "twistor-param",
            "--s", ",".join(s_vec),
            "--e", ",".join(e_vec),
            "--omega-re", ",".join(omega_re),
            "--omega-im", ",".join(omega_im),
        ]
    )
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["substitution_residual"] < 1e-12


def test_lattice_curve_cli(capsys):
    assert main(["lattice", "curve", "--grid", "10"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["positive_definite"] is True
    assert data["max_gram_deviation"] < 1e-12
