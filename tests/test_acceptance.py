"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with `pytest -s tests/test_acceptance.py` to see the PASS/FAIL lines;
sample sizes and tolerances are pinned here and are not configurable.
"""

import time

import numpy as np
import pytest

from csympl.csymplectic import is_c_symplectic_power, is_c_symplectic_rank, q_block_form
from csympl.forms import ComplexTwoForm, wedge
from csympl.suites import SuiteConfig, run_suite

MASTER_SEED = 20260810


def verdict(number: int, ok: bool, label: str, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:>2}: {status} - {label}{suffix}")
    assert ok, f"criterion {number} failed: {label}{suffix}"


def run(suite, **kwargs):
    return run_suite(SuiteConfig(suite=suite, seed=MASTER_SEED, **kwargs))


def test_criterion_01_criteria_equivalence():
    start = time.monotonic()
    report = run("criteria-equivalence", dims=(4, 8, 12), samples=500)
    elapsed = time.monotonic() - start
    disagreements = sum(int(row["max_residual"]) for row in report.checks)
    ok = report.passed and disagreements == 0 and elapsed < 30.0
    verdict(
        1,
        ok,
        "rank and power criteria agree on 500 mixed forms per dim in {4, 8, 12}",
        f"disagreements={disagreements}, {elapsed:.1f}s",
    )


def test_criterion_02_q_block_ground_truth():
    q = q_block_form(1)
    rank_ok = bool(is_c_symplectic_rank(q))
    power_ok = bool(is_c_symplectic_power(q))
    value = wedge(q, ComplexTwoForm(q.matrix.conj()))(*np.eye(4))
    value_ok = abs(value - 4.0) <= 1e-12
    verdict(
        2,
        rank_ok and power_ok and value_ok,
        "canonical block is c-symplectic by both criteria and (Q ^ conj Q) evaluates to 4",
        f"value={value:.15g}",
    )


def test_criterion_03_induced_structure_uniqueness():
    report = run("induced-structure", dims=(4, 8), samples=100)
    uniq = max(r["max_residual"] for r in report.checks if r["check"] == "uniqueness")
    scal = max(r["max_residual"] for r in report.checks if r["check"] == "scaling-invariance")
    ok = report.passed and uniq < 1e-8 and scal < 1e-9
    verdict(
        3,
        ok,
        "200 forms built from known structures recover them; scaling leaves the structure fixed",
        f"recovery={uniq:.2e}, scaling={scal:.2e}",
    )


def test_criterion_04_gram_schmidt():
    report = run("gram-schmidt", dims=(4, 8, 12), samples=70)
    worst = max(r["max_residual"] for r in report.checks)
    ok = report.passed and worst < 1e-8
    verdict(4, ok, "canonical-basis residual < 1e-8 on 210 instances, dims 4-12", f"max={worst:.2e}")


def test_criterion_05_hitchin():
    report = run("hitchin", dims=(4, 8), samples=100)
    invariance = max(r["max_residual"] for r in report.checks if r["check"] == "structure-invariance")
    brute = [r for r in report.checks if r["check"] == "maximality-brute-force"][0]
    ok = report.passed and invariance < 1e-9 and brute["pass"] and brute["samples"] == 100
    verdict(
        5,
        ok,
        "found Lagrangians are structure-invariant; dimension test matches brute-force maximality",
        f"invariance={invariance:.2e}, mismatches={int(brute['max_residual'])}",
    )


def test_criterion_06_deformation_and_preservance():
    report = run("preservance", dims=(4, 8), samples=100)
    worst = max(r["max_residual"] for r in report.checks)
    ok = report.passed and worst < 1e-9
    verdict(
        6,
        ok,
        "200 deformed families stay c-symplectic with fiber/quotient structures fixed over 5 t-samples",
        f"max residual={worst:.2e}",
    )


def test_criterion_07_section_theorem_linear():
    report = run("section-theorem", dims=(4, 8), samples=100)
    worst = max(r["max_residual"] for r in report.checks)
    ok = report.passed and worst < 1e-9
    verdict(
        7,
        ok,
        "section holomorphization certificate passes on 200 random sections",
        f"max residual={worst:.2e}",
    )


def test_criterion_08_manifold_testbed():
    start = time.monotonic()
    closed = run("testbed-nijenhuis", grid_n=64, modes=3, control="closed")
    nonclosed = run("testbed-nijenhuis", grid_n=64, control="nonclosed", t_value=0.5)
    elapsed = time.monotonic() - start
    holo = [r for r in closed.checks if r["check"] == "section-holomorphy"][0]
    nij = [r for r in closed.checks if r["check"] == "section-nijenhuis"]
    rate = [r for r in closed.checks if r["check"] == "closed-decay-rate"][0]
    control = [r for r in nonclosed.checks if r["check"] == "nonclosed-nijenhuis"]
    stability = [r for r in nonclosed.checks if r["check"] == "nonclosed-stability"][0]
    ok = (
        closed.passed
        and nonclosed.passed
        and holo["max_residual"] < 1e-8
        and all(r["max_residual"] < 1e-4 for r in nij)
        and rate["pass"]
        and all(r["pass"] for r in control)
        and stability["pass"]
        and elapsed < 60.0
    )
    worst_nijenhuis = max(r["max_residual"] for r in nij)
    verdict(
        8,
        ok,
        "testbed: pointwise holomorphy < 1e-8, Nijenhuis < 1e-4 with second-order decay, "
        "non-closed control bounded below",
        f"holo={holo['max_residual']:.2e}, nijenhuis={worst_nijenhuis:.2e}, "
        f"rate={rate['max_residual']:.2f}, {elapsed:.1f}s",
    )


def test_criterion_09_lattice():
    sections = run("lattice-sections", samples=100)
    curve = run("twistor-curve", samples=100)
    failures = int(sections.checks[0]["max_residual"])
    subst = [r for r in curve.checks if r["check"] == "parameter-substitution"][0]
    gram = [r for r in curve.checks if r["check"] == "plane-gram-constant"][0]
    ok = (
        sections.passed
        and curve.passed
        and failures == 0
        and subst["max_residual"] <= 1e-12
        and gram["max_residual"] <= 1e-12
    )
    verdict(
        9,
        ok,
        "100 random isotropic classes give exact section classes; parameter and plane identities hold",
        f"failures={failures}, subst={subst['max_residual']:.1e}, gram={gram['max_residual']:.1e}",
    )


def test_criterion_10_determinism():
    identical = True
    for suite, kwargs in (
        ("criteria-equivalence", dict(dims=(4,), samples=50)),
        ("preservance", dict(dims=(4,), samples=10)),
        ("testbed-nijenhuis", dict(grid_n=32)),
        ("lattice-sections", dict(samples=20)),
    ):
        first = run(suite, **kwargs)
        second = run(suite, **kwargs)
        if first.checks != second.checks:
            identical = False
    verdict(10, identical, "suite re-runs with the same seed reproduce identical residual fields")
