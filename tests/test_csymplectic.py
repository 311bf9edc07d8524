"""Recognition criteria, induced structures, canonical bases, Lagrangians."""

import dataclasses

import numpy as np
import pytest

from csympl import csymplectic, kernels, suites
from csympl.csymplectic import (
    CSymplecticSpace,
    Q_BLOCK,
    PowerCriterion,
    RankCriterion,
    _structure_accepted,
    c_symplectic_basis,
    c_symplectic_bases,
    hodge_decompose,
    induced_complex_structure,
    induced_structures,
    is_c_isotropic,
    is_c_lagrangian,
    is_c_symplectic_power,
    is_c_symplectic_rank,
    power_verdicts,
    q_block_form,
    random_c_symplectics,
    rank_verdicts,
    structures_from_forms,
)
from csympl.deformation import LagrangianProjection
from csympl.forms import ComplexKForm, ComplexTwoForm, form_kernel, power, pullback, wedge
from csympl.linalg import (
    DEFAULT_TOL, STRUCTURE_TOL, ComplexStructure, PostconditionError, Subspace, null_space, numerical_rank,
    real_span_rank,
)

STANDARD_J = ComplexStructure(
    4, np.array([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]], dtype=float)
)


def dz1_wedge_dz2():
    """dz1 ^ dz2 for the standard structure; equals the Q block."""
    return ComplexTwoForm(Q_BLOCK)


def pfaffian_4(a: np.ndarray) -> complex:
    return a[0, 1] * a[2, 3] - a[0, 2] * a[1, 3] + a[0, 3] * a[1, 2]


# -- recognition criteria ---------------------------------------------------


def test_q_block_passes_both_criteria():
    q = q_block_form(1)
    assert is_c_symplectic_rank(q).ok
    assert is_c_symplectic_power(q).ok


def test_real_symplectic_fails_both():
    form = ComplexTwoForm.from_kform(ComplexKForm.from_dict(4, 2, {(0, 1): 1.0, (2, 3): 1.0}))
    rank = is_c_symplectic_rank(form)
    assert not rank.ok and rank.kernel_dim == 0
    assert not is_c_symplectic_power(form).ok


def test_double_q_block():
    q2 = q_block_form(2)
    rank = is_c_symplectic_rank(q2)
    assert rank.ok and rank.kernel_dim == 4
    # independent kernel oracle
    assert np.linalg.matrix_rank(q2.matrix, tol=1e-9) == 4
    assert is_c_symplectic_power(q2).ok


def test_random_gaussian_form_generically_fails():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    form = ComplexTwoForm(a)
    # Pfaffian oracle: Omega^2 = 2 Pf(A) vol on R^4
    square = power(form, 2)
    assert square.coefficient((0, 1, 2, 3)) == pytest.approx(
        2 * pfaffian_4(form.matrix), rel=1e-12
    )
    assert abs(pfaffian_4(form.matrix)) > 1e-6
    assert not is_c_symplectic_power(form).ok
    assert not is_c_symplectic_rank(form).ok


def test_dz_form_is_c_symplectic():
    assert is_c_symplectic_rank(dz1_wedge_dz2()).ok
    assert is_c_symplectic_power(dz1_wedge_dz2()).ok


@pytest.mark.parametrize("dim", [6, 0])
def test_dimension_not_multiple_of_four_rejected(dim):
    form = ComplexTwoForm(np.zeros((dim, dim)))
    rank = is_c_symplectic_rank(form)
    assert not rank.ok and rank.reason == "dimension not 4n"
    power = is_c_symplectic_power(form)
    assert not power.ok and power.reason == "dimension not 4n"


def test_degenerate_real_half_rank_separates_naive_kernel_count():
    # kernel dimension 2n but full of real vectors: both criteria say no
    rng = np.random.default_rng(1)
    block = np.zeros((8, 8))
    block[0, 1] = block[2, 3] = 1.0
    block[1, 0] = block[3, 2] = -1.0
    p = rng.standard_normal((8, 8))
    form = ComplexTwoForm(p.T @ block @ p)
    rank = is_c_symplectic_rank(form)
    assert rank.kernel_dim == 4 and not rank.ok
    assert rank.reason == "kernel contains real vectors"
    assert not is_c_symplectic_power(form).ok


def test_criteria_agree_on_mixture():
    for dim in (4, 8):
        rngs = [np.random.default_rng([dim, i]) for i in range(150)]
        for omega in map(ComplexTwoForm, suites.mixed_two_forms(rngs, dim)):
            assert bool(is_c_symplectic_rank(omega)) == bool(is_c_symplectic_power(omega))


def test_criteria_agree_under_perturbations_off_the_boundary():
    # perturbations well above the rank threshold break both criteria,
    # perturbations well below it break neither
    rng = np.random.default_rng(21)
    omega = ComplexTwoForm(random_c_symplectics([rng], 8)[0][0])
    noise = ComplexTwoForm(rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))
    noise = noise * (omega.norm() / noise.norm())
    for eps, expected in ((1e-4, False), (1e-6, False), (1e-13, True)):
        perturbed = omega + noise * eps
        rank = is_c_symplectic_rank(perturbed)
        power = is_c_symplectic_power(perturbed)
        assert bool(rank) == bool(power) == expected, (eps, rank.reason, power.reason)


# -- stacked rank verdicts ----------------------------------------------------


def rank_criterion_reference(omega):
    """The per-form rank criterion that ``rank_verdicts`` replaced: the kernel
    of ``form_kernel`` and the real-span rank of ``Subspace.real_span_rank``."""
    m = omega.dim
    if m % 4 or not m:
        return RankCriterion(False, "dimension not 4n", -1, -1, False)
    n = m // 4
    ker = form_kernel(omega)
    span_rank = -1
    if ker.dim != 2 * n:
        reason = f"kernel dimension {ker.dim} != {2 * n}"
    else:
        span_rank = ker.subspace.real_span_rank()
        reason = "" if span_rank == m else "kernel contains real vectors"
    return RankCriterion(not reason, reason, ker.dim, span_rank, ker.ill_conditioned)


def stack_max(x):
    return np.abs(x).max(axis=(-2, -1), initial=0.0)


def kernel_structures_reference(omegas, kernels):
    """The kernel prescription that ``structures_from_forms`` replaced, from
    stacked forms (..., m, m) and kernel bases (..., m, m/2): -i on the kernel
    and +i on its conjugate, I = (P D) P^{-1} with P = [K, conj K].  Returns
    Re I and its acceptance: the realness residual within DEFAULT_TOL, and
    I^2 = -Id and I^T A = i A within STRUCTURE_TOL, each relative as in
    ``structures_from_forms``."""
    m, half = kernels.shape[-2:]
    p = np.concatenate([kernels, kernels.conj()], axis=-1)
    mats = (p * np.repeat([-1j, 1j], half)) @ np.linalg.inv(p)
    real = mats.real
    realness = stack_max(mats.imag) / np.maximum(1.0, stack_max(mats))
    square = stack_max(real @ real + np.eye(m)) / np.maximum(1.0, stack_max(real) ** 2)
    linearity = stack_max(np.swapaxes(real, -1, -2) @ omegas - 1j * omegas) / np.maximum(1.0, stack_max(omegas))
    return real, (realness <= DEFAULT_TOL) & (square <= STRUCTURE_TOL) & (linearity <= STRUCTURE_TOL)


def assert_verdicts_are_the_reference(forms):
    """Each form's stacked verdict, and ``is_c_symplectic_rank``, equal the
    reference in all five fields, with exactly typed values.  Returns the
    reference verdicts."""
    verdicts = rank_verdicts(np.stack([omega.matrix for omega in forms]))
    references = []
    for i, omega in enumerate(forms):
        expected = rank_criterion_reference(omega)
        for got in (verdicts.criterion(i), is_c_symplectic_rank(omega)):
            assert got == expected
            assert [type(value) for value in dataclasses.astuple(got)] == [bool, str, int, int, bool]
        references.append(expected)
    return references


@pytest.mark.parametrize("dim", [4, 8, 12])
def test_rank_verdicts_are_the_per_form_path_on_mixed_forms(dim):
    forms = list(map(ComplexTwoForm, suites.mixed_two_forms([np.random.default_rng([dim, i]) for i in range(200)], dim)))
    references = assert_verdicts_are_the_reference(forms)
    reasons = {reference.reason for reference in references}
    assert reasons == {"", f"kernel dimension 0 != {dim // 2}", "kernel contains real vectors"}


def near_cutoff_witnesses(dim, count=3, steps=41):
    """omega + eps B for c-symplectic omega and a complex skew B with
    |B| = |omega|, at log-spaced eps in [1e-14, 1e-4], seeds [2026, dim, k]:
    the rank cutoff flips inside that range."""
    forms = []
    for k in range(count):
        rng = np.random.default_rng([2026, dim, k])
        omega = ComplexTwoForm(random_c_symplectics([rng], dim)[0][0])
        noise = complex_gaussian_form(rng, dim)
        noise = noise * (omega.norm() / noise.norm())
        forms.extend(omega + noise * eps for eps in np.logspace(-14, -4, steps))
    return forms


@pytest.mark.parametrize("dim", [4, 8, 12])
def test_rank_verdicts_are_the_per_form_path_near_the_cutoff(dim):
    references = assert_verdicts_are_the_reference(near_cutoff_witnesses(dim))
    flags = [reference.ill_conditioned for reference in references]
    oks = [reference.ok for reference in references]
    assert any(flags) and not all(flags)
    assert any(oks) and not all(oks)


@pytest.mark.parametrize("dim", [0, 2, 6, 7])
def test_rank_verdicts_are_the_per_form_path_off_multiples_of_four(dim):
    forms = [complex_gaussian_form(np.random.default_rng([dim, i]), dim) for i in range(5)]
    forms.append(ComplexTwoForm(np.zeros((dim, dim))))
    references = assert_verdicts_are_the_reference(forms)
    assert {reference.reason for reference in references} == {"dimension not 4n"}
    assert np.isnan(rank_verdicts(np.stack([omega.matrix for omega in forms])).singular_values).all()


@pytest.mark.parametrize("dim", [4, 8, 12])
def test_a_forms_verdict_in_a_stack_is_its_verdict_alone(dim):
    stack = suites.mixed_two_forms([np.random.default_rng([dim, 1000 + i]) for i in range(50)], dim)
    verdicts = rank_verdicts(stack)
    for i in range(len(stack)):
        alone = rank_verdicts(stack[i : i + 1])
        assert verdicts.criterion(i) == alone.criterion(0)
    assert 0 < verdicts.ok.sum() < len(stack)


def test_empty_stack_has_no_verdicts():
    verdicts = rank_verdicts(np.zeros((0, 8, 8), dtype=np.complex128))
    assert [len(field) for field in verdicts] == [0, 0, 0, 0]


def real_plane_kernel_form(rng, dim):
    """p^T (Q^{+(n-1)} + B) p for a real 4x4 skew B of rank 2 and a random
    real p: its kernel has complex dimension m/2 and holds a 2-dimensional
    real subspace."""
    u, v = rng.standard_normal((2, 4))
    mat = q_block_form(dim // 4).matrix.copy()
    mat[-4:, -4:] = np.outer(u, v) - np.outer(v, u)
    p = rng.standard_normal((dim, dim))
    return ComplexTwoForm(p.T @ mat @ p)


@pytest.mark.parametrize("dim", [4, 8, 12])
def test_rank_verdicts_read_real_span_ranks_between_half_and_full(dim):
    forms = [real_plane_kernel_form(np.random.default_rng([41, dim, i]), dim) for i in range(5)]
    references = assert_verdicts_are_the_reference(forms)
    assert {(reference.kernel_dim, reference.real_span_rank) for reference in references} == {(dim // 2, dim - 2)}
    assert {reference.reason for reference in references} == {"kernel contains real vectors"}


def recorded_svd_calls(monkeypatch):
    """Wrap ``np.linalg.svd``; returns the list of (input, compute_uv) of each call."""
    svd, calls = np.linalg.svd, []

    def recording_svd(a, *args, **kwargs):
        calls.append((np.array(a), kwargs.get("compute_uv", True)))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    return calls


@pytest.mark.parametrize("dim", [4, 8, 12])
def test_rank_verdicts_take_singular_values_only_and_stack_the_half_kernels_real(dim, monkeypatch):
    stack = suites.mixed_two_forms([np.random.default_rng([dim, 2000 + i]) for i in range(50)], dim)
    calls = recorded_svd_calls(monkeypatch)
    verdicts = rank_verdicts(stack)
    assert [compute_uv for _, compute_uv in calls] == [False, False]
    assert calls[0][0].tobytes() == stack.tobytes()
    halves = stack[verdicts.kernel_dim == dim // 2]
    assert 0 < len(halves) < len(stack)
    real = calls[1][0]
    assert real.dtype == np.float64 and real.shape == (len(halves), 2 * dim, dim)
    assert np.array_equal(real, np.concatenate([halves.real, halves.imag], axis=-2))


def test_rank_verdicts_of_forms_without_half_kernels_make_one_svd(monkeypatch):
    stack = np.stack([complex_gaussian_form(np.random.default_rng([43, i]), 8).matrix for i in range(20)])
    calls = recorded_svd_calls(monkeypatch)
    verdicts = rank_verdicts(stack)
    assert [compute_uv for _, compute_uv in calls] == [False]
    assert (verdicts.kernel_dim == 0).all() and (verdicts.real_span_rank == -1).all()


def reference_criteria_sweep(cfg, power_verdicts):
    """``criteria-equivalence`` case by case: each form's rank verdict from
    the reference and its power verdict from ``power_verdicts``, by matrix
    bytes, folded into rows and a first failure as the sweep folds them."""
    rows, failure = [], None
    for dim in cfg.dims:
        failing = 0
        for index in range(cfg.samples):
            rng = np.random.default_rng([cfg.seed, dim, index])
            omega = ComplexTwoForm(suites.mixed_two_forms([rng], dim)[0])
            rank, power = rank_criterion_reference(omega).ok, power_verdicts[omega.matrix.tobytes()]
            if rank != power:
                failing += 1
                if failure is None:
                    failure = suites._failure(cfg, "criteria-agree", dim, index, 1.0, f"rank={rank} power={power}")
        rows.append(suites._check_row("criteria-agree", dim, cfg.samples, failing, failing == 0, cfg.seed))
    return rows, failure


def recording_power(monkeypatch, fail_on=None):
    """Patch the suite's stacked power call to record each form's verdict by
    its matrix bytes, and to fail the form whose bytes are ``fail_on``."""
    verdicts, stacked = {}, suites.power_verdicts

    def record(omegas):
        result = stacked(omegas)
        ok = result.ok.copy()
        for i, omega in enumerate(omegas):
            ok[i] &= omega.tobytes() != fail_on
            verdicts[omega.tobytes()] = bool(ok[i])
        return result._replace(ok=ok)

    monkeypatch.setattr(suites, "power_verdicts", record)
    return verdicts


@pytest.mark.parametrize("seed", [0, 1, 7, 20260810])
def test_criteria_equivalence_is_the_per_case_sweep_at_acceptance_size(seed, monkeypatch):
    # the power verdicts are the suite's own, recorded, so that each of the
    # 1500 forms is decided once, by the suite's stacked call; the rank
    # verdicts and the folding are the reference's
    cfg = suites.SuiteConfig(suite="criteria-equivalence", seed=seed)
    assert (cfg.dims, cfg.samples) == ((4, 8, 12), 500)
    power_verdicts = recording_power(monkeypatch)
    report = suites.run_suite(cfg)
    assert len(power_verdicts) == 1500
    assert (report.checks, report.failure_case) == reference_criteria_sweep(cfg, power_verdicts)


def test_a_forced_disagreement_replays_with_the_sweeps_detail(monkeypatch, capsys):
    cfg = suites.SuiteConfig(suite="criteria-equivalence", dims=(4, 8), samples=20, seed=1)
    rngs = [np.random.default_rng([1, 8, index]) for index in range(20)]
    forms = list(map(ComplexTwoForm, suites.mixed_two_forms(rngs, 8)))
    index = next(i for i in range(5, 20) if rank_criterion_reference(forms[i]).ok)
    power_verdicts = recording_power(monkeypatch, fail_on=forms[index].matrix.tobytes())
    report = suites.run_suite(cfg)
    assert (report.checks, report.failure_case) == reference_criteria_sweep(cfg, power_verdicts)
    case = report.failure_case
    assert (case["dim"], case["index"], case["detail"]) == (8, index, "rank=True power=False")
    assert [row["max_residual"] for row in report.checks] == [0.0, 1.0]
    capsys.readouterr()
    suites.describe_case(case, suites.case_config(case))
    assert f"criteria-agree: 1.000000e+00 ok=False {case['detail']}" in capsys.readouterr().out.splitlines()


# -- power criterion: the pairing as Omega^n ^ conj(Omega^n) ------------------


def pairing_chain_reference(omega):
    """|(Omega ^ conj Omega)^n| as the n-fold wedge chain of the pairing."""
    pairing = wedge(omega, ComplexTwoForm(omega.matrix.conj()))
    pairing_top = pairing
    for _ in range(omega.dim // 4 - 1):
        pairing_top = wedge(pairing_top, pairing)
    return pairing_top.norm()


def complex_gaussian_form(rng, dim):
    return ComplexTwoForm(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))


@pytest.mark.parametrize("dim", [4, 8, 12])
def test_pairing_matches_the_pairing_chain_reference(dim):
    for i in range(10):
        rng = np.random.default_rng([dim, i])
        symplectic = ComplexTwoForm(random_c_symplectics([rng], dim)[0][0])
        for omega in (symplectic, complex_gaussian_form(rng, dim)):
            power_check = is_c_symplectic_power(omega)
            reference = pairing_chain_reference(omega)
            if dim == 4:
                assert power_check.pairing_norm == reference
            else:
                assert power_check.pairing_norm == pytest.approx(reference, rel=1e-12, abs=0)
            assert power_check.power_norm == power(omega, dim // 4 + 1).norm()


@pytest.fixture
def wedge_work(monkeypatch):
    """[wedge_scatter calls, products, np.linalg.svd calls] while the test runs."""
    work = [0, 0, 0]
    scatter, svd = kernels.wedge_scatter, np.linalg.svd

    def counting_scatter(ix, iy, sign, x, y):
        work[0] += 1
        work[1] += len(ix)
        return scatter(ix, iy, sign, x, y)

    def counting_svd(*args, **kwargs):
        work[2] += 1
        return svd(*args, **kwargs)

    monkeypatch.setattr(kernels, "wedge_scatter", counting_scatter)
    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    return work


@pytest.mark.parametrize("dim, wedges, products", [(4, 2, 9), (8, 3, 420), (12, 4, 10_494)])
def test_power_criterion_builds_omega_n_once_and_makes_no_rank_decision(wedge_work, dim, wedges, products):
    # Omega^2 .. Omega^{n+1} by the first-row table, C(dim, 2k + 2) outputs
    # of 2k + 1 products each, and the pairing by the full 2n ^ 2n table
    omega = ComplexTwoForm(random_c_symplectics([np.random.default_rng(dim)], dim)[0][0])
    wedge_work[:] = [0, 0, 0]
    assert is_c_symplectic_power(omega).ok
    assert wedge_work == [wedges, products, 0]


def power_chain_reference(omega):
    """The per-form wedge chain that ``power_verdicts`` replaced: Omega^n by
    n - 1 full-table wedges with Omega, then Omega^{n+1} = Omega^n ^ Omega and
    the pairing Omega^n ^ conj(Omega^n)."""
    m = omega.dim
    if m % 4 or not m:
        return PowerCriterion(False, "dimension not 4n", -1.0, -1.0, omega.norm())
    n = m // 4
    scale = omega.norm()
    if scale == 0.0:
        return PowerCriterion(False, "zero form", 0.0, 0.0, 0.0)
    omega_n = omega.to_kform()
    for _ in range(n - 1):
        omega_n = wedge(omega_n, omega)
    top_power = wedge(omega_n, omega).norm()
    pairing_norm = wedge(omega_n, ComplexKForm(m, 2 * n, omega_n.coeffs.conj())).norm()
    power_ok = top_power <= DEFAULT_TOL * scale ** (n + 1)
    pairing_ok = pairing_norm > DEFAULT_TOL * scale ** (2 * n)
    if not power_ok:
        reason = "Omega^{n+1} != 0"
    elif not pairing_ok:
        reason = "(Omega ^ conj Omega)^n = 0"
    else:
        reason = ""
    return PowerCriterion(power_ok and pairing_ok, reason, top_power, pairing_norm, scale)


def assert_power_verdicts_are_the_reference(forms):
    """Each form's stacked power verdict has the reference's verdict, reason
    and form norm, exactly typed, and norms within 1e-12 of |Omega|^{n+1}
    and |Omega|^{2n}.  Returns the reference verdicts."""
    verdicts = power_verdicts(np.stack([omega.matrix for omega in forms]))
    references = []
    for i, omega in enumerate(forms):
        got, expected = verdicts.criterion(i), power_chain_reference(omega)
        assert [type(value) for value in dataclasses.astuple(got)] == [bool, str, float, float, float]
        assert (got.ok, got.reason, got.form_norm) == (expected.ok, expected.reason, expected.form_norm)
        n, scale = omega.dim // 4, expected.form_norm
        if omega.dim % 4 or scale == 0.0:
            assert got == expected
        else:
            assert abs(got.power_norm - expected.power_norm) <= 1e-12 * scale ** (n + 1)
            assert abs(got.pairing_norm - expected.pairing_norm) <= 1e-12 * scale ** (2 * n)
        references.append(expected)
    return references


@pytest.mark.parametrize("dim", [4, 8, 12])
def test_power_verdicts_are_the_wedge_chain_on_oracle_and_mixed_forms(dim):
    forms = list(oracle_forms(dim))
    rngs = [np.random.default_rng([dim, 2000 + i]) for i in range(60)]
    forms += list(map(ComplexTwoForm, suites.mixed_two_forms(rngs, dim)))
    references = assert_power_verdicts_are_the_reference(forms)
    reasons = {reference.reason for reference in references}
    assert reasons == {"", "Omega^{n+1} != 0", "(Omega ^ conj Omega)^n = 0"}


def test_power_verdicts_are_the_wedge_chain_on_zero_and_dim_six_forms():
    zero = ComplexTwoForm(np.zeros((8, 8)))
    six = complex_gaussian_form(np.random.default_rng(6), 6)
    empty = ComplexTwoForm(np.zeros((0, 0)))
    assert [reference.reason for reference in assert_power_verdicts_are_the_reference([zero])] == ["zero form"]
    for form in (six, empty):
        assert [reference.reason for reference in assert_power_verdicts_are_the_reference([form])] == ["dimension not 4n"]
    for form in (zero, six, empty):
        assert is_c_symplectic_power(form) == power_chain_reference(form)


def verdict_bits(verdicts, i):
    return tuple(np.asarray(field[i]).tobytes() for field in verdicts)


@pytest.mark.parametrize("dim", [4, 8, 12])
def test_a_forms_power_verdict_in_a_stack_is_its_verdict_alone(dim):
    stack = suites.mixed_two_forms([np.random.default_rng([dim, 3000 + i]) for i in range(500)], dim)
    alone = [verdict_bits(power_verdicts(stack[i : i + 1]), 0) for i in range(len(stack))]
    for size in (1, 7, 500):
        for order in (slice(None), slice(None, None, -1)):
            part = np.arange(size)[order]
            verdicts = power_verdicts(stack[part])
            assert [verdict_bits(verdicts, j) for j in range(size)] == [alone[i] for i in part]
    assert alone[0] == verdict_bits(power_verdicts(stack), 0)
    assert 0 < power_verdicts(stack).ok.sum() < len(stack)


def test_power_blocks_hold_at_most_block_products_and_coefficients(monkeypatch):
    # a 500-form dim-12 stack takes 500 * 10,494 products, each gathering
    # one coefficient of either operand; no gather, operand or intermediate
    # power of a chunk exceeds kernels.BLOCK entries
    gathers, operands, take, scatter = [], [], np.take, kernels.wedge_scatter

    def counting_take(values, indices, *args, **kwargs):
        gathers.append(len(values) * len(indices))
        return take(values, indices, *args, **kwargs)

    def sized_scatter(ix, iy, sign, x, y):
        out = scatter(ix, iy, sign, x, y)
        operands.extend([x.size, y.size, out.size])
        return out

    omegas = suites.mixed_two_forms([np.random.default_rng([12, i]) for i in range(500)], 12)
    monkeypatch.setattr(np, "take", counting_take)
    monkeypatch.setattr(kernels, "wedge_scatter", sized_scatter)
    power_verdicts(omegas)
    assert sum(gathers) == 2 * 500 * 10_494
    assert max(gathers) <= kernels.BLOCK
    assert max(operands) <= kernels.BLOCK


@pytest.mark.parametrize("dim", [4, 8, 12])
def test_pairing_decides_every_mixture_kind_far_from_its_bound(dim):
    ratios = {}
    omegas = list(map(ComplexTwoForm, suites.mixed_two_forms([np.random.default_rng([dim, i]) for i in range(60)], dim)))
    for i, omega in enumerate(omegas):
        kind = int(np.random.default_rng([dim, i]).integers(5))
        power_check = is_c_symplectic_power(omega)
        ratio = power_check.pairing_norm / (DEFAULT_TOL * power_check.form_norm ** (dim // 2))
        ratios.setdefault(kind, []).append(ratio)
        if kind in (2, 3):  # Gaussian skew forms fail before the pairing check
            assert power_check.reason == "Omega^{n+1} != 0"
        elif kind == 4:  # real forms of rank 2n reach it
            assert power_check.reason == "(Omega ^ conj Omega)^n = 0"
    assert sorted(ratios) == [0, 1, 2, 3, 4]
    assert max(ratios[4]) < 1e-3
    assert min(ratios[0] + ratios[1]) > 1e3


# -- induced structure --------------------------------------------------------


def test_stacked_verdict_matches_the_single_form_path():
    for dim in (4, 8, 12):
        stack = suites.mixed_two_forms([np.random.default_rng([dim, i]) for i in range(150)], dim)
        forms = list(map(ComplexTwoForm, stack))
        structures, _ = induced_structures(stack)
        ok = ~np.isnan(structures).any(axis=(-1, -2))
        assert ok.tolist() == [is_c_symplectic_rank(omega).ok for omega in forms]
        assert 0 < ok.sum() < len(forms)
        for omega, structure, passed in zip(forms, structures, ok):
            if passed:
                assert np.max(np.abs(structure - induced_complex_structure(omega).matrix)) <= 1e-12
            else:
                assert np.isnan(structure).all()


def undeduplicated_induced_structures(omegas):
    """``induced_structures`` deciding every form, repeated or not: the reference."""
    m = omegas.shape[-1]
    half = m // 2
    _, s, vh = np.linalg.svd(omegas)
    kernels = np.swapaxes(vh[..., half:, :].conj(), -1, -2)
    ok = (numerical_rank(s) == m - half) & (real_span_rank(kernels) == m)
    real, square, linearity = structures_from_forms(omegas[ok])
    passed = _structure_accepted(square, linearity)
    structures = np.full(omegas.shape, np.nan)
    structures[ok] = np.where(passed[:, None, None], real, np.nan)
    ok[ok] = passed
    return structures, ok


def repeated_stack(rng, forms, count):
    return np.stack([omega.matrix for omega in forms])[rng.integers(len(forms), size=count)]


def signed_zero_pair():
    negative = Q_BLOCK.copy()
    negative[1, 1] = complex(0.0, -0.0)
    return np.stack([Q_BLOCK, negative])


def stacked_cases():
    from csympl.torus import TorusGrid, closed_control_form

    rng = np.random.default_rng(15)
    passing = [ComplexTwoForm(random_c_symplectics([rng], 8)[0][0]) for _ in range(5)]
    # kinds 0-1 pass, kinds 2-4 fail and get NaN structures
    mixed = list(map(ComplexTwoForm, suites.mixed_two_forms([np.random.default_rng([4, i]) for i in range(40)], 4)))
    return {
        "repeated-c-symplectic": repeated_stack(rng, passing, 300),
        "repeated-mixed": repeated_stack(rng, mixed, 300),
        "signed-zeros": signed_zero_pair(),
        "empty": np.zeros((0, 4, 4), dtype=np.complex128),
        "torus-batch": Q_BLOCK + 0.5 * closed_control_form(TorusGrid(16), amplitude=0.2),
    }


@pytest.mark.parametrize("omegas", [pytest.param(v, id=k) for k, v in stacked_cases().items()])
def test_stacked_verdict_is_bitwise_the_undeduplicated_one(omegas):
    structures, _ = induced_structures(omegas)
    ok = ~np.isnan(structures).any(axis=(-1, -2))
    expected, expected_ok = undeduplicated_induced_structures(omegas)
    assert structures.shape == omegas.shape and ok.shape == omegas.shape[:-2]
    assert np.array_equal(structures, expected, equal_nan=True)
    assert structures.tobytes() == expected.tobytes()
    assert np.array_equal(ok, expected_ok)
    assert np.isnan(structures[~ok]).all()


def section_field_stack():
    """The grid-64 section form's t = -1 stack, 4096 distinct nodes."""
    cfg = suites.SuiteConfig(suite="testbed-nijenhuis", grid_n=64)
    return Q_BLOCK + complex(-1.0) * suites.testbed_inputs(cfg)[1][64]


@pytest.mark.parametrize(
    "omegas",
    [pytest.param(v, id=k) for k, v in stacked_cases().items()] + [pytest.param(section_field_stack(), id="grid-64")],
)
def test_chunked_verdict_is_bitwise_the_undeduplicated_one(omegas, monkeypatch):
    import threading

    expected, _ = undeduplicated_induced_structures(omegas)
    expected_verdicts = rank_verdicts(omegas.reshape(-1, *omegas.shape[-2:]))
    decide, threads = csymplectic._decide_distinct, []

    def recording(chunk):
        threads.append(threading.get_ident())
        return decide(chunk)

    monkeypatch.setattr(csymplectic, "_decide_distinct", recording)
    for chunk in (1, 7):
        for cpus in (1, 3):
            threads.clear()
            monkeypatch.setattr(csymplectic, "CHUNK", chunk)
            monkeypatch.setattr(csymplectic, "_cpu_count", lambda: cpus)
            structures, verdicts = induced_structures(omegas)
            assert structures.tobytes() == expected.tobytes()
            assert [field.tobytes() for field in verdicts] == [field.tobytes() for field in expected_verdicts]
            # one CPU or one chunk runs on the calling thread alone, else the pool shares the chunks
            assert threading.get_ident() in threads
            assert (len(set(threads)) == 1) == (cpus == 1 or len(threads) == 1)


def hash_every_row_alike(monkeypatch):
    monkeypatch.setattr(csymplectic, "_hash_multipliers", lambda words: np.zeros(words, dtype=np.uint64))


@pytest.mark.parametrize(
    "omegas",
    [pytest.param(v, id=k) for k, v in stacked_cases().items()] + [pytest.param(section_field_stack(), id="grid-64")],
)
def test_grouping_does_not_depend_on_the_hash(omegas, monkeypatch):
    hash_every_row_alike(monkeypatch)  # only the word comparison tells rows apart
    expected, _ = undeduplicated_induced_structures(omegas)
    expected_verdicts = rank_verdicts(omegas.reshape(-1, *omegas.shape[-2:]))
    structures, verdicts = induced_structures(omegas)
    assert structures.tobytes() == expected.tobytes()
    assert [field.tobytes() for field in verdicts] == [field.tobytes() for field in expected_verdicts]


def nan_payload_stack():
    """Two NaN matrices whose payloads differ, each repeated, around the signed-zero pair."""
    quiet, other = Q_BLOCK.copy(), Q_BLOCK.copy()
    quiet.view(np.uint64)[0] = 0x7FF8000000000001
    other.view(np.uint64)[0] = 0x7FF8000000000002
    return np.stack([quiet, other, quiet, *signed_zero_pair(), other])


@pytest.mark.parametrize("alike", [False, True], ids=["hashed", "every-row-alike"])
def test_groups_hold_only_bitwise_equal_matrices(alike, monkeypatch):
    if alike:
        hash_every_row_alike(monkeypatch)
    stack = nan_payload_stack()
    groups = csymplectic._repeat_groups(stack)
    if alike:  # no two neighbours in index order are equal, so nothing is grouped
        assert groups is None
    else:
        first, inverse = groups
        assert first.tolist() == [0, 1, 3, 4] and inverse.tolist() == [0, 1, 0, 2, 3, 1]
        assert stack[first][inverse].tobytes() == stack.tobytes()


def test_a_stack_without_repeats_is_decided_with_no_gather_or_scatter(monkeypatch):
    omegas = section_field_stack()
    decide, chunks, groups = csymplectic._decide_distinct, [], []
    repeat_groups = csymplectic._repeat_groups
    monkeypatch.setattr(csymplectic, "_decide_distinct", lambda chunk: chunks.append(chunk) or decide(chunk))
    monkeypatch.setattr(csymplectic, "_repeat_groups", lambda flat: groups.append(repeat_groups(flat)) or groups[-1])
    induced_structures(omegas)
    assert groups == [None] and len(chunks) == 4096 // csymplectic.CHUNK
    assert all(np.shares_memory(chunk, omegas) for chunk in chunks)  # views of the caller's stack


def test_a_postcondition_in_a_worker_chunk_reaches_the_caller(monkeypatch):
    import threading

    solve, caller = csymplectic.structures_from_forms, threading.get_ident()

    def failing_solve(omegas):  # raises in the pool's chunks only
        if threading.get_ident() == caller:
            return solve(omegas)
        raise PostconditionError("raised in a worker chunk")

    monkeypatch.setattr(csymplectic, "CHUNK", 1)
    monkeypatch.setattr(csymplectic, "_cpu_count", lambda: 3)
    monkeypatch.setattr(csymplectic, "structures_from_forms", failing_solve)
    with pytest.raises(PostconditionError, match="raised in a worker chunk"):
        induced_structures(np.stack([Q_BLOCK, 2 * Q_BLOCK, 3 * Q_BLOCK]))


def test_concurrent_callers_share_one_pool_and_keep_their_bits(monkeypatch):
    import concurrent.futures
    import sys
    import threading
    import time

    stacks = list(stacked_cases().values())
    expected = [undeduplicated_induced_structures(omegas)[0].tobytes() for omegas in stacks]
    pools, executor = [], concurrent.futures.ThreadPoolExecutor

    def slow_executor(**kwargs):  # widens the window between finding no pool and storing one
        time.sleep(0.01)
        pools.append(executor(**kwargs))
        return pools[-1]

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", slow_executor)
    monkeypatch.setattr(csymplectic, "_pool", [])
    monkeypatch.setattr(csymplectic, "CHUNK", 7)
    monkeypatch.setattr(csymplectic, "_cpu_count", lambda: 3)
    got, start = {}, threading.Barrier(3 * len(stacks))

    def call(i):
        start.wait(timeout=60)
        got[i] = induced_structures(stacks[i % len(stacks)])[0].tobytes()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=call, args=(i,)) for i in range(3 * len(stacks))]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
        for pool in pools:
            pool.shutdown()
    assert not any(caller.is_alive() for caller in callers)
    assert len(pools) == 1
    assert got == {i: expected[i % len(stacks)] for i in range(3 * len(stacks))}


def test_small_runs_never_import_concurrent_futures(tmp_path):
    import os
    import subprocess
    import sys
    from pathlib import Path

    import csympl

    package_root = str(Path(csympl.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    script = (
        "import sys\n"
        "from csympl.cli import main\n"
        "for suite in ('criteria-equivalence', 'induced-structure'):\n"
        "    main(['run', '--suite', suite, '--dims', '4,8', '--n', '5', '--out', suite + '.json'])\n"
        "print('concurrent.futures' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=pythonpath),
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "False"


def single_form_structure(omega):
    """The per-form kernel path that ``induced_structures`` replaced, as the
    reference: the reference rank criterion, ``form_kernel``'s basis and
    ``kernel_structures_reference``; None where that path raised."""
    if not rank_criterion_reference(omega):
        return None
    real, accepted = kernel_structures_reference(omega.matrix, form_kernel(omega).subspace.basis)
    return real if accepted else None


def solved_structure(omega):
    """One form decided on its own: the reference rank criterion, then
    ``structures_from_forms`` on that form alone and the acceptance; None
    where ``induced_complex_structure`` raises."""
    if not rank_criterion_reference(omega):
        return None
    real, *residuals = structures_from_forms(omega.matrix)
    return real if _structure_accepted(*residuals) else None


def oracle_forms(dim):
    """A c-symplectic form, a form with a known structure and a mixed form
    per seed [dim, i], each drawn from its own generator."""

    def rngs():
        return [np.random.default_rng([dim, i]) for i in range(40)]

    draws = (random_c_symplectics(rngs(), dim)[0], suites._structures_with_forms(rngs(), dim)[1])
    for triple in zip(*draws, suites.mixed_two_forms(rngs(), dim)):
        yield from map(ComplexTwoForm, np.stack(triple))


@pytest.mark.parametrize("dim", [4, 8, 12])
def test_induced_structure_is_bitwise_the_single_form_path(dim):
    failures = 0
    for omega in oracle_forms(dim):
        expected = solved_structure(omega)
        if expected is None:
            failures += 1
            with pytest.raises(ValueError, match="rank criterion"):
                induced_complex_structure(omega)
        else:
            assert induced_complex_structure(omega).matrix.tobytes() == expected.tobytes()
    assert 0 < failures < 40


@pytest.mark.parametrize("dim", [4, 8])
def test_family_structures_are_bitwise_the_single_form_path(dim):
    from csympl.deformation import DEFAULT_T_SAMPLES, DeformationFamily, decide_members, random_base_forms

    for i in range(20):
        rng = np.random.default_rng([dim, i])
        space = CSymplecticSpace.from_forms(random_c_symplectics([rng], dim)[0])
        projection = LagrangianProjection.build_many(space, suites.random_lagrangians(space, [rng]))
        family = DeformationFamily.build_many(projection, random_base_forms(projection, [rng], scale=0.5))
        (forms,), (structures,) = decide_members(family, [DEFAULT_T_SAMPLES])
        assert len(structures) == len(DEFAULT_T_SAMPLES)
        for form, structure in zip(map(ComplexTwoForm, forms), structures):
            assert structure.tobytes() == solved_structure(form).tobytes()


def assert_structures_are_the_kernel_prescription(omegas):
    """Stacked ``induced_structures`` fail exactly where the rank verdict or
    the kernel reference rejects, and elsewhere agree with the reference
    within 1e-10 max(1, |I|).  Returns where they pass."""
    structures, verdicts = induced_structures(omegas)
    half, ok = omegas.shape[-1] // 2, verdicts.ok
    kernels = np.swapaxes(np.linalg.svd(omegas[ok])[2][:, half:].conj(), -1, -2)
    expected, accepted = kernel_structures_reference(omegas[ok], kernels)
    assert np.isnan(structures[ok]).any(axis=(-2, -1)).tolist() == (~accepted).tolist()
    assert np.isnan(structures[~ok]).all()
    got, expected = structures[ok][accepted], expected[accepted]
    assert (stack_max(got - expected) <= 1e-10 * np.maximum(1.0, stack_max(got))).all()
    passed = ok.copy()
    passed[ok] = accepted
    return passed


@pytest.mark.parametrize("dim", [4, 8, 12])
def test_induced_structures_agree_with_the_kernel_prescription(dim):
    forms = list(oracle_forms(dim))
    accepted = assert_structures_are_the_kernel_prescription(np.stack([omega.matrix for omega in forms]))
    assert accepted.tolist() == [single_form_structure(omega) is not None for omega in forms]
    assert 80 < accepted.sum() < len(forms)


def test_section_field_structures_agree_with_the_kernel_prescription():
    assert assert_structures_are_the_kernel_prescription(section_field_stack().reshape(-1, 4, 4)).all()


@pytest.mark.parametrize("dim", [4, 8])
def test_failing_forms_are_never_solved(dim):
    omegas = suites.mixed_two_forms([np.random.default_rng([dim, i]) for i in range(200)], dim)
    with pytest.raises(np.linalg.LinAlgError):
        structures_from_forms(omegas)  # the unmasked solve of this stack raises
    structures, verdicts = induced_structures(omegas)
    failed = np.isnan(structures).any(axis=(-2, -1))
    assert np.isnan(structures[~verdicts.ok]).all()
    assert 0 < (~failed).sum() and failed.tolist() == (~verdicts.ok).tolist()
    for omega, structure in zip(omegas[~failed], structures[~failed]):
        assert structure.tobytes() == induced_structures(omega[None])[0][0].tobytes()


def test_signed_zero_forms_decide_differently():
    # so value keys, which would merge the pair, would change a node's bits
    structures, ok = undeduplicated_induced_structures(signed_zero_pair())
    assert ok.all() and structures[0].tobytes() != structures[1].tobytes()


def test_induced_structure_on_q_block():
    structure = induced_complex_structure(q_block_form(1))
    expected = STANDARD_J.matrix
    assert np.allclose(structure.matrix, expected, atol=1e-12)
    # Omega(I u, v) = i Omega(u, v) entrywise
    q = q_block_form(1).matrix
    assert np.allclose(structure.matrix.T @ q, 1j * q, atol=1e-12)


def test_induced_structure_recovers_standard_j():
    assert np.allclose(
        induced_complex_structure(dz1_wedge_dz2()).matrix, STANDARD_J.matrix, atol=1e-12
    )


def test_induced_structure_equivariance():
    rng = np.random.default_rng(2)
    q = q_block_form(1)
    base = induced_complex_structure(q).matrix
    for _ in range(10):
        p = rng.standard_normal((4, 4))
        while np.linalg.cond(p) > 100:
            p = rng.standard_normal((4, 4))
        pulled = ComplexTwoForm(p.T @ q.matrix @ p)
        conjugated = np.linalg.inv(p) @ base @ p
        assert np.allclose(induced_complex_structure(pulled).matrix, conjugated, atol=1e-10)


def test_induced_structure_scaling_invariance():
    rng = np.random.default_rng(3)
    omega = ComplexTwoForm(random_c_symplectics([rng], 8)[0][0])
    base = induced_complex_structure(omega).matrix
    for _ in range(20):
        lam = complex(rng.standard_normal(), rng.standard_normal())
        if abs(lam) < 1e-3:
            continue
        scaled = induced_complex_structure(omega * lam).matrix
        assert np.max(np.abs(scaled - base)) < 1e-9


def test_induced_structure_rejects_with_named_criterion():
    form = ComplexTwoForm(np.zeros((4, 4)))
    with pytest.raises(ValueError, match="rank criterion"):
        induced_complex_structure(form)


def test_induced_structure_against_least_squares_oracle():
    # independent construction: solve I^T [A | conj A] = [iA | -i conj A]
    rng = np.random.default_rng(4)
    omega = ComplexTwoForm(random_c_symplectics([rng], 8)[0][0])
    a = omega.matrix
    lhs = np.hstack([a, a.conj()])
    rhs = np.hstack([1j * a, -1j * a.conj()])
    solution = np.linalg.lstsq(lhs.T, rhs.T, rcond=None)[0]
    assert np.max(np.abs(solution.imag)) < 1e-9
    structure = induced_complex_structure(omega)
    assert np.max(np.abs(structure.matrix - solution.real)) < 1e-9


# -- hodge decomposition -------------------------------------------------------


def test_hodge_pure_20():
    comps = hodge_decompose(dz1_wedge_dz2(), STANDARD_J)
    assert comps[(2, 0)].isclose(dz1_wedge_dz2().to_kform(), tol=1e-12)
    assert comps[(1, 1)].is_zero(1e-12) and comps[(0, 2)].is_zero(1e-12)


def test_hodge_pure_11():
    # dz1 ^ conj(dz1) = -2i dx1 ^ dy1
    form = ComplexKForm.from_dict(4, 2, {(0, 1): -2j})
    comps = hodge_decompose(ComplexTwoForm.from_kform(form), STANDARD_J)
    assert comps[(1, 1)].isclose(form, tol=1e-12)
    assert comps[(2, 0)].is_zero(1e-12) and comps[(0, 2)].is_zero(1e-12)


def test_hodge_of_e13_exact_components():
    # brute-force projector values for dx1 ^ dx2 under the standard structure
    form = ComplexKForm.from_dict(4, 2, {(0, 2): 1.0})
    comps = hodge_decompose(ComplexTwoForm.from_kform(form), STANDARD_J)
    quarter_dz12 = ComplexKForm.from_dict(
        4, 2, {(0, 2): 0.25, (0, 3): 0.25j, (1, 2): 0.25j, (1, 3): -0.25}
    )
    half_mixed = ComplexKForm.from_dict(4, 2, {(0, 2): 0.5, (1, 3): 0.5})
    assert comps[(2, 0)].isclose(quarter_dz12, tol=1e-12)
    assert comps[(1, 1)].isclose(half_mixed, tol=1e-12)
    reassembled = comps[(2, 0)] + comps[(1, 1)] + comps[(0, 2)]
    assert reassembled.isclose(form, tol=1e-13)


def test_hodge_components_transform_with_weight():
    rng = np.random.default_rng(5)
    form = ComplexKForm(4, 2, rng.standard_normal(6) + 1j * rng.standard_normal(6))
    comps = hodge_decompose(ComplexTwoForm.from_kform(form), STANDARD_J)
    for (p, q), comp in comps.items():
        rotated = pullback(STANDARD_J.matrix, comp)
        assert rotated.isclose(comp * (1j) ** (p - q), tol=1e-11) or comp.is_zero(1e-12)


def test_hodge_idempotent():
    rng = np.random.default_rng(6)
    form = ComplexKForm(4, 2, rng.standard_normal(6) + 1j * rng.standard_normal(6))
    comps = hodge_decompose(ComplexTwoForm.from_kform(form), STANDARD_J)
    again = hodge_decompose(ComplexTwoForm.from_kform(comps[(1, 1)]), STANDARD_J)
    assert again[(1, 1)].isclose(comps[(1, 1)], tol=1e-12)
    assert again[(2, 0)].is_zero(1e-12) and again[(0, 2)].is_zero(1e-12)



def pullback_average(a: ComplexKForm, structure: ComplexStructure) -> dict:
    """Reference (p, q) split: Fourier-weighted pullbacks along exp(theta I)."""
    k = a.degree
    thetas = [2 * np.pi * j / (2 * k + 2) for j in range(2 * k + 2)]
    rotated = [pullback(structure.rotation(theta), a).coeffs for theta in thetas]
    return {
        (p, k - p): sum(np.exp(-1j * (2 * p - k) * t) * r for t, r in zip(thetas, rotated)) / len(thetas)
        for p in range(k + 1)
    }


@pytest.mark.parametrize("dim", [4, 8, 12])
def test_hodge_projector_split_matches_pullback_average(dim):
    rng = np.random.default_rng(dim)
    count = dim * (dim - 1) // 2
    for _ in range(5):
        structure = induced_complex_structure(ComplexTwoForm(random_c_symplectics([rng], dim)[0][0]))
        form = ComplexKForm(dim, 2, rng.standard_normal(count) + 1j * rng.standard_normal(count))
        comps = hodge_decompose(ComplexTwoForm.from_kform(form), structure)
        reference = pullback_average(form, structure)
        assert list(comps) == list(reference)
        for key, coeffs in reference.items():
            assert np.max(np.abs(comps[key].coeffs - coeffs)) <= 1e-12 * np.max(np.abs(coeffs))


def test_hodge_takes_two_forms_only():
    rng = np.random.default_rng(7)
    structure = induced_complex_structure(ComplexTwoForm(random_c_symplectics([rng], 8)[0][0]))
    form = ComplexKForm(8, 3, rng.standard_normal(56) + 1j * rng.standard_normal(56))
    with pytest.raises(ValueError, match="2-forms"):
        hodge_decompose(ComplexTwoForm.from_kform(form), structure)



# -- canonical basis -------------------------------------------------------------


def test_basis_of_q_block_is_identity():
    b = c_symplectic_basis(q_block_form(1))
    assert np.allclose(b, np.eye(4), atol=1e-12)


def test_basis_of_double_q_block_leads_with_identity():
    # pivoting picks the first coordinates, so the leading block is exact
    q2 = q_block_form(2)
    b = c_symplectic_basis(q2)
    assert np.allclose(b[:, :4], np.eye(8)[:, :4], atol=1e-10)
    assert np.max(np.abs(b.T @ q2.matrix @ b - q2.matrix)) < 1e-10


def test_basis_for_pulled_back_q():
    rng = np.random.default_rng(7)
    q = q_block_form(1)
    p = rng.standard_normal((4, 4))
    pulled = ComplexTwoForm(p.T @ q.matrix @ p)
    b = c_symplectic_basis(pulled)
    assert np.max(np.abs(b.T @ pulled.matrix @ b - q.matrix)) < 1e-10


@pytest.mark.parametrize("dim", [4, 8, 12])
def test_basis_residuals_random_instances(dim):
    target = q_block_form(dim // 4).matrix
    for i in range(10):
        rng = np.random.default_rng([dim, i])
        omega = ComplexTwoForm(random_c_symplectics([rng], dim)[0][0])
        b = c_symplectic_basis(omega)
        residual = np.max(np.abs(b.T @ omega.matrix @ b - target)) / omega.norm()
        assert residual < 1e-8


def test_basis_rejects_non_c_symplectic():
    with pytest.raises(ValueError):
        c_symplectic_basis(ComplexTwoForm(np.zeros((4, 4))))


def test_basis_residual_check_raises_postcondition_error(monkeypatch):
    # a target the basis cannot meet forces the final residual check
    omega = q_block_form(1)
    monkeypatch.setattr(csymplectic, "q_block_form", lambda n: 2.0 * omega)
    with pytest.raises(PostconditionError, match="basis residual"):
        c_symplectic_basis(omega)


def per_block_basis_reference(omega):
    """The Gram-Schmidt that ``c_symplectic_bases`` replaced: one form at a
    time, deciding every shrinking block's sub-form structure on its own by
    ``induced_complex_structure``."""
    m = omega.dim
    carrier = np.eye(m)
    columns = []
    while carrier.shape[1] > 0:
        a_cur = ComplexTwoForm(carrier.T @ omega.matrix @ carrier)
        structure = induced_complex_structure(a_cur).matrix
        u1 = np.zeros(a_cur.dim)
        u1[int(np.argmax(np.linalg.norm(a_cur.matrix, axis=1)))] = 1.0
        pairings = u1 @ a_cur.matrix
        j = int(np.argmax(np.abs(pairings)))
        x = np.zeros(a_cur.dim)
        x[j] = 1.0
        z = 1.0 / pairings[j]
        u2 = z.real * x + z.imag * (structure @ x)
        columns.append(carrier @ np.column_stack([u1, structure @ u1, u2, structure @ u2]))
        a_u1, a_u2 = a_cur.matrix @ u1, a_cur.matrix @ u2
        carrier = carrier @ null_space(np.vstack([a_u1.real, a_u1.imag, a_u2.real, a_u2.imag]))
    return np.hstack(columns)


@pytest.mark.parametrize("dim", [4, 8, 12])
def test_bases_in_stacks_of_seven_are_each_form_alone_bit_for_bit(dim):
    stack = random_c_symplectics([np.random.default_rng([41, dim, i]) for i in range(100)], dim)[0]
    omegas = list(map(ComplexTwoForm, stack))
    bases = np.concatenate([c_symplectic_bases(stack[start : start + 7]) for start in range(0, 100, 7)])
    target = q_block_form(dim // 4).matrix
    for omega, b in zip(omegas, bases):
        assert b.tobytes() == c_symplectic_basis(omega).tobytes()
        assert np.max(np.abs(b.T @ omega.matrix @ b - target)) / omega.norm() <= 1e-8
        # the first block uses the form's own structure, as the per-block
        # loop did; later blocks may take another null-space basis
        assert b[:, :4].tobytes() == per_block_basis_reference(omega)[:, :4].tobytes()


def test_bases_of_no_forms_raise_a_value_error():
    with pytest.raises(ValueError, match="no forms to build canonical bases for"):
        c_symplectic_bases(np.zeros((0, 8, 8), dtype=complex))


def test_bases_raise_for_a_carrier_that_is_not_invariant(monkeypatch):
    # the structure of another form leaves the first complement non-invariant
    rngs = [np.random.default_rng(43), np.random.default_rng(44)]
    omega, other = map(ComplexTwoForm, random_c_symplectics(rngs, 8)[0])
    accept = csymplectic.accepted_structures
    monkeypatch.setattr(csymplectic, "accepted_structures", lambda omegas: accept(other.matrix[None]))
    with pytest.raises(PostconditionError, match="carrier is not I-invariant"):
        c_symplectic_bases(omega.matrix[None])


def test_bases_raise_when_the_block_conditions_lose_rank(monkeypatch):
    # at dim 8 only the block conditions have four singular values
    rank = csymplectic.numerical_rank
    monkeypatch.setattr(csymplectic, "numerical_rank", lambda s, tol=DEFAULT_TOL: rank(s, tol) - (s.shape[-1] == 4))
    with pytest.raises(PostconditionError, match="block conditions have rank 3, not 4"):
        c_symplectic_bases(random_c_symplectics([np.random.default_rng(45)], 8)[0])


# -- isotropic / Lagrangian -------------------------------------------------------


def test_span_u1_iu1_is_lagrangian():
    q = q_block_form(1)
    u_block = Subspace(np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0], [0.0, 0.0]]))
    assert is_c_isotropic(u_block, q)
    assert is_c_lagrangian(u_block, q)


def test_span_u1_u2_is_not_isotropic():
    q = q_block_form(1)
    u1_u2 = Subspace(np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0], [0.0, 0.0]]))
    assert not is_c_isotropic(u1_u2, q)  # Omega(u1, u2) = 1


def test_zero_subspace_is_isotropic():
    q = q_block_form(1)
    assert is_c_isotropic(Subspace(np.zeros((4, 0))), q)


def test_line_is_isotropic_but_not_lagrangian():
    q = q_block_form(1)
    line = Subspace(np.array([[1.0], [0.0], [0.0], [0.0]]))
    assert is_c_isotropic(line, q)
    assert not is_c_lagrangian(line, q)


def test_three_dims_not_lagrangian():
    q = q_block_form(1)
    three = Subspace(np.eye(4)[:, :3])
    assert not is_c_lagrangian(three, q)
    assert not is_c_isotropic(three, q)


@pytest.mark.parametrize("dim", [0, 2, 6, 7])
def test_lagrangians_need_a_form_on_r_4n(dim):
    with pytest.raises(ValueError, match="does not live on"):
        is_c_lagrangian(Subspace(np.zeros((dim, 0))), ComplexTwoForm(np.zeros((dim, dim))))


def test_hitchin_invariance_of_found_lagrangians():
    for dim in (4, 8):
        rngs = [np.random.default_rng([17, dim, i]) for i in range(20)]
        spaces = CSymplecticSpace.from_forms(random_c_symplectics(rngs, dim)[0])
        for structure, lag in zip(spaces.structures, suites.random_lagrangians(spaces, rngs)):
            q = Subspace(lag).orthonormal_basis()
            image = structure @ q
            residual = np.max(np.abs(image - q @ (q.T @ image)))
            assert residual < 1e-9 * max(1.0, np.max(np.abs(image)))


# -- quotient structure -------------------------------------------------------------


def test_quotient_structure_on_q_block():
    space = CSymplecticSpace.from_form(q_block_form(1))
    fiber = Subspace(np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    projection = LagrangianProjection.build(space, fiber)
    (quot,) = projection.quotients
    # complement model is span(u1, I u1); structure sends u1 -> I u1
    assert np.allclose(np.abs(quot), np.array([[0, 1], [1, 0]]), atol=1e-12)
    assert np.allclose(quot @ quot, -np.eye(2), atol=1e-12)
    (w_t,) = projection.maps
    assert np.allclose(w_t @ space.structures[0], quot @ w_t, atol=1e-12)


def test_quotient_structure_squares_to_minus_identity():
    rng = np.random.default_rng(8)
    space = CSymplecticSpace.from_forms(random_c_symplectics([rng], 8)[0])
    (quot,) = LagrangianProjection.build_many(space, suites.random_lagrangians(space, [rng])).quotients
    assert np.allclose(quot @ quot, -np.eye(4), atol=1e-10)


def test_quotient_structure_on_canonical_basis_fibers():
    # each canonical block contributes a fiber pair (u2, I u2); their span
    # is c-Lagrangian and supports the inherited structure
    rng = np.random.default_rng(11)
    omega = ComplexTwoForm(random_c_symplectics([rng], 8)[0][0])
    space = CSymplecticSpace.from_form(omega)
    b = c_symplectic_basis(omega)
    fiber = Subspace(b[:, [2, 3, 6, 7]])
    assert is_c_lagrangian(fiber, omega)
    projection = LagrangianProjection.build(space, fiber)
    (quot,) = projection.quotients
    (w_t,) = projection.maps
    assert np.max(np.abs(w_t @ space.structures[0] - quot @ w_t)) < 1e-9


def test_quotient_independent_of_complement_model():
    # any complement with the identification maps gives a conjugate structure
    rng = np.random.default_rng(9)
    space = CSymplecticSpace.from_forms(random_c_symplectics([rng], 8)[0])
    fiber = Subspace(suites.random_lagrangians(space, [rng])[0])
    projection = LagrangianProjection.build(space, fiber)
    (quot,) = projection.quotients
    w = projection.maps[0].T
    b = fiber.orthonormal_basis()
    other = w + b @ rng.standard_normal((4, 4))  # random complement of the fiber
    # identification K' -> V/L -> K is w^T restricted to K'
    ident = w.T @ other
    lifted = np.linalg.inv(ident)
    # structure transported from K: phi^{-1} I_quot phi where phi = w^T on K'
    transported = ident @ (lifted @ quot @ ident) @ lifted
    assert np.allclose(transported, quot, atol=1e-9)
    # the genuinely model-independent statement: pi(I v) = I_quot pi(v)
    probe = rng.standard_normal((8, 5))
    assert np.allclose(w.T @ space.structures[0] @ probe, quot @ (w.T @ probe), atol=1e-9)


def test_c_symplectic_space_caches_validated_data(monkeypatch):
    rng = np.random.default_rng(10)
    omega = ComplexTwoForm(random_c_symplectics([rng], 8)[0][0])
    space = CSymplecticSpace.from_form(omega)
    assert len(space) == 1 and space.omegas.tobytes() == omega.matrix.tobytes()
    validated = ComplexTwoForm(space.omegas[0])
    assert is_c_symplectic_rank(validated).ok and is_c_symplectic_power(validated).ok
    assert is_c_symplectic_rank(validated).kernel_dim == 4
    assert np.allclose(space.structures[0], induced_complex_structure(omega).matrix, atol=1e-12)
    # the rank failure is reported first, then the power failure
    with pytest.raises(ValueError, match=r"\(rank criterion\): kernel dimension 4 != 2"):
        CSymplecticSpace.from_form(ComplexTwoForm(np.zeros((4, 4))))
    monkeypatch.setattr(csymplectic, "power_verdicts", lambda omegas: power_verdicts(np.zeros_like(omegas)))
    with pytest.raises(ValueError, match=r"\(power criterion\): zero form"):
        CSymplecticSpace.from_form(omega)


def test_spaces_of_no_forms_raise_a_value_error():
    with pytest.raises(ValueError, match="no forms to validate"):
        CSymplecticSpace.from_forms([])


@pytest.mark.parametrize("build", [CSymplecticSpace.from_forms, c_symplectic_bases])
def test_stacked_builders_refuse_forms_on_r0(build):
    with pytest.raises(ValueError, match="^dim must be a positive multiple of 4, got 0$"):
        build(np.zeros((1, 0, 0), dtype=complex))


def test_spaces_refuse_forms_that_are_not_a_finite_stack_of_square_matrices():
    omegas = random_c_symplectics([np.random.default_rng(12 + i) for i in range(3)], 8)[0]
    with pytest.raises(ValueError, match="^forms must be a stack of square matrices$"):
        CSymplecticSpace.from_forms(omegas[0])
    with pytest.raises(ValueError, match="^forms must be a stack of square matrices$"):
        CSymplecticSpace.from_forms(omegas[:, :4])
    omegas[1, 2, 5] = np.nan  # the skew pass finds it, as ComplexTwoForm's did
    with pytest.raises(ValueError, match="entries must be finite$"):
        CSymplecticSpace.from_forms(omegas)
