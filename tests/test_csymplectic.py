"""Recognition criteria, induced structures, canonical bases, Lagrangians."""

import dataclasses

import numpy as np
import pytest

from csympl import csymplectic, kernels, suites
from csympl.csymplectic import (
    CSymplecticSpace,
    Q_BLOCK,
    RankCriterion,
    _structure_accepted,
    c_symplectic_basis,
    hodge_decompose,
    induced_complex_structure,
    induced_structures,
    is_c_isotropic,
    is_c_lagrangian,
    is_c_symplectic_power,
    is_c_symplectic_rank,
    q_block_form,
    random_c_symplectic,
    rank_verdicts,
    structures_from_kernels,
)
from csympl.deformation import LagrangianProjection
from csympl.forms import ComplexKForm, ComplexTwoForm, form_kernel, power, pullback, wedge
from csympl.linalg import DEFAULT_TOL, ComplexStructure, PostconditionError, Subspace, numerical_rank, real_span_rank

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


def test_dimension_not_multiple_of_four_rejected():
    form = ComplexTwoForm(np.zeros((6, 6)))
    rank = is_c_symplectic_rank(form)
    assert not rank.ok and rank.reason == "dimension not 4n"
    assert not is_c_symplectic_power(form).ok


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
    from csympl.suites import mixed_two_form

    for dim in (4, 8):
        for i in range(150):
            rng = np.random.default_rng([dim, i])
            omega = mixed_two_form(rng, dim)
            assert bool(is_c_symplectic_rank(omega)) == bool(is_c_symplectic_power(omega))


def test_criteria_agree_under_perturbations_off_the_boundary():
    # perturbations well above the rank threshold break both criteria,
    # perturbations well below it break neither
    rng = np.random.default_rng(21)
    omega, _ = random_c_symplectic(rng, 8)
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
    if m % 4:
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


def assert_verdicts_are_the_reference(forms):
    """Each form's stacked verdict, and ``is_c_symplectic_rank``, equal the
    reference in all five fields, with exactly typed values; each kernel
    whose dimension is m/2 is ``form_kernel``'s basis, bit for bit.
    Returns the reference verdicts."""
    verdicts = rank_verdicts(np.stack([omega.matrix for omega in forms]))
    references = []
    for i, omega in enumerate(forms):
        expected = rank_criterion_reference(omega)
        for got in (verdicts.criterion(i), is_c_symplectic_rank(omega)):
            assert got == expected
            assert [type(value) for value in dataclasses.astuple(got)] == [bool, str, int, int, bool]
        if expected.kernel_dim == omega.dim // 2:
            assert verdicts.kernels[i].tobytes() == form_kernel(omega).subspace.basis.tobytes()
        references.append(expected)
    return references


@pytest.mark.parametrize("dim", [4, 8, 12])
def test_rank_verdicts_are_the_per_form_path_on_mixed_forms(dim):
    forms = [suites.mixed_two_form(np.random.default_rng([dim, i]), dim) for i in range(200)]
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
        omega = random_c_symplectic(rng, dim)[0]
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


@pytest.mark.parametrize("dim", [2, 6, 7])
def test_rank_verdicts_are_the_per_form_path_off_multiples_of_four(dim):
    forms = [complex_gaussian_form(np.random.default_rng([dim, i]), dim) for i in range(5)]
    forms.append(ComplexTwoForm(np.zeros((dim, dim))))
    references = assert_verdicts_are_the_reference(forms)
    assert {reference.reason for reference in references} == {"dimension not 4n"}
    assert np.isnan(rank_verdicts(np.stack([omega.matrix for omega in forms])).kernels).all()


@pytest.mark.parametrize("dim", [4, 8, 12])
def test_a_forms_verdict_in_a_stack_is_its_verdict_alone(dim):
    forms = [suites.mixed_two_form(np.random.default_rng([dim, 1000 + i]), dim) for i in range(50)]
    stack = np.stack([omega.matrix for omega in forms])
    verdicts = rank_verdicts(stack)
    for i in range(len(forms)):
        alone = rank_verdicts(stack[i : i + 1])
        assert verdicts.criterion(i) == alone.criterion(0)
        assert verdicts.kernels[i].tobytes() == alone.kernels[0].tobytes()
    assert 0 < verdicts.ok.sum() < len(forms)


def test_empty_stack_has_no_verdicts():
    verdicts = rank_verdicts(np.zeros((0, 8, 8), dtype=np.complex128))
    assert [len(field) for field in verdicts] == [0, 0, 0, 0, 0]
    assert verdicts.kernels.shape == (0, 8, 4)


@pytest.mark.parametrize("scale", [1.5, np.nan])
def test_rank_verdicts_check_their_kernel_bases_are_orthonormal(scale, monkeypatch):
    svd = np.linalg.svd

    def scaled_svd(a, *args, **kwargs):
        u, s, vh = svd(a, *args, **kwargs)
        return u, s, vh * scale

    monkeypatch.setattr(np.linalg, "svd", scaled_svd)
    with pytest.raises(PostconditionError, match="not orthonormal"):
        rank_verdicts(np.stack([Q_BLOCK, 2 * Q_BLOCK]))
    with pytest.raises(PostconditionError, match="not orthonormal"):
        is_c_symplectic_rank(q_block_form(2))


def reference_criteria_sweep(cfg, power_verdicts):
    """``criteria-equivalence`` case by case: each form's rank verdict from
    the reference and its power verdict from ``power_verdicts``, by matrix
    bytes, folded into rows and a first failure as the sweep folds them."""
    rows, failure = [], None
    for dim in cfg.dims:
        failing = 0
        for index in range(cfg.samples):
            omega = suites.mixed_two_form(np.random.default_rng([cfg.seed, dim, index]), dim)
            rank, power = rank_criterion_reference(omega).ok, power_verdicts[omega.matrix.tobytes()]
            if rank != power:
                failing += 1
                if failure is None:
                    failure = suites._failure(cfg, "criteria-agree", dim, index, 1.0, f"rank={rank} power={power}")
        rows.append(suites._check_row("criteria-agree", dim, cfg.samples, failing, failing == 0, cfg.seed))
    return rows, failure


def recording_power(monkeypatch, fail_on=None):
    """Patch the suite's power criterion to record each form's verdict by its
    matrix bytes, and to fail the form whose bytes are ``fail_on``."""
    verdicts, power = {}, suites.is_c_symplectic_power

    def record(omega):
        verdict = power(omega)
        if omega.matrix.tobytes() == fail_on:
            verdict = dataclasses.replace(verdict, ok=False, reason="forced")
        verdicts[omega.matrix.tobytes()] = verdict.ok
        return verdict

    monkeypatch.setattr(suites, "is_c_symplectic_power", record)
    return verdicts


@pytest.mark.parametrize("seed", [0, 1, 7, 20260810])
def test_criteria_equivalence_is_the_per_case_sweep_at_acceptance_size(seed, monkeypatch):
    # the power verdicts are the suite's own, recorded, so that each of the
    # 1500 forms runs its wedge chain once; the rank verdicts and the folding
    # are the reference's
    cfg = suites.SuiteConfig(suite="criteria-equivalence", seed=seed)
    assert (cfg.dims, cfg.samples) == ((4, 8, 12), 500)
    power_verdicts = recording_power(monkeypatch)
    report = suites.run_suite(cfg)
    assert len(power_verdicts) == 1500
    assert (report.checks, report.failure_case) == reference_criteria_sweep(cfg, power_verdicts)


def test_a_forced_disagreement_replays_with_the_sweeps_detail(monkeypatch, capsys):
    cfg = suites.SuiteConfig(suite="criteria-equivalence", dims=(4, 8), samples=20, seed=1)
    forms = [suites.mixed_two_form(np.random.default_rng([1, 8, index]), 8) for index in range(20)]
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
        for omega in (random_c_symplectic(rng, dim)[0], complex_gaussian_form(rng, dim)):
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


@pytest.mark.parametrize("dim, wedges, products", [(4, 2, 12), (8, 3, 910), (12, 4, 31_614)])
def test_power_criterion_builds_omega_n_once_and_makes_no_rank_decision(wedge_work, dim, wedges, products):
    omega = random_c_symplectic(np.random.default_rng(dim), dim)[0]
    wedge_work[:] = [0, 0, 0]
    assert is_c_symplectic_power(omega).ok
    assert wedge_work == [wedges, products, 0]


@pytest.mark.parametrize("dim", [4, 8, 12])
def test_pairing_decides_every_mixture_kind_far_from_its_bound(dim):
    from csympl.suites import mixed_two_form

    ratios = {}
    for i in range(60):
        kind = int(np.random.default_rng([dim, i]).integers(5))
        omega = mixed_two_form(np.random.default_rng([dim, i]), dim)
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
    from csympl.suites import mixed_two_form

    for dim in (4, 8, 12):
        forms = [mixed_two_form(np.random.default_rng([dim, i]), dim) for i in range(150)]
        structures = induced_structures(np.stack([omega.matrix for omega in forms]))
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
    real, realness, square, linearity = structures_from_kernels(omegas[ok], kernels[ok])
    passed = _structure_accepted(realness, square, linearity)
    structures = np.full(omegas.shape, np.nan)
    structures[ok] = np.where(passed[:, None, None], real, np.nan)
    ok[ok] = passed
    return structures, ok


def repeated_stack(rng, forms, count):
    return np.stack([omega.matrix for omega in forms])[rng.integers(len(forms), size=count)]


def signed_zero_pair():
    negative = Q_BLOCK.copy()
    negative[0, 0] = complex(-0.0, 0.0)
    return np.stack([Q_BLOCK, negative])


def stacked_cases():
    from csympl.suites import mixed_two_form
    from csympl.torus import TorusGrid, closed_control_form

    rng = np.random.default_rng(15)
    passing = [random_c_symplectic(rng, 8)[0] for _ in range(5)]
    # kinds 0-1 pass, kinds 2-4 fail and get NaN structures
    mixed = [mixed_two_form(np.random.default_rng([4, i]), 4) for i in range(40)]
    return {
        "repeated-c-symplectic": repeated_stack(rng, passing, 300),
        "repeated-mixed": repeated_stack(rng, mixed, 300),
        "signed-zeros": signed_zero_pair(),
        "empty": np.zeros((0, 4, 4), dtype=np.complex128),
        "torus-batch": Q_BLOCK + 0.5 * closed_control_form(TorusGrid(16), amplitude=0.2),
    }


@pytest.mark.parametrize("omegas", [pytest.param(v, id=k) for k, v in stacked_cases().items()])
def test_stacked_verdict_is_bitwise_the_undeduplicated_one(omegas):
    structures = induced_structures(omegas)
    ok = ~np.isnan(structures).any(axis=(-1, -2))
    expected, expected_ok = undeduplicated_induced_structures(omegas)
    assert structures.shape == omegas.shape and ok.shape == omegas.shape[:-2]
    assert np.array_equal(structures, expected, equal_nan=True)
    assert structures.tobytes() == expected.tobytes()
    assert np.array_equal(ok, expected_ok)
    assert np.isnan(structures[~ok]).all()


def single_form_structure(omega):
    """The per-form path that ``induced_structures`` replaced, as the reference:
    the reference rank criterion, ``form_kernel``'s basis,
    ``structures_from_kernels`` and the acceptance; None where that path
    raised."""
    if not rank_criterion_reference(omega):
        return None
    real, *residuals = structures_from_kernels(omega.matrix, form_kernel(omega).subspace.basis)
    return real if _structure_accepted(*residuals) else None


def oracle_forms(dim):
    from csympl.suites import _structure_with_form, mixed_two_form

    for i in range(40):
        yield random_c_symplectic(np.random.default_rng([dim, i]), dim)[0]
        yield _structure_with_form(np.random.default_rng([dim, i]), dim)[1]
        yield mixed_two_form(np.random.default_rng([dim, i]), dim)


@pytest.mark.parametrize("dim", [4, 8, 12])
def test_induced_structure_is_bitwise_the_single_form_path(dim):
    failures = 0
    for omega in oracle_forms(dim):
        expected = single_form_structure(omega)
        if expected is None:
            failures += 1
            with pytest.raises(ValueError, match="rank criterion"):
                induced_complex_structure(omega)
        else:
            assert induced_complex_structure(omega).matrix.tobytes() == expected.tobytes()
    assert 0 < failures < 40


@pytest.mark.parametrize("dim", [4, 8])
def test_family_structures_are_bitwise_the_single_form_path(dim):
    from csympl.deformation import DEFAULT_T_SAMPLES, DeformationFamily, random_base_form
    from csympl.suites import random_lagrangian

    for i in range(20):
        rng = np.random.default_rng([dim, i])
        space = CSymplecticSpace.from_form(random_c_symplectic(rng, dim)[0])
        projection = LagrangianProjection.build(space, random_lagrangian(space, rng))
        family = DeformationFamily.build(projection, random_base_form(projection, rng, scale=0.5))
        structures = family.structures(DEFAULT_T_SAMPLES)
        assert len(structures) == len(DEFAULT_T_SAMPLES)
        for t, structure in zip(DEFAULT_T_SAMPLES, structures):
            assert structure.matrix.tobytes() == single_form_structure(family.form(t)).tobytes()


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
    omega, _ = random_c_symplectic(rng, 8)
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
    omega, _ = random_c_symplectic(rng, 8)
    a = omega.matrix
    lhs = np.hstack([a, a.conj()])
    rhs = np.hstack([1j * a, -1j * a.conj()])
    solution = np.linalg.lstsq(lhs.T, rhs.T, rcond=None)[0]
    assert np.max(np.abs(solution.imag)) < 1e-9
    structure = induced_complex_structure(omega)
    assert np.max(np.abs(structure.matrix - solution.real)) < 1e-9


# -- hodge decomposition -------------------------------------------------------


def test_hodge_pure_20():
    comps = hodge_decompose(dz1_wedge_dz2().to_kform(), STANDARD_J)
    assert comps[(2, 0)].isclose(dz1_wedge_dz2().to_kform(), tol=1e-12)
    assert comps[(1, 1)].is_zero(1e-12) and comps[(0, 2)].is_zero(1e-12)


def test_hodge_pure_11():
    # dz1 ^ conj(dz1) = -2i dx1 ^ dy1
    form = ComplexKForm.from_dict(4, 2, {(0, 1): -2j})
    comps = hodge_decompose(form, STANDARD_J)
    assert comps[(1, 1)].isclose(form, tol=1e-12)
    assert comps[(2, 0)].is_zero(1e-12) and comps[(0, 2)].is_zero(1e-12)


def test_hodge_of_e13_exact_components():
    # brute-force projector values for dx1 ^ dx2 under the standard structure
    form = ComplexKForm.from_dict(4, 2, {(0, 2): 1.0})
    comps = hodge_decompose(form, STANDARD_J)
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
    comps = hodge_decompose(form, STANDARD_J)
    for (p, q), comp in comps.items():
        rotated = pullback(STANDARD_J.matrix, comp)
        assert rotated.isclose(comp * (1j) ** (p - q), tol=1e-11) or comp.is_zero(1e-12)


def test_hodge_idempotent():
    rng = np.random.default_rng(6)
    form = ComplexKForm(4, 2, rng.standard_normal(6) + 1j * rng.standard_normal(6))
    comps = hodge_decompose(form, STANDARD_J)
    again = hodge_decompose(comps[(1, 1)], STANDARD_J)
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
        structure = induced_complex_structure(random_c_symplectic(rng, dim)[0])
        form = ComplexKForm(dim, 2, rng.standard_normal(count) + 1j * rng.standard_normal(count))
        comps = hodge_decompose(form, structure)
        reference = pullback_average(form, structure)
        assert list(comps) == list(reference)
        for key, coeffs in reference.items():
            assert np.max(np.abs(comps[key].coeffs - coeffs)) <= 1e-12 * np.max(np.abs(coeffs))


def test_hodge_takes_two_forms_only():
    rng = np.random.default_rng(7)
    structure = induced_complex_structure(random_c_symplectic(rng, 8)[0])
    form = ComplexKForm(8, 3, rng.standard_normal(56) + 1j * rng.standard_normal(56))
    with pytest.raises(ValueError, match="2-forms"):
        hodge_decompose(form, structure)


def test_hodge_of_a_two_form_matrix_equals_its_kform():
    rng = np.random.default_rng(8)
    structure = induced_complex_structure(random_c_symplectic(rng, 8)[0])
    form = ComplexTwoForm(rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))
    from_matrix, from_kform = hodge_decompose(form, structure), hodge_decompose(form.to_kform(), structure)
    assert list(from_matrix) == list(from_kform)
    for key, comp in from_matrix.items():
        assert np.array_equal(comp.coeffs, from_kform[key].coeffs)


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
        omega, _ = random_c_symplectic(rng, dim)
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


def test_hitchin_invariance_of_found_lagrangians():
    from csympl.suites import random_lagrangian

    for dim in (4, 8):
        for i in range(20):
            rng = np.random.default_rng([17, dim, i])
            space = CSymplecticSpace.from_form(random_c_symplectic(rng, dim)[0])
            lag = random_lagrangian(space, rng)
            q = lag.orthonormal_basis()
            image = space.structure.matrix @ q
            residual = np.max(np.abs(image - q @ (q.T @ image)))
            assert residual < 1e-9 * max(1.0, np.max(np.abs(image)))


# -- quotient structure -------------------------------------------------------------


def test_quotient_structure_on_q_block():
    space = CSymplecticSpace.from_form(q_block_form(1))
    fiber = Subspace(np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    projection = LagrangianProjection.build(space, fiber)
    quot = projection.quotient_structure
    # complement model is span(u1, I u1); structure sends u1 -> I u1
    assert np.allclose(np.abs(quot.matrix), np.array([[0, 1], [1, 0]]), atol=1e-12)
    assert np.allclose(quot.matrix @ quot.matrix, -np.eye(2), atol=1e-12)
    w = projection.projection.T
    assert np.allclose(w.T @ space.structure.matrix, quot.matrix @ w.T, atol=1e-12)


def test_quotient_structure_squares_to_minus_identity():
    from csympl.suites import random_lagrangian

    rng = np.random.default_rng(8)
    space = CSymplecticSpace.from_form(random_c_symplectic(rng, 8)[0])
    fiber = random_lagrangian(space, rng)
    quot = LagrangianProjection.build(space, fiber).quotient_structure
    assert np.allclose(quot.matrix @ quot.matrix, -np.eye(4), atol=1e-10)


def test_quotient_structure_on_canonical_basis_fibers():
    # each canonical block contributes a fiber pair (u2, I u2); their span
    # is c-Lagrangian and supports the inherited structure
    rng = np.random.default_rng(11)
    omega, _ = random_c_symplectic(rng, 8)
    space = CSymplecticSpace.from_form(omega)
    b = c_symplectic_basis(omega)
    fiber = Subspace(b[:, [2, 3, 6, 7]])
    assert is_c_lagrangian(fiber, omega)
    projection = LagrangianProjection.build(space, fiber)
    quot = projection.quotient_structure
    w = projection.projection.T
    assert np.max(np.abs(w.T @ space.structure.matrix - quot.matrix @ w.T)) < 1e-9


def test_quotient_independent_of_complement_model():
    # any complement with the identification maps gives a conjugate structure
    from csympl.suites import random_lagrangian

    rng = np.random.default_rng(9)
    space = CSymplecticSpace.from_form(random_c_symplectic(rng, 8)[0])
    fiber = random_lagrangian(space, rng)
    projection = LagrangianProjection.build(space, fiber)
    quot = projection.quotient_structure
    w = projection.projection.T
    b = fiber.orthonormal_basis()
    other = w + b @ rng.standard_normal((4, 4))  # random complement of the fiber
    # identification K' -> V/L -> K is w^T restricted to K'
    ident = w.T @ other
    lifted = np.linalg.inv(ident)
    # structure transported from K: phi^{-1} I_quot phi where phi = w^T on K'
    transported = ident @ (lifted @ quot.matrix @ ident) @ lifted
    assert np.allclose(transported, quot.matrix, atol=1e-9)
    # the genuinely model-independent statement: pi(I v) = I_quot pi(v)
    probe = rng.standard_normal((8, 5))
    assert np.allclose(w.T @ space.structure.matrix @ probe, quot.matrix @ (w.T @ probe), atol=1e-9)


def test_c_symplectic_space_caches_validated_data(monkeypatch):
    rng = np.random.default_rng(10)
    omega, _ = random_c_symplectic(rng, 8)
    space = CSymplecticSpace.from_form(omega)
    assert is_c_symplectic_rank(space.omega).ok and is_c_symplectic_power(space.omega).ok
    assert is_c_symplectic_rank(space.omega).kernel_dim == 4
    assert np.allclose(
        space.structure.matrix, induced_complex_structure(omega).matrix, atol=1e-12
    )
    # the rank failure is reported first, then the power failure
    with pytest.raises(ValueError, match=r"\(rank criterion\): kernel dimension 4 != 2"):
        CSymplecticSpace.from_form(ComplexTwoForm(np.zeros((4, 4))))
    zero_power = is_c_symplectic_power(ComplexTwoForm(np.zeros((8, 8))))
    monkeypatch.setattr(csymplectic, "is_c_symplectic_power", lambda form: zero_power)
    with pytest.raises(ValueError, match=r"\(power criterion\): zero form"):
        CSymplecticSpace.from_form(omega)
