"""Deformation family Omega_t, preservation statements, section theorem."""

import copy
import dataclasses
from collections import Counter

import numpy as np
import pytest

from csympl import csymplectic, deformation, suites
from csympl.csymplectic import (
    CSymplecticSpace,
    c_symplectic_basis,
    hodge_decompose,
    induced_complex_structure,
    induced_structures,
    is_c_lagrangian,
    is_c_symplectic_power,
    is_c_symplectic_rank,
    power_verdicts,
    q_block_form,
    random_c_symplectics,
)
from csympl.deformation import (
    DEFAULT_T_SAMPLES,
    DeformationFamily,
    HolomorphizationCertificate,
    LagrangianProjection,
    LinearSection,
    PreservanceReport,
    decide_members,
    deform,
    holomorphize_section,
    holomorphize_sections,
    random_base_forms,
    section_forms,
    verify_preservance,
    verify_preservances,
)
from csympl.forms import ComplexTwoForm, form_kernel, pullback
from csympl.linalg import DEFAULT_TOL, ComplexStructure, PostconditionError, Subspace, max_abs
from csympl.suites import CHECKS, SuiteConfig, random_lagrangians


def q_projection():
    space = CSymplecticSpace.from_form(q_block_form(1))
    fiber = Subspace(np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    return LagrangianProjection.build(space, fiber)


def holomorphized(certificate):
    """The section theorem's two conditions: the graph is c-Lagrangian for
    Omega', and the graph restriction and intertwining residuals are at
    most DEFAULT_TOL."""
    return certificate.graph_is_lagrangian and certificate.max_residual <= DEFAULT_TOL


def random_instance(dim, seed):
    """A random space range of one, the subspace of a random c-Lagrangian
    fiber of it, and the generator that drew them."""
    rng = np.random.default_rng(seed)
    space = CSymplecticSpace.from_forms(random_c_symplectics([rng], dim)[0])
    return space, Subspace(random_lagrangians(space, [rng])[0]), rng


def joined(spaces, fibers):
    """The space range of ranges of one and the stacked bases of their
    fiber subspaces."""
    stack = lambda name: np.concatenate([getattr(space, name) for space in spaces])
    return CSymplecticSpace(omegas=stack("omegas"), structures=stack("structures")), np.stack([f.basis for f in fibers])


def random_setup(dim, seed):
    """The projection range of one of ``random_instance``, and its generator."""
    space, fiber, rng = random_instance(dim, seed)
    return LagrangianProjection.build(space, fiber), rng


def random_gamma(projection, rng, scale=1.0):
    """One random (2,0)+(1,1) base form of a projection range of one."""
    return ComplexTwoForm(random_base_forms(projection, [rng], scale)[0])


# -- projections and sections -------------------------------------------------


def test_projection_kernel_is_fiber_and_identity_on_base():
    proj = q_projection()
    (w_t,), (fiber,) = proj.maps, proj.fibers
    assert np.allclose(w_t @ w_t.T, np.eye(2), atol=1e-12)
    assert np.allclose(w_t @ fiber, 0.0, atol=1e-12)


def test_projection_rejects_non_lagrangian_fiber():
    space = CSymplecticSpace.from_form(q_block_form(1))
    bad = Subspace(np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        LagrangianProjection.build(space, bad)


def test_projection_rejects_an_incompatible_quotient_structure():
    # conjugating I by R = Id + eps A keeps Omega, so the fiber stays
    # c-Lagrangian, but the new structure no longer preserves the fiber
    space, fiber, rng = random_instance(8, 35)
    r = np.eye(8) + 1e-4 * rng.standard_normal((8, 8))
    conjugated = ComplexStructure(8, r @ space.structures[0] @ np.linalg.inv(r))
    space = dataclasses.replace(space, structures=conjugated.matrix[None])
    assert is_c_lagrangian(fiber, ComplexTwoForm(space.omegas[0]))
    with pytest.raises(ValueError, match="quotient structure not well-defined"):
        LagrangianProjection.build(space, fiber)


def test_a_projection_range_raises_for_its_first_failing_pair():
    # pair 1's quotient structure is not well-defined and pair 2's fiber is
    # not c-Lagrangian: the range raises pair 1's error, as building the
    # pairs one at a time would
    spaces, fibers, rngs = (list(parts) for parts in zip(*(random_instance(8, seed) for seed in (35, 36, 37))))
    r = np.eye(8) + 1e-4 * rngs[1].standard_normal((8, 8))
    conjugated = ComplexStructure(8, r @ spaces[1].structures[0] @ np.linalg.inv(r))
    spaces[1] = dataclasses.replace(spaces[1], structures=conjugated.matrix[None])
    fibers[2] = Subspace(rngs[2].standard_normal((8, 4)))
    with pytest.raises(ValueError, match="quotient structure not well-defined"):
        LagrangianProjection.build(spaces[1], fibers[1])
    with pytest.raises(ValueError, match="fiber is not c-Lagrangian"):
        LagrangianProjection.build(spaces[2], fibers[2])
    with pytest.raises(ValueError, match="quotient structure not well-defined"):
        LagrangianProjection.build_many(*joined(spaces, fibers))
    with pytest.raises(ValueError, match="fiber is not c-Lagrangian"):
        LagrangianProjection.build_many(*joined(spaces[::2], fibers[::2]))


@pytest.mark.parametrize(
    "change, message",
    [
        (lambda fibers: fibers.astype(complex), "c-Lagrangian subspaces are real"),
        (lambda fibers: fibers[:, :4], "ambient dimension mismatch"),
        (lambda fibers: fibers[:, :, :3], "fiber is not c-Lagrangian for the given form"),
    ],
    ids=["complex", "ambient", "dimension"],
)
def test_a_projection_range_refuses_a_fiber_stack_of_another_field_or_shape(change, message):
    spaces, rngs, _ = stacked_instances(8, 3)
    fibers = change(random_lagrangians(spaces, rngs))
    with pytest.raises(ValueError, match=f"^{message}$"):
        LagrangianProjection.build_many(spaces, fibers)
    fiber = Subspace(fibers[0], field="C" if np.iscomplexobj(fibers) else "R")
    with pytest.raises(ValueError, match=f"^{message}$"):
        LagrangianProjection.build(CSymplecticSpace.from_forms(spaces.omegas[:1]), fiber)


def test_section_must_invert_projection():
    proj = q_projection()
    with pytest.raises(ValueError):
        LinearSection(proj, 0.5 * np.swapaxes(proj.maps, -1, -2))


def test_sections_differ_by_fiber_offsets():
    proj, rng = random_setup(8, 0)
    tau = rng.standard_normal((4, 4))
    section = LinearSection.from_fiber_parts(proj, tau[None])
    offset = section.maps[0] - proj.maps[0].T
    assert np.allclose(proj.fibers[0].T @ offset, tau, atol=1e-12)


# -- section forms ---------------------------------------------------------------


def test_section_form_consistent_with_pullback():
    for i in range(20):
        proj, rng = random_setup(4 if i % 2 else 8, 100 + i)
        section = LinearSection.random_many(proj, [rng])
        omega_sigma = ComplexTwoForm(section_forms(section)[0][0])
        lifted = pullback(section.maps[0], ComplexTwoForm(proj.omegas[0]).to_kform())
        assert omega_sigma.to_kform().isclose(lifted, tol=1e-12)


def test_section_form_certificate_is_20_plus_11():
    proj, rng = random_setup(8, 1)
    _, certificate = section_forms(LinearSection.random_many(proj, [rng]))
    assert certificate.norm_02[0] <= 1e-9 * certificate.scale[0]
    assert certificate.norm_11[0] > 0  # generic real section has mixed type


def test_complex_linear_section_gives_pure_20():
    proj, rng = random_setup(8, 2)
    _, certificate = section_forms(LinearSection.complex_linear(proj))
    assert certificate.norm_02[0] <= 1e-9 * certificate.scale[0]
    assert certificate.norm_11[0] <= 1e-9 * certificate.scale[0]


def test_fiber_valued_perturbation_drops_quadratic_term():
    # Omega_sigma - Omega_sigma0 must be linear in tau: the tau (x) tau
    # term dies because the fiber is c-Lagrangian
    proj, rng = random_setup(8, 3)
    base = LinearSection.complex_linear(proj)
    tau = rng.standard_normal((4, 4))

    def perturbed(scale):
        return LinearSection(proj, base.maps + scale * (proj.fibers @ tau))

    (f0,), _ = section_forms(base)
    (f1,), _ = section_forms(perturbed(1.0))
    (f2,), _ = section_forms(perturbed(2.0))
    # exact linearity in tau: second difference vanishes
    assert np.max(np.abs(f2 - 2 * f1 + f0)) < 1e-10 * max(1.0, np.max(np.abs(f1)))


def test_three_term_expansion_cross_terms_only():
    proj, rng = random_setup(8, 4)
    base = LinearSection.complex_linear(proj)
    (base_map,), (a,) = base.maps, proj.omegas
    tau_map = proj.fibers[0] @ rng.standard_normal((4, 4))
    section = LinearSection(proj, base.maps + tau_map)
    expansion = (
        base_map.T @ a @ base_map
        + base_map.T @ a @ tau_map
        + tau_map.T @ a @ base_map
        + tau_map.T @ a @ tau_map
    )
    tau_tau = tau_map.T @ a @ tau_map
    assert np.max(np.abs(tau_tau)) < 1e-10 * max(1.0, np.max(np.abs(a)))
    assert np.allclose(section_forms(section)[0][0], expansion, atol=1e-12)


# -- deform -----------------------------------------------------------------------


def test_deform_at_zero_is_exact_identity():
    proj, rng = random_setup(8, 5)
    omega_0 = deform(proj, random_gamma(proj, rng), 0.0)
    assert np.array_equal(omega_0.matrix, proj.omegas[0])


def test_deform_postcondition_both_criteria():
    proj, rng = random_setup(4, 6)
    (quot,) = proj.quotients
    # the (1,1) form dual to the inherited structure on the base model
    gamma = ComplexTwoForm(quot - quot.T)
    omega_1 = deform(proj, gamma, 1.0)
    assert is_c_symplectic_rank(omega_1).ok and is_c_symplectic_power(omega_1).ok


def test_deform_rejects_anti_holomorphic_gamma():
    proj, rng = random_setup(8, 7)
    raw = ComplexTwoForm(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    comps = hodge_decompose(raw, ComplexStructure(4, proj.quotients[0]))
    bad = ComplexTwoForm.from_kform(comps[(0, 2)])
    assert bad.norm() > 1e-6
    with pytest.raises(ValueError, match=r"\(0,2\)"):
        deform(proj, bad, 1.0)


def test_family_is_affine_in_t():
    proj, rng = random_setup(8, 8)
    gammas = random_base_forms(proj, [rng])
    family = DeformationFamily.build_many(proj, gammas)
    t1, t2 = 0.7 - 0.2j, -1.3 + 0.4j
    direct, first = map(ComplexTwoForm, decide_members(family, [[t1 + t2, t1]])[0][0])
    (w,) = proj.maps
    pulled = w.T @ gammas[0] @ w
    staged = ComplexTwoForm(first.matrix + t2 * pulled)
    # identical up to one rounding of the scalar reassociation
    assert np.max(np.abs(direct.matrix - staged.matrix)) < 1e-14 * direct.norm()


def test_family_validates_gamma_at_construction():
    proj, rng = random_setup(8, 9)
    raw = ComplexTwoForm(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    comps = hodge_decompose(raw, ComplexStructure(4, proj.quotients[0]))
    with pytest.raises(ValueError):
        DeformationFamily.build_many(proj, ComplexTwoForm.from_kform(comps[(0, 2)]).matrix[None])


def test_deformed_forms_c_symplectic_in_bulk():
    for dim in (4, 8):
        for i in range(25):
            proj, rng = random_setup(dim, 200 + i)
            gamma = random_gamma(proj, rng)
            t = complex(rng.standard_normal(), rng.standard_normal())
            deform(proj, gamma, t)  # raises if either criterion fails


# -- preservance -------------------------------------------------------------------


def test_preservance_at_t_zero_is_exact():
    proj, rng = random_setup(8, 10)
    report = verify_preservance(proj, random_gamma(proj, rng), t_samples=(0.0,))
    assert report.max_fiber_restriction_residual == 0.0
    assert report.max_quotient_residual == 0.0


def test_preservance_at_no_t_samples_raises_a_value_error():
    proj, rng = random_setup(8, 10)
    with pytest.raises(ValueError, match="no t samples to verify preservance at"):
        verify_preservance(proj, random_gamma(proj, rng), t_samples=())
    with pytest.raises(ValueError, match="no family members to decide"):
        decide_members(DeformationFamily.build_many(proj, random_base_forms(proj, [rng])), np.zeros((1, 0)))


def test_preservance_with_zero_gamma_full_matrix():
    proj, rng = random_setup(8, 11)
    gamma = ComplexTwoForm(np.zeros((4, 4)))
    (base,) = proj.structures
    for t in DEFAULT_T_SAMPLES:
        omega_t = deform(proj, gamma, t)
        assert np.max(np.abs(induced_complex_structure(omega_t).matrix - base)) < 1e-12


def test_preservance_random_families():
    proj, rng = random_setup(8, 12)
    report = verify_preservance(proj, random_gamma(proj, rng), t_samples=(1.0, -1.0, 1j, -1j, 2 + 3j))
    assert report.fiber_lagrangian_ok
    assert report.max_residual < 1e-9


def test_kernel_of_deformed_form_is_fiber_shift_of_original():
    # structure preservation mechanism: every deformed kernel vector is an
    # original kernel vector shifted by a complexified fiber vector, so
    # the base projection of the kernel never moves
    def column_span(matrix):
        u, s, _ = np.linalg.svd(matrix, full_matrices=False)
        return Subspace(u[:, s > 1e-9 * s[0]], field="C")

    proj, rng = random_setup(8, 17)
    gamma = random_gamma(proj, rng)
    w = proj.maps[0].T
    fiber = proj.fibers[0].astype(complex)
    base_kernel = form_kernel(ComplexTwoForm(proj.omegas[0])).subspace.basis
    shifted_span = column_span(np.hstack([base_kernel, fiber]))
    for t in (1.0, -1.0, 0.5 + 0.5j):
        omega_t = deform(proj, gamma, t)
        t_kernel = form_kernel(omega_t).subspace.basis
        # base projections agree (complex dimension n)
        assert column_span(w.T @ base_kernel).equals(column_span(w.T @ t_kernel), tol=1e-9)
        # and the deformed kernel sits inside ker + fiber_C
        for column in t_kernel.T:
            assert shifted_span.contains(column, tol=1e-9)


def test_preservance_cross_checked_against_kernel_shift():
    # independent check of the fixed fiber restriction: the kernel of
    # Omega_t projected to the fiber coincides with the kernel of Omega
    proj, rng = random_setup(8, 13)
    gamma = random_gamma(proj, rng)
    (b,) = proj.fibers
    base_fiber_kernel = b.T @ form_kernel(ComplexTwoForm(proj.omegas[0])).subspace.basis
    for t in (1.0, 1j):
        omega_t = deform(proj, gamma, t)
        t_fiber_kernel = b.T @ form_kernel(omega_t).subspace.basis
        # both span the fiber's (0,1) space: compare as subspaces
        s1 = Subspace(base_fiber_kernel, field="C")
        s2 = Subspace(t_fiber_kernel, field="C")
        assert s1.equals(s2, tol=1e-9)


# -- one kernel analysis per form ----------------------------------------------------


@pytest.fixture
def svd_inputs(monkeypatch):
    """Every matrix handed to np.linalg.svd while the test runs."""
    seen = []
    original = np.linalg.svd

    def recording(matrix, *args, **kwargs):
        seen.append(np.array(matrix, copy=True))
        return original(matrix, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording)
    return seen


def svd_count(seen, matrix):
    """How often ``matrix`` was decomposed, counting each slice of a stacked input."""
    slices = (m for stack in seen for m in stack.reshape(-1, *stack.shape[-2:]))
    return sum(1 for m in slices if m.shape == matrix.shape and np.array_equal(m, matrix))


def test_space_and_structure_svd_the_form_once(svd_inputs):
    omega = ComplexTwoForm(random_c_symplectics([np.random.default_rng(30)], 8)[0][0])
    for analyse in (CSymplecticSpace.from_form, induced_complex_structure, c_symplectic_basis):
        svd_inputs.clear()
        analyse(omega)
        assert svd_count(svd_inputs, omega.matrix) == 1, analyse.__name__


def test_preservance_svds_each_deformed_form_once(svd_inputs):
    proj, rng = random_setup(8, 31)
    gamma = random_gamma(proj, rng)
    (forms,), _ = decide_members(DeformationFamily.build_many(proj, gamma.matrix[None]), [DEFAULT_T_SAMPLES])
    svd_inputs.clear()
    verify_preservance(proj, gamma, DEFAULT_T_SAMPLES)
    for form in forms:
        assert svd_count(svd_inputs, form) == 1


def test_a_failing_form_is_decomposed_once(svd_inputs, monkeypatch):
    # a failure's reason is read off the verdict that decided the form
    omega = ComplexTwoForm(np.kron(np.diag([1.0, 0.0]), q_block_form(1).matrix))
    with pytest.raises(ValueError, match=r"\(rank criterion\): kernel dimension 6 != 4$"):
        induced_complex_structure(omega)
    assert svd_count(svd_inputs, omega.matrix) == 1
    proj, rng = random_setup(8, 32)
    family = DeformationFamily.build_many(proj, random_base_forms(proj, [rng]))
    (forms,), _ = decide_members(family, [DEFAULT_T_SAMPLES])
    monkeypatch.setattr(csymplectic, "_structure_accepted", lambda square, linearity: np.zeros(len(square), dtype=bool))
    svd_inputs.clear()
    with pytest.raises(PostconditionError, match="rank: induced structure rejected; power: ok$"):
        decide_members(family, [DEFAULT_T_SAMPLES])
    for form in forms:
        assert svd_count(svd_inputs, form) == 1


def test_residual_folds_keep_a_nan():
    nan = float("nan")
    assert np.isnan(PreservanceReport((), True, 0.0, nan, 0.0).max_residual)
    assert not CHECKS["preservance"].passes(PreservanceReport((), True, 1e-12, 0.0, nan).max_residual)
    assert np.isnan(HolomorphizationCertificate(1e-12, True, nan).max_residual)
    assert not CHECKS["holomorphize"].passes(HolomorphizationCertificate(0.0, True, nan).max_residual)


@pytest.mark.parametrize("count", [1, 3])
def test_projection_builds_its_quotient_once(count, monkeypatch):
    # one orthonormalization, one complement and one c-Lagrangian check for the whole range
    omegas = random_c_symplectics([np.random.default_rng(33 + i) for i in range(count)], 8)[0]
    spaces = CSymplecticSpace.from_forms(omegas)
    fibers = random_lagrangians(spaces, [np.random.default_rng(34 + i) for i in range(count)])
    calls = []
    complement, isotropic = deformation.complement_bases, deformation.c_isotropic
    orthonormal = deformation.orthonormal_bases
    monkeypatch.setattr(deformation, "complement_bases", lambda b: calls.append("complement") or complement(b))
    monkeypatch.setattr(deformation, "c_isotropic", lambda *a: calls.append("c_isotropic") or isotropic(*a))
    monkeypatch.setattr(deformation, "orthonormal_bases", lambda b: calls.append("orthonormal") or orthonormal(b))
    LagrangianProjection.build_many(spaces, fibers)
    assert sorted(calls) == ["c_isotropic", "complement", "orthonormal"]


def test_family_structures_are_checked_members():
    proj, rng = random_setup(8, 32)
    family = DeformationFamily.build_many(proj, random_base_forms(proj, [rng]))
    ((form,),), ((structure,),) = decide_members(family, [[0.5 + 0.5j]])
    omega_t = ComplexTwoForm(form)
    assert deform(proj, ComplexTwoForm(family.gammas[0]), 0.5 + 0.5j).matrix.tobytes() == form.tobytes()
    assert is_c_symplectic_rank(omega_t).ok and is_c_symplectic_power(omega_t).ok
    assert np.array_equal(structure, induced_complex_structure(omega_t).matrix)


def test_a_family_pulls_gamma_back_once():
    proj, rng = random_setup(8, 35)
    gammas = random_base_forms(proj, [rng])
    family = DeformationFamily.build_many(proj, gammas)
    (w,) = proj.maps
    assert np.array_equal(family.pulled[0], w.T @ gammas[0] @ w)
    # a member is Omega + t pi^* gamma from the stored pullback alone
    blind = dataclasses.replace(family, projection=dataclasses.replace(proj, maps=np.full_like(proj.maps, np.nan)))
    forms, _ = decide_members(family, [DEFAULT_T_SAMPLES])
    blind_forms, _ = decide_members(blind, [DEFAULT_T_SAMPLES])
    assert blind_forms.tobytes() == forms.tobytes()


def test_members_of_many_families_decide_as_each_family_alone():
    spaces, fibers, rngs = zip(*(random_instance(8, seed) for seed in (36, 37, 38)))
    projection = LagrangianProjection.build_many(*joined(spaces, fibers))
    alone = [LagrangianProjection.build(space, fiber) for space, fiber in zip(spaces, fibers)]
    gammas = random_base_forms(projection, rngs)
    forms, structures = decide_members(DeformationFamily.build_many(projection, gammas), [DEFAULT_T_SAMPLES] * 3)
    members_alone = [
        decide_members(DeformationFamily.build_many(one, gamma[None]), [DEFAULT_T_SAMPLES])
        for one, gamma in zip(alone, gammas)
    ]
    forms_alone, structures_alone = (np.concatenate(parts) for parts in zip(*members_alone))
    assert forms.shape == structures.shape == forms_alone.shape == structures_alone.shape == (3, 5, 8, 8)
    assert forms.tobytes() == forms_alone.tobytes() and structures.tobytes() == structures_alone.tobytes()
    reports = verify_preservances(projection, gammas)
    assert reports == [verify_preservance(one, gamma) for one, gamma in zip(alone, map(ComplexTwoForm, gammas))]
    sections = LinearSection.random_many(projection, rngs)
    _, _, certificates = holomorphize_sections(sections)
    singles = [LinearSection(one, section_map[None]) for one, section_map in zip(alone, sections.maps)]
    assert certificates == [holomorphize_section(section)[2] for section in singles]


@pytest.fixture
def linalg_calls(monkeypatch):
    """How often np.linalg.svd and np.linalg.qr were called while the test runs."""
    calls = Counter()
    for name in ("svd", "qr"):
        original = getattr(np.linalg, name)

        def counting(*args, name=name, original=original, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    return calls


@pytest.mark.parametrize("dim", [4, 8])
@pytest.mark.parametrize("name", ["_preservance_case", "_section_theorem_case"])
def test_a_deformation_range_decomposes_as_often_at_any_sample_count(name, dim, linalg_calls):
    # each layer is one stacked call per (suite, dim), not one per instance
    cfg = SuiteConfig(suite="preservance" if name == "_preservance_case" else "section-theorem", seed=1)
    counts = {}
    for samples in (3, 30):
        linalg_calls.clear()
        getattr(suites, name)(cfg, dim, range(samples))
        counts[samples] = dict(linalg_calls)
    assert counts[3] == counts[30] and counts[3]["svd"] and counts[3]["qr"], counts


def stacked_instances(dim, count):
    """The space range of ``count`` instances, their generators, and copies
    of the generators in the same state, for the calls on one-element
    ranges."""
    rngs = [np.random.default_rng([50, dim, index]) for index in range(count)]
    spaces = CSymplecticSpace.from_forms(random_c_symplectics(rngs, dim)[0])
    return spaces, rngs, copy.deepcopy(rngs)


def same_bits(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


def assert_instance_is_its_range_of_one(stacked, i, alone):
    """Instance ``i`` of every array of a range, and of the ranges it holds,
    is the array of the range of one ``alone``, bit for bit."""
    for field in dataclasses.fields(stacked):
        value, one = getattr(stacked, field.name), getattr(alone, field.name)
        if dataclasses.is_dataclass(value):
            assert_instance_is_its_range_of_one(value, i, one)
        else:
            assert value.dtype == one.dtype and value.shape[1:] == one.shape[1:] and len(one) == 1, field.name
            assert same_bits(value[i], one[0]), field.name


@pytest.mark.parametrize("dim", [4, 8, 12])
def test_each_stacked_builder_is_its_stack_of_one_bit_for_bit(dim):
    rngs = [np.random.default_rng([50, dim, index]) for index in range(30)]
    omegas = random_c_symplectics(rngs, dim)[0]
    alone_rngs = copy.deepcopy(rngs)
    spaces = CSymplecticSpace.from_forms(omegas)
    spaces_alone = [CSymplecticSpace.from_form(omega) for omega in map(ComplexTwoForm, omegas)]
    for i, one in enumerate(spaces_alone):
        assert_instance_is_its_range_of_one(spaces, i, one)
    fibers = random_lagrangians(spaces, rngs)
    assert fibers.dtype == np.float64 and fibers.shape == (30, dim, dim // 2)
    for fiber, one, rng in zip(fibers, spaces_alone, alone_rngs):
        assert same_bits(fiber[None], random_lagrangians(one, [rng]))
    projection = LagrangianProjection.build_many(spaces, fibers)
    alone = [LagrangianProjection.build(one, Subspace(fiber)) for one, fiber in zip(spaces_alone, fibers)]
    for i, one in enumerate(alone):
        assert_instance_is_its_range_of_one(projection, i, one)
    if dim == 12:
        return
    gammas = random_base_forms(projection, rngs, scale=0.5)
    families = DeformationFamily.build_many(projection, gammas)
    sections = LinearSection.random_many(projection, rngs)
    pulled_back, certificate = section_forms(sections)
    reports = verify_preservances(projection, gammas)
    etas, omega_primes, certificates = holomorphize_sections(sections)
    for i, (one, rng) in enumerate(zip(alone, alone_rngs)):
        gamma = random_base_forms(one, [rng], scale=0.5)
        assert same_bits(gammas[i], gamma[0])
        assert_instance_is_its_range_of_one(families, i, DeformationFamily.build_many(one, gamma))
        section = LinearSection.random_many(one, [rng])
        assert_instance_is_its_range_of_one(sections, i, section)
        pulled_alone, certificate_alone = section_forms(section)
        assert same_bits(pulled_back[i], pulled_alone[0])
        assert_instance_is_its_range_of_one(certificate, i, certificate_alone)
        assert reports[i] == verify_preservance(one, ComplexTwoForm(gamma[0]))
        eta, omega_prime, certificate_alone = holomorphize_section(section)
        assert certificates[i] == certificate_alone
        assert same_bits(etas[i], eta) and same_bits(omega_primes[i], omega_prime)


def test_fibers_raise_when_the_isotropy_conditions_lose_rank(monkeypatch):
    spaces, rngs, _ = stacked_instances(8, 3)
    rank = suites.numerical_rank
    monkeypatch.setattr(suites, "numerical_rank", lambda s, *tol: rank(s, *tol) - 1)
    with pytest.raises(PostconditionError, match="isotropy conditions have rank 1, not 2$"):
        random_lagrangians(spaces, rngs)


def test_parallel_inputs_of_different_lengths_raise_a_value_error():
    spaces, rngs, _ = stacked_instances(8, 3)
    fibers = random_lagrangians(spaces, rngs)
    projection = LagrangianProjection.build_many(spaces, fibers)
    first, pair_spaces = (CSymplecticSpace(omegas=spaces.omegas[:k], structures=spaces.structures[:k]) for k in (1, 2))
    pair = LagrangianProjection.build_many(pair_spaces, fibers[:2])
    gammas = random_base_forms(projection, rngs)
    families = DeformationFamily.build_many(projection, gammas)
    maps = LinearSection.random_many(projection, rngs).maps
    calls = [
        (lambda: verify_preservances(projection, gammas[:2]), "3 projections, 2 gammas"),
        (lambda: verify_preservances(pair, gammas), "2 projections, 3 gammas"),
        (lambda: random_lagrangians(spaces, rngs[:1]), "3 spaces, 1 rngs"),
        (lambda: LagrangianProjection.build_many(pair_spaces, fibers), "2 spaces, 3 fibers"),
        (lambda: random_base_forms(projection, rngs[:2]), "3 projections, 2 rngs"),
        (lambda: DeformationFamily.build_many(LagrangianProjection.build(first, Subspace(fibers[0])), gammas),
         "1 projections, 3 gammas"),
        (lambda: decide_members(families, [DEFAULT_T_SAMPLES] * 2), "3 families, 2 ts"),
        (lambda: LinearSection(pair, maps), "2 projections, 3 maps"),
    ]  # fmt: skip
    for call, lengths in calls:
        with pytest.raises(ValueError, match=f"^parallel inputs differ in length: {lengths}$"):
            call()


def test_stacked_builders_of_no_instances_raise_a_value_error():
    calls = [
        (lambda: random_lagrangians([], []), "no spaces to draw c-Lagrangians in"),
        (lambda: LagrangianProjection.build_many([], []), "no fibers to project along"),
    ]
    for call, message in calls:
        with pytest.raises(ValueError, match=f"^{message}$"):
            call()


# -- section holomorphization --------------------------------------------------------


def test_holomorphize_fixed_point():
    # complex-linear section with Lagrangian image: eta = 0, nothing moves
    proj = q_projection()
    eta, omega_prime, certificate = holomorphize_section(LinearSection.complex_linear(proj))
    assert max_abs(eta) < 1e-12
    assert np.allclose(omega_prime, proj.omegas[0], atol=1e-12)
    assert holomorphized(certificate)


def test_holomorphize_random_sections_dim4():
    proj = q_projection()
    rng = np.random.default_rng(14)
    for _ in range(20):
        _, _, certificate = holomorphize_section(LinearSection.random_many(proj, [rng]))
        assert certificate.graph_is_lagrangian
        assert certificate.max_residual < 1e-9


def test_holomorphize_certificate_bulk():
    for dim in (4, 8):
        for i in range(25):
            proj, rng = random_setup(dim, 300 + i)
            _, _, certificate = holomorphize_section(LinearSection.random_many(proj, [rng]))
            assert holomorphized(certificate)


def test_full_pipeline_at_dim_twelve():
    proj, rng = random_setup(12, 999)
    report = verify_preservance(proj, random_gamma(proj, rng, scale=0.5), t_samples=(1.0, -1j))
    assert report.fiber_lagrangian_ok and report.max_residual < 1e-9
    assert holomorphized(holomorphize_section(LinearSection.random_many(proj, [rng]))[2])


def test_eta_linear_in_fiber_perturbation():
    # finite-difference linearity: eta depends on tau only through the
    # cross terms, so the tau-derivative is constant
    proj, rng = random_setup(8, 15)
    base = LinearSection.complex_linear(proj)
    tau = proj.fibers @ rng.standard_normal((4, 4))

    def eta_at(scale):
        return holomorphize_section(LinearSection(proj, base.maps + scale * tau))[0]

    d1 = eta_at(1.0) - eta_at(0.0)
    d2 = (eta_at(2.0) - eta_at(0.0)) / 2.0
    assert np.max(np.abs(d1 - d2)) < 1e-10


def test_holomorphized_section_intertwines_structures():
    proj, rng = random_setup(8, 16)
    section = LinearSection.random_many(proj, [rng])
    _, omega_prime, _ = holomorphize_section(section)
    structure_prime = induced_complex_structure(ComplexTwoForm(omega_prime))
    (section_map,) = section.maps
    lhs = section_map @ proj.quotients[0]
    rhs = structure_prime.matrix @ section_map
    assert np.max(np.abs(lhs - rhs)) < 1e-9


# -- postconditions ---------------------------------------------------------------


def test_section_form_raises_on_a_02_component(monkeypatch):
    from csympl import deformation

    proj, rng = random_setup(4, 5)
    section = LinearSection.random_many(proj, [rng])
    monkeypatch.setattr(deformation.HodgeTypeCertificate, "anti_holomorphic_ok", lambda self: self.norm_02 < 0)
    with pytest.raises(PostconditionError, match="contradicts the Hodge-type property"):
        section_forms(section)


def test_deformed_form_failing_c_symplecticity_raises(monkeypatch):
    from csympl import deformation

    proj, rng = random_setup(4, 6)
    gamma = random_gamma(proj, rng)

    with monkeypatch.context() as patch:
        # the rank verdict passes and the acceptance rejects the structure
        patch.setattr(csymplectic, "_structure_accepted", lambda square, linearity: np.zeros(len(square), dtype=bool))
        with pytest.raises(PostconditionError, match="deformed form failed c-symplecticity: rank: induced structure"):
            deform(proj, gamma, 0.5)
    with monkeypatch.context() as patch:
        # the reason is the verdict of the form decided, here a zero form
        patch.setattr(deformation, "induced_structures", lambda omegas: induced_structures(np.zeros_like(omegas)))
        with pytest.raises(PostconditionError, match="rank: kernel dimension 4 != 2; power: ok$"):
            deform(proj, gamma, 0.5)
    # the power verdicts of zero forms, in the members' place
    monkeypatch.setattr(deformation, "power_verdicts", lambda omegas: power_verdicts(np.zeros_like(omegas)))
    with pytest.raises(PostconditionError, match="deformed form failed c-symplecticity: rank: ok; power: zero form"):
        deform(proj, gamma, 0.5)
