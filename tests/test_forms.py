"""Exterior algebra: wedge, powers, pullback, kernels."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from csympl.csymplectic import q_block_form
from csympl.forms import (
    ComplexKForm,
    ComplexTwoForm,
    form_kernel,
    power,
    pullback,
    wedge,
)


def random_kform(rng, dim, degree, scale=1.0):
    n = ComplexKForm(dim, degree).coeffs.shape[0]
    return ComplexKForm(dim, degree, scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n)))


def real_symplectic_4():
    return ComplexTwoForm.from_kform(ComplexKForm.from_dict(4, 2, {(0, 1): 1.0, (2, 3): 1.0}))


# -- construction and evaluation --------------------------------------------


def test_antisymmetry_is_structural():
    form = ComplexKForm.from_dict(4, 2, {(2, 0): 3.0 + 1j})
    assert form.coefficient((0, 2)) == -(3.0 + 1j)
    assert form.coefficient((2, 0)) == 3.0 + 1j
    assert form.coefficient((1, 1)) == 0


def test_evaluation_picks_up_permutation_sign():
    rng = np.random.default_rng(0)
    form = random_kform(rng, 5, 3)
    v = [rng.standard_normal(5) for _ in range(3)]
    direct = form(*v)
    swapped = form(v[1], v[0], v[2])
    assert swapped == pytest.approx(-direct, rel=1e-12)
    cyclic = form(v[2], v[0], v[1])
    assert cyclic == pytest.approx(direct, rel=1e-12)


def test_degree_above_dim_only_as_collapsed_zero():
    zero = ComplexKForm.zero(4, 5)
    assert zero.coeffs.shape == (0,)
    assert zero.is_zero()
    with pytest.raises(ValueError):
        ComplexKForm.from_dict(4, 5, {(0, 1, 2, 3, 4): 1.0})


@pytest.mark.parametrize("idx", [(0, 1, 2), (0,)])
def test_from_dict_rejects_tuple_of_wrong_length(idx):
    with pytest.raises(ValueError) as info:
        ComplexKForm.from_dict(4, 2, {idx: 1.0})
    assert f"index {idx}" in str(info.value)
    assert "expected degree 2" in str(info.value)


def test_from_dict_repeated_index_is_zero_only_in_range():
    assert ComplexKForm.from_dict(4, 2, {(1, 1): 1.0}).is_zero()
    for idx in ((5, 5), (0, 5)):
        with pytest.raises(ValueError, match="out of range"):
            ComplexKForm.from_dict(4, 2, {idx: 1.0})


def test_two_form_roundtrip_exact():
    rng = np.random.default_rng(1)
    raw = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    two = ComplexTwoForm(raw)
    back = ComplexTwoForm.from_kform(two.to_kform())
    assert np.array_equal(back.matrix, two.matrix)


def test_two_form_is_exactly_skew():
    rng = np.random.default_rng(2)
    two = ComplexTwoForm(rng.standard_normal((5, 5)))
    assert np.array_equal(two.matrix, -two.matrix.T)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_two_form_rejects_non_finite_entries(bad):
    raw = np.zeros((4, 4))
    raw[0, 1] = bad
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="finite"):
        ComplexTwoForm(raw)


# -- wedge -------------------------------------------------------------------


def test_wedge_with_scalar_one_is_identity():
    rng = np.random.default_rng(3)
    alpha = random_kform(rng, 4, 2)
    one = ComplexKForm.scalar(4, 1.0)
    assert wedge(alpha, one).isclose(alpha)
    assert wedge(one, alpha).isclose(alpha)


def test_wedge_one_form_with_itself_vanishes():
    rng = np.random.default_rng(4)
    alpha = random_kform(rng, 5, 1)
    assert wedge(alpha, alpha).is_zero()


def test_q_wedge_conjugate_on_standard_tuple_is_four():
    # value reported in the source analysis of the canonical block
    q = q_block_form(1)
    qq = wedge(q, ComplexTwoForm(q.matrix.conj()))
    value = qq(*np.eye(4))
    assert value == pytest.approx(4.0, abs=1e-12)


def test_wedge_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        wedge(ComplexKForm.zero(4, 1), ComplexKForm.zero(6, 1))


def test_wedge_overflow_degree_is_zero_form():
    rng = np.random.default_rng(5)
    a = random_kform(rng, 4, 3)
    b = random_kform(rng, 4, 2)
    out = wedge(a, b)
    assert out.degree == 5 and out.is_zero()


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(2, 7),
    deg_a=st.integers(0, 3),
    deg_b=st.integers(0, 3),
)
def test_wedge_graded_commutativity(seed, dim, deg_a, deg_b):
    rng = np.random.default_rng(seed)
    a = random_kform(rng, dim, min(deg_a, dim))
    b = random_kform(rng, dim, min(deg_b, dim))
    lhs = wedge(a, b)
    rhs = wedge(b, a) * ((-1.0) ** (a.degree * b.degree))
    assert lhs.isclose(rhs, tol=1e-12) or (lhs.is_zero(1e-12) and rhs.is_zero(1e-12))


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(3, 7),
    degrees=st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)),
)
def test_wedge_associativity(seed, dim, degrees):
    rng = np.random.default_rng(seed)
    a, b, c = (random_kform(rng, dim, d) for d in degrees)
    left = wedge(wedge(a, b), c)
    right = wedge(a, wedge(b, c))
    assert left.isclose(right, tol=1e-11) or (left.is_zero(1e-11) and right.is_zero(1e-11))


@pytest.mark.parametrize("dim,p,q", [(5, 2, 2), (12, 4, 4), (12, 6, 2), (8, 1, 3)])
def test_wedge_matches_shuffle_evaluation_oracle(dim, p, q):
    # independent oracle: evaluate both sides on random vectors; the wedge
    # of values is the signed shuffle sum (the dim-12 tables span 4-9
    # kernel blocks)
    from itertools import combinations

    rng = np.random.default_rng(6)
    a = random_kform(rng, dim, p)
    b = random_kform(rng, dim, q)
    vs = [rng.standard_normal(dim) for _ in range(p + q)]
    total = 0.0
    for left in combinations(range(p + q), p):
        right = tuple(i for i in range(p + q) if i not in left)
        inversions = sum(1 for x in left for y in right if x > y)
        sign = -1 if inversions % 2 else 1
        total += sign * a(*[vs[i] for i in left]) * b(*[vs[i] for i in right])
    assert wedge(a, b)(*vs) == pytest.approx(total, rel=1e-10)


# -- powers --------------------------------------------------------------------


def test_power_one_is_identity():
    rng = np.random.default_rng(8)
    a = ComplexTwoForm(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    assert power(a, 1).isclose(a.to_kform())


def test_q_squares_to_zero():
    assert power(q_block_form(1), 2).is_zero(1e-14)


def test_real_symplectic_square_is_twice_volume():
    out = power(real_symplectic_4(), 2)
    assert out.isclose(2.0 * ComplexKForm.basis(4, (0, 1, 2, 3)), tol=1e-14)


def test_power_association_order_irrelevant():
    rng = np.random.default_rng(9)
    a = ComplexTwoForm(rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))
    k = a.to_kform()
    left = wedge(wedge(k, k), k)
    right = wedge(k, wedge(k, k))
    assert left.isclose(right, tol=1e-12)
    assert power(a, 3).isclose(left, tol=1e-12)


# -- pullback -------------------------------------------------------------------


def test_pullback_identity():
    rng = np.random.default_rng(10)
    a = random_kform(rng, 5, 3)
    assert pullback(np.eye(5), a).isclose(a, tol=1e-12)


def test_pullback_projection_kernel_annihilates():
    # projection R^4 -> R^2 onto the first two coordinates
    proj = np.zeros((2, 4))
    proj[0, 0] = proj[1, 1] = 1.0
    vol2 = ComplexKForm.basis(2, (0, 1))
    lifted = pullback(proj, vol2)
    kernel_vec = np.array([0.0, 0.0, 1.0, 0.0])
    assert np.max(np.abs(ComplexTwoForm.from_kform(lifted).matrix @ kernel_vec)) <= 1e-14


def test_pullback_functorial():
    rng = np.random.default_rng(11)
    f = rng.standard_normal((5, 4))
    g = rng.standard_normal((6, 5))
    for degree in (2, 0, 5):
        a = random_kform(rng, 6, degree)
        composed = pullback(g @ f, a)
        staged = pullback(f, pullback(g, a))
        assert composed.isclose(staged, tol=1e-11) and composed.degree == degree
        if degree == 0:  # the one minor is the empty determinant 1
            assert composed.coeffs.tobytes() == staged.coeffs.tobytes() == a.coeffs.tobytes()
        if degree == 5:  # above R^4: no minors, the collapsed zero form
            assert composed.coeffs.shape == staged.coeffs.shape == (0,)


def test_pullback_two_form_matches_matrix_congruence():
    rng = np.random.default_rng(12)
    p = rng.standard_normal((4, 4))
    q = q_block_form(1)
    via_forms = ComplexTwoForm.from_kform(pullback(p, q.to_kform()))
    assert np.allclose(via_forms.matrix, p.T @ q.matrix @ p, atol=1e-12)


# -- kernels --------------------------------------------------------------------


def test_form_kernel_of_q():
    q = q_block_form(1)
    result = form_kernel(q)
    assert result.dim == 2
    assert np.max(np.abs(q.matrix @ result.subspace.basis)) < 1e-12
    # rank oracle
    assert np.linalg.matrix_rank(q.matrix, tol=1e-9) == 2
    expected = np.array([[1, 0], [1j, 0], [0, 1], [0, 1j]], dtype=complex)
    span = result.subspace
    from csympl.linalg import Subspace

    assert span.equals(Subspace(expected, field="C"), tol=1e-9)


def test_form_kernel_zero_form_is_everything():
    zero = ComplexTwoForm(np.zeros((4, 4)))
    assert form_kernel(zero).dim == 4


def test_form_kernel_nondegenerate_is_trivial():
    assert form_kernel(real_symplectic_4()).dim == 0


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 8))
def test_kernel_dim_plus_rank_is_dim(seed, dim):
    rng = np.random.default_rng(seed)
    a = ComplexTwoForm(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    kernel_dim = form_kernel(a).dim
    rank = np.linalg.matrix_rank(a.matrix, tol=1e-9)
    assert kernel_dim + rank == dim


def test_form_kernel_conditioning_warning():
    # two singular values sitting just above the rank cutoff trip the flag
    rot = np.array([[0.0, 1.0], [-1.0, 0.0]])
    matrix = np.zeros((4, 4), dtype=complex)
    matrix[:2, :2] = rot
    matrix[2:, 2:] = 5e-9 * rot
    result = form_kernel(ComplexTwoForm(matrix))
    assert result.dim == 0
    assert result.ill_conditioned


def test_form_kernel_well_conditioned_has_no_warning():
    assert not form_kernel(q_block_form(1)).ill_conditioned


def test_rank_criterion_propagates_conditioning_flag():
    from csympl.csymplectic import is_c_symplectic_rank

    rot = np.array([[0.0, 1.0], [-1.0, 0.0]])
    matrix = np.zeros((4, 4), dtype=complex)
    matrix[:2, :2] = rot
    matrix[2:, 2:] = 5e-9 * rot
    check = is_c_symplectic_rank(ComplexTwoForm(matrix))
    assert check.ill_conditioned
