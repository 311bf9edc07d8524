"""Exterior algebra: wedge, contraction, powers, pullback, kernels."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from csympl.csymplectic import q_block_form
from csympl.forms import (
    ComplexKForm,
    ComplexTwoForm,
    contract,
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
    with pytest.raises(ValueError, match="out of range"):
        ComplexKForm.from_dict(4, 2, {(5, 5): 1.0})


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
    qq = wedge(q, q.conjugate())
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


# -- contraction ---------------------------------------------------------------


def test_contract_basis_example():
    e12 = ComplexKForm.from_dict(4, 2, {(0, 1): 1.0})
    out = contract([1, 0, 0, 0], e12)
    assert out.isclose(ComplexKForm.basis(4, (1,)))


@pytest.mark.parametrize("dim,k", [(4, 2), (6, 3), (12, 6), (12, 1)])
def test_contract_matches_evaluation_oracle(dim, k):
    # iota_v a evaluated on w... is a evaluated on (v, w...); dim 12, k = 6
    # spans two kernel blocks
    rng = np.random.default_rng(7)
    a = random_kform(rng, dim, k)
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    ws = [rng.standard_normal(dim) for _ in range(k - 1)]
    assert contract(v, a)(*ws) == pytest.approx(a(v, *ws), rel=1e-10)


def test_contract_kernel_vector_gives_zero():
    q = q_block_form(1)
    kernel = form_kernel(q).subspace
    v = kernel.basis[:, 0]
    assert contract(v, q).is_zero(1e-12)


def test_contract_u1_of_q_block():
    # expected from the first row of Q, cross-checked by evaluation below
    out = contract([1, 0, 0, 0], q_block_form(1))
    expected = ComplexKForm.from_dict(4, 2 - 1, {(2,): 1.0, (3,): 1j})
    assert out.isclose(expected, tol=1e-14)
    q = q_block_form(1)
    for j, basis_vec in enumerate(np.eye(4)):
        assert out(basis_vec) == pytest.approx(q([1, 0, 0, 0], basis_vec), abs=1e-14)


def test_contract_rejects_zero_forms():
    with pytest.raises(ValueError):
        contract([1, 0, 0, 0], ComplexKForm.scalar(4, 2.0))


def test_contract_squares_to_zero():
    rng = np.random.default_rng(7)
    a = random_kform(rng, 6, 3)
    v = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    assert contract(v, contract(v, a)).is_zero(1e-12)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(3, 6))
def test_contract_is_an_antiderivation(seed, dim):
    rng = np.random.default_rng(seed)
    a = random_kform(rng, dim, 2)
    b = random_kform(rng, dim, 1)
    v = rng.standard_normal(dim)
    lhs = contract(v, wedge(a, b))
    rhs = wedge(contract(v, a), b) + wedge(a, contract(v, b))
    assert lhs.isclose(rhs, tol=1e-11)


# -- powers --------------------------------------------------------------------


def test_power_one_is_identity():
    rng = np.random.default_rng(8)
    a = ComplexTwoForm(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    assert power(a, 1).isclose(a.to_kform())


def test_q_squares_to_zero():
    assert power(q_block_form(1), 2).is_zero(1e-14)


def test_real_symplectic_square_is_twice_volume():
    out = power(real_symplectic_4(), 2)
    assert out.isclose(2.0 * ComplexKForm.volume(4), tol=1e-14)


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
    vol2 = ComplexKForm.volume(2)
    lifted = pullback(proj, vol2)
    kernel_vec = np.array([0.0, 0.0, 1.0, 0.0])
    assert contract(kernel_vec, lifted).is_zero(1e-14)


def test_pullback_functorial():
    rng = np.random.default_rng(11)
    f = rng.standard_normal((5, 4))
    g = rng.standard_normal((6, 5))
    a = random_kform(rng, 6, 2)
    composed = pullback(g @ f, a)
    staged = pullback(f, pullback(g, a))
    assert composed.isclose(staged, tol=1e-11)


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


# -- serialization ----------------------------------------------------------------


def test_kform_json_roundtrip():
    rng = np.random.default_rng(13)
    a = random_kform(rng, 5, 2)
    back = ComplexKForm.from_json(a.to_json())
    assert back.isclose(a, tol=1e-15)


def test_two_form_json_both_encodings():
    q = q_block_form(1)
    via_matrix = ComplexTwoForm.from_json(q.to_json("matrix"))
    via_coeffs = ComplexTwoForm.from_json(q.to_json("coeffs"))
    assert np.array_equal(via_matrix.matrix, q.matrix)
    assert np.array_equal(via_coeffs.matrix, q.matrix)


def test_json_omitted_indices_are_zero():
    data = {"dim": 4, "degree": 2, "coeffs": [{"idx": [0, 2], "re": 1.0, "im": -1.0}]}
    form = ComplexKForm.from_json(data)
    assert form.coefficient((0, 2)) == 1.0 - 1.0j
    assert form.coefficient((1, 3)) == 0
