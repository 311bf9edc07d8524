"""Subspaces, complex structures, and the one rank decision every kernel,
null space and span rank makes."""

import numpy as np
import pytest

from csympl.csymplectic import accepted_structures, induced_complex_structure, random_c_symplectics
from csympl.forms import ComplexTwoForm, form_kernel
from csympl.linalg import (
    DEFAULT_TOL,
    ComplexStructure,
    Subspace,
    null_space,
    numerical_rank,
    real_span_rank,
)


def random_orthonormal(rng, m, k, field):
    raw = rng.standard_normal((m, k))
    if field == "C":
        raw = raw + 1j * rng.standard_normal((m, k))
    return np.linalg.qr(raw)[0]


@pytest.mark.parametrize("field", ["R", "C"])
@pytest.mark.parametrize("k", [0, 1, 3, 6])
def test_subspace_of_an_orthonormal_basis(field, k):
    rng = np.random.default_rng(10 + k)
    q = random_orthonormal(rng, 6, k, field)
    subspace = Subspace(q, field=field)
    assert subspace.dim == k and subspace.field == field
    vectors = rng.standard_normal((6, 4)) + (1j * rng.standard_normal((6, 4)) if field == "C" else 0)
    assert np.allclose(subspace.project(vectors), q @ (q.conj().T @ vectors), atol=1e-12)
    inside = q @ rng.standard_normal(k)
    outside = vectors[:, 0]
    assert subspace.contains(inside)
    assert subspace.contains(outside) == (k == 6)
    assert subspace.equals(Subspace(2.0 * q, field=field))
    complement = subspace.orthogonal_complement()
    assert complement.dim == 6 - k and complement.field == field
    assert np.allclose(q.conj().T @ complement.orthonormal_basis(), 0.0, atol=1e-12)


@pytest.mark.parametrize("dim", [4, 8, 12])
def test_form_kernel_equals_the_fully_checked_kernel(dim):
    omega = ComplexTwoForm(random_c_symplectics([np.random.default_rng(dim)], dim)[0][0])
    kernel = form_kernel(omega).subspace
    assert kernel.dim == dim // 2
    assert kernel.equals(Subspace(kernel.basis, field="C"))


def test_complex_structure_checks_its_shape_and_square():
    j2 = np.array([[0.0, -1.0], [1.0, 0.0]])
    with pytest.raises(ValueError, match=r"I\^2 != -Id"):
        ComplexStructure(2, np.eye(2))
    with pytest.raises(ValueError, match="shape"):
        ComplexStructure(4, j2)
    with pytest.raises(ValueError, match="even"):
        ComplexStructure(3, np.eye(3))


def test_induced_complex_structure_is_bitwise_the_accepted_structure():
    omega = ComplexTwoForm(random_c_symplectics([np.random.default_rng(7)], 8)[0][0])
    structure = induced_complex_structure(omega)
    assert structure.dim == 8 and structure.matrix.dtype == np.float64
    assert structure.matrix.tobytes() == accepted_structures(omega.matrix[None])[0].tobytes()


#: Multiples of the cutoff DEFAULT_TOL * sigma_max straddling it, with the
#: rank decision and the ill-conditioning flag each must produce.
STRADDLING = [(20.0, True, False), (2.0, True, True), (0.5, False, True), (0.05, False, False)]
SPECTRUM = (1.0, 0.4, 0.1)


def skew_form_with_spectrum(rng, values):
    """Complex skew form U^T blkdiag(v [[0, 1], [-1, 0]]) U, U unitary: each value twice."""
    block = np.zeros((2 * len(values),) * 2)
    for j, value in enumerate(values):
        block[2 * j, 2 * j + 1], block[2 * j + 1, 2 * j] = value, -value
    u = random_orthonormal(rng, block.shape[0], block.shape[0], "C")
    return ComplexTwoForm(u.T @ block @ u)


@pytest.mark.parametrize("factor, above, _", STRADDLING)
def test_every_rank_decision_cuts_at_the_same_singular_value(factor, above, _):
    rng = np.random.default_rng(int(100 * factor))
    s = np.array(SPECTRUM + (factor * DEFAULT_TOL,))
    rank = len(s) if above else len(s) - 1
    basis = random_orthonormal(rng, 6, 4, "R") @ np.diag(s) @ random_orthonormal(rng, 4, 4, "R").T
    assert np.allclose(np.linalg.svd(basis, compute_uv=False), s, rtol=1e-6, atol=0)
    assert numerical_rank(s) == rank
    assert null_space(basis).shape[1] == 4 - rank
    assert real_span_rank(basis.astype(complex)) == rank
    if above:
        assert Subspace(basis).dim == 4
    else:
        with pytest.raises(ValueError, match="not linearly independent"):
            Subspace(basis)
    assert form_kernel(skew_form_with_spectrum(rng, s)).dim == 2 * (len(s) - rank)


def test_numerical_rank_decides_per_stacked_spectrum():
    spectra = np.array([SPECTRUM + (factor * DEFAULT_TOL,) for factor, _, _ in STRADDLING])
    expected = [len(SPECTRUM) + above for _, above, _ in STRADDLING]
    assert numerical_rank(spectra).tolist() == expected
    assert [numerical_rank(s) for s in spectra] == expected


@pytest.mark.parametrize("factor, _, flagged", STRADDLING)
def test_ill_conditioned_flags_the_two_sided_window_around_the_cutoff(factor, _, flagged):
    kernel = form_kernel(skew_form_with_spectrum(np.random.default_rng(7), SPECTRUM[:2] + (factor * DEFAULT_TOL,)))
    s = kernel.singular_values
    cutoff = DEFAULT_TOL * s[0]
    assert kernel.ill_conditioned == bool(np.any((s > cutoff / 10) & (s <= 10 * cutoff))) == flagged


def test_subspace_rejects_more_columns_than_the_ambient_dimension():
    # five columns in R^3 have rank 3 < 5, although their smallest of the
    # three singular values is far above the cutoff
    with pytest.raises(ValueError, match="not linearly independent"):
        Subspace(np.random.default_rng(0).standard_normal((3, 5)))
