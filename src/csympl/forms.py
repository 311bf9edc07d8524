"""Dense complex-coefficient exterior algebra on a real vector space.

Forms carry one coefficient per strictly increasing multi-index, so
antisymmetry is structural.  The module provides the wedge product,
powers of 2-forms (by the Pfaffian's first-row expansion), pullback along
linear maps, and numerical kernels of 2-forms.  Intended scale is
dim <= 32 with the sweet spot well below that; everything is
double-precision complex.
"""

from dataclasses import dataclass

import numpy as np

from . import kernels, multiindex
from .linalg import DEFAULT_TOL, Subspace, max_abs, numerical_rank


def _perm_sign_and_sorted(idx):
    """Sort an index tuple, tracking the permutation sign; repeats give 0."""
    idx = list(idx)
    sign = 1
    for i in range(1, len(idx)):
        j = i
        while j > 0 and idx[j - 1] > idx[j]:
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            sign = -sign
            j -= 1
    for i in range(1, len(idx)):
        if idx[i - 1] == idx[i]:
            return 0, tuple(idx)
    return sign, tuple(idx)


class ComplexKForm:
    """Complex-valued alternating k-form on R^dim, densely stored.

    ``coeffs[p]`` is the value on the basis tuple ``index_tuples(dim, k)[p]``;
    evaluation on permuted tuples picks up the permutation sign.  Degrees
    above ``dim`` are permitted only as the collapsed zero representation
    (an empty coefficient array), which is what a wedge overflowing the
    ambient dimension returns.
    """

    __slots__ = ("dim", "degree", "coeffs")

    def __init__(self, dim: int, degree: int, coeffs=None):
        if dim < 1:
            raise ValueError("dim must be positive")
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        n = multiindex.coefficient_count(dim, degree)
        if coeffs is None:
            coeffs = np.zeros(n, dtype=np.complex128)
        else:
            coeffs = np.asarray(coeffs, dtype=np.complex128).reshape(-1)
            if coeffs.shape[0] != n:
                raise ValueError(
                    f"expected {n} coefficients for a {degree}-form on R^{dim}, got {coeffs.shape[0]}"
                )
        self.dim = dim
        self.degree = degree
        self.coeffs = coeffs

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, dim: int, degree: int) -> "ComplexKForm":
        return cls(dim, degree)

    @classmethod
    def from_dict(cls, dim: int, degree: int, entries: dict) -> "ComplexKForm":
        """Build from {index tuple: coefficient}; tuples may be unsorted."""
        form = cls(dim, degree)
        positions = multiindex.index_positions(dim, degree)
        for idx, value in entries.items():
            idx = tuple(idx)
            if len(idx) != degree:
                raise ValueError(f"index {idx} has {len(idx)} entries, expected degree {degree}")
            if any(i < 0 or i >= dim for i in idx):
                raise ValueError(f"index {idx} out of range for dim {dim}")
            sign, sorted_idx = _perm_sign_and_sorted(idx)
            if sign == 0:
                continue
            form.coeffs[positions[sorted_idx]] += sign * value
        return form

    @classmethod
    def basis(cls, dim: int, idx) -> "ComplexKForm":
        """The basis form e^{i1} ^ ... ^ e^{ik}."""
        return cls.from_dict(dim, len(tuple(idx)), {tuple(idx): 1.0})

    @classmethod
    def scalar(cls, dim: int, value: complex) -> "ComplexKForm":
        return cls(dim, 0, np.array([value], dtype=np.complex128))

    # -- algebra --------------------------------------------------------

    def __add__(self, other: "ComplexKForm") -> "ComplexKForm":
        self._check_same_shape(other)
        return ComplexKForm(self.dim, self.degree, self.coeffs + other.coeffs)

    def __mul__(self, scalar) -> "ComplexKForm":
        return ComplexKForm(self.dim, self.degree, self.coeffs * complex(scalar))

    __rmul__ = __mul__

    def norm(self) -> float:
        """Max-coefficient norm."""
        return max_abs(self.coeffs)

    def coefficient(self, idx) -> complex:
        sign, sorted_idx = _perm_sign_and_sorted(tuple(idx))
        if sign == 0:
            return 0j
        pos = multiindex.index_positions(self.dim, self.degree).get(sorted_idx)
        if pos is None:
            raise ValueError(f"index {idx} out of range")
        return sign * self.coeffs[pos]

    def isclose(self, other: "ComplexKForm", tol: float = DEFAULT_TOL) -> bool:
        if (self.dim, self.degree) != (other.dim, other.degree):
            return False
        scale = max(self.norm(), other.norm(), 1e-300)
        return max_abs(self.coeffs - other.coeffs) <= tol * scale

    def is_zero(self, tol: float = DEFAULT_TOL) -> bool:
        return self.norm() <= tol

    def __call__(self, *vectors) -> complex:
        """Evaluate on ``degree`` vectors (real or complex entries)."""
        if len(vectors) != self.degree:
            raise ValueError(f"need {self.degree} vectors, got {len(vectors)}")
        if self.degree == 0:
            return complex(self.coeffs[0])
        mat = np.column_stack([np.asarray(v, dtype=np.complex128) for v in vectors])
        if mat.shape[0] != self.dim:
            raise ValueError("vector length does not match dim")
        rows = multiindex.index_array(self.dim, self.degree)
        minors = np.linalg.det(mat[rows, :])
        return complex(self.coeffs @ minors)

    def _check_same_shape(self, other):
        if (self.dim, self.degree) != (other.dim, other.degree):
            raise ValueError("form shapes differ")

    def __repr__(self):
        return f"ComplexKForm(dim={self.dim}, degree={self.degree}, |coeffs|={self.norm():.3e})"


def skew_matrices(matrices: np.ndarray) -> np.ndarray:
    """The skew parts (A - A^T)/2 of stacked complex matrices (..., m, m),
    checked to be exactly skew: the one place a 2-form's matrix is made.

    ``ComplexTwoForm(matrix)`` is this on one matrix.  Raises
    ``ValueError`` when an entry is not finite."""
    skew = (matrices - matrices.swapaxes(-1, -2)) / 2.0
    # exact in IEEE arithmetic unless an entry is inf or nan
    if not max_abs(skew + skew.swapaxes(-1, -2)) == 0.0:
        raise ValueError("matrix is not exactly skew after antisymmetrization: entries must be finite")
    return skew


def two_form_matrices(coeffs: np.ndarray, dim: int) -> np.ndarray:
    """Skew matrices (..., dim, dim) of stacked 2-form coefficients (..., C)
    on the increasing pairs of ``multiindex.index_array(dim, 2)``."""
    mat = np.zeros(coeffs.shape[:-1] + (dim, dim), dtype=np.complex128)
    rows = multiindex.index_array(dim, 2)
    mat[..., rows[:, 0], rows[:, 1]] = coeffs
    mat[..., rows[:, 1], rows[:, 0]] = -coeffs
    return skew_matrices(mat)


class ComplexTwoForm:
    """Degree-2 form as an exactly skew complex matrix: a(u, v) = u^T A v."""

    __slots__ = ("dim", "matrix")

    def __init__(self, matrix):
        matrix = np.asarray(matrix, dtype=np.complex128)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError("matrix must be square")
        self.dim = matrix.shape[0]
        self.matrix = skew_matrices(matrix)

    @classmethod
    def from_skew(cls, matrices: np.ndarray) -> list:
        """Forms of the stacked matrices (N, m, m) that ``skew_matrices``
        made, which are not antisymmetrized again."""
        forms = []
        for matrix in matrices:
            form = cls.__new__(cls)
            form.dim, form.matrix = matrix.shape[0], matrix
            forms.append(form)
        return forms

    @classmethod
    def from_kform(cls, form: ComplexKForm) -> "ComplexTwoForm":
        if form.degree != 2:
            raise ValueError(f"a ComplexTwoForm holds 2-forms, got a {form.degree}-form")
        return cls.from_skew(two_form_matrices(form.coeffs[None], form.dim))[0]

    def to_kform(self) -> ComplexKForm:
        rows = multiindex.index_array(self.dim, 2)
        return ComplexKForm(self.dim, 2, self.matrix[rows[:, 0], rows[:, 1]])

    def __add__(self, other: "ComplexTwoForm") -> "ComplexTwoForm":
        return ComplexTwoForm(self.matrix + other.matrix)

    def __mul__(self, scalar) -> "ComplexTwoForm":
        return ComplexTwoForm(self.matrix * complex(scalar))

    __rmul__ = __mul__

    def norm(self) -> float:
        return max_abs(self.matrix)

    def __repr__(self):
        return f"ComplexTwoForm(dim={self.dim}, |A|={self.norm():.3e})"


def _as_kform(a) -> ComplexKForm:
    return a.to_kform() if isinstance(a, ComplexTwoForm) else a


def wedge(a, b) -> ComplexKForm:
    """Exterior product; degrees beyond dim collapse to the empty zero form."""
    a, b = _as_kform(a), _as_kform(b)
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    ia, ib, sign = multiindex.wedge_table(a.dim, a.degree, b.degree)
    return ComplexKForm(a.dim, a.degree + b.degree, kernels.wedge_scatter(ia, ib, sign, a.coeffs, b.coeffs))


def next_power(a_k: np.ndarray, a: np.ndarray, dim: int, k: int) -> np.ndarray:
    """Coefficients of a^{k+1} from those of a^k and of the 2-form a on
    R^dim, stacked alike on their leading axes: k + 1 times the gather-reduce
    of ``multiindex.first_row_table``, the Pfaffian's first-row expansion,
    which takes 1/(k + 1) of the full wedge table's products."""
    out = kernels.wedge_scatter(*multiindex.first_row_table(dim, 2 * k), a_k, a)
    out *= k + 1
    return out


def power(a, k: int) -> ComplexKForm:
    """k-fold wedge of a 2-form with itself, one ``next_power`` at a time."""
    a = _as_kform(a)
    if a.degree != 2:
        raise ValueError("power is defined for 2-forms")
    if k < 1:
        raise ValueError("k must be a positive integer")
    coeffs = a.coeffs
    for j in range(1, k):
        coeffs = next_power(coeffs, a.coeffs, a.dim, j)
    return ComplexKForm(a.dim, 2 * k, coeffs)


def pullback(f: np.ndarray, a) -> ComplexKForm:
    """Pullback along the linear map with matrix f: R^src -> R^tgt.

    (f^* a)(v_1, ..., v_k) = a(f v_1, ..., f v_k); coefficients are minor
    sums, evaluated in blocks to bound memory.  A 0-form's one minor is the
    empty determinant 1, and a degree above src has no minors, giving the
    collapsed zero form.
    """
    a = _as_kform(a)
    f = np.asarray(f, dtype=np.complex128)
    if f.ndim != 2:
        raise ValueError("map must be a matrix")
    m_tgt, m_src = f.shape
    if a.dim != m_tgt:
        raise ValueError(f"form lives on R^{a.dim}, map lands in R^{m_tgt}")
    k = a.degree
    rows = multiindex.index_array(m_tgt, k)
    cols = multiindex.index_array(m_src, k)
    n_out = cols.shape[0]
    out = np.empty(n_out, dtype=np.complex128)
    block = max(1, int(2_000_000 // max(1, rows.shape[0] * k * k)))
    for start in range(0, n_out, block):
        chunk = cols[start : start + block]
        sub = f[rows[:, None, :, None], chunk[None, :, None, :]]
        out[start : start + chunk.shape[0]] = a.coeffs @ np.linalg.det(sub).reshape(
            rows.shape[0], chunk.shape[0]
        )
    return ComplexKForm(m_src, k, out)


@dataclass(frozen=True)
class FormKernel:
    """Null space of a 2-form's matrix with conditioning diagnostics."""

    subspace: Subspace
    singular_values: np.ndarray
    ill_conditioned: bool

    @property
    def dim(self) -> int:
        return self.subspace.dim


def form_kernel(a: ComplexTwoForm) -> FormKernel:
    """Kernel of a 2-form on V tensor C via SVD thresholding.

    Singular values at or below DEFAULT_TOL * sigma_max count as zero; a value
    within a factor 10 of that cutoff, in (cutoff/10, 10 cutoff], sets the
    ``ill_conditioned`` flag.
    """
    u, s, vh = np.linalg.svd(a.matrix)
    return FormKernel(
        subspace=Subspace.from_orthonormal(vh[numerical_rank(s) :].conj().T, field="C"),
        singular_values=s,
        ill_conditioned=bool(numerical_rank(s, DEFAULT_TOL / 10) != numerical_rank(s, 10 * DEFAULT_TOL)),
    )
