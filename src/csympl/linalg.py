"""Subspaces and complex-structure operators.

Everything here is plain numerical linear algebra over R^m or C^m: every
rank decision is the SVD threshold of ``numerical_rank``, subspaces compare by mutual
projection residuals, and a complex structure is a real matrix I with
I^2 = -Id.
"""

from dataclasses import dataclass, field

import numpy as np

#: Relative tolerance of the rank cutoff, the power criterion and every
#: comparison without its own bound.
DEFAULT_TOL = 1e-9

#: Looser bound of a complex structure's I^2 = -Id and complex-linearity
#: residuals, and of the c-Lagrangian and (0,2) checks of a deformation.
STRUCTURE_TOL = 1e-8


class PostconditionError(RuntimeError):
    """An identity that holds by construction failed to hold.

    Raised explicitly rather than by a statement that ``python -O`` strips.
    """


def max_abs(x) -> float:
    return float(np.abs(x).max(initial=0.0))


def numerical_rank(s: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Count of singular values above tol * sigma_max along the last axis of
    descending spectra ``s``: the rank decision of every kernel and span."""
    return np.sum(s > tol * s[..., :1], axis=-1)


def null_space(mat: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis of the null space of ``mat`` (columns)."""
    mat = np.atleast_2d(np.asarray(mat))
    if mat.size == 0:
        return np.eye(mat.shape[1], dtype=mat.dtype)
    u, s, vh = np.linalg.svd(mat)
    return vh[numerical_rank(s, tol) :].conj().T


def real_span_rank(bases: np.ndarray) -> np.ndarray:
    """Real dimension of span_R(Re basis, Im basis) per stacked basis (..., m, k)."""
    stacked = np.concatenate([bases.real, bases.imag], axis=-1)
    return numerical_rank(np.linalg.svd(stacked, compute_uv=False))


class Subspace:
    """Linear subspace of R^m or C^m given by a full-column-rank basis."""

    def __init__(self, basis, field: str = "R"):
        basis = self._set_basis(basis, field)
        if basis.shape[1]:
            if numerical_rank(np.linalg.svd(basis, compute_uv=False)) < basis.shape[1]:
                raise ValueError("basis columns are not linearly independent")
            self._ortho = np.linalg.qr(basis)[0]
        else:
            self._ortho = basis

    @classmethod
    def from_orthonormal(cls, q, field: str = "R") -> "Subspace":
        """Subspace of a basis that is orthonormal by construction.

        The basis is checked (max |Q^H Q - Id| <= DEFAULT_TOL) and kept as its
        own orthonormal basis, without the independence SVD and QR of
        ``__init__``.
        """
        self = cls.__new__(cls)
        q = self._set_basis(q, field)
        residual = max_abs(q.conj().T @ q - np.eye(q.shape[1]))
        if not residual <= DEFAULT_TOL:
            raise PostconditionError(f"basis is not orthonormal (residual {residual:.3e})")
        self._ortho = q
        return self

    def _set_basis(self, basis, field: str) -> np.ndarray:
        if field not in ("R", "C"):
            raise ValueError(f"field must be 'R' or 'C', got {field!r}")
        basis = np.asarray(basis, dtype=np.complex128 if field == "C" else np.float64)
        if basis.ndim != 2:
            raise ValueError("basis must be a 2-d array of column vectors")
        self.ambient_dim = basis.shape[0]
        self.field = field
        self.basis = basis
        return basis

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def orthonormal_basis(self) -> np.ndarray:
        return self._ortho

    def project(self, vectors: np.ndarray) -> np.ndarray:
        """Orthogonal projection of vectors (columns) onto the subspace."""
        q = self._ortho
        return q @ (q.conj().T @ np.asarray(vectors, dtype=q.dtype))

    def contains(self, vector, tol: float = DEFAULT_TOL) -> bool:
        v = np.asarray(vector, dtype=self._ortho.dtype).reshape(-1)
        scale = max(max_abs(v), 1e-300)
        return max_abs(v - self.project(v)) <= tol * scale

    def equals(self, other: "Subspace", tol: float = DEFAULT_TOL) -> bool:
        """Span equality via mutual projection residuals."""
        if self.ambient_dim != other.ambient_dim or self.dim != other.dim:
            return False
        a, b = self._ortho.astype(np.complex128), other._ortho.astype(np.complex128)
        res_ab = max_abs(b - a @ (a.conj().T @ b))
        res_ba = max_abs(a - b @ (b.conj().T @ a))
        return res_ab <= tol and res_ba <= tol

    def orthogonal_complement(self) -> "Subspace":
        if self.dim == 0:
            return Subspace.from_orthonormal(np.eye(self.ambient_dim), field=self.field)
        u = np.linalg.svd(self.basis, full_matrices=True)[0]
        return Subspace.from_orthonormal(u[:, self.dim :], field=self.field)

    def real_span_rank(self) -> int:
        """Real dimension of span_R(Re basis, Im basis)."""
        return int(real_span_rank(self.basis))

    def __repr__(self):
        return f"Subspace(ambient={self.ambient_dim}, dim={self.dim}, field={self.field!r})"


@dataclass(frozen=True)
class ComplexStructure:
    """Real endomorphism I with I^2 = -Id on R^dim (dim even)."""

    dim: int
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        mat = self._set_matrix(self.matrix)
        residual = max_abs(mat @ mat + np.eye(self.dim))
        if residual > STRUCTURE_TOL * max(1.0, max_abs(mat) ** 2):
            raise ValueError(f"I^2 != -Id (residual {residual:.3e})")

    @classmethod
    def from_accepted(cls, dim: int, matrix) -> "ComplexStructure":
        """Structure that ``induced_structures`` has accepted.

        Its I^2 = -Id residual already met the same ``STRUCTURE_TOL`` bound
        there, so it is not recomputed; shape and dimension are checked as
        in ``__init__``.
        """
        self = cls.__new__(cls)
        object.__setattr__(self, "dim", dim)
        self._set_matrix(matrix)
        return self

    def _set_matrix(self, matrix) -> np.ndarray:
        mat = np.asarray(matrix, dtype=np.float64)
        if mat.shape != (self.dim, self.dim):
            raise ValueError("matrix shape does not match dim")
        if self.dim % 2:
            raise ValueError("a complex structure needs even dimension")
        object.__setattr__(self, "matrix", mat)
        return mat

    def rotation(self, theta: float) -> np.ndarray:
        """exp(theta I) = cos(theta) Id + sin(theta) I."""
        return np.cos(theta) * np.eye(self.dim) + np.sin(theta) * self.matrix

    def restrict(self, subspace: Subspace):
        """Matrix of I on an invariant subspace, plus the invariance residual."""
        q = subspace.orthonormal_basis()
        image = self.matrix @ q
        restricted = q.conj().T @ image
        residual = max_abs(image - q @ restricted)
        return restricted, residual
