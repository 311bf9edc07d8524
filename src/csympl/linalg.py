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


def stack_max(x: np.ndarray) -> np.ndarray:
    """``max_abs`` of each matrix of a stack (..., m, k)."""
    return np.abs(x).max(axis=(-2, -1), initial=0.0)


def same_lengths(**inputs) -> int:
    """The common length of parallel inputs, given by name; raises
    ``ValueError`` naming each input's length when they differ."""
    lengths = {name: len(value) for name, value in inputs.items()}
    if len(set(lengths.values())) > 1:
        raise ValueError("parallel inputs differ in length: " + ", ".join(f"{n} {name}" for name, n in lengths.items()))
    return next(iter(lengths.values()))


def conditioned_draws(rngs, draw, cond_max: float) -> np.ndarray:
    """Stack of each generator's first ``draw(rng)``, a square matrix, whose
    condition number is at most ``cond_max``.

    A generator draws again only while its draw is rejected, so it draws,
    and ends in the state, as a rejection loop on it alone would.  Each
    rejection round tests the range's pending draws in one stacked
    ``np.linalg.cond`` call, which decomposes one matrix at a time: the
    rounds are 1 + the most redraws any generator needs.  Raises
    ``ValueError`` for no generators, and for a ``cond_max`` below 1, which
    no condition number is.
    """
    if not len(rngs):
        raise ValueError("no generators to draw from")
    if not cond_max >= 1:
        raise ValueError(f"cond_max must be at least 1, got {cond_max}")
    draws = np.stack([draw(rng) for rng in rngs])
    pending = np.arange(len(rngs))
    while pending.size:
        pending = pending[~(np.linalg.cond(draws[pending]) <= cond_max)]
        for i in pending:
            draws[i] = draw(rngs[i])
    return draws


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


def orthonormality_residuals(bases: np.ndarray) -> np.ndarray:
    """max |Q^H Q - Id| of each basis of a stack (..., m, k)."""
    return stack_max(np.swapaxes(bases.conj(), -1, -2) @ bases - np.eye(bases.shape[-1]))


def complement_bases(bases: np.ndarray) -> np.ndarray:
    """Orthonormal bases (..., m, m - k) of the orthogonal complements of the
    spans of stacked full-column-rank bases (..., m, k): the trailing left
    singular vectors of one full SVD."""
    return np.linalg.svd(bases, full_matrices=True)[0][..., bases.shape[-1] :]


def real_span_rank(bases: np.ndarray) -> np.ndarray:
    """Real dimension of span_R(Re basis, Im basis) per stacked basis (..., m, k)."""
    stacked = np.concatenate([bases.real, bases.imag], axis=-1)
    return numerical_rank(np.linalg.svd(stacked, compute_uv=False))


def _field_dtype(field: str):
    if field not in ("R", "C"):
        raise ValueError(f"field must be 'R' or 'C', got {field!r}")
    return np.complex128 if field == "C" else np.float64


def orthonormal_bases(bases: np.ndarray) -> np.ndarray:
    """Orthonormal bases of the spans of stacked bases (N, m, k), checked to
    be linearly independent: one stacked SVD and one stacked QR."""
    if not bases.shape[-1]:
        return bases
    if (numerical_rank(np.linalg.svd(bases, compute_uv=False)) < bases.shape[-1]).any():
        raise ValueError("basis columns are not linearly independent")
    return np.linalg.qr(bases)[0]


class Subspace:
    """Linear subspace of R^m or C^m given by a full-column-rank basis."""

    def __init__(self, basis, field: str = "R"):
        """The span of one basis: ``from_bases`` on a stack of one."""
        basis = self._set_basis(basis, field)
        self._ortho = orthonormal_bases(basis[None])[0]

    @classmethod
    def from_bases(cls, bases, field: str = "R") -> list:
        """Subspaces of stacked full-column-rank bases (N, m, k).

        The stack takes one independence SVD and one QR, each of which
        decomposes one matrix at a time, so a basis gets the orthonormal
        basis it gets alone.  Raises ``ValueError`` as ``__init__`` does.
        """
        bases = np.asarray(bases, dtype=_field_dtype(field))
        if bases.ndim != 3:
            raise ValueError("bases must be a 3-d stack of column-vector bases")
        subspaces = []
        for basis, ortho in zip(bases, orthonormal_bases(bases)):
            subspace = cls.__new__(cls)
            subspace._set_basis(basis, field)
            subspace._ortho = ortho
            subspaces.append(subspace)
        return subspaces

    @classmethod
    def from_orthonormal(cls, q, field: str = "R") -> "Subspace":
        """Subspace of a basis that is orthonormal by construction.

        The basis is checked (max |Q^H Q - Id| <= DEFAULT_TOL) and kept as its
        own orthonormal basis, without the independence SVD and QR of
        ``__init__``.
        """
        self = cls.__new__(cls)
        q = self._set_basis(q, field)
        residual = float(orthonormality_residuals(q))
        if not residual <= DEFAULT_TOL:
            raise PostconditionError(f"basis is not orthonormal (residual {residual:.3e})")
        self._ortho = q
        return self

    def _set_basis(self, basis, field: str) -> np.ndarray:
        basis = np.asarray(basis, dtype=_field_dtype(field))
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
        return Subspace.from_orthonormal(complement_bases(self.basis), field=self.field)

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
        residual, failed = square_residuals(mat[None])
        if failed[0]:
            raise ValueError(f"I^2 != -Id (residual {residual[0]:.3e})")

    @classmethod
    def from_accepted(cls, dim: int, matrix) -> "ComplexStructure":
        """Structure that ``induced_structures`` has accepted, or whose
        ``square_residuals`` its caller has already checked.

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


def square_residuals(structures: np.ndarray):
    """The I^2 = -Id residuals max |I^2 + Id| of stacked structures (..., d, d)
    and where they exceed ``STRUCTURE_TOL`` max(1, |I|^2): the one check a
    complex structure's square is held to."""
    residual = stack_max(structures @ structures + np.eye(structures.shape[-1]))
    return residual, residual > STRUCTURE_TOL * np.maximum(1.0, stack_max(structures) ** 2)


def restrictions(structures: np.ndarray, bases: np.ndarray):
    """Matrices Q^H I Q of stacked structures (..., m, m) on the subspaces of
    orthonormal bases Q (..., m, k), and the invariance residuals
    max |I Q - Q (Q^H I Q)|; the two stacks broadcast against each other."""
    image = structures @ bases
    restricted = np.swapaxes(bases.conj(), -1, -2) @ image
    return restricted, stack_max(image - bases @ restricted)
