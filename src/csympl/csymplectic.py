"""Recognition of c-symplectic 2-forms and their induced complex structures.

A complex-valued 2-form on R^{4n} is c-symplectic when its kernel inside
the complexification has complex dimension 2n and contains no real vector;
equivalently its (n+1)-st wedge power vanishes while Omega^n ^ conj(Omega^n)
= (Omega ^ conj Omega)^n (even-degree forms commute) does not.  Such a form
determines a unique complex structure (multiplication by -i on the kernel),
and this module builds it, splits 2-forms into Hodge components, produces
canonical bases with the 4x4 block Q on the diagonal, and handles
c-isotropic / c-Lagrangian subspaces.
"""

from dataclasses import dataclass, field as dc_field
from typing import NamedTuple

import numpy as np

from . import multiindex
# form_kernel is not called here; the benchmark's tracer test checks that the
# name stays bound in this module (perfbench/tests/test_perfbench.py)
from .forms import ComplexKForm, ComplexTwoForm, form_kernel, power, wedge  # noqa: F401
from .linalg import (
    DEFAULT_TOL, STRUCTURE_TOL, ComplexStructure, PostconditionError, Subspace, max_abs, null_space, numerical_rank,
    real_span_rank,
)

#: Canonical 4x4 block of a c-symplectic form in a basis (u1, I u1, u2, I u2).
Q_BLOCK = np.array(
    [
        [0, 0, 1, 1j],
        [0, 0, 1j, -1],
        [-1, -1j, 0, 0],
        [-1j, 1, 0, 0],
    ],
    dtype=np.complex128,
)


def q_block_form(n: int = 1) -> ComplexTwoForm:
    """blkdiag(Q, ..., Q) on R^{4n}."""
    mat = np.zeros((4 * n, 4 * n), dtype=np.complex128)
    for j in range(n):
        mat[4 * j : 4 * j + 4, 4 * j : 4 * j + 4] = Q_BLOCK
    return ComplexTwoForm(mat)


@dataclass(frozen=True)
class RankCriterion:
    ok: bool
    reason: str
    kernel_dim: int
    real_span_rank: int
    ill_conditioned: bool

    def __bool__(self):
        return self.ok


@dataclass(frozen=True)
class PowerCriterion:
    ok: bool
    reason: str
    power_norm: float
    #: |Omega^n ^ conj(Omega^n)| = |(Omega ^ conj Omega)^n|: even-degree forms commute.
    pairing_norm: float
    form_norm: float

    def __bool__(self):
        return self.ok


class RankVerdicts(NamedTuple):
    """The rank criterion of a stack of forms (N, m, m), one entry per form.

    ``real_span_rank`` is -1 where the kernel dimension is not m/2.
    ``singular_values`` (N, m) are each form's, in descending order.
    ``kernels`` (N, m, m/2) holds the conjugated right singular vectors of
    the m/2 smallest singular values: an orthonormal kernel basis of each
    form whose ``kernel_dim`` is m/2.  When m is not a multiple of 4 every
    form fails undecided: ``kernel_dim`` and ``real_span_rank`` are -1, the
    singular values and kernels are NaN, and no form is ill-conditioned.
    """

    ok: np.ndarray
    kernel_dim: np.ndarray
    real_span_rank: np.ndarray
    singular_values: np.ndarray
    kernels: np.ndarray

    @property
    def ill_conditioned(self) -> np.ndarray:
        """A singular value in (cutoff/10, 10 cutoff], cutoff = DEFAULT_TOL *
        sigma_max: exactly where ``numerical_rank`` at DEFAULT_TOL / 10 and at
        10 DEFAULT_TOL differ.  Computed on demand; ``induced_structures``
        does not read it."""
        s = self.singular_values
        top = s[:, :1]
        return ((s > DEFAULT_TOL / 10 * top) != (s > 10 * DEFAULT_TOL * top)).any(axis=-1)

    def criterion(self, i: int) -> RankCriterion:
        """Form ``i``'s verdict with its reason."""
        m = self.kernels.shape[-2]
        kernel_dim, span_rank = int(self.kernel_dim[i]), int(self.real_span_rank[i])
        if m % 4:
            reason = "dimension not 4n"
        elif kernel_dim != m // 2:
            reason = f"kernel dimension {kernel_dim} != {m // 2}"
        elif span_rank != m:
            reason = "kernel contains real vectors"
        else:
            reason = ""
        return RankCriterion(not reason, reason, kernel_dim, span_rank, bool(self.ill_conditioned[i]))


def rank_verdicts(omegas: np.ndarray) -> RankVerdicts:
    """Kernel criterion of stacked forms (N, m, m): dim_C ker = m/2 and ker
    meets R^m only at 0, in one kernel SVD and one real-span SVD.

    This is the one place a rank verdict is computed; ``is_c_symplectic_rank``
    is this call on a stack of one, and ``induced_structures`` takes its mask
    and kernels from it.  A singular value counts as zero at or below
    DEFAULT_TOL * sigma_max; one in (cutoff/10, 10 cutoff] sets
    ``ill_conditioned``.  The real-intersection test is a rank check: the
    real span of the kernel basis' real and imaginary parts must fill R^m.
    Raises ``PostconditionError`` when max |K^H K - Id| > DEFAULT_TOL over the
    stack.
    """
    count, m = omegas.shape[:2]
    half = m // 2
    if m % 4:
        unset = np.full(count, -1)
        nan_kernels = np.full((count, m, half), np.nan + 0j)
        return RankVerdicts(np.zeros(count, dtype=bool), unset, unset, np.full((count, m), np.nan), nan_kernels)
    _, s, vh = np.linalg.svd(omegas)
    kernels = np.swapaxes(vh[:, half:].conj(), -1, -2)
    residual = max_abs(vh[:, half:] @ kernels - np.eye(half))
    if not residual <= DEFAULT_TOL:
        raise PostconditionError(f"kernel bases are not orthonormal (residual {residual:.3e})")
    kernel_dim = m - numerical_rank(s)
    span_rank = np.where(kernel_dim == half, real_span_rank(kernels), -1)
    return RankVerdicts(span_rank == m, kernel_dim, span_rank, s, kernels)


def is_c_symplectic_rank(omega: ComplexTwoForm) -> RankCriterion:
    """Kernel criterion of one form: ``rank_verdicts`` on a stack of one."""
    return rank_verdicts(omega.matrix[None]).criterion(0)


def is_c_symplectic_power(omega: ComplexTwoForm) -> PowerCriterion:
    """Power criterion: Omega^{n+1} = 0 while Omega^n ^ conj(Omega^n) != 0,
    the pairing (Omega ^ conj Omega)^n, since even-degree forms commute."""
    m = omega.dim
    if m % 4:
        return PowerCriterion(False, "dimension not 4n", -1.0, -1.0, omega.norm())
    n = m // 4
    scale = omega.norm()
    if scale == 0.0:
        return PowerCriterion(False, "zero form", 0.0, 0.0, 0.0)
    omega_n = power(omega, n)
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


def induced_complex_structure(omega: ComplexTwoForm) -> ComplexStructure:
    """The unique complex structure making omega a nondegenerate (2,0)-form.

    Acts as multiplication by -i on ker(omega) and by +i on the conjugate
    kernel; realness follows from self-conjugacy of that prescription.
    This is ``induced_structures`` on a stack of one.  Raises on
    non-c-symplectic input, naming the failing criterion.
    """
    structure = induced_structures(omega.matrix[None])[0]
    if np.isnan(structure).any():
        reason = is_c_symplectic_rank(omega).reason or "induced structure rejected"
        raise ValueError(f"not c-symplectic (rank criterion): {reason}")
    return ComplexStructure(omega.dim, structure)


def _structure_accepted(realness, square, linearity):
    """Acceptance of stacked ``structures_from_kernels`` residuals."""
    return (realness <= DEFAULT_TOL) & (square <= STRUCTURE_TOL) & (linearity <= STRUCTURE_TOL)


def structures_from_kernels(omegas: np.ndarray, kernels: np.ndarray):
    """Induced structures of stacked forms (..., m, m) from kernel bases (..., m, m/2).

    -i on the kernel and +i on its conjugate: I = (P D) P^{-1}, P = [K, conj K].
    Returns Re I and, per matrix, the max-norm residuals of realness,
    I^2 = -Id and I^T A = i A, relative to max(1, |I|), max(1, |Re I|^2)
    and max(1, |A|).
    """
    m, half = kernels.shape[-2:]
    p = np.concatenate([kernels, kernels.conj()], axis=-1)
    d = np.repeat([-1j, 1j], half)
    mats = (p * d) @ np.linalg.inv(p)
    real = mats.real
    realness = _stack_max(mats.imag) / np.maximum(1.0, _stack_max(mats))
    square = _stack_max(real @ real + np.eye(m)) / np.maximum(1.0, _stack_max(real) ** 2)
    linearity = _stack_max(np.swapaxes(real, -1, -2) @ omegas - 1j * omegas) / np.maximum(1.0, _stack_max(omegas))
    return real, realness, square, linearity


def _stack_max(x: np.ndarray) -> np.ndarray:
    return np.abs(x).max(axis=(-2, -1), initial=0.0)


def induced_structures(omegas: np.ndarray):
    """Induced structures of stacked forms (..., m, m), NaN where a form fails.

    This is the one place an induced structure is built and accepted;
    ``induced_complex_structure`` is this call on a stack of one.  A form
    passes when ``rank_verdicts`` accepts it and the structure built from its
    kernel meets ``_structure_accepted``; failing forms are not inverted, and
    their NaN structure is the only record of the failure.

    Each distinct matrix is decided once and its result scattered back to
    every form that repeats it; torus structure fields repeat most nodes
    (the testbed's two controls have 147 and 54 distinct nodes of 4096).
    Matrices are keyed by their bytes, not their values: -0.0 and +0.0
    compare equal but can decide differently, and value keys would also
    merge NaN payloads.  With byte keys every form gets exactly the bits it
    would get decided on its own.
    """
    m = omegas.shape[-1]
    flat = np.ascontiguousarray(omegas).reshape(-1, m, m)
    first = inverse = np.arange(len(flat))
    if len(flat) > 1:  # one form shares nothing; skip np.unique's fixed cost
        keys = flat.reshape(len(flat), m * m).view(np.dtype((np.void, flat.itemsize * m * m)))
        _, first, inverse = np.unique(keys.ravel(), return_index=True, return_inverse=True)
    distinct = flat[first]
    verdicts = rank_verdicts(distinct)
    ok = verdicts.ok
    real, realness, square, linearity = structures_from_kernels(distinct[ok], verdicts.kernels[ok])
    passed = _structure_accepted(realness, square, linearity)
    structures = np.full(distinct.shape, np.nan)
    structures[ok] = np.where(passed[:, None, None], real, np.nan)
    return structures[inverse].reshape(omegas.shape)


def hodge_decompose(a: ComplexTwoForm | ComplexKForm, structure: ComplexStructure) -> dict:
    """Split a 2-form into its (2,0), (1,1) and (0,2) components.

    ``a`` is a ``ComplexTwoForm`` or a degree-2 ``ComplexKForm``.  With A
    its matrix and P = (Id - iI)/2 the projector onto the (1,0)
    directions: A20 = P^T A P, A02 = conj(P)^T A conj(P) and
    A11 = A - A20 - A02 (Huybrechts, Complex Geometry, 1.2).
    """
    if isinstance(a, ComplexKForm):
        if a.degree != 2:
            raise ValueError(f"hodge_decompose splits 2-forms, got a {a.degree}-form")
        a = ComplexTwoForm.from_kform(a)
    if a.dim != structure.dim:
        raise ValueError("form and structure dimensions differ")
    proj = (np.eye(a.dim) - 1j * structure.matrix) / 2.0
    rows = multiindex.index_array(a.dim, 2)
    c20 = (proj.T @ a.matrix @ proj)[rows[:, 0], rows[:, 1]]
    c02 = (proj.conj().T @ a.matrix @ proj.conj())[rows[:, 0], rows[:, 1]]
    return {
        (0, 2): ComplexKForm(a.dim, 2, c02),
        (1, 1): ComplexKForm(a.dim, 2, a.matrix[rows[:, 0], rows[:, 1]] - c20 - c02),
        (2, 0): ComplexKForm(a.dim, 2, c20),
    }


def is_c_isotropic(subspace: Subspace, omega: ComplexTwoForm, tol: float = DEFAULT_TOL) -> bool:
    """True when omega vanishes on the subspace (Gram residual test)."""
    if subspace.ambient_dim != omega.dim:
        raise ValueError("ambient dimension mismatch")
    if subspace.dim == 0:
        return True
    q = subspace.orthonormal_basis()
    gram = q.T @ omega.matrix @ q
    return max_abs(gram) <= tol * max(omega.norm(), 1e-300)


def is_c_lagrangian(subspace: Subspace, omega: ComplexTwoForm, tol: float = DEFAULT_TOL) -> bool:
    """c-isotropic of maximal real dimension 2n.

    Maximality is equivalent to dim_R = 2n: the real part of a
    c-symplectic form is a nondegenerate real symplectic form taming the
    induced structure, which caps isotropic subspaces at half dimension.
    """
    if omega.dim % 4:
        raise ValueError("omega does not live on R^{4n}")
    if subspace.field != "R":
        raise ValueError("c-Lagrangian subspaces are real")
    return subspace.dim == omega.dim // 2 and is_c_isotropic(subspace, omega, tol)


def c_symplectic_basis(omega: ComplexTwoForm) -> np.ndarray:
    """Real invertible B with B^T A B = blkdiag(Q, ..., Q).

    Symplectic Gram-Schmidt: pick u1 (pivoted for stability), adjoin
    I u1, pick u2 with Omega(u1, u2) = 1 by a complex rescaling realized
    through I, adjoin I u2, then recurse on the Omega-orthogonal
    complement of the block.  Raises ``ValueError`` on non-c-symplectic
    input, from the first block's ``induced_complex_structure``.
    """
    m = omega.dim
    carrier = np.eye(m)  # orthonormal basis of the still-unreduced subspace
    columns = []
    while carrier.shape[1] > 0:
        a_cur = ComplexTwoForm(carrier.T @ omega.matrix @ carrier)
        m_cur = a_cur.dim
        structure = induced_complex_structure(a_cur)
        row_norms = np.linalg.norm(a_cur.matrix, axis=1)
        u1 = np.zeros(m_cur)
        u1[int(np.argmax(row_norms))] = 1.0
        v1 = structure.matrix @ u1
        pairings = u1 @ a_cur.matrix
        j = int(np.argmax(np.abs(pairings)))
        if abs(pairings[j]) <= DEFAULT_TOL * max(a_cur.norm(), 1e-300):
            raise PostconditionError("internal consistency error: no partner with Omega(u1, x) != 0")
        x = np.zeros(m_cur)
        x[j] = 1.0
        z = 1.0 / pairings[j]
        u2 = z.real * x + z.imag * (structure.matrix @ x)
        v2 = structure.matrix @ u2
        block = np.column_stack([u1, v1, u2, v2])
        columns.append(carrier @ block)
        # Omega-orthogonal of the block: Omega(w, u1) = Omega(w, u2) = 0
        # (conditions against I u1, I u2 are the same rows times i).
        cond = np.vstack(
            [
                (a_cur.matrix @ u1).real,
                (a_cur.matrix @ u1).imag,
                (a_cur.matrix @ u2).real,
                (a_cur.matrix @ u2).imag,
            ]
        )
        carrier = carrier @ null_space(cond)
    b = np.hstack(columns)
    target = q_block_form(m // 4).matrix
    residual = max_abs(b.T @ omega.matrix @ b - target)
    if residual > 1e-6 * max(omega.norm(), 1e-300):
        raise PostconditionError(f"internal consistency error: basis residual {residual:.3e}")
    return b


@dataclass(frozen=True)
class CSymplecticSpace:
    """A validated c-symplectic form with its cached induced structure."""

    omega: ComplexTwoForm
    structure: ComplexStructure = dc_field(repr=False)

    @classmethod
    def from_form(cls, omega: ComplexTwoForm) -> "CSymplecticSpace":
        """Validate omega by both criteria, the rank criterion (read off the
        induced structure) first."""
        structure = induced_complex_structure(omega)
        power_check = is_c_symplectic_power(omega)
        if not power_check:
            raise ValueError(f"not c-symplectic (power criterion): {power_check.reason}")
        return cls(omega=omega, structure=structure)

    @property
    def dim(self) -> int:
        return self.omega.dim

    @property
    def n(self) -> int:
        return self.omega.dim // 4


def random_c_symplectic(rng: np.random.Generator, dim: int, cond_max: float = 1e3):
    """Random instance: pullback of blkdiag(Q,...) under a conditioned map.

    Every c-symplectic form arises this way; rejecting condition numbers
    above ``cond_max`` keeps instances numerically comfortable.  Returns
    (omega, p) with omega the form and p the change of basis used.
    """
    if dim % 4:
        raise ValueError("dim must be a multiple of 4")
    base = q_block_form(dim // 4).matrix
    while True:
        p = rng.standard_normal((dim, dim))
        if np.linalg.cond(p) <= cond_max:
            return ComplexTwoForm(p.T @ base @ p), p
