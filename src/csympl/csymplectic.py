"""Recognition of c-symplectic 2-forms and their induced complex structures.

A complex-valued 2-form on R^{4n} is c-symplectic when its kernel inside
the complexification has complex dimension 2n and contains no real vector;
equivalently its (n+1)-st wedge power vanishes while Omega^n ^ conj(Omega^n)
= (Omega ^ conj Omega)^n (even-degree forms commute) does not.  Such a form
determines a unique complex structure I, the one with I^T Omega = i Omega:
with Omega = R + iJ (R, J real) that is I = -R^{-1} J.  R is invertible:
Omega(x, Iy) = i Omega(x, y) gives J(x, y) = -R(x, Iy), so R x = 0 for a
real x would put x in ker Omega.  This module builds it, splits 2-forms
into Hodge components, produces canonical bases with the 4x4 block Q on
the diagonal, and handles c-isotropic / c-Lagrangian subspaces.

Each criterion is decided for a stack of forms in one place:
``rank_verdicts`` by two SVDs, ``power_verdicts`` by wedges alone, sharing
no code, since their agreement is the result reproduced.  The single-form
``is_c_symplectic_rank`` and ``is_c_symplectic_power`` are those calls on
a stack of one.
"""

import os
import threading
from dataclasses import dataclass, field as dc_field
from typing import NamedTuple

import numpy as np

from . import kernels, multiindex
# form_kernel is not called here; the benchmark's tracer test checks that the
# name stays bound in this module (perfbench/tests/test_perfbench.py)
from .forms import ComplexKForm, ComplexTwoForm, form_kernel, next_power, skew_matrices  # noqa: F401
from .linalg import (
    DEFAULT_TOL, STRUCTURE_TOL, ComplexStructure, PostconditionError, Subspace, conditioned_draws, max_abs, numerical_rank,
    real_span_rank, stack_max,
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
    ``singular_values`` (N, m) are each form's, in descending order.  When
    m is not a multiple of 4 every form fails undecided: ``kernel_dim`` and
    ``real_span_rank`` are -1, the singular values are NaN, and no form is
    ill-conditioned.
    """

    ok: np.ndarray
    kernel_dim: np.ndarray
    real_span_rank: np.ndarray
    singular_values: np.ndarray

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
        m = self.singular_values.shape[-1]
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
    from it.  A singular value counts as zero at or below
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
        return RankVerdicts(np.zeros(count, dtype=bool), unset, unset, np.full((count, m), np.nan))
    _, s, vh = np.linalg.svd(omegas)
    bases = np.swapaxes(vh[:, half:].conj(), -1, -2)
    residual = max_abs(vh[:, half:] @ bases - np.eye(half))
    if not residual <= DEFAULT_TOL:
        raise PostconditionError(f"kernel bases are not orthonormal (residual {residual:.3e})")
    kernel_dim = m - numerical_rank(s)
    span_rank = np.where(kernel_dim == half, real_span_rank(bases), -1)
    return RankVerdicts(span_rank == m, kernel_dim, span_rank, s)


def is_c_symplectic_rank(omega: ComplexTwoForm) -> RankCriterion:
    """Kernel criterion of one form: ``rank_verdicts`` on a stack of one."""
    return rank_verdicts(omega.matrix[None]).criterion(0)


class PowerVerdicts(NamedTuple):
    """The power criterion of a stack of forms (N, m, m), one entry per form.

    ``power_norm`` is |Omega^{n+1}|, ``pairing_norm`` |Omega^n ^ conj(Omega^n)|
    and ``form_norm`` |Omega|, each the max-coefficient norm, and
    ``power_ok`` says Omega^{n+1} vanishes.  When m is not a multiple of 4
    every form fails undecided, with power and pairing norms -1.
    """

    ok: np.ndarray
    power_ok: np.ndarray
    power_norm: np.ndarray
    pairing_norm: np.ndarray
    form_norm: np.ndarray

    def criterion(self, i: int) -> PowerCriterion:
        """Form ``i``'s verdict with its reason."""
        if self.power_norm[i] < 0:
            reason = "dimension not 4n"
        elif self.form_norm[i] == 0:
            reason = "zero form"
        elif not self.power_ok[i]:
            reason = "Omega^{n+1} != 0"
        elif not self.ok[i]:
            reason = "(Omega ^ conj Omega)^n = 0"
        else:
            reason = ""
        norms = (self.power_norm[i], self.pairing_norm[i], self.form_norm[i])
        return PowerCriterion(not reason, reason, *map(float, norms))


def power_verdicts(omegas: np.ndarray) -> PowerVerdicts:
    """Power criterion of stacked forms (N, m = 4n, m): Omega^{n+1} = 0 while
    the pairing Omega^n ^ conj(Omega^n) = (Omega ^ conj Omega)^n != 0 (even-
    degree forms commute), by wedges alone.

    This is the one place a power verdict is computed; ``is_c_symplectic_power``
    is this call on a stack of one.  Omega^n and Omega^{n+1} are built one
    ``next_power`` (the Pfaffian's first-row expansion) at a time, the
    pairing by the full wedge table.  The norms are held to
    DEFAULT_TOL * |Omega|^{n+1} and DEFAULT_TOL * |Omega|^{2n}.  The forms
    are taken in chunks whose Omega^n hold at most ``kernels.BLOCK``
    coefficients between them, and ``wedge_scatter`` gives a form the same
    bits in any chunk, so a form's verdict is its verdict alone.
    """
    count, m = omegas.shape[0], omegas.shape[-1]
    form_norm = stack_max(omegas)
    if m % 4:
        unset = np.full(count, -1.0)
        return PowerVerdicts(np.zeros(count, dtype=bool), np.zeros(count, dtype=bool), unset, unset, form_norm)
    n = m // 4
    rows = multiindex.index_array(m, 2)
    pairing_table = multiindex.wedge_table(m, 2 * n, 2 * n)
    power_norm, pairing_norm = np.zeros(count), np.zeros(count)
    chunk = max(1, kernels.BLOCK // multiindex.coefficient_count(m, 2 * n))
    # a form on R^0 is the zero form, with no power to build
    for start in range(0, count if n else 0, chunk):
        omega = omegas[start : start + chunk, rows[:, 0], rows[:, 1]]
        omega_n = omega
        for k in range(1, n):
            omega_n = next_power(omega_n, omega, m, k)
        top = next_power(omega_n, omega, m, n)
        pairing = kernels.wedge_scatter(*pairing_table, omega_n, omega_n.conj())
        power_norm[start : start + chunk] = np.abs(top).max(axis=-1, initial=0.0)
        pairing_norm[start : start + chunk] = np.abs(pairing).max(axis=-1, initial=0.0)
    # the bounds in Python floats, as the tests' per-form reference takes
    # them: numpy's array power differs from Python's in the last bit for
    # about 5 % of scales
    scale = form_norm.tolist()
    power_ok = np.array([p <= DEFAULT_TOL * s ** (n + 1) for p, s in zip(power_norm.tolist(), scale)], dtype=bool)
    pairing_ok = np.array([p > DEFAULT_TOL * s ** (2 * n) for p, s in zip(pairing_norm.tolist(), scale)], dtype=bool)
    return PowerVerdicts(power_ok & pairing_ok & (form_norm != 0), power_ok, power_norm, pairing_norm, form_norm)


def is_c_symplectic_power(omega: ComplexTwoForm) -> PowerCriterion:
    """Power criterion of one form: ``power_verdicts`` on a stack of one."""
    return power_verdicts(omega.matrix[None]).criterion(0)


def accepted_structures(omegas: np.ndarray) -> np.ndarray:
    """``induced_structures`` of stacked forms (N, m, m) that must all pass.

    Raises ``ValueError`` for the first form that fails, naming the failing
    criterion from the verdict that call made."""
    structures, verdicts = induced_structures(omegas)
    failed = np.isnan(structures).any(axis=(-2, -1))
    if failed.any():
        reason = verdicts.criterion(int(np.argmax(failed))).reason or "induced structure rejected"
        raise ValueError(f"not c-symplectic (rank criterion): {reason}")
    return structures


def induced_complex_structure(omega: ComplexTwoForm) -> ComplexStructure:
    """The unique complex structure making omega a nondegenerate (2,0)-form.

    The real I with I^T omega = i omega, so -i on ker(omega) and +i on its
    conjugate.  This is ``accepted_structures`` on a stack of one, and
    raises as it does on non-c-symplectic input.
    """
    return ComplexStructure.from_accepted(omega.dim, accepted_structures(omega.matrix[None])[0])


def _structure_accepted(square, linearity):
    """Acceptance of stacked ``structures_from_forms`` residuals."""
    return (square <= STRUCTURE_TOL) & (linearity <= STRUCTURE_TOL)


def structures_from_forms(omegas: np.ndarray):
    """Induced structures of stacked forms (..., m, m) whose real parts are
    invertible, as every c-symplectic form's is.

    With A = R + iJ, I^T A = i A reads I^T R = -J and I^T J = R; R and J
    are skew, so the first is I = -R^{-1} J, one real solve per form.
    Returns I and, per matrix, the max-norm residuals of I^2 = -Id and
    I^T A = i A (of which I^T J = R is the half the solve does not impose),
    relative to max(1, |I|^2) and max(1, |A|).
    """
    real = -np.linalg.solve(omegas.real, omegas.imag)
    square = stack_max(real @ real + np.eye(omegas.shape[-1])) / np.maximum(1.0, stack_max(real) ** 2)
    linearity = stack_max(np.swapaxes(real, -1, -2) @ omegas - 1j * omegas) / np.maximum(1.0, stack_max(omegas))
    return real, square, linearity


#: Distinct forms per chunk of ``induced_structures``.  The chunks are shared
#: out over the process's CPUs, and each thread allocates a chunk's
#: temporaries from its own malloc arena: on the testbed's 4096-node field,
#: chunks of 512 lowered peak RSS below that of one whole-field decision,
#: and chunks of 2048 raised it.
CHUNK = 512

#: Holds the module's one thread pool once it is created; the binding itself
#: never changes, so a snapshot of the module's attributes stays valid.
_pool = []
_pool_lock = threading.Lock()


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _thread_pool():
    """The module's pool of CPUs - 1 threads, created (and
    ``concurrent.futures`` imported) on first use."""
    with _pool_lock:
        if not _pool:
            from concurrent.futures import ThreadPoolExecutor

            _pool.append(ThreadPoolExecutor(max_workers=max(_cpu_count() - 1, 1), thread_name_prefix="csympl-chunk"))
    return _pool[0]


def _map_chunks(decide, chunks: list) -> list:
    """``decide`` of each chunk, in chunk order.

    With one chunk or one CPU every chunk runs on the calling thread.
    Otherwise the chunks are dealt round-robin into one share per CPU: the
    calling thread decides the first share and the module's pool the others.
    numpy's LAPACK and matmul loops release the GIL, so the shares' native
    work overlaps.
    """
    cpus = min(_cpu_count(), len(chunks))
    if cpus == 1:
        return [decide(chunk) for chunk in chunks]
    # map is lazy, so each share's decide calls run on the pool thread
    futures = [_thread_pool().submit(list, map(decide, chunks[k::cpus])) for k in range(1, cpus)]
    try:
        shares = [list(map(decide, chunks[::cpus]))]
    finally:
        for future in futures:  # no share runs on after the call, also when it raises
            future.exception()
    shares += [future.result() for future in futures]
    parts = [None] * len(chunks)
    for k, share in enumerate(shares):
        parts[k::cpus] = share
    return parts


def _decide_distinct(distinct: np.ndarray):
    """Structures (NaN where a form fails) and rank verdicts of distinct forms."""
    verdicts = rank_verdicts(distinct)
    ok = verdicts.ok
    # only rank-accepted forms are solved: a failing form's R may be singular
    real, square, linearity = structures_from_forms(distinct[ok])
    passed = _structure_accepted(square, linearity)
    structures = np.full(distinct.shape, np.nan)
    structures[ok] = np.where(passed[:, None, None], real, np.nan)
    return structures, verdicts


def _hash_multipliers(words: int) -> np.ndarray:
    """Fixed odd multipliers of a row of ``words`` uint64 words; the row's
    hash is its words' wrapping dot product with them.  An odd multiplier
    is invertible modulo 2^64, so rows that differ in one word never share
    a hash."""
    return np.arange(1, 2 * words, 2, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)


def _repeat_groups(flat: np.ndarray):
    """``(first, inverse)`` grouping the bitwise equal matrices of a stack
    (N, m, m), or None when no two are equal.  ``first`` holds the index of
    each group's first matrix, increasing, and ``inverse`` the group of
    every matrix.

    Each matrix's bytes, read as uint64 words, hash to one key.  A stable
    sort by key brings equal matrices together in index order, and a group
    starts wherever two neighbours differ in any word.  Two different
    matrices never share a group, whatever the hash: a collision can only
    split a group, so that one matrix is decided twice, with the same bits.
    """
    words = flat.reshape(len(flat), -1).view(np.uint64)
    keys = words @ _hash_multipliers(words.shape[1])
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    starts = np.empty(len(flat), dtype=bool)
    starts[0] = True
    np.not_equal(keys[1:], keys[:-1], out=starts[1:])
    tied = np.flatnonzero(~starts[1:])  # sorted neighbours tied + 1 and tied, one key
    if len(tied):
        starts[tied + 1] = (words[order[tied + 1]] != words[order[tied]]).any(axis=1)
    if starts.all():
        return None
    heads = order[starts]  # each group's first matrix, in key order
    is_first = np.zeros(len(flat), dtype=bool)
    is_first[heads] = True
    number = np.cumsum(is_first) - 1  # a first matrix's group, in index order
    inverse = np.empty(len(flat), dtype=np.intp)
    inverse[order] = number[heads][np.cumsum(starts) - 1]
    return np.flatnonzero(is_first), inverse


def induced_structures(omegas: np.ndarray):
    """Induced structures of stacked forms (..., m, m), NaN where a form fails,
    and the ``RankVerdicts`` of the flattened stack (N, m, m).

    This is the one place an induced structure is built and accepted;
    ``induced_complex_structure`` is this call on a stack of one.  A form
    passes when ``rank_verdicts`` accepts it and the structure solved from it
    meets ``_structure_accepted``; failing forms are not solved.  A
    NaN structure marks a failure, and its verdict's ``criterion(i).reason``
    names a rank failure (empty when the structure was rejected).

    Each distinct matrix is decided once and its result scattered back to
    every form that repeats it; torus structure fields repeat most nodes
    (the testbed's two controls have 147 and 54 distinct nodes of 4096).
    ``_repeat_groups`` finds the repeats by hashing each matrix's bytes as
    uint64 words and comparing the words of neighbours in hash order.
    Matrices are compared by their bits, not their values: -0.0 and +0.0
    compare equal but can decide differently, and value comparison would
    also merge NaN payloads.  So every form gets exactly the bits it would
    get decided on its own.  A stack with no repeats, such as the section
    field's 4096 distinct nodes, is decided as it stands, with no gather
    and no scatter.

    The distinct matrices are decided in chunks of ``CHUNK``, shared out
    over the process's CPUs by ``_map_chunks``.  Every step decomposes,
    multiplies or reduces one matrix at a time, so a form's bits depend
    neither on its chunk nor on the number of chunks or CPUs.
    """
    m = omegas.shape[-1]
    distinct = flat = np.ascontiguousarray(omegas).reshape(-1, m, m)
    groups = _repeat_groups(flat) if len(flat) > 1 else None  # one form shares nothing
    if groups is not None:
        distinct = flat[groups[0]]
    chunks = [distinct[start : start + CHUNK] for start in range(0, max(len(distinct), 1), CHUNK)]
    parts = _map_chunks(_decide_distinct, chunks)
    structures, verdicts = parts[0]
    if len(parts) > 1:
        structures = np.concatenate([part[0] for part in parts])
        verdicts = RankVerdicts(*map(np.concatenate, zip(*(part[1] for part in parts))))
    if groups is not None:
        inverse = groups[1]
        structures, verdicts = structures[inverse], RankVerdicts(*(field[inverse] for field in verdicts))
    return structures.reshape(omegas.shape), verdicts


def hodge_decompose(a: ComplexTwoForm, structure: ComplexStructure) -> dict:
    """Split a 2-form into its (2,0), (1,1) and (0,2) components:
    ``hodge_parts`` on a stack of one."""
    if a.dim != structure.dim:
        raise ValueError("form and structure dimensions differ")
    c20, c11, c02 = hodge_parts(a.matrix[None], structure.matrix[None])
    return {
        (0, 2): ComplexKForm(a.dim, 2, c02[0]),
        (1, 1): ComplexKForm(a.dim, 2, c11[0]),
        (2, 0): ComplexKForm(a.dim, 2, c20[0]),
    }


def hodge_parts(matrices: np.ndarray, structures: np.ndarray) -> tuple:
    """Coefficients (..., C) of the (2,0), (1,1) and (0,2) components of
    stacked 2-form matrices (..., m, m) w.r.t. stacked structures, on the
    increasing pairs of ``multiindex.index_array(m, 2)``.

    This is the one place a Hodge split is computed.  With A a form's
    matrix and P = (Id - iI)/2 the projector onto the (1,0) directions:
    A20 = P^T A P, A02 = conj(P)^T A conj(P) and A11 = A - A20 - A02
    (Huybrechts, Complex Geometry, 1.2).  Every product takes one matrix
    at a time, so a form's split has the same bits in any stack.
    """
    m = matrices.shape[-1]
    proj = (np.eye(m) - 1j * structures) / 2.0
    conj = proj.conj()
    rows = multiindex.index_array(m, 2)
    c20 = (np.swapaxes(proj, -1, -2) @ matrices @ proj)[..., rows[:, 0], rows[:, 1]]
    c02 = (np.swapaxes(conj, -1, -2) @ matrices @ conj)[..., rows[:, 0], rows[:, 1]]
    return c20, matrices[..., rows[:, 0], rows[:, 1]] - c20 - c02, c02


def c_isotropic(bases: np.ndarray, omegas: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Whether each form vanishes on the span of its orthonormal basis, for
    stacked bases (..., m, k) and forms (..., m, m) that broadcast: the Gram
    residual max |Q^T A Q| against tol * max(|A|, 1e-300).  This is the one
    place isotropy is decided; ``is_c_isotropic`` is its stack of one."""
    gram = np.swapaxes(bases, -1, -2) @ omegas @ bases
    return stack_max(gram) <= tol * np.maximum(stack_max(omegas), 1e-300)


def is_c_isotropic(subspace: Subspace, omega: ComplexTwoForm, tol: float = DEFAULT_TOL) -> bool:
    """True when omega vanishes on the subspace (Gram residual test)."""
    if subspace.ambient_dim != omega.dim:
        raise ValueError("ambient dimension mismatch")
    return bool(c_isotropic(subspace.orthonormal_basis()[None], omega.matrix[None], tol)[0])


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
    """Real invertible B with B^T A B = blkdiag(Q, ..., Q): ``c_symplectic_bases``
    on a stack of one."""
    return c_symplectic_bases(omega.matrix[None])[0]


def c_symplectic_bases(omegas: np.ndarray) -> np.ndarray:
    """Real invertible B with B^T A B = blkdiag(Q, ..., Q) for each of the
    stacked forms A (N, m, m), as an (N, m, m) stack.

    Symplectic Gram-Schmidt: pick u1 (pivoted for stability), adjoin
    I u1, pick u2 with Omega(u1, u2) = 1 by a complex rescaling realized
    through I, adjoin I u2, then recurse on the Omega-orthogonal
    complement of the block.  This is the one place a canonical basis is
    built; ``c_symplectic_basis`` is its stack of one.

    Every form's structure I is decided once, in one ``accepted_structures``
    call, which raises ``ValueError`` on non-c-symplectic input; an empty
    stack raises ``ValueError`` too.  No block decides a structure again:
    the complement W of an I-invariant block is I-invariant, since
    Omega(I w, u) = i Omega(w, u) vanishes with Omega(w, u).  So for an
    orthonormal basis C of W, I C = C (C^T I C), and C^T I C is the
    structure of the sub-form C^T A C:
    (C^T I C)^T C^T A C = (I C)^T A C = C^T (I^T A) C = i C^T A C.  Each
    step checks that its four conditions have rank 4 and that its carrier C
    is I-invariant, |I C - C (C^T I C)| <= STRUCTURE_TOL max(1, |I|), and
    raises ``PostconditionError`` otherwise.

    Each step runs on the whole stack (pivots, rescalings, the null-space
    SVD of the conditions), and every product and decomposition takes one
    matrix at a time, so a form's basis has the same bits in any stack.
    """
    if not len(omegas):
        raise ValueError("no forms to build canonical bases for")
    count, m = omegas.shape[0], omegas.shape[-1]
    structures = accepted_structures(omegas)
    invariance_bound = STRUCTURE_TOL * np.maximum(1.0, stack_max(structures))
    forms = np.arange(count)
    # the current sub-forms, their structures and their carriers, orthonormal
    # bases of the still-unreduced subspaces (None while that is all of R^m)
    a_cur, i_cur, carrier = omegas, structures, None
    columns = []
    while a_cur.shape[-1]:
        pivot = np.argmax(np.linalg.norm(a_cur, axis=-1), axis=-1)
        pairings = a_cur[forms, pivot]  # Omega(u1, .) for u1 = e_pivot
        partner = np.argmax(np.abs(pairings), axis=-1)
        paired = pairings[forms, partner]
        if (np.abs(paired) <= DEFAULT_TOL * np.maximum(stack_max(a_cur), 1e-300)).any():
            raise PostconditionError("internal consistency error: no partner with Omega(u1, x) != 0")
        u1 = np.zeros(a_cur.shape[:-1])
        u1[forms, pivot] = 1.0
        z = 1.0 / paired
        u2 = z.imag[:, None] * i_cur[forms, :, partner]  # z x realized through I, x = e_partner
        u2[forms, partner] += z.real
        v2 = (i_cur @ u2[..., None])[..., 0]
        block = np.stack([u1, i_cur[forms, :, pivot], u2, v2], axis=-1)
        columns.append(block if carrier is None else carrier @ block)
        # Omega-orthogonal of the block: Omega(w, u1) = Omega(w, u2) = 0
        # (conditions against I u1, I u2 are the same rows times i).
        a_u1, a_u2 = a_cur[forms, :, pivot], (a_cur @ u2[..., None])[..., 0]
        _, s, vh = np.linalg.svd(np.stack([a_u1.real, a_u1.imag, a_u2.real, a_u2.imag], axis=1))
        rank = numerical_rank(s)
        if (rank != 4).any():
            first = rank[np.argmax(rank != 4)]
            raise PostconditionError(f"internal consistency error: block conditions have rank {first}, not 4")
        complement = np.swapaxes(vh[:, 4:], -1, -2)
        carrier = complement if carrier is None else carrier @ complement
        transposed = np.swapaxes(carrier, -1, -2)
        a_cur, i_cur = transposed @ omegas @ carrier, transposed @ structures @ carrier
        invariance = stack_max(structures @ carrier - carrier @ i_cur)
        failed = invariance > invariance_bound
        if failed.any():
            first = invariance[np.argmax(failed)]
            raise PostconditionError(f"internal consistency error: carrier is not I-invariant (residual {first:.3e})")
    bases = np.concatenate(columns, axis=-1)
    target = q_block_form(m // 4).matrix
    residual = stack_max(np.swapaxes(bases, -1, -2) @ omegas @ bases - target)
    failed = residual > 1e-6 * np.maximum(stack_max(omegas), 1e-300)
    if failed.any():
        raise PostconditionError(f"internal consistency error: basis residual {residual[np.argmax(failed)]:.3e}")
    return bases


@dataclass(frozen=True)
class CSymplecticSpace:
    """A validated c-symplectic form with its cached induced structure."""

    omega: ComplexTwoForm
    structure: ComplexStructure = dc_field(repr=False)

    @classmethod
    def from_forms(cls, omegas: list) -> list:
        """Validate forms of one dimension by both criteria, the rank
        criterion (read off the induced structures) first: every form in one
        ``accepted_structures`` call and one ``power_verdicts`` call, each of
        which gives a form the bits it gets on its own.  Raises ``ValueError``
        for the first form that fails, as ``from_form`` would for it, and for
        an empty list."""
        if not omegas:
            raise ValueError("no forms to validate")
        stack = np.stack([omega.matrix for omega in omegas])
        structures = accepted_structures(stack)
        powers = power_verdicts(stack)
        if not powers.ok.all():
            reason = powers.criterion(int(np.argmin(powers.ok))).reason
            raise ValueError(f"not c-symplectic (power criterion): {reason}")
        return [
            cls(omega=omega, structure=ComplexStructure.from_accepted(omega.dim, structure))
            for omega, structure in zip(omegas, structures)
        ]

    @classmethod
    def from_form(cls, omega: ComplexTwoForm) -> "CSymplecticSpace":
        """Validate one form: ``from_forms`` on a stack of one."""
        return cls.from_forms([omega])[0]

    @property
    def dim(self) -> int:
        return self.omega.dim

    @property
    def n(self) -> int:
        return self.omega.dim // 4


def random_c_symplectics(rngs, dim: int, cond_max: float = 1e3):
    """Random instances, one per generator: the pullback p^T blkdiag(Q, ...) p
    of the canonical form under a conditioned map p.

    Every c-symplectic form arises this way; rejecting condition numbers
    above ``cond_max`` keeps instances numerically comfortable.  The maps
    come from ``conditioned_draws``, so each generator draws, and ends in the
    state, as it would alone.  The range takes one ``q_block_form`` and one
    ``skew_matrices`` call, and each product takes one matrix at a time, so
    a form has the same bits in any range.  Returns the forms' matrices and
    the maps p, each an (N, dim, dim) stack.  Raises ``ValueError`` for a
    dim that is not a positive multiple of 4, for no generators and for a
    ``cond_max`` below 1.
    """
    if dim <= 0 or dim % 4:
        raise ValueError(f"dim must be a positive multiple of 4, got {dim}")
    ps = conditioned_draws(rngs, lambda rng: rng.standard_normal((dim, dim)), cond_max)
    base = q_block_form(dim // 4).matrix
    return skew_matrices(np.swapaxes(ps, -1, -2) @ base @ ps), ps
