"""Linear-level degenerate twistorial deformation.

Given a c-symplectic space with a c-Lagrangian fiber L, the base model K
is the Euclidean complement of L carrying the inherited structure.  A
section K -> V pulls the form back to a (2,0)+(1,1) form on K; deforming
by Omega_t = Omega + t pi^* gamma keeps the form c-symplectic, keeps the
fiber and quotient structures fixed, and for gamma = section pullback with
t = -1 turns the section into a complex-linear map.  Every statement is
verified numerically, not assumed.

Each stage holds a range of N instances of one dimension as arrays stacked
on their first axis, starting from a ``CSymplecticSpace`` range and its
stacked fiber bases: a ``LagrangianProjection`` the range's forms,
structures, orthonormal fiber bases, projections W^T and quotient
structures, a ``LinearSection`` its section maps, a ``DeformationFamily``
its gammas and pullbacks pi^* gamma.  Every product and decomposition
takes one matrix at a time, so an instance gets the same bits in any range.  Only the reports
the suites read, ``PreservanceReport`` and ``HolomorphizationCertificate``,
are built per instance.  ``LagrangianProjection.build``, ``deform``,
``verify_preservance`` and ``holomorphize_section`` are the range calls on
a range of one.
"""

from dataclasses import dataclass, field as dc_field

import numpy as np

from .csymplectic import c_isotropic, hodge_parts, induced_structures, power_verdicts
from .forms import ComplexTwoForm, skew_matrices, two_form_matrices
from .linalg import (
    DEFAULT_TOL,
    STRUCTURE_TOL,
    PostconditionError,
    complement_bases,
    max_abs,
    null_space,
    orthonormal_bases,
    orthonormality_residuals,
    restrictions,
    same_lengths,
    square_residuals,
    stack_max,
)

#: Default complex deformation parameters probed by verification sweeps.
DEFAULT_T_SAMPLES = (1.0, -1.0, 1j, -1j, 0.5 + 0.5j)


@dataclass(frozen=True, eq=False)
class HodgeTypeCertificate:
    """Component norms (N,) of a range of 2-forms w.r.t. their quotient
    structures, with the scale each is held to."""

    norm_20: np.ndarray
    norm_11: np.ndarray
    norm_02: np.ndarray
    scale: np.ndarray

    @classmethod
    def split(cls, matrices: np.ndarray, structures: np.ndarray, scales=0.0) -> "HodgeTypeCertificate":
        """The certificates of stacked 2-form matrices w.r.t. their
        structures, from one ``hodge_parts`` split; a form's scale is the
        larger of the given scale and the form's own norm."""
        norms = [np.abs(part).max(axis=-1, initial=0.0) for part in hodge_parts(matrices, structures)]
        return cls(*norms, np.maximum(scales, stack_max(matrices)))

    def anti_holomorphic_ok(self) -> np.ndarray:
        return self.norm_02 <= STRUCTURE_TOL * np.maximum(self.scale, 1e-300)


def _raise_first(failures) -> None:
    """Raise the error of a range's first failing instance, at its first
    failing stage, so that a range raises what that instance raises alone.

    ``failures`` holds, in stage order, pairs ``(failed, error)``: a boolean
    mask over the range's instances, and a function from an instance's
    index to the exception that stage raises for it."""
    failed = np.array([mask for mask, _ in failures])
    if failed.any():
        index = int(np.argmax(failed.any(axis=0)))
        raise failures[int(np.argmax(failed[:, index]))][1](index)


def _spectral_norms(maps: np.ndarray) -> list:
    """|S|_2 of each stacked map (N, m, k), as Python floats."""
    return np.linalg.norm(maps, 2, axis=(-2, -1)).tolist()


def _scales(omegas: np.ndarray, norms: list, floor: float = 0.0) -> list:
    """max(|Omega|, floor) |S|^2 of each instance, from the maps' spectral
    norms, squared by Python's float power as the section checks have
    always been scaled."""
    return [max(omega_norm, floor) * norm**2 for omega_norm, norm in zip(stack_max(omegas).tolist(), norms)]


@dataclass(frozen=True, eq=False)
class LagrangianProjection:
    """Projections V -> K along c-Lagrangian fibers L (K = Euclidean L^perp)
    of a range of spaces of one dimension m = 4n."""

    omegas: np.ndarray = dc_field(repr=False)  # Omega, (N, m, m)
    structures: np.ndarray = dc_field(repr=False)  # I, (N, m, m)
    fibers: np.ndarray = dc_field(repr=False)  # orthonormal bases of L, (N, m, 2n)
    maps: np.ndarray = dc_field(repr=False)  # W^T in K coordinates, (N, 2n, m)
    quotients: np.ndarray = dc_field(repr=False)  # I_quot, (N, 2n, 2n)

    @classmethod
    def build(cls, space, fiber) -> "LagrangianProjection":
        """The quotient model K of V / L with its inherited structure:
        ``build_many`` of a space range of one and its fiber, a ``Subspace``."""
        return cls.build_many(space, fiber.basis[None])

    @classmethod
    def build_many(cls, spaces, fibers) -> "LagrangianProjection":
        """The projection range of a ``CSymplecticSpace`` range and the
        stacked bases (N, m, 2n) of its fibers, one per space.

        With W an orthonormal basis of K, I_quot = W^T I W is defined by
        pi(I v) = I_quot(pi v); it is well-defined because c-Lagrangian
        subspaces are I-invariant, and W^T I = I_quot W^T is checked on
        all of V.  The range takes one ``orthonormal_bases`` call for the
        fibers, one stacked c-Lagrangian Gram check, one complement SVD (its
        bases checked orthonormal), one W^T I W with its well-definedness
        residual, and one I_quot^2 = -Id check.

        A fiber stack that is complex or not of shape (N, m, m/2) raises
        ``ValueError`` first, then one with dependent columns; otherwise the
        range raises for its first failing pair what ``build`` raises for
        it.  Raises ``ValueError`` for no pairs and for a range and fibers
        of different lengths.
        """
        if not same_lengths(spaces=spaces, fibers=fibers):
            raise ValueError("no fibers to project along")
        if np.iscomplexobj(fibers):
            raise ValueError("c-Lagrangian subspaces are real")
        omegas, structures = spaces.omegas, spaces.structures
        m = omegas.shape[-1]
        fibers = np.asarray(fibers, dtype=np.float64)
        if fibers.ndim != 3 or fibers.shape[1] != m:
            raise ValueError("ambient dimension mismatch")
        if fibers.shape[2] != m // 2:
            raise ValueError("fiber is not c-Lagrangian for the given form")
        bases = orthonormal_bases(fibers)
        lagrangian = c_isotropic(bases, omegas)
        w = complement_bases(fibers)
        complement_residual = orthonormality_residuals(w)
        w_t = np.swapaxes(w, -1, -2)
        left = w_t @ structures
        quotients = left @ w
        quotient_residual = stack_max(left - quotients @ w_t)
        square_residual, not_square = square_residuals(quotients)
        _raise_first(
            [
                (~lagrangian, lambda i: ValueError("fiber is not c-Lagrangian for the given form")),
                (~(complement_residual <= DEFAULT_TOL), lambda i: PostconditionError(
                    f"basis is not orthonormal (residual {complement_residual[i]:.3e})")),
                (quotient_residual > STRUCTURE_TOL * np.maximum(1.0, stack_max(structures)), lambda i: ValueError(
                    f"quotient structure not well-defined (residual {quotient_residual[i]:.3e})")),
                (not_square, lambda i: ValueError(f"I^2 != -Id (residual {square_residual[i]:.3e})")),
            ]
        )  # fmt: skip
        return cls(omegas=omegas, structures=structures, fibers=bases, maps=w_t, quotients=quotients)

    def __len__(self) -> int:
        return len(self.maps)

    @property
    def half_dim(self) -> int:
        return self.maps.shape[-2]


@dataclass(frozen=True, eq=False)
class LinearSection:
    """Real-linear right inverses of a projection range's projections."""

    projection: LagrangianProjection
    maps: np.ndarray = dc_field(repr=False)  # (N, 4n, 2n)

    def __post_init__(self):
        s = np.asarray(self.maps, dtype=np.float64)
        same_lengths(projections=self.projection, maps=s)
        p = self.projection.maps
        residual = stack_max(p @ s - np.eye(p.shape[-2]))
        _raise_first(
            [(residual > DEFAULT_TOL * np.maximum(1.0, stack_max(s)), lambda i: ValueError(
                f"not a section: pi o sigma != id (residual {residual[i]:.3e})"))]
        )  # fmt: skip
        object.__setattr__(self, "maps", s)

    @classmethod
    def from_fiber_parts(cls, projection: LagrangianProjection, fiber_coeffs: np.ndarray) -> "LinearSection":
        """Section W + B_L T of each projection of the range: base inclusion
        plus a fiber-valued offset T from the stack (N, k, k), in one
        stacked product; the range is checked as it is constructed."""
        maps = np.swapaxes(projection.maps, -1, -2) + projection.fibers @ np.asarray(fiber_coeffs, dtype=float)
        return cls(projection=projection, maps=maps)

    @classmethod
    def random_many(cls, projection: LagrangianProjection, rngs, scale: float = 1.0) -> "LinearSection":
        """A random section of each projection of the range:
        ``from_fiber_parts`` with Gaussian offsets T, each generator drawing
        its own (k, k) normals.  Raises ``ValueError`` for a range and
        generators of different lengths."""
        same_lengths(projections=projection, rngs=rngs)
        k = projection.half_dim
        return cls.from_fiber_parts(projection, np.stack([scale * rng.standard_normal((k, k)) for rng in rngs]))

    @classmethod
    def complex_linear(cls, projection: LagrangianProjection) -> "LinearSection":
        """Sections whose images are I-invariant complements of the fibers.

        Uses the I-averaged metric g = (g0 + I^T g0 I)/2: its orthogonal
        complement of L is I-invariant, and the induced section
        intertwines the quotient structure with I.
        """
        structures = projection.structures
        metrics = (np.eye(structures.shape[-1]) + np.swapaxes(structures, -1, -2) @ structures) / 2.0
        # complement = g-orthogonal of L: vectors x with b^T g x = 0
        comps = np.stack([null_space(b_g) for b_g in np.swapaxes(projection.fibers, -1, -2) @ metrics])
        return cls(projection=projection, maps=comps @ np.linalg.inv(projection.maps @ comps))


def section_forms(sections: LinearSection) -> tuple:
    """Pullback of Omega to the base model along each section of a range,
    as stacked matrices (N, k, k), with their ``HodgeTypeCertificate``.

    The certificate records the Hodge component norms w.r.t. the inherited
    quotient structure and asserts the vanishing of the (0,2) part, which
    is the content of the pulled-back form having type (2,0)+(1,1).  The
    range takes one stacked pullback and one ``hodge_parts`` split, and
    raises ``PostconditionError`` for its first section whose (0,2) part
    does not vanish.
    """
    projection, maps = sections.projection, sections.maps
    pulled = skew_matrices(np.swapaxes(maps, -1, -2) @ projection.omegas @ maps)
    scales = _scales(projection.omegas, _spectral_norms(maps))
    certificate = HodgeTypeCertificate.split(pulled, projection.quotients, scales)
    _raise_first(
        [(~certificate.anti_holomorphic_ok(), lambda i: PostconditionError(
            f"(0,2) component of a section form is {certificate.norm_02[i]:.3e}; "
            "this contradicts the Hodge-type property"))]
    )  # fmt: skip
    return pulled, certificate


def deform(projection: LagrangianProjection, gamma: ComplexTwoForm, t: complex) -> ComplexTwoForm:
    """Omega_t = Omega + t pi^* gamma for a (2,0)+(1,1) form gamma on K, on a
    projection range of one.

    Rejects gamma with an anti-holomorphic component above tolerance and
    verifies c-symplecticity of the result by both criteria.
    """
    forms, _ = decide_members(DeformationFamily.build_many(projection, gamma.matrix[None]), [[t]])
    return ComplexTwoForm(forms[0][0])


@dataclass(frozen=True, eq=False)
class DeformationFamily:
    """The affine families t -> Omega + t pi^* gamma of a projection range,
    with validated gammas.

    Each gamma's Hodge type is certified once, and its pullback pi^* gamma =
    W gamma W^T built once, in ``build_many``; members of the families are
    not re-certified.
    """

    projection: LagrangianProjection
    gammas: np.ndarray = dc_field(repr=False)  # (N, 2n, 2n)
    certificate: HodgeTypeCertificate = dc_field(repr=False)
    pulled: np.ndarray = dc_field(repr=False)  # pi^* gamma on V, (N, 4n, 4n)

    @classmethod
    def build_many(cls, projection: LagrangianProjection, gammas) -> "DeformationFamily":
        """The family of each projection of the range and its gamma, from the
        stacked skew matrices (N, k, k): one Hodge certification and one
        stacked pullback.  Gammas off the base model raise ``ValueError``
        first, then the first gamma with a (0,2) component does; raises
        ``ValueError`` for a range and gammas of different lengths."""
        same_lengths(projections=projection, gammas=gammas)
        gammas = np.asarray(gammas, dtype=np.complex128)
        if gammas.shape[1:] != projection.quotients.shape[1:]:
            raise ValueError("gamma must live on the base model")
        certificate = HodgeTypeCertificate.split(gammas, projection.quotients)
        _raise_first(
            [(~certificate.anti_holomorphic_ok(), lambda i: ValueError(
                f"gamma has a (0,2) component of norm {certificate.norm_02[i]:.3e}; "
                "deformation requires Hodge type (2,0)+(1,1)"))]
        )  # fmt: skip
        pulled = np.swapaxes(projection.maps, -1, -2) @ gammas @ projection.maps
        return cls(projection=projection, gammas=gammas, certificate=certificate, pulled=pulled)

    def __len__(self) -> int:
        return len(self.gammas)


def decide_members(families: DeformationFamily, ts) -> tuple:
    """The forms Omega_t (N, T, m, m) and induced structures (N, T, m, m) of
    a family range's members at the parameters ``ts`` (N, T), family i at
    ``ts[i]``, checked by both criteria: every member in one
    ``induced_structures`` call (the rank criterion) and one
    ``power_verdicts`` call.

    Each member's form is one entrywise expression, and each stacked call
    gives a form the bits it gets on its own.  Raises
    ``PostconditionError`` for the first member that fails, family by
    family, with both reasons, and ``ValueError`` for no members and for
    families and parameter rows of different lengths.
    """
    ts = np.asarray(ts, dtype=np.complex128)
    same_lengths(families=families, ts=ts)
    if not ts.shape[1]:
        raise ValueError("no family members to decide")
    forms = skew_matrices(families.projection.omegas[:, None] + ts[..., None, None] * families.pulled[:, None])
    flat = forms.reshape(-1, *forms.shape[-2:])
    structures, verdicts = induced_structures(flat)
    powers = power_verdicts(flat)
    rejected = np.isnan(structures).any(axis=(-2, -1))
    failed = rejected | ~powers.ok
    if failed.any():
        i = int(np.argmax(failed))
        rank_reason = (verdicts.criterion(i).reason or "induced structure rejected") if rejected[i] else "ok"
        raise PostconditionError(
            f"deformed form failed c-symplecticity: rank: {rank_reason}; power: {powers.criterion(i).reason or 'ok'}"
        )
    return forms, structures.reshape(forms.shape)


@dataclass(frozen=True)
class PreservanceReport:
    t_samples: tuple
    fiber_lagrangian_ok: bool
    max_fiber_restriction_residual: float
    max_quotient_residual: float
    max_invariance_residual: float

    @property
    def max_residual(self) -> float:
        # max_abs, unlike max, propagates a NaN residual, which fails any bound
        return max_abs(
            [self.max_fiber_restriction_residual, self.max_quotient_residual, self.max_invariance_residual]
        )


def verify_preservance(
    projection: LagrangianProjection, gamma: ComplexTwoForm, t_samples=DEFAULT_T_SAMPLES
) -> PreservanceReport:
    """``verify_preservances`` of a projection range of one and its gamma."""
    return verify_preservances(projection, gamma.matrix[None], t_samples)[0]


def verify_preservances(projection: LagrangianProjection, gammas, t_samples=DEFAULT_T_SAMPLES) -> list:
    """Check that each deformation fixes the fiber and quotient structures.

    For each family (projection, gamma) of the range and each t: L stays
    c-Lagrangian for Omega_t, the restriction of the induced structure to L
    matches the t = 0 restriction, and the inherited quotient structure
    matches as well.  The families are built by one
    ``DeformationFamily.build_many`` call, their members decided in one
    ``decide_members`` call, and the forms it built are the ones checked,
    each check one array expression over (family, t).  Raises
    ``ValueError`` for empty ``t_samples`` and for a range and gammas of
    different lengths.
    """
    t_samples = tuple(t_samples)
    if not t_samples:
        raise ValueError("no t samples to verify preservance at")
    families = DeformationFamily.build_many(projection, gammas)
    ts = np.broadcast_to(np.array([complex(t) for t in t_samples]), (len(families), len(t_samples)))
    forms, structures = decide_members(families, ts)
    fibers = projection.fibers[:, None]
    base_restriction, base_invariance = restrictions(projection.structures[:, None], fibers)
    restriction, invariance = restrictions(structures, fibers)
    w_t = projection.maps[:, None]
    quotient_residuals = stack_max(w_t @ structures @ np.swapaxes(w_t, -1, -2) - projection.quotients[:, None])
    fiber_ok = c_isotropic(fibers, forms, STRUCTURE_TOL).all(axis=-1)
    return [
        PreservanceReport(
            t_samples=tuple(complex(t) for t in t_samples),
            fiber_lagrangian_ok=bool(ok),
            max_fiber_restriction_residual=max_abs(restriction_residuals),
            max_quotient_residual=max_abs(quotient_residual),
            max_invariance_residual=max_abs(np.concatenate([base, invariances])),
        )
        for ok, restriction_residuals, quotient_residual, base, invariances in zip(
            fiber_ok, stack_max(restriction - base_restriction), quotient_residuals, base_invariance, invariance
        )
    ]


@dataclass(frozen=True)
class HolomorphizationCertificate:
    graph_restriction_norm: float
    graph_is_lagrangian: bool
    intertwining_residual: float

    @property
    def max_residual(self) -> float:
        return max_abs([self.graph_restriction_norm, self.intertwining_residual])


def holomorphize_section(section: LinearSection) -> tuple:
    """``holomorphize_sections`` of a section range of one: its eta,
    Omega' and certificate."""
    etas, omega_primes, (certificate,) = holomorphize_sections(section)
    return etas[0], omega_primes[0], certificate


def holomorphize_sections(sections: LinearSection) -> tuple:
    """Deform each section's space by the section's own pullback form at t = -1.

    Certifies that the deformed form vanishes on the section's image, the
    image is c-Lagrangian (hence invariant under the new structure), and
    the section intertwines the quotient structure with the new one,
    i.e. becomes complex-linear.  The range is pulled back by one
    ``section_forms`` call, every Omega' is decided in one
    ``decide_members`` call, and the forms it built are the ones certified,
    each check one array expression over the range.  Returns the stacked
    etas (N, k, k) and Omega' (N, m, m), and each section's
    ``HolomorphizationCertificate``.
    """
    projection, maps = sections.projection, sections.maps
    etas, _ = section_forms(sections)
    families = DeformationFamily.build_many(projection, etas)
    omega_primes, structure_primes = (stack[:, 0] for stack in decide_members(families, np.full((len(etas), 1), -1.0)))
    graph_restrictions = stack_max(np.swapaxes(maps, -1, -2) @ omega_primes @ maps).tolist()
    lagrangian = c_isotropic(orthonormal_bases(maps), omega_primes, STRUCTURE_TOL)
    intertwining = stack_max(maps @ projection.quotients - structure_primes @ maps).tolist()
    norms = _spectral_norms(maps)
    certificates = [
        HolomorphizationCertificate(
            graph_restriction_norm=restriction / scale,
            graph_is_lagrangian=bool(ok),
            intertwining_residual=intertwine / max(1.0, norm),
        )
        for restriction, scale, ok, intertwine, norm in zip(
            graph_restrictions, _scales(projection.omegas, norms, 1e-300), lagrangian, intertwining, norms
        )
    ]
    return etas, omega_primes, certificates


def random_base_forms(projection: LagrangianProjection, rngs, scale: float = 1.0) -> np.ndarray:
    """Random (2,0)+(1,1) form on each base model of a projection range, as
    stacked skew matrices (N, k, k), for family sweeps.  Each generator
    draws its own raw form; the range is split by one ``hodge_parts`` call.
    Raises ``ValueError`` for a range and generators of different
    lengths."""
    same_lengths(projections=projection, rngs=rngs)
    k = projection.half_dim
    raw = skew_matrices(
        np.stack([scale * (rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))) for rng in rngs])
    )
    c20, c11, _ = hodge_parts(raw, projection.quotients)
    return two_form_matrices(c20 + c11, k)
