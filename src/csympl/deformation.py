"""Linear-level degenerate twistorial deformation.

Given a c-symplectic space with a c-Lagrangian fiber L, the base model K
is the Euclidean complement of L carrying the inherited structure.  A
section K -> V pulls the form back to a (2,0)+(1,1) form on K; deforming
by Omega_t = Omega + t pi^* gamma keeps the form c-symplectic, keeps the
fiber and quotient structures fixed, and for gamma = section pullback with
t = -1 turns the section into a complex-linear map.  Every statement is
verified numerically, not assumed.
"""

from dataclasses import dataclass, field as dc_field

import numpy as np

from .csymplectic import CSymplecticSpace, c_isotropic, hodge_parts, induced_structures, power_verdicts
from .forms import ComplexTwoForm, skew_matrices, two_form_matrices
from .linalg import (
    DEFAULT_TOL,
    STRUCTURE_TOL,
    ComplexStructure,
    PostconditionError,
    Subspace,
    complement_bases,
    max_abs,
    null_space,
    orthonormality_residuals,
    restrictions,
    same_lengths,
    square_residuals,
    stack_max,
)

#: Default complex deformation parameters probed by verification sweeps.
DEFAULT_T_SAMPLES = (1.0, -1.0, 1j, -1j, 0.5 + 0.5j)


@dataclass(frozen=True)
class HodgeTypeCertificate:
    """Component norms of a 2-form w.r.t. a quotient structure."""

    norm_20: float
    norm_11: float
    norm_02: float
    scale: float

    def anti_holomorphic_ok(self) -> bool:
        return self.norm_02 <= STRUCTURE_TOL * max(self.scale, 1e-300)


def _hodge_certificates(matrices: np.ndarray, structures: np.ndarray, scales) -> list:
    """The certificate of each stacked 2-form matrix w.r.t. its structure,
    from one ``hodge_parts`` split; a certificate's scale is the larger of
    the given scale and the form's own norm."""
    norms = [np.abs(part).max(axis=-1, initial=0.0).tolist() for part in hodge_parts(matrices, structures)]
    return [
        HodgeTypeCertificate(norm_20=n20, norm_11=n11, norm_02=n02, scale=max(scale, own))
        for n20, n11, n02, scale, own in zip(*norms, scales, stack_max(matrices).tolist())
    ]


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


@dataclass(frozen=True)
class LagrangianProjection:
    """Projection V -> K along a c-Lagrangian fiber L (K = Euclidean L^perp)."""

    space: CSymplecticSpace
    fiber: Subspace
    projection: np.ndarray = dc_field(repr=False)  # (2n, 4n), = W^T in K coordinates
    quotient_structure: ComplexStructure = dc_field(repr=False)

    @classmethod
    def build(cls, space: CSymplecticSpace, fiber: Subspace):
        """The quotient model K of V / L with its inherited structure:
        ``build_many`` on a stack of one."""
        return cls.build_many([space], [fiber])[0]

    @classmethod
    def build_many(cls, spaces, fibers) -> list:
        """The projection of each (space, fiber) pair, spaces of one
        dimension, built on the whole range at once.

        With W an orthonormal basis of K, I_quot = W^T I W is defined by
        pi(I v) = I_quot(pi v); it is well-defined because c-Lagrangian
        subspaces are I-invariant, and W^T I = I_quot W^T is checked on
        all of V.  The range takes one stacked c-Lagrangian Gram check, one
        complement SVD (its bases checked orthonormal), one W^T I W with its
        well-definedness residual, and one I_quot^2 = -Id check; every
        product and decomposition takes one matrix at a time, so a
        projection has the same bits in any range.

        A fiber that is not real, not in the space or not of half its
        dimension raises ``ValueError`` first; otherwise the range raises
        for its first failing pair what ``build`` raises for it.  Raises
        ``ValueError`` for no pairs and for lists of different lengths.
        """
        if not same_lengths(spaces=spaces, fibers=fibers):
            raise ValueError("no fibers to project along")
        omegas = np.stack([space.omega.matrix for space in spaces])
        m = omegas.shape[-1]
        if m % 4:
            raise ValueError("omega does not live on R^{4n}")
        for fiber in fibers:
            if fiber.field != "R":
                raise ValueError("c-Lagrangian subspaces are real")
            if fiber.ambient_dim != m:
                raise ValueError("ambient dimension mismatch")
            if fiber.dim != m // 2:
                raise ValueError("fiber is not c-Lagrangian for the given form")
        lagrangian = c_isotropic(np.stack([fiber.orthonormal_basis() for fiber in fibers]), omegas)
        w = complement_bases(np.stack([fiber.basis for fiber in fibers]))
        complement_residual = orthonormality_residuals(w)
        structures = np.stack([space.structure.matrix for space in spaces])
        w_t = np.swapaxes(w, -1, -2)
        left = w_t @ structures
        mats = left @ w
        quotient_residual = stack_max(left - mats @ w_t)
        square_residual, not_square = square_residuals(mats)
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
        return [
            cls(space=space, fiber=fiber, projection=p, quotient_structure=ComplexStructure.from_accepted(m // 2, mat))
            for space, fiber, p, mat in zip(spaces, fibers, w_t, mats)
        ]

    @property
    def half_dim(self) -> int:
        return self.projection.shape[0]


@dataclass(frozen=True)
class LinearSection:
    """Real-linear right inverse of a Lagrangian projection."""

    projection: LagrangianProjection
    map: np.ndarray = dc_field(repr=False)  # (4n, 2n)

    def __post_init__(self):
        s = np.asarray(self.map, dtype=np.float64)
        p = self.projection.projection
        residual = max_abs(p @ s - np.eye(p.shape[0]))
        if residual > DEFAULT_TOL * max(1.0, max_abs(s)):
            raise ValueError(f"not a section: pi o sigma != id (residual {residual:.3e})")
        object.__setattr__(self, "map", s)

    @classmethod
    def from_fiber_parts(cls, projections, fiber_coeffs: np.ndarray) -> list:
        """Section W + B_L T of each projection, all of one dimension: base
        inclusion plus a fiber-valued offset T from the stack (N, k, k).  The
        range's maps take one stacked product, one matrix at a time, so a
        map has the same bits in any range; each section is checked as it
        is constructed."""
        w = np.stack([projection.projection.T for projection in projections])
        b = np.stack([projection.fiber.orthonormal_basis() for projection in projections])
        maps = w + b @ np.asarray(fiber_coeffs, dtype=float)
        return [cls(projection=projection, map=s) for projection, s in zip(projections, maps)]

    @classmethod
    def random_many(cls, projections, rngs, scale: float = 1.0) -> list:
        """A random section of each projection, all of one dimension:
        ``from_fiber_parts`` with Gaussian offsets T, each generator drawing
        its own (k, k) normals.  Raises ``ValueError`` for no projections
        and for lists of different lengths."""
        if not same_lengths(projections=projections, rngs=rngs):
            raise ValueError("no projections to draw sections of")
        k = projections[0].half_dim
        return cls.from_fiber_parts(projections, np.stack([scale * rng.standard_normal((k, k)) for rng in rngs]))

    @classmethod
    def complex_linear(cls, projection: LagrangianProjection):
        """A section whose image is an I-invariant complement of the fiber.

        Uses the I-averaged metric g = (g0 + I^T g0 I)/2: its orthogonal
        complement of L is I-invariant, and the induced section
        intertwines the quotient structure with I.
        """
        structure = projection.space.structure.matrix
        metric = (np.eye(structure.shape[0]) + structure.T @ structure) / 2.0
        b = projection.fiber.orthonormal_basis()
        # complement = g-orthogonal of L: vectors x with b^T g x = 0
        comp = null_space(b.T @ metric)
        m = projection.projection @ comp
        section = comp @ np.linalg.inv(m)
        return cls(projection=projection, map=section)


@dataclass(frozen=True)
class SectionForm:
    two_form: ComplexTwoForm
    certificate: HodgeTypeCertificate


def section_forms(sections) -> list:
    """Pullback of Omega to the base model along each section, all of one
    dimension, built on the whole range at once.

    The certificate records the Hodge component norms w.r.t. the inherited
    quotient structure and asserts the vanishing of the (0,2) part, which
    is the content of the pulled-back form having type (2,0)+(1,1).  The
    range takes one stacked pullback and one ``hodge_parts`` split, and
    raises ``PostconditionError`` for its first section whose (0,2) part
    does not vanish; ``ValueError`` for no sections.
    """
    if not sections:
        raise ValueError("no sections to pull the form back along")
    maps = np.stack([section.map for section in sections])
    spaces = [section.projection.space for section in sections]
    pulled = skew_matrices(np.swapaxes(maps, -1, -2) @ np.stack([space.omega.matrix for space in spaces]) @ maps)
    scales = [space.omega.norm() * norm**2 for space, norm in zip(spaces, _spectral_norms(maps))]
    quotients = np.stack([section.projection.quotient_structure.matrix for section in sections])
    certificates = _hodge_certificates(pulled, quotients, scales)
    for certificate in certificates:
        if not certificate.anti_holomorphic_ok():
            raise PostconditionError(
                f"(0,2) component of a section form is {certificate.norm_02:.3e}; "
                "this contradicts the Hodge-type property"
            )
    return [SectionForm(two_form=form, certificate=c) for form, c in zip(ComplexTwoForm.from_skew(pulled), certificates)]


def deform(projection: LagrangianProjection, gamma: ComplexTwoForm, t: complex) -> ComplexTwoForm:
    """Omega_t = Omega + t pi^* gamma for a (2,0)+(1,1) form gamma on K.

    Rejects gamma with an anti-holomorphic component above tolerance and
    verifies c-symplecticity of the result by both criteria.
    """
    forms, _ = decide_members([(DeformationFamily.build_many([projection], [gamma])[0], t)])
    return ComplexTwoForm.from_skew(forms)[0]


def _certify_gammas(projections, gammas) -> list:
    """Hodge certificates of gammas on their projections' base models, one
    ``hodge_parts`` split for the range.  A gamma off its base model raises
    ``ValueError`` first; otherwise the first gamma with a (0,2) component
    does."""
    for projection, gamma in zip(projections, gammas):
        if gamma.dim != projection.half_dim:
            raise ValueError("gamma must live on the base model")
    matrices = np.stack([gamma.matrix for gamma in gammas])
    quotients = np.stack([projection.quotient_structure.matrix for projection in projections])
    certificates = _hodge_certificates(matrices, quotients, [gamma.norm() for gamma in gammas])
    for certificate in certificates:
        if not certificate.anti_holomorphic_ok():
            raise ValueError(
                f"gamma has a (0,2) component of norm {certificate.norm_02:.3e}; "
                "deformation requires Hodge type (2,0)+(1,1)"
            )
    return certificates


@dataclass(frozen=True)
class DeformationFamily:
    """The affine family t -> Omega + t pi^* gamma with a validated gamma.

    gamma's Hodge type is certified once, and its pullback pi^* gamma =
    W gamma W^T built once, in ``build_many``; members of the family are not
    re-certified.
    """

    projection: LagrangianProjection
    gamma: ComplexTwoForm
    certificate: HodgeTypeCertificate = dc_field(repr=False)
    pulled: np.ndarray = dc_field(repr=False)  # pi^* gamma on V, (4n, 4n)

    @classmethod
    def build_many(cls, projections, gammas) -> list:
        """The family of each (projection, gamma) pair, all of one dimension:
        one Hodge certification and one stacked pullback for the range.
        Raises ``ValueError`` for the first gamma that fails, for no pairs
        and for lists of different lengths."""
        if not same_lengths(projections=projections, gammas=gammas):
            raise ValueError("no gammas to build families of")
        certificates = _certify_gammas(projections, gammas)
        w = np.stack([projection.projection.T for projection in projections])  # (N, 4n, 2n)
        pulled = w @ np.stack([gamma.matrix for gamma in gammas]) @ np.swapaxes(w, -1, -2)
        return [
            cls(projection=projection, gamma=gamma, certificate=certificate, pulled=p)
            for projection, gamma, certificate, p in zip(projections, gammas, certificates, pulled)
        ]


def _member_forms(members) -> np.ndarray:
    """Omega + t pi^* gamma of each member ``(family, t)``, as one stacked
    expression whose products and sums are taken entry by entry."""
    omegas = np.stack([family.projection.space.omega.matrix for family, _ in members])
    pulled = np.stack([family.pulled for family, _ in members])
    ts = np.array([complex(t) for _, t in members])
    return skew_matrices(omegas + ts[:, None, None] * pulled)


def decide_members(members) -> tuple:
    """The forms Omega_t (N, m, m) and induced structures (N, m, m) of the
    members ``(family, t)``, checked by both criteria: every member in one
    ``induced_structures`` call (the rank criterion) and one
    ``power_verdicts`` call.

    The members may come from many families of one dimension; each stacked
    call gives a form the bits it gets on its own.  Raises
    ``PostconditionError`` for the first member that fails, with both
    reasons, and ``ValueError`` for no members.
    """
    if not members:
        raise ValueError("no family members to decide")
    forms = _member_forms(members)
    structures, verdicts = induced_structures(forms)
    powers = power_verdicts(forms)
    rejected = np.isnan(structures).any(axis=(-2, -1))
    failed = rejected | ~powers.ok
    if failed.any():
        i = int(np.argmax(failed))
        rank_reason = (verdicts.criterion(i).reason or "induced structure rejected") if rejected[i] else "ok"
        raise PostconditionError(
            f"deformed form failed c-symplecticity: rank: {rank_reason}; power: {powers.criterion(i).reason or 'ok'}"
        )
    return forms, structures


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
    """``verify_preservances`` of one family."""
    return verify_preservances([projection], [gamma], t_samples)[0]


def verify_preservances(projections, gammas, t_samples=DEFAULT_T_SAMPLES) -> list:
    """Check that each deformation fixes the fiber and quotient structures.

    For each family (projection, gamma) and each t: L stays c-Lagrangian for
    Omega_t, the restriction of the induced structure to L matches the t = 0
    restriction, and the inherited quotient structure matches as well.  The
    families are built by one ``DeformationFamily.build_many`` call, their
    members decided in one ``decide_members`` call, and the forms it built
    are the ones checked, each check one array expression over (family, t).
    Raises ``ValueError`` for empty ``t_samples`` and for lists of different
    lengths.
    """
    t_samples = tuple(t_samples)
    if not t_samples:
        raise ValueError("no t samples to verify preservance at")
    families = DeformationFamily.build_many(projections, gammas)
    forms, structures = decide_members([(family, t) for family in families for t in t_samples])
    shape = (len(families), len(t_samples)) + forms.shape[1:]
    forms, structures = forms.reshape(shape), structures.reshape(shape)
    fibers = np.stack([projection.fiber.orthonormal_basis() for projection in projections])[:, None]
    base_structures = np.stack([projection.space.structure.matrix for projection in projections])[:, None]
    base_restriction, base_invariance = restrictions(base_structures, fibers)
    restriction, invariance = restrictions(structures, fibers)
    w = np.stack([projection.projection.T for projection in projections])[:, None]  # (N, 1, 4n, 2n)
    quotients = np.stack([projection.quotient_structure.matrix for projection in projections])[:, None]
    quotient_residuals = stack_max(np.swapaxes(w, -1, -2) @ structures @ w - quotients)
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


@dataclass(frozen=True)
class HolomorphizedSection:
    eta: ComplexTwoForm
    omega_prime: ComplexTwoForm
    certificate: HolomorphizationCertificate


def holomorphize_section(section: LinearSection) -> HolomorphizedSection:
    """``holomorphize_sections`` of one section."""
    return holomorphize_sections([section])[0]


def holomorphize_sections(sections) -> list:
    """Deform each section's space by the section's own pullback form at t = -1.

    Certifies that the deformed form vanishes on the section's image, the
    image is c-Lagrangian (hence invariant under the new structure), and
    the section intertwines the quotient structure with the new one,
    i.e. becomes complex-linear.  The sections, all of one dimension, are
    pulled back by one ``section_forms`` call, every Omega' is decided in
    one ``decide_members`` call, and the forms it built are the ones
    certified, each check one array expression over the range.
    """
    etas = [form.two_form for form in section_forms(sections)]
    families = DeformationFamily.build_many([section.projection for section in sections], etas)
    omega_primes, structure_primes = decide_members([(family, -1.0) for family in families])
    maps = np.stack([section.map for section in sections])
    norms = _spectral_norms(maps)
    scales = [max(section.projection.space.omega.norm(), 1e-300) * norm**2 for section, norm in zip(sections, norms)]
    graph_restrictions = stack_max(np.swapaxes(maps, -1, -2) @ omega_primes @ maps).tolist()
    graphs = Subspace.from_bases(maps)
    lagrangian = c_isotropic(np.stack([graph.orthonormal_basis() for graph in graphs]), omega_primes, STRUCTURE_TOL)
    quotients = np.stack([section.projection.quotient_structure.matrix for section in sections])
    intertwining = stack_max(maps @ quotients - structure_primes @ maps).tolist()
    return [
        HolomorphizedSection(
            eta=eta,
            omega_prime=omega_prime,
            certificate=HolomorphizationCertificate(
                graph_restriction_norm=restriction / scale,
                graph_is_lagrangian=bool(ok),
                intertwining_residual=intertwine / max(1.0, norm),
            ),
        )
        for eta, omega_prime, restriction, scale, ok, intertwine, norm in zip(
            etas, ComplexTwoForm.from_skew(omega_primes), graph_restrictions, scales, lagrangian, intertwining, norms
        )
    ]


def random_base_forms(projections, rngs, scale: float = 1.0) -> list:
    """Random (2,0)+(1,1) form on each projection's base model, all of one
    dimension, for family sweeps.  Each generator draws its own raw form;
    the range is split by one ``hodge_parts`` call.  Raises ``ValueError``
    for no projections and for lists of different lengths."""
    if not same_lengths(projections=projections, rngs=rngs):
        raise ValueError("no base models to draw forms on")
    k = projections[0].half_dim
    raw = skew_matrices(
        np.stack([scale * (rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))) for rng in rngs])
    )
    c20, c11, _ = hodge_parts(raw, np.stack([projection.quotient_structure.matrix for projection in projections]))
    return ComplexTwoForm.from_skew(two_form_matrices(c20 + c11, k))
