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

from .csymplectic import (
    CSymplecticSpace,
    hodge_decompose,
    induced_structures,
    is_c_lagrangian,
    power_verdicts,
)
from .forms import ComplexTwoForm
from .linalg import DEFAULT_TOL, STRUCTURE_TOL, ComplexStructure, PostconditionError, Subspace, max_abs, null_space

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


def _hodge_certificate(two_form: ComplexTwoForm, structure: ComplexStructure, scale: float):
    comps = hodge_decompose(two_form, structure)
    return HodgeTypeCertificate(
        norm_20=comps[(2, 0)].norm(),
        norm_11=comps[(1, 1)].norm(),
        norm_02=comps[(0, 2)].norm(),
        scale=max(scale, two_form.norm()),
    )


@dataclass(frozen=True)
class LagrangianProjection:
    """Projection V -> K along a c-Lagrangian fiber L (K = Euclidean L^perp)."""

    space: CSymplecticSpace
    fiber: Subspace
    projection: np.ndarray = dc_field(repr=False)  # (2n, 4n), = W^T in K coordinates
    quotient_structure: ComplexStructure = dc_field(repr=False)

    @classmethod
    def build(cls, space: CSymplecticSpace, fiber: Subspace):
        """The quotient model K of V / L with its inherited structure.

        With W an orthonormal basis of K, I_quot = W^T I W is defined by
        pi(I v) = I_quot(pi v); it is well-defined because c-Lagrangian
        subspaces are I-invariant, and W^T I = I_quot W^T is checked on
        all of V.
        """
        if not is_c_lagrangian(fiber, space.omega):
            raise ValueError("fiber is not c-Lagrangian for the given form")
        w = fiber.orthogonal_complement().orthonormal_basis()
        structure = space.structure.matrix
        mat = w.T @ structure @ w
        residual = max_abs(w.T @ structure - mat @ w.T)
        if residual > STRUCTURE_TOL * max(1.0, max_abs(structure)):
            raise ValueError(f"quotient structure not well-defined (residual {residual:.3e})")
        return cls(
            space=space,
            fiber=fiber,
            projection=w.T,
            quotient_structure=ComplexStructure(w.shape[1], mat),
        )

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
    def from_fiber_part(cls, projection: LagrangianProjection, fiber_coeffs: np.ndarray):
        """Section W + B_L T: base inclusion plus a fiber-valued offset T."""
        w = projection.projection.T
        b = projection.fiber.orthonormal_basis()
        return cls(projection=projection, map=w + b @ np.asarray(fiber_coeffs, dtype=float))

    @classmethod
    def random(cls, projection: LagrangianProjection, rng: np.random.Generator, scale: float = 1.0):
        k = projection.half_dim
        return cls.from_fiber_part(projection, scale * rng.standard_normal((k, k)))

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

    def graph(self) -> Subspace:
        return Subspace(self.map, field="R")


@dataclass(frozen=True)
class SectionForm:
    two_form: ComplexTwoForm
    certificate: HodgeTypeCertificate


def section_form(section: LinearSection) -> SectionForm:
    """Pullback of Omega to the base model along a section.

    The certificate records the Hodge component norms w.r.t. the inherited
    quotient structure and asserts the vanishing of the (0,2) part, which
    is the content of the pulled-back form having type (2,0)+(1,1).
    """
    p = section.projection
    s = section.map
    omega_sigma = ComplexTwoForm(s.T @ p.space.omega.matrix @ s)
    scale = p.space.omega.norm() * float(np.linalg.norm(s, 2)) ** 2
    certificate = _hodge_certificate(omega_sigma, p.quotient_structure, scale)
    if not certificate.anti_holomorphic_ok():
        raise PostconditionError(
            f"(0,2) component of a section form is {certificate.norm_02:.3e}; "
            "this contradicts the Hodge-type property"
        )
    return SectionForm(two_form=omega_sigma, certificate=certificate)


def deform(projection: LagrangianProjection, gamma: ComplexTwoForm, t: complex) -> ComplexTwoForm:
    """Omega_t = Omega + t pi^* gamma for a (2,0)+(1,1) form gamma on K.

    Rejects gamma with an anti-holomorphic component above tolerance and
    verifies c-symplecticity of the result by both criteria.
    """
    ((omega_t, _),) = decide_members([(DeformationFamily.build(projection, gamma), t)])
    return omega_t


def _certify_gamma(projection: LagrangianProjection, gamma: ComplexTwoForm):
    if gamma.dim != projection.half_dim:
        raise ValueError("gamma must live on the base model")
    certificate = _hodge_certificate(gamma, projection.quotient_structure, gamma.norm())
    if not certificate.anti_holomorphic_ok():
        raise ValueError(
            f"gamma has a (0,2) component of norm {certificate.norm_02:.3e}; "
            "deformation requires Hodge type (2,0)+(1,1)"
        )
    return certificate


@dataclass(frozen=True)
class DeformationFamily:
    """The affine family t -> Omega + t pi^* gamma with a validated gamma.

    gamma's Hodge type is certified once, and its pullback pi^* gamma =
    W gamma W^T built once, in ``build``; members of the family are not
    re-certified.
    """

    projection: LagrangianProjection
    gamma: ComplexTwoForm
    certificate: HodgeTypeCertificate = dc_field(repr=False)
    pulled: np.ndarray = dc_field(repr=False)  # pi^* gamma on V, (4n, 4n)

    @classmethod
    def build(cls, projection: LagrangianProjection, gamma: ComplexTwoForm):
        certificate = _certify_gamma(projection, gamma)
        w = projection.projection  # (2n, 4n)
        return cls(projection=projection, gamma=gamma, certificate=certificate, pulled=w.T @ gamma.matrix @ w)

    def form(self, t: complex) -> ComplexTwoForm:
        """The member Omega + t pi^* gamma, not checked for c-symplecticity."""
        return ComplexTwoForm(self.projection.space.omega.matrix + complex(t) * self.pulled)

    def structures(self, t_samples) -> list:
        """Induced structures of the members at ``t_samples``, checked by both
        criteria: ``decide_members`` on this family alone."""
        return [structure for _, structure in decide_members([(self, t) for t in t_samples])]


def decide_members(members) -> list:
    """The form Omega_t and induced structure of each member ``(family, t)``,
    checked by both criteria: every member in one ``induced_structures`` call
    (the rank criterion) and one ``power_verdicts`` call.

    The members may come from many families of one dimension; each stacked
    call gives a form the bits it gets on its own.  Raises
    ``PostconditionError`` for the first member that fails, with both
    reasons, and ``ValueError`` for no members.
    """
    forms = [family.form(t) for family, t in members]
    if not forms:
        raise ValueError("no family members to decide")
    stack = np.stack([omega_t.matrix for omega_t in forms])
    stacked, verdicts = induced_structures(stack)
    powers = power_verdicts(stack)
    for i, structure in enumerate(stacked):
        rank_reason = "ok"
        if np.isnan(structure).any():
            rank_reason = verdicts.criterion(i).reason or "induced structure rejected"
        if rank_reason != "ok" or not powers.ok[i]:
            raise PostconditionError(
                f"deformed form failed c-symplecticity: rank: {rank_reason}; "
                f"power: {powers.criterion(i).reason or 'ok'}"
            )
    return [
        (omega_t, ComplexStructure.from_accepted(omega_t.dim, structure)) for omega_t, structure in zip(forms, stacked)
    ]


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
    members of every family are decided in one ``decide_members`` call, and
    the forms it built are the ones checked.  Raises ``ValueError`` for
    empty ``t_samples``.
    """
    t_samples = tuple(t_samples)
    if not t_samples:
        raise ValueError("no t samples to verify preservance at")
    families = [DeformationFamily.build(projection, gamma) for projection, gamma in zip(projections, gammas)]
    members = iter(decide_members([(family, t) for family in families for t in t_samples]))
    reports = []
    for projection in projections:
        base_restriction, base_inv = projection.space.structure.restrict(projection.fiber)
        base_quotient = projection.quotient_structure.matrix
        fiber_ok = True
        restriction_residuals, quotient_residuals, invariances = [], [], [base_inv]
        w = projection.projection.T
        for omega_t, structure_t in (next(members) for _ in t_samples):
            if not is_c_lagrangian(projection.fiber, omega_t, STRUCTURE_TOL):
                fiber_ok = False
            restriction_t, invariance = structure_t.restrict(projection.fiber)
            restriction_residuals.append(max_abs(restriction_t - base_restriction))
            quotient_residuals.append(max_abs(w.T @ structure_t.matrix @ w - base_quotient))
            invariances.append(invariance)
        reports.append(
            PreservanceReport(
                t_samples=tuple(complex(t) for t in t_samples),
                fiber_lagrangian_ok=fiber_ok,
                max_fiber_restriction_residual=max_abs(restriction_residuals),
                max_quotient_residual=max_abs(quotient_residuals),
                max_invariance_residual=max_abs(invariances),
            )
        )
    return reports


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
    i.e. becomes complex-linear.  Every section's Omega' is decided in one
    ``decide_members`` call, and the forms it built are the ones certified.
    """
    etas = [section_form(section).two_form for section in sections]
    families = [DeformationFamily.build(section.projection, eta) for section, eta in zip(sections, etas)]
    members = decide_members([(family, -1.0) for family in families])
    results = []
    for section, eta, (omega_prime, structure_prime) in zip(sections, etas, members):
        p = section.projection
        s = section.map
        scale = max(p.space.omega.norm(), 1e-300) * float(np.linalg.norm(s, 2)) ** 2
        restriction = max_abs(s.T @ omega_prime.matrix @ s) / scale
        graph = section.graph()
        lagrangian = is_c_lagrangian(graph, omega_prime, STRUCTURE_TOL)
        intertwine = max_abs(
            s @ p.quotient_structure.matrix - structure_prime.matrix @ s
        ) / max(1.0, float(np.linalg.norm(s, 2)))
        results.append(
            HolomorphizedSection(
                eta=eta,
                omega_prime=omega_prime,
                certificate=HolomorphizationCertificate(
                    graph_restriction_norm=restriction,
                    graph_is_lagrangian=lagrangian,
                    intertwining_residual=intertwine,
                ),
            )
        )
    return results


def random_base_form(
    projection: LagrangianProjection, rng: np.random.Generator, scale: float = 1.0
) -> ComplexTwoForm:
    """Random (2,0)+(1,1) form on the base model, for family sweeps."""
    k = projection.half_dim
    raw = scale * (rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)))
    raw_form = ComplexTwoForm(raw)
    comps = hodge_decompose(raw_form, projection.quotient_structure)
    cleaned = comps[(2, 0)] + comps[(1, 1)]
    return ComplexTwoForm.from_kform(cleaned)
