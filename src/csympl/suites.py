"""Named verification suites behind the command-line interface.

Each suite quantifies one family of guarantees over seeded random
instances and reports per-check rows
``{"check", "dim", "samples", "max_residual", "pass", "seed"}``.
Randomness flows exclusively through ``numpy.random.default_rng`` (PCG64)
seeded from ``[master_seed, stream tags...]``, so identical configurations
reproduce identical reports; failing cases serialize enough to replay the
exact code path.

Every suite except the testbed is a sweep over case functions
``case(cfg, dim, indices) -> [(inputs, measurements), ...]``: per index of a
dim's index range, one seeded instance, its named inputs and its
``(check, value[, detail])`` measurements.  ``csympl replay`` rebuilds a
case by calling the same function on ``range(index, index + 1)``.  Case
functions and testbed runners measure; the table ``CHECKS`` decides: it
holds each row's bound, how its values fold into the row, and its case
function.
"""

import numbers
import time
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .csymplectic import (
    CSymplecticSpace,
    accepted_structures,
    c_symplectic_bases,
    is_c_isotropic,
    is_c_lagrangian,
    power_verdicts,
    q_block_form,
    random_c_symplectics,
    rank_verdicts,
)
from .deformation import (
    DEFAULT_T_SAMPLES,
    LagrangianProjection,
    LinearSection,
    holomorphize_sections,
    random_base_forms,
    verify_preservances,
)
from .forms import ComplexTwoForm, skew_matrices
from .lattice import (
    PeriodPoint,
    PostconditionError,
    TwistorCurve,
    find_section_class,
    not_positive,
    random_isometry_images,
    random_primitive_isotropic,
    standard_k3_lattice,
    twistor_parameter,
)
from .linalg import (
    DEFAULT_TOL, Subspace, conditioned_draws, max_abs, null_space, numerical_rank, orthonormal_bases, same_lengths,
)
from .torus import (
    SmoothSection,
    TorusGrid,
    closed_control_form,
    deformed_structure_field,
    exterior_derivative_fd,
    nijenhuis_node_norms,
    nijenhuis_norm,
    nonclosed_control_form,
    sample_section_form,
    verify_section_holomorphic,
)


@dataclass
class SuiteConfig:
    """One suite run. ``dims`` and ``samples`` default to the suite's entry
    in ``SUITES``; an unknown suite raises ``KeyError``."""

    suite: str
    dims: tuple = None
    samples: int = None
    seed: int = 0
    grid_n: int = 64
    modes: int = 3
    t_value: complex = -1.0
    control: str = "closed"

    def __post_init__(self):
        entry = SUITES[self.suite]
        self.samples = entry.samples if self.samples is None else self.samples
        self.dims = entry.dims if self.dims is None else self.dims
        counts = [("seed", self.seed), ("samples", self.samples), ("grid", self.grid_n), ("modes", self.modes)]
        for name, value in counts + [("dims", dim) for dim in self.dims or ()]:
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.dims and len(set(self.dims)) < len(self.dims):
            raise ValueError(f"dims must be distinct, got {self.dims}")
        if self.samples < 1:
            raise ValueError(f"samples must be at least 1, got {self.samples}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        # the form suites draw c-symplectic forms, which live on R^{4n}
        if entry.dims and not (self.dims and all(d > 0 and d % 4 == 0 for d in self.dims)):
            raise ValueError(f"dims must be positive multiples of 4, got {self.dims}")
        if self.control not in ("closed", "nonclosed"):
            raise ValueError(f"control must be 'closed' or 'nonclosed', got {self.control!r}")
        if self.suite != "testbed-nijenhuis":
            return
        TorusGrid(self.grid_n // 2), TorusGrid(self.grid_n)  # the coarse and the fine grid
        if self.control == "closed" and self.modes < 1:
            raise ValueError(f"modes must be at least 1, got {self.modes}")
        t = complex(self.t_value)
        if not np.isfinite(t):
            raise ValueError(f"t must be finite, got {self.t_value}")
        if self.control == "nonclosed" and (t.imag != 0 or not 0 < abs(t.real) < 1):
            raise ValueError(f"t must be real with 0 < |t| < 1 for the non-closed control, got {self.t_value}")


@dataclass
class SuiteReport:
    suite: str
    seed: int
    passed: bool
    checks: list
    wall_time_s: float
    failure_case: dict = None
    #: the testbed's fine-grid node table; None for the other suites
    nodes: "NodeTable" = None

    def to_json(self) -> dict:
        data = {
            "suite": self.suite,
            "seed": self.seed,
            "pass": self.passed,
            "wall_time_s": self.wall_time_s,
            "checks": self.checks,
        }
        if self.failure_case is not None:
            data["first_failure"] = self.failure_case
        return data


#: Columns of a check row, in report and CSV order.
ROW_FIELDS = ("check", "dim", "samples", "max_residual", "pass", "seed")


def _check_row(check, dim, samples, max_residual, ok, seed):
    return dict(zip(ROW_FIELDS, (check, int(dim), int(samples), float(max_residual), bool(ok), int(seed))))


def _case_rng(cfg: SuiteConfig, *stream):
    return np.random.default_rng([cfg.seed, *stream])


#: SuiteConfig field stored under each key of a failure case's ``config``;
#: ``t_value`` is stored as ``[re, im]``.
CASE_CONFIG = {
    "samples": "samples",
    "grid": "grid_n",
    "modes": "modes",
    "t": "t_value",
    "control": "control",
}


def _failure(cfg: SuiteConfig, check, dim, index, residual, detail=""):
    t = [cfg.t_value.real, complex(cfg.t_value).imag]
    config = {key: t if field == "t_value" else getattr(cfg, field) for key, field in CASE_CONFIG.items()}
    return {
        "suite": cfg.suite,
        "check": check,
        "dim": int(dim),
        "seed": int(cfg.seed),
        "index": int(index),
        "residual": float(residual),
        "detail": detail,
        "config": config,
    }


def _sweep(cfg: SuiteConfig, *parts):
    """Run each part ``(case, dims, samples)`` on each of its dims with the
    index range ``range(samples)`` and fold the measurements into one row per
    (check, dim), in first-seen order, as ``CHECKS`` says. The first
    measurement in index order that fails its bound is the failure case."""
    rows, failure = {}, None
    for case, dims, samples in parts:
        for dim in dims:
            for index, (_, measurements) in enumerate(case(cfg, dim, range(samples))):
                for check, value, *detail in measurements:
                    rows.setdefault((check, dim), []).append(value)
                    if failure is None and not CHECKS[check].passes(value):
                        failure = _failure(cfg, check, dim, index, value, *detail)
    checks = []
    for (check, dim), values in rows.items():
        entry = CHECKS[check]
        value = entry.row_value(values)
        checks.append(_check_row(check, dim, len(values), value, entry.passes(value), cfg.seed))
    return checks, failure


# -- instance generators -------------------------------------------------


def mixed_two_forms(rngs, dim: int) -> np.ndarray:
    """Mixture exercising both sides of the recognition criteria, one form
    per generator as an (N, dim, dim) stack of matrices: c-symplectic
    instances (kind 0, and kind 1 rescaled by a random complex scale),
    complex and real Gaussian skew matrices (kinds 2 and 3), and real
    degenerate forms of half rank (kind 4, the case separating the naked
    kernel count from full c-symplecticity).

    Each generator draws its kind, then kind 1 its scale, then its form.
    Kinds 0 and 1 share one ``random_c_symplectics`` call, kind 4's
    rank-2n block is built once, and the range is antisymmetrized by one
    ``skew_matrices`` call; each generator draws as it would alone, and
    every product takes one matrix at a time, so a form has the same bits
    in any range.  Raises ``ValueError`` for no generators.
    """
    if not rngs:
        raise ValueError("no generators to draw forms from")
    kinds = [int(rng.integers(5)) for rng in rngs]
    scales = {
        i: complex(rng.standard_normal() + 1j * rng.standard_normal()) for i, rng in enumerate(rngs) if kinds[i] == 1
    }
    raw = np.empty((len(rngs), dim, dim), dtype=np.complex128)
    symplectic = [i for i, kind in enumerate(kinds) if kind <= 1]
    if symplectic:
        for i, omega in zip(symplectic, random_c_symplectics([rngs[i] for i in symplectic], dim)[0]):
            raw[i] = omega * scales[i] if i in scales else omega
    degenerate = []
    for i, kind in enumerate(kinds):
        if kind == 2:
            raw[i] = rngs[i].standard_normal((dim, dim)) + 1j * rngs[i].standard_normal((dim, dim))
        elif kind == 3:
            raw[i] = rngs[i].standard_normal((dim, dim))
        elif kind == 4:
            degenerate.append(i)
    if degenerate:
        # real form of rank 2n: kernel dimension matches c-symplectic forms
        # but the kernel is a complexified real space
        block = np.zeros((dim, dim))
        for pair in range(dim // 4):
            block[2 * pair, 2 * pair + 1] = 1.0
            block[2 * pair + 1, 2 * pair] = -1.0
        p = np.stack([rngs[i].standard_normal((dim, dim)) for i in degenerate])
        raw[degenerate] = np.swapaxes(p, -1, -2) @ block @ p
    return skew_matrices(raw)


def random_lagrangians(spaces: CSymplecticSpace, rngs) -> np.ndarray:
    """Random c-Lagrangian fiber of each space of a ``CSymplecticSpace``
    range, by the greedy isotropic construction: each new generator is
    drawn from the joint kernel of the pairings with the previous ones,
    then completed with its structure image.

    Each generator draws its own normals in its own order.  Every step
    takes the range's joint kernels from one stacked SVD; every product
    takes one matrix at a time, so a fiber has the same bits in any range.
    The 2j conditions of step j have rank 2j, since Re Omega is
    nondegenerate and the generators so far span a 2j-dimensional space,
    and the step raises ``PostconditionError`` when they do not.  Returns
    the raw fiber bases (N, m, m/2).  Raises ``ValueError`` for no spaces
    and for a range and generators of different lengths.
    """
    count = same_lengths(spaces=spaces, rngs=rngs)
    if not count:
        raise ValueError("no spaces to draw c-Lagrangians in")
    structures, forms = spaces.structures, spaces.omegas
    dim = forms.shape[-1]
    vectors = []
    conditions = np.zeros((count, 0, dim))
    for step in range(dim // 4):
        normals = np.stack([rng.standard_normal(dim - 2 * step) for rng in rngs])
        v = normals
        if step:
            _, s, vh = np.linalg.svd(conditions)
            rank = numerical_rank(s)
            if (rank != 2 * step).any():
                first = rank[np.argmax(rank != 2 * step)]
                raise PostconditionError(
                    f"internal consistency error: isotropy conditions have rank {first}, not {2 * step}"
                )
            v = (np.swapaxes(vh[:, 2 * step :].conj(), -1, -2) @ normals[..., None])[..., 0]
        # each norm is the dot product np.linalg.norm takes of one vector
        v = v / np.sqrt(v[:, None, :] @ v[..., None])[..., 0]
        vectors += [v, (structures @ v[..., None])[..., 0]]
        pairing = (forms @ v[..., None])[..., 0]
        conditions = np.concatenate([conditions, pairing.real[:, None], pairing.imag[:, None]], axis=1)
    return np.stack(vectors, axis=-1)


# -- case functions ------------------------------------------------------


def _criteria_case(cfg: SuiteConfig, dim, indices):
    """Both criteria on mixed forms, each drawn from its own stream: the
    range's rank verdicts in one stacked call and its power verdicts in
    another."""
    omegas = mixed_two_forms([_case_rng(cfg, dim, index) for index in indices], dim)
    verdicts = zip(rank_verdicts(omegas).ok.tolist(), power_verdicts(omegas).ok.tolist())
    cases = []
    for omega, (rank, power) in zip(omegas, verdicts):
        measurements = [("criteria-agree", float(rank != power), f"rank={rank} power={power}")]
        cases.append(({"omega": omega}, measurements))
    return cases


def _induced_case(cfg: SuiteConfig, dim, indices):
    """Recover a known structure from its form, each drawn from its own
    stream; the cases at indices below 20 also rescale the form by a random
    lambda.  The range's forms and rescalings are decided in one
    ``accepted_structures`` call, in index order with each rescaling after
    its form, so the first rejected form raises as it would on its own.
    The range's structures and forms come from one ``_structures_with_forms``
    call, and then each generator draws its lambda."""
    rngs = [_case_rng(cfg, dim, index) for index in indices]
    instances, stack = [], []
    for index, rng, structure, omega in zip(indices, rngs, *_structures_with_forms(rngs, dim)):
        inputs = {"omega": omega, "structure": structure}
        stack.append(omega)
        if index < 20:
            lam = 0j
            while abs(lam) < 1e-3:
                lam = complex(rng.standard_normal() + 1j * rng.standard_normal())
            inputs["lambda"] = lam
            stack.append(skew_matrices(omega * lam))
        instances.append(inputs)
    induced = iter(accepted_structures(np.stack(stack)))
    cases = []
    for inputs in instances:
        own = next(induced)
        measurements = [("uniqueness", max_abs(own - inputs["structure"]))]
        if "lambda" in inputs:
            measurements.append(("scaling-invariance", max_abs(next(induced) - own)))
        cases.append((inputs, measurements))
    return cases


def _structures_with_forms(rngs, dim: int):
    """Random known complex structure J = p J0 p^{-1} and a nondegenerate
    (2,0)-form cov m cov^T for it, per generator, as stacks (N, dim, dim).

    Each generator draws its conditioned map p (cond <= 100), then its skew
    coefficient matrix m (cond <= 1e3), each by ``conditioned_draws``, so it
    draws as it would alone.  The range takes one stacked inverse, one SVD
    of the (1,0) candidates and one ``skew_matrices`` call; every product
    and decomposition takes one matrix at a time, so an instance has the
    same bits in any range.  Raises ``ValueError`` for a dim that is not a
    positive multiple of 4, where no nondegenerate m exists, and for no
    generators.
    """
    if dim <= 0 or dim % 4:
        raise ValueError(f"dim must be a positive multiple of 4, got {dim}")
    j0 = np.zeros((dim, dim))
    for k in range(0, dim, 2):
        j0[k, k + 1] = -1.0
        j0[k + 1, k] = 1.0
    p = conditioned_draws(rngs, lambda rng: rng.standard_normal((dim, dim)), 100.0)
    structures = p @ j0 @ np.linalg.inv(p)
    # (1,0) covectors are the +i eigenvectors of J^T; w - i J^T w spans them
    candidates = np.eye(dim) - 1j * np.swapaxes(structures, -1, -2)
    half = dim // 2
    cov = np.linalg.svd(candidates)[0][..., :half]

    def skew_normal(rng):
        m = rng.standard_normal((half, half)) + 1j * rng.standard_normal((half, half))
        return m - m.T

    m = conditioned_draws(rngs, skew_normal, 1e3)
    return structures, skew_matrices(cov @ m @ np.swapaxes(cov, -1, -2))


def _gram_schmidt_case(cfg: SuiteConfig, dim, indices):
    """Canonical bases of random forms, each drawn from its own stream; the
    range's forms are drawn by one ``random_c_symplectics`` call and their
    bases built in one ``c_symplectic_bases`` call."""
    omegas = random_c_symplectics([_case_rng(cfg, dim, index) for index in indices], dim)[0]
    target = q_block_form(dim // 4).matrix
    cases = []
    for omega, b in zip(omegas, c_symplectic_bases(omegas)):
        residual = max_abs(b.T @ omega @ b - target) / max_abs(omega)
        cases.append(({"omega": omega}, [("q-block-residual", residual)]))
    return cases


def _spaces(cfg: SuiteConfig, dim, streams):
    """Each stream's generator and the space range of the forms they draw
    first.  Every stream ``(seed, dim, stream)`` draws its own form, in one
    ``random_c_symplectics`` call, and the forms are decided in one
    ``CSymplecticSpace.from_forms`` call."""
    rngs = [_case_rng(cfg, dim, stream) for stream in streams]
    return rngs, CSymplecticSpace.from_forms(random_c_symplectics(rngs, dim)[0])


def _lagrangian_instances(cfg: SuiteConfig, dim, indices):
    """Generators, the space range and the stacked random c-Lagrangian fiber
    bases of an index range, with each index's inputs, shared by the
    hitchin, preservance and section-theorem cases: the range's ``_spaces``
    on the streams ``(seed, dim, index)``, then each stream goes on to draw
    its index's fiber, in one ``random_lagrangians`` call."""
    rngs, spaces = _spaces(cfg, dim, indices)
    fibers = random_lagrangians(spaces, rngs)
    inputs = [{"omega": omega, "fiber basis": basis} for omega, basis in zip(spaces.omegas, fibers)]
    return rngs, spaces, fibers, inputs


def _hitchin_case(cfg: SuiteConfig, dim, indices):
    cases = []
    _, spaces, fibers, instances = _lagrangian_instances(cfg, dim, indices)
    for structure, q, inputs in zip(spaces.structures, orthonormal_bases(fibers), instances):
        image = structure @ q
        residual = max_abs(image - q @ (q.T @ image)) / max(max_abs(image), 1e-300)
        cases.append((inputs, [("structure-invariance", residual)]))
    return cases


def _maximality_case(cfg: SuiteConfig, dim, indices):
    """Dimension test of maximality against a brute-force extension search,
    each index on its own stream (seed, dim, 10000 + index)."""
    cases = []
    rngs, spaces = _spaces(cfg, dim, [10_000 + index for index in indices])
    for i, (rng, omega) in enumerate(zip(rngs, map(ComplexTwoForm, spaces.omegas))):
        space = CSymplecticSpace(omegas=spaces.omegas[i : i + 1], structures=spaces.structures[i : i + 1])
        subspace = _random_candidate_subspace(space, rng)
        by_dimension = is_c_lagrangian(subspace, omega, 1e-8)
        by_search = _brute_force_maximal(subspace, omega, rng)
        inputs = {"omega": omega.matrix, "candidate basis": subspace.basis}
        cases.append((inputs, [("maximality-brute-force", float(by_dimension != by_search))]))
    return cases


def _random_candidate_subspace(space: CSymplecticSpace, rng: np.random.Generator) -> Subspace:
    dim = space.omegas.shape[-1]
    kind = int(rng.integers(3))
    if kind == 0:  # isotropic line: every line is isotropic, never maximal
        return Subspace(rng.standard_normal((dim, 1)))
    if kind == 1:  # honest c-Lagrangian
        return Subspace(random_lagrangians(space, [rng])[0])
    return Subspace(rng.standard_normal((dim, 2)))  # generic plane


def _brute_force_maximal(subspace: Subspace, omega, rng: np.random.Generator, attempts: int = 100) -> bool:
    """Maximality by extension search, independent of the dimension test.

    Any isotropic extension vector must solve the linear pairing
    conditions against the current basis, so candidates are sampled from
    that solution space and each found extension is re-verified with the
    isotropy predicate."""
    if not is_c_isotropic(subspace, omega, 1e-8):
        return False
    basis = subspace.orthonormal_basis()
    pairings = omega.matrix @ basis  # columns: covectors Omega(., q_i)
    conditions = np.vstack([pairings.T.real, pairings.T.imag])
    solutions = null_space(conditions, 1e-10)
    for _ in range(attempts):
        v = solutions @ rng.standard_normal(solutions.shape[1]) if solutions.shape[1] else None
        if v is None:
            break
        candidate = np.column_stack([basis, v])
        if numerical_rank(np.linalg.svd(candidate, compute_uv=False), 1e-8) <= subspace.dim:
            continue
        if is_c_isotropic(Subspace(candidate), omega, 1e-8):
            return False
    return True


def _preservance_case(cfg: SuiteConfig, dim, indices):
    """Preservance of a random (2,0)+(1,1) family per instance; the range's
    projections, gammas and reports are each built in one stacked call."""
    rngs, spaces, fibers, instances = _lagrangian_instances(cfg, dim, indices)
    projection = LagrangianProjection.build_many(spaces, fibers)
    gammas = random_base_forms(projection, rngs, scale=0.5)
    cases = []
    for inputs, gamma, report in zip(instances, gammas, verify_preservances(projection, gammas, DEFAULT_T_SAMPLES)):
        inputs["gamma"] = gamma
        measurements = [
            ("preservance", report.max_residual),
            ("preservance-fiber-lagrangian", float(not report.fiber_lagrangian_ok)),
        ]
        cases.append((inputs, measurements))
    return cases


def _section_theorem_case(cfg: SuiteConfig, dim, indices):
    """The section theorem for a random section per instance; the range's
    projections and section maps are each built in one stacked call, and
    every section is holomorphized in one ``holomorphize_sections`` call."""
    rngs, spaces, fibers, instances = _lagrangian_instances(cfg, dim, indices)
    sections = LinearSection.random_many(LagrangianProjection.build_many(spaces, fibers), rngs)
    _, _, certificates = holomorphize_sections(sections)
    cases = []
    for inputs, section_map, certificate in zip(instances, sections.maps, certificates):
        inputs["section map"] = section_map
        restriction, intertwining = certificate.graph_restriction_norm, certificate.intertwining_residual
        measurements = [
            ("holomorphize", certificate.max_residual, f"graph_restriction={restriction} intertwining={intertwining}"),
            ("holomorphize-graph-lagrangian", float(not certificate.graph_is_lagrangian)),
        ]
        cases.append((inputs, measurements))
    return cases


def _section_class_case(cfg: SuiteConfig, dim, indices):
    lattice = standard_k3_lattice()
    cases = []
    for index in indices:
        e = random_primitive_isotropic(lattice, _case_rng(cfg, index))
        try:
            s = find_section_class(lattice, e)
            exact = lattice.pair(s, e) == 1 and lattice.pair(s, s) == -2
        except (ValueError, PostconditionError):
            exact = False
        cases.append(({"e": e}, [("section-class", float(not exact), f"e={e}")]))
    return cases


#: Period (real and imaginary part) and fiber class that random isometries
#: move to draw twistor curves.
TWISTOR_BASE = ([1, 1] + [0] * 20, [0, 0, 1, 1] + [0] * 18, [0] * 4 + [1] + [0] * 17)


def _twistor_case(cfg: SuiteConfig, dim, indices):
    """One twistor curve per index: the parameter substitution, then one
    measurement per plane of a 10 x 10 sweep, its Gram matrix's deviation
    from the first positive plane's."""
    lattice = standard_k3_lattice()
    planes = [(x, y) for x in np.linspace(-2, 2, 10) for y in np.linspace(-2, 2, 10)]
    cases = []
    for index in indices:
        re, im, e = random_isometry_images(lattice, _case_rng(cfg, index), TWISTOR_BASE)
        omega = np.asarray(re, dtype=float) + 1j * np.asarray(im, dtype=float)
        point = PeriodPoint(lattice, omega)
        s = find_section_class(lattice, e)
        t = twistor_parameter(lattice, s, e, omega)
        scale = max(abs(lattice.pair(omega, omega.conj())), 1.0)
        subst = abs(lattice.pair(np.asarray(s), omega - t * np.asarray(e, dtype=float))) / scale
        measurements = [("parameter-substitution", subst)]
        grams, errors = np.full((len(planes), 2, 2), np.nan), {}
        try:
            curve = TwistorCurve(point, e)
        except ValueError as exc:  # a bad direction fails every plane
            errors = {k: f"plane ({x}, {y}): {exc}" for k, (x, y) in enumerate(planes)}
        else:
            swept, eigenvalues = curve.sweep(*zip(*planes))
            positive = np.all(eigenvalues > 0, axis=1)
            grams[positive] = swept[positive]  # a plane that is not positive keeps a NaN Gram, so it fails
            errors = {
                k: f"plane ({x}, {y}): {not_positive(eigenvalues[k])}"
                for k, (x, y) in enumerate(planes)
                if not positive[k]
            }
        first = next((gram for gram in grams if not np.isnan(gram).any()), grams[0])
        deviations = np.max(np.abs(grams - first), axis=(1, 2)) / max(float(np.max(np.abs(first))), 1e-300)
        for k, deviation in enumerate(deviations):
            measurements.append(("plane-gram-constant", deviation, errors.get(k, "")))
        cases.append(({"omega": omega, "e": e}, measurements))
    return cases


# -- check table -----------------------------------------------------------


class Check(NamedTuple):
    """How one check's rows are decided.

    ``suite`` is the suite that emits the check, ``control`` the testbed
    control that does (None outside the testbed), and ``case`` the case
    function that measures it, None for the testbed's rows. ``fold`` turns
    a row's measured values into its value: ``"max"``, the largest (NaN if
    any is NaN), or ``"count"``, the number of values that fail the bound.
    A value passes when ``low <= value <= high``, so NaN fails."""

    suite: str
    case: Callable
    fold: str
    low: float
    high: float
    control: str = None

    def passes(self, value) -> bool:
        return bool(self.low <= value <= self.high)

    def row_value(self, values):
        if self.fold == "count":
            return sum(not self.passes(value) for value in values)
        return np.max(values)


#: Every check a suite emits, in the order the suites emit them. A count
#: row's case value is 1.0 for a failing case and 0.0 otherwise.
CHECKS = {
    "criteria-agree": Check("criteria-equivalence", _criteria_case, "count", -np.inf, 0),
    "uniqueness": Check("induced-structure", _induced_case, "max", -np.inf, 1e-8),
    "scaling-invariance": Check("induced-structure", _induced_case, "max", -np.inf, DEFAULT_TOL),
    "q-block-residual": Check("gram-schmidt", _gram_schmidt_case, "max", -np.inf, 1e-8),
    "structure-invariance": Check("hitchin", _hitchin_case, "max", -np.inf, DEFAULT_TOL),
    "maximality-brute-force": Check("hitchin", _maximality_case, "count", -np.inf, 0),
    "preservance": Check("preservance", _preservance_case, "max", -np.inf, DEFAULT_TOL),
    "preservance-fiber-lagrangian": Check("preservance", _preservance_case, "count", -np.inf, 0),
    "holomorphize": Check("section-theorem", _section_theorem_case, "max", -np.inf, DEFAULT_TOL),
    "holomorphize-graph-lagrangian": Check("section-theorem", _section_theorem_case, "count", -np.inf, 0),
    "section-holomorphy": Check("testbed-nijenhuis", None, "max", -np.inf, 1e-8, "closed"),
    "section-nijenhuis": Check("testbed-nijenhuis", None, "max", -np.inf, 1e-4, "closed"),
    "section-closedness": Check("testbed-nijenhuis", None, "max", -np.inf, 1e-10, "closed"),
    # Richardson window accepted as second order between successive grids
    "closed-decay-rate": Check("testbed-nijenhuis", None, "max", 2.5, 6.0, "closed"),
    "closed-control-nijenhuis": Check("testbed-nijenhuis", None, "max", -np.inf, 1e-4, "closed"),
    "nonclosed-nijenhuis": Check("testbed-nijenhuis", None, "max", -np.inf, 0.05, "nonclosed"),
    # the non-closedness is macroscopic: |d eta| -> 2 pi
    "nonclosed-derivative": Check("testbed-nijenhuis", None, "max", np.pi, np.inf, "nonclosed"),
    "nonclosed-stability": Check("testbed-nijenhuis", None, "max", -np.inf, 0.05, "nonclosed"),
    "section-class": Check("lattice-sections", _section_class_case, "count", -np.inf, 0),
    "parameter-substitution": Check("twistor-curve", _twistor_case, "max", -np.inf, 1e-12),
    "plane-gram-constant": Check("twistor-curve", _twistor_case, "max", -np.inf, 1e-12),
}


# -- torus testbed ---------------------------------------------------------


def testbed_inputs(cfg: SuiteConfig):
    """The testbed's seeded section (None for the non-closed control) and
    the 2-form field the structure is deformed by, keyed by grid size, at
    the coarse grid ``grid_n // 2`` and the fine grid ``grid_n``. The field
    is sampled on the fine grid only (see ``_coarse_and_fine``)."""
    grid = TorusGrid(cfg.grid_n)
    if cfg.control == "nonclosed":
        section, field = None, nonclosed_control_form(grid)
    else:
        section = SmoothSection.random(_case_rng(cfg, 0), cfg.modes)
        field = sample_section_form(section, grid)
    return section, _coarse_and_fine(field)


def _coarse_and_fine(field: np.ndarray):
    """A fine-grid node array and the coarse grid's, keyed by grid size.

    The coarse field is the fine field's even nodes: coarse node i sits at
    i / (n/2), the same float as fine node 2i at 2i / n (both are the
    correctly rounded quotient of one real), so any field evaluated
    pointwise from the node coordinates restricts bit for bit, and a
    failed node keeps its NaN structure."""
    n = len(field)
    return {n // 2: field[::2, ::2], n: field}


@dataclass(frozen=True)
class NodeTable:
    """Per-node residuals of the testbed's fine grid, for ``--nodes-csv``."""

    holomorphy: np.ndarray
    nijenhuis: np.ndarray


def _testbed(cfg: SuiteConfig):
    """Run the testbed's control and turn its measurements ``(check, samples,
    value, index[, detail])``, all at dim 4, into one row each; the first
    that fails its bound is the failure case."""
    measured, nodes = (_testbed_nonclosed if cfg.control == "nonclosed" else _testbed_closed)(cfg)
    checks, failure = [], None
    for check, samples, value, index, *detail in measured:
        ok = CHECKS[check].passes(value)
        checks.append(_check_row(check, 4, samples, value, ok, cfg.seed))
        if not ok and failure is None:
            failure = _failure(cfg, check, 4, index, value, *detail)
    return checks, failure, nodes


def _testbed_closed(cfg: SuiteConfig):
    """The closed testbed's measurements and node table. A failed node is
    NaN and the node maxima carry it, so the rows need no failed-node count."""
    section, etas = testbed_inputs(cfg)
    eta = etas[cfg.grid_n]

    holomorphy = verify_section_holomorphic(section, eta)
    measured = [("section-holomorphy", cfg.grid_n**2, holomorphy.max_residual, 0)]
    if cfg.t_value == -1:  # the field holomorphy was checked on
        structure = holomorphy.structure
    else:
        structure = deformed_structure_field(eta, cfg.t_value)
    node_norms = {grid_n: nijenhuis_node_norms(s) for grid_n, s in _coarse_and_fine(structure).items()}
    for grid_n, norms in node_norms.items():
        measured.append(("section-nijenhuis", grid_n * grid_n, float(np.max(norms)), grid_n))
        d_eta = max_abs(exterior_derivative_fd(etas[grid_n]))
        measured.append(("section-closedness", grid_n * grid_n, d_eta, grid_n))
    # the node table shows the section theorem's structure, at t = -1
    if structure is holomorphy.structure:
        theorem_norms = node_norms[cfg.grid_n]
    else:
        theorem_norms = nijenhuis_node_norms(holomorphy.structure)
    nodes = NodeTable(holomorphy.node_residuals, theorem_norms)

    # a pullback from the base is structurally closed and its structure
    # field has no finite-difference truncation error; the second-order
    # decay is measured on a generic closed (2,0)+(1,1) deformation
    control = deformed_structure_field(closed_control_form(TorusGrid(cfg.grid_n)), 1.0)
    coarse_norm, fine_norm = (nijenhuis_norm(s) for s in _coarse_and_fine(control).values())
    measured.append(("closed-decay-rate", 2, coarse_norm / max(fine_norm, 1e-300), 0))
    measured.append(("closed-control-nijenhuis", cfg.grid_n**2, fine_norm, cfg.grid_n))
    return measured, nodes


def _nonclosed_continuum_max(t: float) -> float:
    """Analytic ceiling of the control's Nijenhuis norm, in closed form.

    The deformed structure splits over the base point with fiber block
    [[0, -r], [1/r, 0]], r = (1 - g)/(1 + g), g = t cos(theta), theta =
    2 pi x; the nonvanishing Nijenhuis components have norms |r'|, |r'|/r,
    |r'|/r^2, so the ceiling is the maximum over theta of |r'| max(1, 1/r,
    1/r^2). With r' = 4 pi t sin(theta) / (1 + g)^2 and the largest factor
    1/r^2 where g > 0 and 1 where g < 0, that is the maximum of

        F = 4 pi a s / (1 - a c)^2,  a = |t|, c = |cos theta|, s = sqrt(1 - c^2).

    d log F / dc = -c / (1 - c^2) + 2a / (1 - a c) = 0 gives
    a c^2 + c - 2a = 0, whose root in (0, 1) is
    c* = (sqrt(1 + 8 a^2) - 1) / (2a) = 4a / (1 + sqrt(1 + 8 a^2));
    the second spelling has no cancellation at small a. dF/dc has the
    sign of 2a - c - a c^2, positive below c* and negative above it, so
    F(c*) is the maximum.
    """
    a = abs(t)
    c = 4 * a / (1 + np.sqrt(1 + 8 * a * a))
    return float(4 * np.pi * a * np.sqrt(1 - c * c) / (1 - a * c) ** 2)


def _testbed_nonclosed(cfg: SuiteConfig):
    """The non-closed control's measurements and node table. A deviation
    of at most 0.05 keeps the value above 0.95 times the continuum ceiling,
    and a failed node makes it NaN."""
    t = complex(cfg.t_value).real
    continuum = _nonclosed_continuum_max(t)
    controls = testbed_inputs(cfg)[1]
    structure = deformed_structure_field(controls[cfg.grid_n], t)
    node_norms = {grid_n: nijenhuis_node_norms(s) for grid_n, s in _coarse_and_fine(structure).items()}
    values = {grid_n: float(np.max(norms)) for grid_n, norms in node_norms.items()}
    measured = []
    for grid_n, value in values.items():
        deviation = abs(value - continuum) / continuum
        detail = f"value={value} continuum={continuum}"
        measured.append(("nonclosed-nijenhuis", grid_n * grid_n, deviation, grid_n, detail))
        d_norm = max_abs(exterior_derivative_fd(controls[grid_n]))
        measured.append(("nonclosed-derivative", grid_n * grid_n, d_norm, grid_n))
    n = cfg.grid_n
    stability = abs(values[n] - values[n // 2]) / continuum
    measured.append(("nonclosed-stability", 2, stability, 0))
    return measured, NodeTable(np.zeros((n, n)), node_norms[n])


def testbed_node_csv(report: SuiteReport) -> str:
    """Per-node residual table (x, y, holomorphy residual, Nijenhuis norm) of
    a testbed run's fine grid, for external plotting."""
    nodes = report.nodes
    lines = ["x,y,holomorphy_residual,nijenhuis_norm"]
    axis = TorusGrid(len(nodes.holomorphy)).axes()
    for i in range(len(axis)):
        for j in range(len(axis)):
            lines.append(
                f"{axis[i]:.8f},{axis[j]:.8f},{nodes.holomorphy[i, j]:.12e},{nodes.nijenhuis[i, j]:.12e}"
            )
    return "\n".join(lines) + "\n"


# -- registry and runner ---------------------------------------------------

class Suite(NamedTuple):
    """A suite's runner ``cfg -> (check rows, failure case or None)`` and its
    default sample count and dims; the testbed's runner returns its
    ``NodeTable`` third. Suites that fix the dim of their own rows
    have ``dims=None``; the others validate ``SuiteConfig.dims``."""

    run: Callable
    samples: int
    dims: tuple = None


SUITES = {
    "criteria-equivalence": Suite(lambda cfg: _sweep(cfg, (_criteria_case, cfg.dims, cfg.samples)), 500, (4, 8, 12)),
    "induced-structure": Suite(lambda cfg: _sweep(cfg, (_induced_case, cfg.dims, cfg.samples)), 200, (4, 8)),
    "gram-schmidt": Suite(lambda cfg: _sweep(cfg, (_gram_schmidt_case, cfg.dims, cfg.samples)), 200, (4, 8, 12)),
    "hitchin": Suite(
        lambda cfg: _sweep(cfg, (_hitchin_case, cfg.dims, cfg.samples), (_maximality_case, (4,), 100)), 200, (4, 8)
    ),
    "preservance": Suite(lambda cfg: _sweep(cfg, (_preservance_case, cfg.dims, cfg.samples)), 200, (4, 8)),
    "section-theorem": Suite(lambda cfg: _sweep(cfg, (_section_theorem_case, cfg.dims, cfg.samples)), 200, (4, 8)),
    "testbed-nijenhuis": Suite(_testbed, 1),
    "lattice-sections": Suite(lambda cfg: _sweep(cfg, (_section_class_case, (22,), cfg.samples)), 100),
    "twistor-curve": Suite(lambda cfg: _sweep(cfg, (_twistor_case, (22,), max(1, cfg.samples // 10))), 100),
}


def run_suite(cfg: SuiteConfig) -> SuiteReport:
    start = time.monotonic()
    checks, failure, *nodes = SUITES[cfg.suite].run(cfg)
    passed = all(row["pass"] for row in checks)
    return SuiteReport(
        suite=cfg.suite,
        seed=cfg.seed,
        passed=passed,
        checks=checks,
        wall_time_s=time.monotonic() - start,
        failure_case=failure,
        nodes=nodes[0] if nodes else None,
    )


def describe_case(case: dict, cfg: SuiteConfig):
    """Rebuild, print and return the inputs and measurements of one
    serialized case, from the case function the suite itself ran; for the
    testbed, its section modes and deformation fields.
    """
    case_function = CHECKS[case["check"]].case
    if case_function is None:
        section, fields = testbed_inputs(cfg)
        inputs = {f"field at grid {n}": field for n, field in fields.items()}
        if section is not None:
            inputs = {"section modes": dict(section.modes), **inputs}
        measurements = []
    else:
        index = case["index"]
        inputs, measurements = case_function(cfg, case["dim"], range(index, index + 1))[0]
    with np.printoptions(precision=6, suppress=False, linewidth=140):
        for name, value in inputs.items():
            print(f"{name}:\n{value}")
        for check, value, *detail in measurements:
            print(f"{check}: {value:.6e} ok={CHECKS[check].passes(value)}", *detail)
    return inputs, measurements


def case_config(case: dict) -> SuiteConfig:
    """The suite configuration a serialized case was recorded under; keys
    its ``config`` lacks take the ``SuiteConfig`` defaults. A ``tol`` stored
    by earlier versions must be the pinned ``DEFAULT_TOL``, and the check
    must be one that ``CHECKS`` says the suite (and the testbed's control)
    emits. Raises ``KeyError`` or ``ValueError`` for a malformed case."""
    for key in ("suite", "check", "seed", "dim", "index"):
        if key not in case:
            raise ValueError(f"missing {key!r}")
    index = case["index"]
    if isinstance(index, bool) or not isinstance(index, numbers.Integral) or index < 0:
        raise ValueError(f"index must be a non-negative integer, got {index!r}")
    stored = case.get("config", {})
    if not isinstance(stored, dict):
        raise ValueError(f"config must be a JSON object, got {stored!r}")
    if stored.get("tol", DEFAULT_TOL) != DEFAULT_TOL:
        raise ValueError(f"tol {stored['tol']!r} is not the pinned tolerance {DEFAULT_TOL}")
    given = {field: stored[key] for key, field in CASE_CONFIG.items() if key in stored}
    if "t_value" in given:
        given["t_value"] = complex(*given["t_value"])
    cfg = SuiteConfig(suite=case["suite"], dims=(case["dim"],), seed=case["seed"], **given)
    entry = CHECKS.get(case["check"])
    if entry is None or entry.suite != cfg.suite:
        raise ValueError(f"suite {cfg.suite!r} emits no check {case['check']!r}")
    if entry.control not in (None, cfg.control):
        raise ValueError(f"the {cfg.control} control emits no check {case['check']!r}")
    return cfg


def replay_case(case: dict) -> SuiteReport:
    """Re-run the suite configuration recorded in a serialized case.

    Reconstructs the config (seed, dims, sizes), prints the regenerated
    case tensors, and re-executes the full suite deterministically.
    """
    cfg = case_config(case)
    print(f"replaying {case['suite']}:{case['check']} dim={case['dim']} index={case['index']}")
    print(f"recorded residual: {case.get('residual')}")
    try:
        describe_case(case, cfg)
    except Exception as exc:  # diagnostics must not mask the verdict
        print(f"(case reconstruction itself failed: {exc})")
    report = run_suite(cfg)
    for row in report.checks:
        print(
            f"  {row['check']:<28} dim={row['dim']:<3} n={row['samples']:<6} "
            f"max_residual={row['max_residual']:.6e} pass={row['pass']}"
        )
    return report
