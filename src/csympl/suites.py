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
``(check, value, ok[, detail])`` measurements.  ``csympl replay`` rebuilds a
case by calling the same function on ``range(index, index + 1)``.
"""

import numbers
import time
from dataclasses import dataclass
from functools import partial, wraps
from typing import Callable, NamedTuple

import numpy as np

from .csymplectic import (
    CSymplecticSpace,
    c_symplectic_basis,
    induced_complex_structure,
    is_c_isotropic,
    is_c_lagrangian,
    is_c_symplectic_power,
    q_block_form,
    random_c_symplectic,
    rank_verdicts,
)
from .deformation import (
    DEFAULT_T_SAMPLES,
    LagrangianProjection,
    LinearSection,
    holomorphize_section,
    random_base_form,
    verify_preservance,
)
from .forms import ComplexTwoForm
from .lattice import (
    PeriodPoint,
    PostconditionError,
    TwistorCurve,
    find_section_class,
    random_isometry_images,
    random_primitive_isotropic,
    standard_k3_lattice,
    twistor_parameter,
)
from .linalg import DEFAULT_TOL, Subspace, max_abs, null_space, numerical_rank
from .torus import (
    SmoothSection,
    TorusGrid,
    closed_control_form,
    deformed_structure_field,
    exterior_derivative_fd,
    failed_nodes,
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


#: Checks whose row value is the number of failing cases, not the largest value.
COUNT_CHECKS = ("criteria-agree", "maximality-brute-force", "section-class")


def _sweep(cfg: SuiteConfig, *parts):
    """Run each part ``(case, dims, samples)`` on each of its dims with the
    index range ``range(samples)`` and fold the measurements into one row per
    (check, dim), in first-seen order. A row passes when every measurement in
    it was ok; the first failing measurement in index order is the failure
    case."""
    rows, failure = {}, None
    for case, dims, samples in parts:
        for dim in dims:
            for index, (_, measurements) in enumerate(case(cfg, dim, range(samples))):
                for check, value, ok, *detail in measurements:
                    rows.setdefault((check, dim), []).append((value, ok))
                    if not ok and failure is None:
                        failure = _failure(cfg, check, dim, index, value, *detail)
    checks = []
    for (check, dim), measured in rows.items():
        values, oks = zip(*measured)
        value = oks.count(False) if check in COUNT_CHECKS else np.max(values)
        checks.append(_check_row(check, dim, len(measured), value, all(oks), cfg.seed))
    return checks, failure


# -- instance generators -------------------------------------------------


def mixed_two_form(rng: np.random.Generator, dim: int) -> ComplexTwoForm:
    """Mixture exercising both sides of the recognition criteria:
    c-symplectic instances, complex/real Gaussian skew matrices, and real
    degenerate forms of half rank (the case separating the naked kernel
    count from full c-symplecticity)."""
    kind = int(rng.integers(5))
    if kind == 0:
        return random_c_symplectic(rng, dim)[0]
    if kind == 1:
        scale = complex(rng.standard_normal() + 1j * rng.standard_normal())
        return random_c_symplectic(rng, dim)[0] * scale
    if kind == 2:
        raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        return ComplexTwoForm(raw)
    if kind == 3:
        return ComplexTwoForm(rng.standard_normal((dim, dim)))
    # real form of rank 2n: kernel dimension matches c-symplectic forms
    # but the kernel is a complexified real space
    block = np.zeros((dim, dim))
    for pair in range(dim // 4):
        block[2 * pair, 2 * pair + 1] = 1.0
        block[2 * pair + 1, 2 * pair] = -1.0
    p = rng.standard_normal((dim, dim))
    return ComplexTwoForm(p.T @ block @ p)


def random_lagrangian(space: CSymplecticSpace, rng: np.random.Generator) -> Subspace:
    """Random c-Lagrangian by the greedy isotropic construction: each new
    generator is drawn from the joint kernel of the pairings with the
    previous ones, then completed with its structure image."""
    structure = space.structure.matrix
    a = space.omega.matrix
    vectors = []
    conditions = np.zeros((0, space.dim))
    for _ in range(space.n):
        basis = null_space(conditions) if conditions.size else np.eye(space.dim)
        v = basis @ rng.standard_normal(basis.shape[1])
        v /= np.linalg.norm(v)
        vectors.extend([v, structure @ v])
        pairing = a @ v
        conditions = np.vstack([conditions, pairing.real[None, :], pairing.imag[None, :]])
    return Subspace(np.column_stack(vectors))


# -- case functions ------------------------------------------------------


def _per_index(case):
    """Case function over an index range from one ``case(cfg, dim, index)``
    that builds a single instance."""

    @wraps(case)
    def cases(cfg: SuiteConfig, dim, indices, **kwargs):
        return [case(cfg, dim, index, **kwargs) for index in indices]

    return cases


def _criteria_case(cfg: SuiteConfig, dim, indices):
    """Both criteria on mixed forms, each drawn from its own stream: the rank
    verdicts of the whole range in one stacked call, and each form's power
    criterion on its own."""
    omegas = [mixed_two_form(_case_rng(cfg, dim, index), dim) for index in indices]
    rank_ok = rank_verdicts(np.stack([omega.matrix for omega in omegas])).ok
    cases = []
    for omega, rank in zip(omegas, rank_ok.tolist()):
        power = bool(is_c_symplectic_power(omega))
        agree = rank == power
        measurements = [("criteria-agree", float(not agree), agree, f"rank={rank} power={power}")]
        cases.append(({"omega": omega.matrix}, measurements))
    return cases


@_per_index
def _induced_case(cfg: SuiteConfig, dim, index):
    """Recover a known structure from its form; the first 20 cases of each
    dim also rescale the form by a random lambda."""
    rng = _case_rng(cfg, dim, index)
    structure, omega = _structure_with_form(rng, dim)
    induced = induced_complex_structure(omega).matrix
    residual = max_abs(induced - structure)
    inputs = {"omega": omega.matrix, "structure": structure}
    measurements = [("uniqueness", residual, residual <= 1e-8)]
    if index < 20:
        lam = 0j
        while abs(lam) < 1e-3:
            lam = complex(rng.standard_normal() + 1j * rng.standard_normal())
        inputs["lambda"] = lam
        scale_residual = max_abs(induced_complex_structure(omega * lam).matrix - induced)
        measurements.append(("scaling-invariance", scale_residual, scale_residual <= DEFAULT_TOL))
    return inputs, measurements


def _structure_with_form(rng: np.random.Generator, dim: int):
    """Random known complex structure J and a nondegenerate (2,0)-form for it."""
    j0 = np.zeros((dim, dim))
    for k in range(0, dim, 2):
        j0[k, k + 1] = -1.0
        j0[k + 1, k] = 1.0
    while True:
        p = rng.standard_normal((dim, dim))
        if np.linalg.cond(p) <= 100.0:
            break
    structure = p @ j0 @ np.linalg.inv(p)
    # (1,0) covectors are the +i eigenvectors of J^T; w - i J^T w spans them
    candidates = np.eye(dim) - 1j * structure.T
    cov = np.linalg.svd(candidates)[0][:, : dim // 2]
    half = dim // 2
    while True:
        m = rng.standard_normal((half, half)) + 1j * rng.standard_normal((half, half))
        m = m - m.T
        if np.linalg.cond(m) <= 1e3:
            break
    omega = ComplexTwoForm(cov @ m @ cov.T)
    return structure, omega


@_per_index
def _gram_schmidt_case(cfg: SuiteConfig, dim, index):
    omega = random_c_symplectic(_case_rng(cfg, dim, index), dim)[0]
    b = c_symplectic_basis(omega)
    residual = max_abs(b.T @ omega.matrix @ b - q_block_form(dim // 4).matrix) / omega.norm()
    return {"omega": omega.matrix}, [("q-block-residual", residual, residual <= 1e-8)]


def _lagrangian_instance(cfg: SuiteConfig, dim, index):
    """Generator, space and random c-Lagrangian fiber shared by the hitchin,
    preservance and section-theorem cases."""
    rng = _case_rng(cfg, dim, index)
    space = CSymplecticSpace.from_form(random_c_symplectic(rng, dim)[0])
    fiber = random_lagrangian(space, rng)
    return rng, space, fiber, {"omega": space.omega.matrix, "fiber basis": fiber.basis}


@_per_index
def _hitchin_case(cfg: SuiteConfig, dim, index):
    _, space, fiber, inputs = _lagrangian_instance(cfg, dim, index)
    q = fiber.orthonormal_basis()
    image = space.structure.matrix @ q
    residual = max_abs(image - q @ (q.T @ image)) / max(max_abs(image), 1e-300)
    return inputs, [("structure-invariance", residual, residual <= DEFAULT_TOL)]


@_per_index
def _maximality_case(cfg: SuiteConfig, dim, index):
    """Dimension test of maximality against a brute-force extension search,
    on its own stream (seed, dim, 10000 + index)."""
    rng = _case_rng(cfg, dim, 10_000 + index)
    space = CSymplecticSpace.from_form(random_c_symplectic(rng, dim)[0])
    subspace = _random_candidate_subspace(space, rng)
    by_dimension = is_c_lagrangian(subspace, space.omega, 1e-8)
    by_search = _brute_force_maximal(subspace, space.omega, rng)
    agree = bool(by_dimension == by_search)
    inputs = {"omega": space.omega.matrix, "candidate basis": subspace.basis}
    return inputs, [("maximality-brute-force", float(not agree), agree)]


def _random_candidate_subspace(space: CSymplecticSpace, rng: np.random.Generator) -> Subspace:
    kind = int(rng.integers(3))
    if kind == 0:  # isotropic line: every line is isotropic, never maximal
        return Subspace(rng.standard_normal((space.dim, 1)))
    if kind == 1:  # honest c-Lagrangian
        return random_lagrangian(space, rng)
    return Subspace(rng.standard_normal((space.dim, 2)))  # generic plane


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


@_per_index
def _preservance_case(cfg: SuiteConfig, dim, index):
    rng, space, fiber, inputs = _lagrangian_instance(cfg, dim, index)
    projection = LagrangianProjection.build(space, fiber)
    gamma = random_base_form(projection, rng, scale=0.5)
    inputs["gamma"] = gamma.matrix
    report = verify_preservance(projection, gamma, DEFAULT_T_SAMPLES)
    return inputs, [("preservance", report.max_residual, report.ok())]


@_per_index
def _section_theorem_case(cfg: SuiteConfig, dim, index):
    rng, space, fiber, inputs = _lagrangian_instance(cfg, dim, index)
    section = LinearSection.random(LagrangianProjection.build(space, fiber), rng)
    inputs["section map"] = section.map
    certificate = holomorphize_section(section).certificate
    return inputs, [("holomorphize", certificate.max_residual, certificate.ok())]


@_per_index
def _section_class_case(cfg: SuiteConfig, dim, index, lattice=None):
    lattice = standard_k3_lattice() if lattice is None else lattice
    e = random_primitive_isotropic(lattice, _case_rng(cfg, index))
    try:
        s = find_section_class(lattice, e)
        exact = lattice.pair(s, e) == 1 and lattice.pair(s, s) == -2
    except (ValueError, PostconditionError):
        exact = False
    return {"e": e}, [("section-class", float(not exact), exact, f"e={e}")]


#: Period (real and imaginary part) and fiber class that random isometries
#: move to draw twistor curves.
TWISTOR_BASE = ([1, 1] + [0] * 20, [0, 0, 1, 1] + [0] * 18, [0] * 4 + [1] + [0] * 17)


@_per_index
def _twistor_case(cfg: SuiteConfig, dim, index, lattice=None):
    """One twistor curve: the parameter substitution, then one measurement
    per plane of a 10 x 10 sweep, its Gram matrix's deviation from the first
    positive plane's."""
    lattice = standard_k3_lattice() if lattice is None else lattice
    re, im, e = random_isometry_images(lattice, _case_rng(cfg, index), TWISTOR_BASE)
    omega = np.asarray(re, dtype=float) + 1j * np.asarray(im, dtype=float)
    point = PeriodPoint(lattice, omega)
    s = find_section_class(lattice, e)
    t = twistor_parameter(lattice, s, e, omega)
    scale = max(abs(lattice.pair(omega, omega.conj())), 1.0)
    subst = abs(lattice.pair(np.asarray(s), omega - t * np.asarray(e, dtype=float))) / scale
    measurements = [("parameter-substitution", subst, subst <= 1e-12)]
    planes = [(x, y) for x in np.linspace(-2, 2, 10) for y in np.linspace(-2, 2, 10)]
    grams, errors = np.full((len(planes), 2, 2), np.nan), {}
    try:
        curve = TwistorCurve(point, e)
    except ValueError as exc:  # a bad direction fails every plane
        errors = {k: f"plane ({x}, {y}): {exc}" for k, (x, y) in enumerate(planes)}
    else:
        for k, (x, y) in enumerate(planes):
            try:
                grams[k] = curve.plane(float(x), float(y)).gram
            except ValueError as exc:  # the plane keeps a NaN Gram, so it fails
                errors[k] = f"plane ({x}, {y}): {exc}"
    first = next((gram for gram in grams if not np.isnan(gram).any()), grams[0])
    deviations = np.max(np.abs(grams - first), axis=(1, 2)) / max(float(np.max(np.abs(first))), 1e-300)
    for k, deviation in enumerate(deviations):
        measurements.append(("plane-gram-constant", deviation, deviation <= 1e-12, errors.get(k, "")))
    return {"omega": omega, "e": e}, measurements


#: Case function of every check a per-sample suite emits, for replay.
CASES = {
    "criteria-agree": _criteria_case,
    "uniqueness": _induced_case,
    "scaling-invariance": _induced_case,
    "q-block-residual": _gram_schmidt_case,
    "structure-invariance": _hitchin_case,
    "maximality-brute-force": _maximality_case,
    "preservance": _preservance_case,
    "holomorphize": _section_theorem_case,
    "section-class": _section_class_case,
    "parameter-substitution": _twistor_case,
    "plane-gram-constant": _twistor_case,
}


# -- torus testbed ---------------------------------------------------------


#: Richardson window accepted as second order between successive grids.
RICHARDSON_WINDOW = (2.5, 6.0)


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


def _rows(cfg: SuiteConfig, measured):
    """Fold the testbed's measurements ``(check, samples, value, ok, index[,
    detail])``, all at dim 4, into one row each; the first failing one is the
    failure case."""
    checks, failure = [], None
    for check, samples, value, ok, index, *detail in measured:
        checks.append(_check_row(check, 4, samples, value, ok, cfg.seed))
        if not ok and failure is None:
            failure = _failure(cfg, check, 4, index, value, *detail)
    return checks, failure


def _testbed_closed(cfg: SuiteConfig):
    section, etas = testbed_inputs(cfg)
    eta = etas[cfg.grid_n]

    holomorphy = verify_section_holomorphic(section, eta)
    measured = [("section-holomorphy", cfg.grid_n**2, holomorphy.max_residual, holomorphy.ok(), 0)]
    if cfg.t_value == -1:  # the field holomorphy was checked on
        structure = holomorphy.structure
    else:
        structure = deformed_structure_field(eta, cfg.t_value)
    structures = _coarse_and_fine(structure)
    node_norms = {grid_n: nijenhuis_node_norms(s) for grid_n, s in structures.items()}
    for grid_n, structure_n in structures.items():
        norm = float(np.max(node_norms[grid_n]))
        d_eta = max_abs(exterior_derivative_fd(etas[grid_n]))
        ok = norm <= 1e-4 and failed_nodes(structure_n) == 0 and d_eta <= 1e-10
        measured.append(("section-nijenhuis", grid_n * grid_n, norm, ok, grid_n))
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
    ratio = coarse_norm / max(fine_norm, 1e-300)
    rate_ok = RICHARDSON_WINDOW[0] <= ratio <= RICHARDSON_WINDOW[1] and fine_norm <= 1e-4
    measured.append(("closed-decay-rate", 2, ratio, rate_ok, 0))
    return (*_rows(cfg, measured), nodes)


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
    t = complex(cfg.t_value).real
    continuum = _nonclosed_continuum_max(t)
    controls = testbed_inputs(cfg)[1]
    structure = deformed_structure_field(controls[cfg.grid_n], t)
    structures = _coarse_and_fine(structure)
    node_norms = {grid_n: nijenhuis_node_norms(s) for grid_n, s in structures.items()}
    values = {grid_n: float(np.max(norms)) for grid_n, norms in node_norms.items()}
    measured = []
    for grid_n, structure_n in structures.items():
        value = values[grid_n]
        deviation = abs(value - continuum) / continuum
        ok = failed_nodes(structure_n) == 0 and deviation <= 0.05 and value >= continuum / 2
        detail = f"value={value} continuum={continuum}"
        measured.append(("nonclosed-nijenhuis", grid_n * grid_n, deviation, ok, grid_n, detail))
        d_norm = max_abs(exterior_derivative_fd(controls[grid_n]))
        # the non-closedness is macroscopic: |d eta| -> 2 pi
        measured.append(("nonclosed-derivative", grid_n * grid_n, d_norm, d_norm >= np.pi, grid_n))
    n = cfg.grid_n
    stability = abs(values[n] - values[n // 2]) / continuum
    measured.append(("nonclosed-stability", 2, stability, stability <= 0.05, 0))
    return (*_rows(cfg, measured), NodeTable(np.zeros((n, n)), node_norms[n]))


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
    default sample count and dims; the testbed's runners return its
    ``NodeTable`` third. Suites that fix the dim of their own rows
    have ``dims=None``; the others validate ``SuiteConfig.dims``."""

    run: Callable
    samples: int
    dims: tuple = None


# Each lattice suite builds the K3 lattice once per run and hands it to its cases.
SUITES = {
    "criteria-equivalence": Suite(lambda cfg: _sweep(cfg, (_criteria_case, cfg.dims, cfg.samples)), 500, (4, 8, 12)),
    "induced-structure": Suite(lambda cfg: _sweep(cfg, (_induced_case, cfg.dims, cfg.samples)), 200, (4, 8)),
    "gram-schmidt": Suite(lambda cfg: _sweep(cfg, (_gram_schmidt_case, cfg.dims, cfg.samples)), 200, (4, 8, 12)),
    "hitchin": Suite(
        lambda cfg: _sweep(cfg, (_hitchin_case, cfg.dims, cfg.samples), (_maximality_case, (4,), 100)), 200, (4, 8)
    ),
    "preservance": Suite(lambda cfg: _sweep(cfg, (_preservance_case, cfg.dims, cfg.samples)), 200, (4, 8)),
    "section-theorem": Suite(lambda cfg: _sweep(cfg, (_section_theorem_case, cfg.dims, cfg.samples)), 200, (4, 8)),
    "testbed-nijenhuis": Suite(
        lambda cfg: (_testbed_nonclosed if cfg.control == "nonclosed" else _testbed_closed)(cfg), 1
    ),
    "lattice-sections": Suite(
        lambda cfg: _sweep(cfg, (partial(_section_class_case, lattice=standard_k3_lattice()), (22,), cfg.samples)),
        100,
    ),
    "twistor-curve": Suite(
        lambda cfg: _sweep(
            cfg, (partial(_twistor_case, lattice=standard_k3_lattice()), (22,), max(1, cfg.samples // 10))
        ),
        100,
    ),
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
    if case["suite"] == "testbed-nijenhuis":
        section, fields = testbed_inputs(cfg)
        inputs = {f"field at grid {n}": field for n, field in fields.items()}
        if section is not None:
            inputs = {"section modes": section.modes, **inputs}
        measurements = []
    else:
        index = case["index"]
        inputs, measurements = CASES[case["check"]](cfg, case["dim"], range(index, index + 1))[0]
    with np.printoptions(precision=6, suppress=False, linewidth=140):
        for name, value in inputs.items():
            print(f"{name}:\n{value}")
        for check, value, ok, *detail in measurements:
            print(f"{check}: {value:.6e} ok={ok}", *detail)
    return inputs, measurements


def case_config(case: dict) -> SuiteConfig:
    """The suite configuration a serialized case was recorded under; keys
    its ``config`` lacks take the ``SuiteConfig`` defaults. A ``tol`` stored
    by earlier versions must be the pinned ``DEFAULT_TOL``. Raises
    ``KeyError`` or ``ValueError`` for a malformed case."""
    for key in ("suite", "check", "seed", "dim", "index"):
        if key not in case:
            raise ValueError(f"missing {key!r}")
    index = case["index"]
    if isinstance(index, bool) or not isinstance(index, numbers.Integral) or index < 0:
        raise ValueError(f"index must be a non-negative integer, got {index!r}")
    stored = case.get("config", {})
    if stored.get("tol", DEFAULT_TOL) != DEFAULT_TOL:
        raise ValueError(f"tol {stored['tol']!r} is not the pinned tolerance {DEFAULT_TOL}")
    given = {field: stored[key] for key, field in CASE_CONFIG.items() if key in stored}
    if "t_value" in given:
        given["t_value"] = complex(*given["t_value"])
    dims = (case["dim"],) if case["dim"] else None
    return SuiteConfig(suite=case["suite"], dims=dims, seed=case["seed"], **given)


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
