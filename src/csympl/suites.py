"""Named verification suites behind the command-line interface.

Each suite quantifies one family of guarantees over seeded random
instances and reports per-check rows
``{"check", "dim", "samples", "max_residual", "pass", "seed"}``.
Randomness flows exclusively through ``numpy.random.default_rng`` (PCG64)
seeded from ``[master_seed, stream tags...]``, so identical configurations
reproduce identical reports; failing cases serialize enough to replay the
exact code path.
"""

import time
from dataclasses import dataclass

import numpy as np

from .csymplectic import (
    CSymplecticSpace,
    c_symplectic_basis,
    induced_complex_structure,
    is_c_isotropic,
    is_c_lagrangian,
    is_c_symplectic_power,
    is_c_symplectic_rank,
    q_block_form,
    random_c_symplectic,
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
    find_section_class,
    random_isometry_images,
    random_primitive_isotropic,
    standard_k3_lattice,
    twistor_curve_plane,
    twistor_parameter,
)
from .linalg import Subspace, max_abs, null_space
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

SUITE_NAMES = (
    "criteria-equivalence",
    "induced-structure",
    "gram-schmidt",
    "hitchin",
    "preservance",
    "section-theorem",
    "testbed-nijenhuis",
    "lattice-sections",
    "twistor-curve",
)


@dataclass
class SuiteConfig:
    suite: str
    dims: tuple = (4, 8)
    samples: int = 200
    seed: int = 0
    tol: float = 1e-9
    grid_n: int = 64
    modes: int = 3
    t_value: complex = -1.0
    control: str = "closed"


@dataclass
class SuiteReport:
    suite: str
    seed: int
    passed: bool
    checks: list
    wall_time_s: float
    failure_case: dict = None

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


def _check_row(check, dim, samples, max_residual, ok, seed):
    return {
        "check": check,
        "dim": int(dim),
        "samples": int(samples),
        "max_residual": float(max_residual),
        "pass": bool(ok),
        "seed": int(seed),
    }


def _case_rng(cfg: SuiteConfig, *stream):
    return np.random.default_rng([cfg.seed, *[int(s) for s in stream]])


def _failure(cfg: SuiteConfig, check, dim, index, residual, detail=""):
    return {
        "suite": cfg.suite,
        "check": check,
        "dim": int(dim),
        "seed": int(cfg.seed),
        "index": int(index),
        "residual": float(residual),
        "detail": detail,
        "config": {
            "samples": cfg.samples,
            "tol": cfg.tol,
            "grid": cfg.grid_n,
            "modes": cfg.modes,
            "t": [cfg.t_value.real, complex(cfg.t_value).imag],
            "control": cfg.control,
        },
    }


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


def random_lagrangian(space: CSymplecticSpace, rng: np.random.Generator, tol=1e-9) -> Subspace:
    """Random c-Lagrangian by the greedy isotropic construction: each new
    generator is drawn from the joint kernel of the pairings with the
    previous ones, then completed with its structure image."""
    structure = space.structure.matrix
    a = space.omega.matrix
    vectors = []
    conditions = np.zeros((0, space.dim))
    for _ in range(space.n):
        basis = null_space(conditions, tol) if conditions.size else np.eye(space.dim)
        v = basis @ rng.standard_normal(basis.shape[1])
        v /= np.linalg.norm(v)
        vectors.extend([v, structure @ v])
        pairing = a @ v
        conditions = np.vstack([conditions, pairing.real[None, :], pairing.imag[None, :]])
    return Subspace(np.column_stack(vectors))


def random_projection(space: CSymplecticSpace, rng: np.random.Generator, tol=1e-9):
    return LagrangianProjection.build(space, random_lagrangian(space, rng, tol), tol)


# -- suites ----------------------------------------------------------------


def suite_criteria_equivalence(cfg: SuiteConfig):
    checks, failure = [], None
    for dim in cfg.dims:
        disagreements = 0
        for i in range(cfg.samples):
            rng = _case_rng(cfg, dim, i)
            omega = mixed_two_form(rng, dim)
            rank_ok = bool(is_c_symplectic_rank(omega, cfg.tol))
            power_ok = bool(is_c_symplectic_power(omega, cfg.tol))
            if rank_ok != power_ok:
                disagreements += 1
                if failure is None:
                    failure = _failure(
                        cfg,
                        "criteria-agree",
                        dim,
                        i,
                        1.0,
                        f"rank={rank_ok} power={power_ok}",
                    )
        checks.append(
            _check_row("criteria-agree", dim, cfg.samples, float(disagreements), disagreements == 0, cfg.seed)
        )
    return checks, failure


def suite_induced_structure(cfg: SuiteConfig):
    checks, failure = [], None
    for dim in cfg.dims:
        max_recover = 0.0
        max_scale = 0.0
        ok = True
        for i in range(cfg.samples):
            rng = _case_rng(cfg, dim, i)
            structure, omega = _structure_with_form(rng, dim)
            induced = induced_complex_structure(omega, cfg.tol)
            residual = max_abs(induced.matrix - structure)
            max_recover = max(max_recover, residual)
            if residual > 1e-8:
                ok = False
                if failure is None:
                    failure = _failure(cfg, "uniqueness", dim, i, residual)
            if i < 20:
                lam = complex(rng.standard_normal() + 1j * rng.standard_normal())
                while abs(lam) < 1e-3:
                    lam = complex(rng.standard_normal() + 1j * rng.standard_normal())
                scaled = induced_complex_structure(omega * lam, cfg.tol)
                scale_residual = max_abs(scaled.matrix - induced.matrix)
                max_scale = max(max_scale, scale_residual)
                if scale_residual > cfg.tol:
                    ok = False
                    if failure is None:
                        failure = _failure(cfg, "scaling-invariance", dim, i, scale_residual)
        checks.append(_check_row("uniqueness", dim, cfg.samples, max_recover, max_recover <= 1e-8, cfg.seed))
        checks.append(
            _check_row("scaling-invariance", dim, min(cfg.samples, 20), max_scale, max_scale <= cfg.tol, cfg.seed)
        )
        if not ok and failure is None:
            failure = _failure(cfg, "induced-structure", dim, -1, max(max_recover, max_scale))
    return checks, failure


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


def suite_gram_schmidt(cfg: SuiteConfig):
    checks, failure = [], None
    for dim in cfg.dims:
        target = q_block_form(dim // 4).matrix
        worst = 0.0
        for i in range(cfg.samples):
            rng = _case_rng(cfg, dim, i)
            omega = random_c_symplectic(rng, dim)[0]
            b = c_symplectic_basis(omega, cfg.tol)
            residual = max_abs(b.T @ omega.matrix @ b - target) / omega.norm()
            worst = max(worst, residual)
            if residual > 1e-8 and failure is None:
                failure = _failure(cfg, "q-block-residual", dim, i, residual)
        checks.append(_check_row("q-block-residual", dim, cfg.samples, worst, worst <= 1e-8, cfg.seed))
    return checks, failure


def suite_hitchin(cfg: SuiteConfig):
    checks, failure = [], None
    for dim in cfg.dims:
        worst = 0.0
        for i in range(cfg.samples):
            rng = _case_rng(cfg, dim, i)
            space = CSymplecticSpace.from_form(random_c_symplectic(rng, dim)[0], cfg.tol)
            lagrangian = random_lagrangian(space, rng, cfg.tol)
            q = lagrangian.orthonormal_basis()
            image = space.structure.matrix @ q
            residual = max_abs(image - q @ (q.T @ image)) / max(max_abs(image), 1e-300)
            worst = max(worst, residual)
            if residual > cfg.tol and failure is None:
                failure = _failure(cfg, "structure-invariance", dim, i, residual)
        checks.append(_check_row("structure-invariance", dim, cfg.samples, worst, worst <= cfg.tol, cfg.seed))
    # brute-force maximality cross-check at dim 4
    mismatches = 0
    trials = 100
    for i in range(trials):
        rng = _case_rng(cfg, 4, 10_000 + i)
        space = CSymplecticSpace.from_form(random_c_symplectic(rng, 4)[0], cfg.tol)
        subspace = _random_candidate_subspace(space, rng)
        by_dimension = is_c_lagrangian(subspace, space.omega, 1e-8)
        by_search = _brute_force_maximal(subspace, space.omega, rng)
        if by_dimension != by_search:
            mismatches += 1
            if failure is None:
                failure = _failure(cfg, "maximality-brute-force", 4, i, 1.0)
    checks.append(_check_row("maximality-brute-force", 4, trials, float(mismatches), mismatches == 0, cfg.seed))
    return checks, failure


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
        if np.linalg.matrix_rank(candidate, tol=1e-8) <= subspace.dim:
            continue
        if is_c_isotropic(Subspace(candidate), omega, 1e-8):
            return False
    return True


def suite_preservance(cfg: SuiteConfig):
    checks, failure = [], None
    for dim in cfg.dims:
        worst = 0.0
        lagrangian_ok = True
        for i in range(cfg.samples):
            rng = _case_rng(cfg, dim, i)
            space = CSymplecticSpace.from_form(random_c_symplectic(rng, dim)[0], cfg.tol)
            projection = random_projection(space, rng, cfg.tol)
            gamma = random_base_form(projection, rng, scale=0.5)
            report = verify_preservance(projection, gamma, DEFAULT_T_SAMPLES, cfg.tol)
            worst = max(worst, report.max_residual)
            lagrangian_ok = lagrangian_ok and report.fiber_lagrangian_ok
            if (report.max_residual > cfg.tol or not report.fiber_lagrangian_ok) and failure is None:
                failure = _failure(cfg, "preservance", dim, i, report.max_residual)
        checks.append(
            _check_row("preservance", dim, cfg.samples, worst, worst <= cfg.tol and lagrangian_ok, cfg.seed)
        )
    return checks, failure


def suite_section_theorem(cfg: SuiteConfig):
    checks, failure = [], None
    for dim in cfg.dims:
        worst = 0.0
        lagrangian_ok = True
        for i in range(cfg.samples):
            rng = _case_rng(cfg, dim, i)
            space = CSymplecticSpace.from_form(random_c_symplectic(rng, dim)[0], cfg.tol)
            projection = random_projection(space, rng, cfg.tol)
            section = LinearSection.random(projection, rng)
            result = holomorphize_section(section, cfg.tol)
            worst = max(worst, result.certificate.max_residual)
            lagrangian_ok = lagrangian_ok and result.certificate.graph_is_lagrangian
            if not result.certificate.ok(cfg.tol) and failure is None:
                failure = _failure(cfg, "holomorphize", dim, i, result.certificate.max_residual)
        checks.append(
            _check_row("holomorphize", dim, cfg.samples, worst, worst <= cfg.tol and lagrangian_ok, cfg.seed)
        )
    return checks, failure


#: Richardson window accepted as second order between successive grids.
RICHARDSON_WINDOW = (2.5, 6.0)


def suite_testbed(cfg: SuiteConfig):
    if cfg.control == "nonclosed":
        return _testbed_nonclosed(cfg)
    return _testbed_closed(cfg)


def _testbed_closed(cfg: SuiteConfig):
    checks, failure = [], None
    n = cfg.grid_n
    coarse = TorusGrid(n // 2)
    fine = TorusGrid(n)
    rng = _case_rng(cfg, 0)
    section = SmoothSection.random(rng, cfg.modes)

    holomorphy = verify_section_holomorphic(section, fine, cfg.tol)
    checks.append(
        _check_row("section-holomorphy", 4, n * n, holomorphy.max_residual, holomorphy.ok(1e-8), cfg.seed)
    )
    if not holomorphy.ok(1e-8):
        failure = _failure(cfg, "section-holomorphy", 4, 0, holomorphy.max_residual)

    closed_norms = {}
    for grid in (coarse, fine):
        eta = sample_section_form(section, grid)
        structure = deformed_structure_field(eta, cfg.t_value, cfg.tol)
        closed_norms[grid.n] = nijenhuis_norm(structure.field)
        d_eta = exterior_derivative_fd(eta).max_abs()
        ok = closed_norms[grid.n] <= 1e-4 and structure.bad_nodes == 0 and d_eta <= 1e-10
        checks.append(
            _check_row("section-nijenhuis", 4, grid.n * grid.n, closed_norms[grid.n], ok, cfg.seed)
        )
        if not ok and failure is None:
            failure = _failure(cfg, "section-nijenhuis", 4, grid.n, closed_norms[grid.n])

    # a pullback from the base is structurally closed and its structure
    # field has no finite-difference truncation error; the second-order
    # decay is measured on a generic closed (2,0)+(1,1) deformation
    control_norms = {}
    for grid in (coarse, fine):
        control = closed_control_form(grid)
        structure = deformed_structure_field(control, 1.0, cfg.tol)
        control_norms[grid.n] = nijenhuis_norm(structure.field)
    ratio = control_norms[coarse.n] / max(control_norms[fine.n], 1e-300)
    rate_ok = RICHARDSON_WINDOW[0] <= ratio <= RICHARDSON_WINDOW[1] and control_norms[fine.n] <= 1e-4
    checks.append(_check_row("closed-decay-rate", 4, 2, ratio, rate_ok, cfg.seed))
    if not rate_ok and failure is None:
        failure = _failure(cfg, "closed-decay-rate", 4, 0, ratio)
    return checks, failure


def _nonclosed_continuum_max(t: float) -> float:
    """Analytic ceiling of the control's Nijenhuis norm.

    The deformed structure splits over the base point with fiber block
    [[0, -r], [1/r, 0]], r = (1 - g)/(1 + g), g = t cos(2 pi x); the
    nonvanishing Nijenhuis components have norms |r'|, |r'|/r, |r'|/r^2,
    so the ceiling is max over x of |r'| max(1, 1/r, 1/r^2).
    """
    x = np.linspace(0.0, 1.0, 400_001)
    g = t * np.cos(2 * np.pi * x)
    r = (1 - g) / (1 + g)
    r_prime = 4 * np.pi * t * np.sin(2 * np.pi * x) / (1 + g) ** 2
    factor = np.maximum.reduce([np.ones_like(r), 1 / np.abs(r), 1 / np.abs(r) ** 2])
    return float(np.max(np.abs(r_prime) * factor))


def nonclosed_t(cfg: SuiteConfig) -> float:
    """Deformation parameter of the non-closed control: ``cfg.t_value``
    when it is real with 0 < |t| < 1, else 0.5."""
    t = complex(cfg.t_value)
    if abs(t.imag) > 0 or not 0 < abs(t.real) < 1:
        return 0.5
    return t.real


def _testbed_nonclosed(cfg: SuiteConfig):
    checks, failure = [], None
    t = nonclosed_t(cfg)
    continuum = _nonclosed_continuum_max(t)
    n = cfg.grid_n
    values = {}
    for grid_n in (n // 2, n):
        grid = TorusGrid(grid_n)
        control = nonclosed_control_form(grid)
        structure = deformed_structure_field(control, t, cfg.tol)
        value = nijenhuis_norm(structure.field)
        values[grid_n] = value
        deviation = abs(value - continuum) / continuum
        ok = structure.bad_nodes == 0 and deviation <= 0.05 and value >= continuum / 2
        checks.append(_check_row("nonclosed-nijenhuis", 4, grid_n * grid_n, deviation, ok, cfg.seed))
        if not ok and failure is None:
            failure = _failure(cfg, "nonclosed-nijenhuis", 4, grid_n, value, f"continuum={continuum}")
        d_norm = exterior_derivative_fd(control).max_abs()
        d_ok = d_norm >= np.pi  # the non-closedness is macroscopic: |d eta| -> 2 pi
        checks.append(_check_row("nonclosed-derivative", 4, grid_n * grid_n, d_norm, d_ok, cfg.seed))
        if not d_ok and failure is None:
            failure = _failure(cfg, "nonclosed-derivative", 4, grid_n, d_norm)
    stability = abs(values[n] - values[n // 2]) / continuum
    ok = stability <= 0.05
    checks.append(_check_row("nonclosed-stability", 4, 2, stability, ok, cfg.seed))
    if not ok and failure is None:
        failure = _failure(cfg, "nonclosed-stability", 4, 0, stability)
    return checks, failure


def suite_lattice_sections(cfg: SuiteConfig):
    lattice = standard_k3_lattice()
    failures = 0
    failure = None
    for i in range(cfg.samples):
        rng = _case_rng(cfg, i)
        e = random_primitive_isotropic(lattice, rng)
        try:
            s = find_section_class(lattice, e)
            exact = lattice.pair(s, e) == 1 and lattice.pair(s, s) == -2
        except (ValueError, PostconditionError):
            exact = False
        if not exact:
            failures += 1
            if failure is None:
                failure = _failure(cfg, "section-class", 22, i, 1.0, f"e={e}")
    checks = [_check_row("section-class", 22, cfg.samples, float(failures), failures == 0, cfg.seed)]
    return checks, failure


def suite_twistor_curve(cfg: SuiteConfig):
    lattice = standard_k3_lattice()
    checks, failure = [], None
    max_subst = 0.0
    max_gram_dev = 0.0
    positive_ok = True
    base_re = [1, 1] + [0] * 20
    base_im = [0, 0, 1, 1] + [0] * 18
    base_e = [0] * 22
    base_e[4] = 1
    samples = max(1, cfg.samples // 10)
    for i in range(samples):
        rng = _case_rng(cfg, i)
        re, im, e = random_isometry_images(lattice, rng, (base_re, base_im, base_e))
        omega = np.asarray(re, dtype=float) + 1j * np.asarray(im, dtype=float)
        point = PeriodPoint(lattice, omega)
        s = find_section_class(lattice, e)
        t = twistor_parameter(lattice, s, e, omega)
        scale = max(abs(lattice.pair(omega, omega.conj())), 1.0)
        subst = abs(lattice.pair(np.asarray(s), omega - t * np.asarray(e, dtype=float))) / scale
        max_subst = max(max_subst, subst)
        if subst > 1e-12 and failure is None:
            failure = _failure(cfg, "parameter-substitution", 22, i, subst)
        grams = []
        for x in np.linspace(-2, 2, 10):
            for y in np.linspace(-2, 2, 10):
                try:
                    grams.append(twistor_curve_plane(point, e, float(x), float(y)).gram)
                except ValueError:
                    positive_ok = False
        grams = np.asarray(grams)
        gram_dev = float(np.max(np.abs(grams - grams[0]))) / max(float(np.max(np.abs(grams[0]))), 1e-300)
        max_gram_dev = max(max_gram_dev, gram_dev)
        if gram_dev > 1e-12 and failure is None:
            failure = _failure(cfg, "plane-gram-constant", 22, i, gram_dev)
    checks.append(_check_row("parameter-substitution", 22, samples, max_subst, max_subst <= 1e-12, cfg.seed))
    checks.append(
        _check_row(
            "plane-gram-constant",
            22,
            samples * 100,
            max_gram_dev,
            max_gram_dev <= 1e-12 and positive_ok,
            cfg.seed,
        )
    )
    return checks, failure


def testbed_node_csv(cfg: SuiteConfig) -> str:
    """Per-node residual table (x, y, holomorphy residual, Nijenhuis norm)
    for external plotting."""
    grid = TorusGrid(cfg.grid_n)
    if cfg.control == "nonclosed":
        structure = deformed_structure_field(nonclosed_control_form(grid), nonclosed_t(cfg), cfg.tol)
        holomorphy_nodes = np.zeros((grid.n, grid.n))
        nijenhuis_nodes = nijenhuis_node_norms(structure.field)
    else:
        rng = _case_rng(cfg, 0)
        section = SmoothSection.random(rng, cfg.modes)
        certificate = verify_section_holomorphic(section, grid, cfg.tol)
        holomorphy_nodes = certificate.node_residuals
        nijenhuis_nodes = nijenhuis_node_norms(certificate.structure.field)
    lines = ["x,y,holomorphy_residual,nijenhuis_norm"]
    axis = grid.axes()
    for i in range(grid.n):
        for j in range(grid.n):
            lines.append(
                f"{axis[i]:.8f},{axis[j]:.8f},{holomorphy_nodes[i, j]:.12e},{nijenhuis_nodes[i, j]:.12e}"
            )
    return "\n".join(lines) + "\n"


SUITES = {
    "criteria-equivalence": suite_criteria_equivalence,
    "induced-structure": suite_induced_structure,
    "gram-schmidt": suite_gram_schmidt,
    "hitchin": suite_hitchin,
    "preservance": suite_preservance,
    "section-theorem": suite_section_theorem,
    "testbed-nijenhuis": suite_testbed,
    "lattice-sections": suite_lattice_sections,
    "twistor-curve": suite_twistor_curve,
}

#: Suites whose dims default differs from (4, 8).
SUITE_DIM_DEFAULTS = {
    "criteria-equivalence": (4, 8, 12),
    "gram-schmidt": (4, 8, 12),
    "hitchin": (4, 8),
    "testbed-nijenhuis": (4,),
    "lattice-sections": (22,),
    "twistor-curve": (22,),
}


def run_suite(cfg: SuiteConfig) -> SuiteReport:
    if cfg.suite not in SUITES:
        raise KeyError(cfg.suite)
    start = time.monotonic()
    checks, failure = SUITES[cfg.suite](cfg)
    passed = all(row["pass"] for row in checks)
    return SuiteReport(
        suite=cfg.suite,
        seed=cfg.seed,
        passed=passed,
        checks=checks,
        wall_time_s=time.monotonic() - start,
        failure_case=failure,
    )


def describe_case(case: dict, cfg: SuiteConfig) -> None:
    """Regenerate and print the tensors of a single serialized case.

    All case inputs are functions of (seed, dim, index), so the instance
    the failing check saw is reconstructed exactly.
    """
    suite, dim, index = case["suite"], case["dim"], case["index"]
    np.set_printoptions(precision=6, suppress=False, linewidth=140)
    if suite in ("criteria-equivalence", "gram-schmidt", "hitchin", "preservance", "section-theorem", "induced-structure"):
        rng = _case_rng(cfg, dim, index)
        if suite == "criteria-equivalence":
            omega = mixed_two_form(rng, dim)
            print("omega matrix:\n", omega.matrix)
            print("rank criterion: ", is_c_symplectic_rank(omega, cfg.tol))
            print("power criterion:", is_c_symplectic_power(omega, cfg.tol))
            return
        if suite == "induced-structure":
            structure, omega = _structure_with_form(rng, dim)
            print("omega matrix:\n", omega.matrix)
            print("reference structure:\n", structure)
            print("recovered structure:\n", induced_complex_structure(omega, cfg.tol).matrix)
            return
        omega = random_c_symplectic(rng, dim)[0]
        print("omega matrix:\n", omega.matrix)
        if suite == "gram-schmidt":
            b = c_symplectic_basis(omega, cfg.tol)
            print("basis B:\n", b)
            print("B^T A B:\n", b.T @ omega.matrix @ b)
            return
        space = CSymplecticSpace.from_form(omega, cfg.tol)
        print("induced structure:\n", space.structure.matrix)
        lagrangian = random_lagrangian(space, rng, cfg.tol)
        print("fiber basis:\n", lagrangian.basis)
        if suite == "preservance":
            projection = LagrangianProjection.build(space, lagrangian, cfg.tol)
            gamma = random_base_form(projection, rng, scale=0.5)
            print("gamma matrix:\n", gamma.matrix)
            report = verify_preservance(projection, gamma, DEFAULT_T_SAMPLES, cfg.tol)
            for entry in report.details:
                print(" ", entry)
        elif suite == "section-theorem":
            projection = LagrangianProjection.build(space, lagrangian, cfg.tol)
            section = LinearSection.random(projection, rng)
            print("section map:\n", section.map)
            result = holomorphize_section(section, cfg.tol)
            print("eta:\n", result.eta.matrix)
            print("certificate:", result.certificate)
    elif suite == "lattice-sections":
        rng = _case_rng(cfg, index)
        lattice = standard_k3_lattice()
        e = random_primitive_isotropic(lattice, rng)
        print("e =", e)
        s = find_section_class(lattice, e)
        print("s =", s)
        print("(s, e) =", lattice.pair(s, e), " (s, s) =", lattice.pair(s, s))
    elif suite == "twistor-curve":
        rng = _case_rng(cfg, index)
        lattice = standard_k3_lattice()
        base_e = [0] * 22
        base_e[4] = 1
        re, im, e = random_isometry_images(
            lattice, rng, ([1, 1] + [0] * 20, [0, 0, 1, 1] + [0] * 18, base_e)
        )
        omega = np.asarray(re, dtype=float) + 1j * np.asarray(im, dtype=float)
        print("omega class:", omega)
        print("e =", e)
        s = find_section_class(lattice, e)
        t = twistor_parameter(lattice, s, e, omega)
        print("s =", s, " t =", t)
    elif suite == "testbed-nijenhuis":
        print(f"grid={cfg.grid_n} modes={cfg.modes} t={cfg.t_value} control={cfg.control}")


def replay_case(case: dict, verbose: bool = True) -> SuiteReport:
    """Re-run the suite configuration recorded in a serialized case.

    Reconstructs the config (seed, dims, sizes), prints the regenerated
    case tensors, and re-executes the full suite deterministically.
    """
    for key in ("suite", "seed", "dim", "index"):
        if key not in case:
            raise ValueError(f"malformed case file: missing {key!r}")
    stored = case.get("config", {})
    cfg = SuiteConfig(
        suite=case["suite"],
        dims=(case["dim"],) if case["dim"] else SUITE_DIM_DEFAULTS.get(case["suite"], (4, 8)),
        samples=int(stored.get("samples", max(case["index"] + 1, 1))),
        seed=int(case["seed"]),
        tol=float(stored.get("tol", 1e-9)),
        grid_n=int(stored.get("grid", 64)),
        modes=int(stored.get("modes", 3)),
        t_value=complex(*stored.get("t", (-1.0, 0.0))),
        control=stored.get("control", "closed"),
    )
    if verbose:
        print(f"replaying {case['suite']}:{case['check']} dim={case['dim']} index={case['index']}")
        print(f"recorded residual: {case.get('residual')}")
        try:
            describe_case(case, cfg)
        except Exception as exc:  # diagnostics must not mask the verdict
            print(f"(case reconstruction itself failed: {exc})")
    report = run_suite(cfg)
    if verbose:
        for row in report.checks:
            print(
                f"  {row['check']:<28} dim={row['dim']:<3} n={row['samples']:<6} "
                f"max_residual={row['max_residual']:.6e} pass={row['pass']}"
            )
    return report
