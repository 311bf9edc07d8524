"""Torus testbed: sampled forms, FD calculus, structure fields, Nijenhuis."""

import numpy as np
import pytest

from csympl.csymplectic import Q_BLOCK, induced_complex_structure
from csympl.forms import ComplexTwoForm
from csympl.suites import _nonclosed_continuum_max
from csympl.torus import (
    BASE_J,
    TRIPLES,
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


def test_grid_validation():
    with pytest.raises(ValueError):
        TorusGrid(6)
    with pytest.raises(ValueError):
        TorusGrid(33)
    assert np.array_equal(TorusGrid(8).axes(), np.arange(8) * 0.125)


def test_structure_field_rejects_a_non_skew_two_form():
    values = np.zeros((8, 8, 4, 4), dtype=np.complex128)
    values[3, 5, 0, 1] = 1.0
    with pytest.raises(ValueError, match="not skew"):
        deformed_structure_field(values, 0.5)
    values[3, 5, 1, 0] = -1.0
    deformed_structure_field(values, 0.5)
    values[0, 0, 2, 2] = 1e-300  # skew means a zero diagonal, to the bit
    with pytest.raises(ValueError, match="not skew"):
        deformed_structure_field(values, 0.5)


@pytest.mark.parametrize(
    "shape", [(8, 8, 6), (8, 8), (8, 8, 4), (8, 4, 4, 4)],
    ids=["six-pair-coefficients", "base-coefficient", "three-form", "non-square"],
)
@pytest.mark.parametrize(
    "consumer",
    [exterior_derivative_fd, lambda eta: deformed_structure_field(eta, 0.5), nijenhuis_node_norms],
    ids=["exterior-derivative", "structure-field", "nijenhuis"],
)
def test_field_consumers_reject_other_node_array_shapes(consumer, shape):
    with pytest.raises(ValueError, match="shape"):
        consumer(np.zeros(shape, dtype=np.complex128))


# -- sampled section forms -----------------------------------------------------


def test_constant_section_gives_zero_form():
    grid = TorusGrid(16)
    eta = sample_section_form(SmoothSection.constant(0.3 + 0.4j), grid)
    assert np.max(np.abs(eta)) == 0.0


def test_single_mode_matches_symbolic_pullback():
    # for s = c exp(2 pi i (k1 x + k2 y)) the pulled-back coefficient is
    # s_y - i s_x = 2 pi i c (k2 - i k1) exp(...)
    grid = TorusGrid(16)
    c, k1, k2 = 0.7 - 0.2j, 2, -1
    section = SmoothSection({(k1, k2): c})
    eta = sample_section_form(section, grid)
    x, y = grid.mesh()
    expected = 2j * np.pi * c * (k2 - 1j * k1) * np.exp(2j * np.pi * (k1 * x + k2 * y))
    assert np.max(np.abs(eta[..., 0, 1] - expected)) < 1e-12
    # the field is the lift pi^* eta: its only other entry is the (y1, x1) one
    assert np.array_equal(eta[..., 1, 0], -eta[..., 0, 1])
    rest = eta.copy()
    rest[..., [0, 1], [1, 0]] = 0
    assert not rest.any()


def test_section_form_type_certificate_pointwise():
    # on a one-complex-dimensional base the (0,2) part vanishes
    # identically; check it through the generic pointwise machinery
    grid = TorusGrid(8)
    rng = np.random.default_rng(0)
    section = SmoothSection.random(rng, 2, amplitude=0.1)
    coefficient = sample_section_form(section, grid)[..., 0, 1]
    base_structure = BASE_J
    thetas = 2 * np.pi * np.arange(6) / 6
    anti = np.zeros_like(coefficient)
    for theta in thetas:
        rot = np.cos(theta) * np.eye(2) + np.sin(theta) * base_structure
        # pullback of c dx ^ dy under rot scales by det(rot) = 1
        anti += np.exp(2j * theta) * np.linalg.det(rot) * coefficient
    assert np.max(np.abs(anti / 6)) < 1e-12


def test_section_derivatives_are_exact():
    rng = np.random.default_rng(1)
    section = SmoothSection.random(rng, 3, amplitude=0.5)
    h = 1e-6
    x0, y0 = 0.3, 0.7
    sx, sy = section.derivatives(x0, y0)
    fd_x = (section.value(x0 + h, y0) - section.value(x0 - h, y0)) / (2 * h)
    fd_y = (section.value(x0, y0 + h) - section.value(x0, y0 - h)) / (2 * h)
    assert abs(sx - fd_x) < 1e-7
    assert abs(sy - fd_y) < 1e-7


# -- exterior derivative ----------------------------------------------------------


def test_fd_derivative_of_constant_field_is_zero():
    upper = np.triu(np.full((4, 4), 1.3 - 0.2j), 1)
    field = np.tile(upper - upper.T, (16, 16, 1, 1))
    assert np.max(np.abs(exterior_derivative_fd(field))) == 0.0


def test_fd_derivative_of_lifted_base_form_is_structurally_zero():
    # pullbacks from a 2-dimensional base are closed, and the centered
    # stencil reproduces that exactly: the only nonzero component never
    # gets differentiated along its own plane
    grid = TorusGrid(32)
    rng = np.random.default_rng(2)
    eta = sample_section_form(SmoothSection.random(rng, 3, amplitude=0.3), grid)
    assert np.max(np.abs(exterior_derivative_fd(eta))) < 1e-15


def test_fd_derivative_single_mode_against_closed_form():
    # alpha = sin(2 pi y) dx1 ^ dx2:
    # d alpha = 2 pi cos(2 pi y) dy1 ^ dx1 ^ dx2 = -2 pi cos dx1 ^ dy1 ^ dx2
    errors = {}
    for n in (32, 64):
        grid = TorusGrid(n)
        _, y = grid.mesh()
        values = np.zeros((n, n, 4, 4), dtype=np.complex128)
        values[..., 0, 2] = np.sin(2 * np.pi * y)
        values[..., 2, 0] = -np.sin(2 * np.pi * y)
        out = exterior_derivative_fd(values)
        expected = np.zeros((n, n, 4), dtype=np.complex128)
        expected[..., 0] = -2 * np.pi * np.cos(2 * np.pi * y)  # triple (0,1,2)
        errors[n] = np.max(np.abs(out - expected))
    assert errors[64] < 2e-2
    assert 3.0 < errors[32] / errors[64] < 5.0  # second order


def test_fd_derivative_of_nonclosed_control_matches_symbolic_max():
    # d(f dz1 ^ dz2conj) = i f' dx1 ^ dy1 ^ dz2conj; with f = cos the
    # sup norm of the coefficient is 2 pi
    grid = TorusGrid(64)
    out = exterior_derivative_fd(nonclosed_control_form(grid))
    assert np.max(np.abs(out)) == pytest.approx(2 * np.pi, rel=1e-2)


def exterior_derivative_fd_reference(field):
    """The stencil over all four partials, fiber partials included as zeros."""
    n, h = len(field), 1.0 / len(field)
    comp = field
    partials = np.zeros((4,) + comp.shape, dtype=np.complex128)
    for axis in range(2):
        partials[axis] = (np.roll(comp, -1, axis=axis) - np.roll(comp, 1, axis=axis)) / (2 * h)
    out = np.zeros((n, n, 4), dtype=np.complex128)
    for p, (a, b, c) in enumerate(TRIPLES):
        out[..., p] = partials[a, ..., b, c] - partials[b, ..., a, c] + partials[c, ..., a, b]
    return out


# -- structure fields ---------------------------------------------------------------


def test_structure_field_at_zero_is_constant_standard():
    grid = TorusGrid(16)
    rng = np.random.default_rng(3)
    eta = sample_section_form(SmoothSection.random(rng, 2), grid)
    result = deformed_structure_field(eta, 0.0)
    standard = induced_complex_structure(ComplexTwoForm(Q_BLOCK)).matrix
    assert failed_nodes(result) == 0
    assert np.max(np.abs(result - standard)) < 1e-12


def test_structure_field_zero_eta_any_t():
    eta = np.zeros((16, 16, 4, 4), dtype=np.complex128)
    result = deformed_structure_field(eta, 2.3 - 0.7j)
    standard = induced_complex_structure(ComplexTwoForm(Q_BLOCK)).matrix
    assert np.max(np.abs(result - standard)) < 1e-12


def test_structure_field_pointwise_matches_single_space_construction():
    grid = TorusGrid(16)
    rng = np.random.default_rng(4)
    section = SmoothSection.random(rng, 3, amplitude=0.05)
    eta = sample_section_form(section, grid)
    result = deformed_structure_field(eta, -1.0)
    e01 = np.zeros((4, 4), dtype=np.complex128)
    e01[0, 1], e01[1, 0] = 1.0, -1.0
    for i, j in ((0, 0), (3, 7), (10, 2), (15, 15)):
        omega_node = ComplexTwoForm(Q_BLOCK - eta[i, j, 0, 1] * e01)
        direct = induced_complex_structure(omega_node).matrix
        assert np.max(np.abs(result[i, j] - direct)) < 1e-12


def test_structure_field_counts_nodes_with_real_kernel_vectors():
    # at t = 1 the control's kernel is real where cos(2 pi x) = +-1, the
    # rows x = 0 and x = 1/2; those nodes are counted and carry no structure
    grid = TorusGrid(16)
    result = deformed_structure_field(nonclosed_control_form(grid), 1.0)
    assert failed_nodes(result) == 32
    bad = np.isnan(result).any(axis=(-1, -2))
    assert bad.sum() == 32 and bad[[0, 8]].all()
    assert np.isfinite(np.delete(result, [0, 8], axis=0)).all()
    assert np.isnan(nijenhuis_norm(result))


#: The fields the testbed deforms by, sampled on a given grid.
TESTBED_FORMS = {
    "section-0": lambda grid: sample_section_form(SmoothSection.random(np.random.default_rng([0, 0])), grid),
    "section-1": lambda grid: sample_section_form(SmoothSection.random(np.random.default_rng([1, 0])), grid),
    "closed-control": closed_control_form,
    "nonclosed-control": nonclosed_control_form,
}


@pytest.mark.parametrize("form", TESTBED_FORMS)
@pytest.mark.parametrize("n", [16, 32, 64])
def test_coarse_grid_is_the_fine_grids_even_nodes(n, form):
    fine, coarse = TorusGrid(n), TorusGrid(n // 2)
    field = TESTBED_FORMS[form](fine)
    restricted = field[::2, ::2]
    sampled = TESTBED_FORMS[form](coarse)
    assert np.array_equal(sampled, restricted)
    for t in (-1.0, 0.5, 1.0, 0.3 + 0.2j):
        direct = deformed_structure_field(sampled, t)
        read_off = deformed_structure_field(field, t)[::2, ::2]
        assert np.array_equal(direct, read_off, equal_nan=True)
        assert failed_nodes(direct) == failed_nodes(read_off)


@pytest.mark.parametrize("form", ["section-0", "section-1"])
@pytest.mark.parametrize("n", [128, 256])
def test_coarse_section_sample_is_the_fine_samples_even_nodes_on_large_grids(n, form):
    # above 16,384 nodes numpy multiplies a complex scalar into a temporary
    # in place, to other last bits; the Fourier sum never does so
    fine = TESTBED_FORMS[form](TorusGrid(n))
    coarse = TESTBED_FORMS[form](TorusGrid(n // 2))
    assert np.array_equal(fine[::2, ::2], coarse)


def test_restricted_structure_recounts_its_failing_nodes():
    # the nonclosed control at t = 1 fails on the rows x = 0 and x = 1/2,
    # both even: n nodes of the fine grid's 2n remain on the coarse grid
    structure = deformed_structure_field(nonclosed_control_form(TorusGrid(16)), 1.0)
    assert failed_nodes(structure) == 32 and failed_nodes(structure[::2, ::2]) == 16


def test_structure_field_preserves_fiber_pointwise():
    grid = TorusGrid(32)
    rng = np.random.default_rng(5)
    eta = sample_section_form(SmoothSection.random(rng, 3), grid)
    values = deformed_structure_field(eta, -1.0)
    assert failed_nodes(values) == 0
    fiber_block = values[..., 2:, 2:]
    off_block = values[..., :2, 2:]
    assert np.max(np.abs(fiber_block - BASE_J)) < 1e-12
    assert np.max(np.abs(off_block)) < 1e-12


# -- Nijenhuis --------------------------------------------------------------------


def test_nijenhuis_constant_structure_zero():
    standard = induced_complex_structure(ComplexTwoForm(Q_BLOCK)).matrix
    assert nijenhuis_norm(np.tile(standard, (16, 16, 1, 1))) == 0.0


def test_nijenhuis_closed_case_below_threshold():
    rng = np.random.default_rng(6)
    section = SmoothSection.random(rng, 3)
    for n in (32, 64):
        grid = TorusGrid(n)
        eta = sample_section_form(section, grid)
        result = deformed_structure_field(eta, -1.0)
        assert nijenhuis_norm(result) < 1e-4


def test_nijenhuis_generic_closed_deformation_second_order():
    norms = {}
    for n in (32, 64):
        result = deformed_structure_field(closed_control_form(TorusGrid(n)), 1.0)
        assert failed_nodes(result) == 0
        norms[n] = nijenhuis_norm(result)
    assert norms[64] < 1e-4
    assert 2.5 < norms[32] / norms[64] < 6.0


def nonclosed_continuum_norms(t, x):
    """Frozen closed-form oracle for the control's structure field.

    The induced structure is block diagonal with base block J and fiber
    block [[0, -r], [1/r, 0]], r = (1-g)/(1+g), g = t cos(2 pi x); the
    Nijenhuis coordinate components then have norms |r'/r| (twice),
    |r'/r^2| and |r'|.
    """
    g = t * np.cos(2 * np.pi * x)
    r = (1 - g) / (1 + g)
    rp = 4 * np.pi * t * np.sin(2 * np.pi * x) / (1 + g) ** 2
    return np.abs(rp) * np.maximum.reduce([np.ones_like(r), 1 / np.abs(r), 1 / np.abs(r) ** 2])


def test_nonclosed_control_structure_matches_analytic_blocks():
    grid = TorusGrid(32)
    values = deformed_structure_field(nonclosed_control_form(grid), 0.5)
    x, _ = grid.mesh()
    g = 0.5 * np.cos(2 * np.pi * x)
    r = (1 - g) / (1 + g)
    assert np.max(np.abs(values[..., :2, :2] - BASE_J)) < 1e-10
    assert np.max(np.abs(values[..., :2, 2:])) < 1e-10
    assert np.max(np.abs(values[..., 2:, :2])) < 1e-10
    assert np.max(np.abs(values[..., 2, 3] + r)) < 1e-10
    assert np.max(np.abs(values[..., 3, 2] - 1 / r)) < 1e-10


def test_nonclosed_control_nijenhuis_bounded_below_and_stable():
    continuum = np.max(nonclosed_continuum_norms(0.5, np.linspace(0, 1, 200_001)))
    values = {}
    for n in (32, 64):
        result = deformed_structure_field(nonclosed_control_form(TorusGrid(n)), 0.5)
        values[n] = nijenhuis_norm(result)
        assert abs(values[n] - continuum) / continuum < 0.05
        assert values[n] > continuum / 2
    assert abs(values[64] - values[32]) / continuum < 0.05


def nijenhuis_node_norms_reference(structure_field):
    """The stencil over all four partials, fiber partials included as zeros."""
    ind, h = structure_field, 1.0 / len(structure_field)
    d = np.zeros((4,) + ind.shape)
    for axis in range(2):
        d[axis] = (np.roll(ind, -1, axis=axis) - np.roll(ind, 1, axis=axis)) / (2 * h)
    term1 = np.einsum("xyja,jxyib->xyiab", ind[:, :, :2, :], d[:2])
    term1 = term1 - np.swapaxes(term1, -1, -2)
    term2 = np.einsum("xyik,bxyka->xyiab", ind, d)
    term2 = term2 - np.swapaxes(term2, -1, -2)
    return np.sqrt(np.max(np.sum((term1 + term2) ** 2, axis=2), axis=(-1, -2)))


#: Every kind of structure field the suites hand the stencil: the section
#: theorem's at t = -1 and at a complex t, both controls, and the
#: non-closed control at t = 1, where the 2n nodes with x = 0 or 1/2 fail.
STENCIL_FIELDS = [
    ("closed-control", 1.0),
    ("nonclosed-control", 0.5),
    ("nonclosed-control", 1.0),
    ("section-0", -1.0),
    ("section-0", 0.3 + 0.2j),
]


@pytest.mark.parametrize("form, t", STENCIL_FIELDS)
def test_nijenhuis_base_partial_stencil_matches_the_four_partial_reference(form, t):
    for n in (8, 32, 64):
        field = deformed_structure_field(TESTBED_FORMS[form](TorusGrid(n)), t)
        assert failed_nodes(field) == (2 * n if t == 1.0 and form == "nonclosed-control" else 0)
        # the fine field, and the strided coarse view the testbed suites pass in
        for structures in (field, field[::2, ::2]):
            norms = nijenhuis_node_norms(structures)
            assert np.array_equal(norms, nijenhuis_node_norms_reference(structures), equal_nan=True)


@pytest.mark.parametrize("form, t", STENCIL_FIELDS)
def test_nijenhuis_stencil_leaves_its_input_unchanged(form, t):
    field = deformed_structure_field(TESTBED_FORMS[form](TorusGrid(16)), t)
    for structures in (field, field[::2, ::2]):
        before = structures.copy()
        nijenhuis_node_norms(structures)
        assert structures.tobytes() == before.tobytes()


@pytest.mark.parametrize("form", TESTBED_FORMS)
def test_exterior_derivative_base_partials_match_the_four_partial_reference(form):
    for n in (32, 64):
        field = TESTBED_FORMS[form](TorusGrid(n))
        assert np.array_equal(exterior_derivative_fd(field), exterior_derivative_fd_reference(field))


@pytest.mark.parametrize("t", [0.01, -0.01, 0.3, 0.5, -0.7, 0.99])
def test_nonclosed_ceiling_closed_form_bounds_the_dense_sweep(t):
    sweep = float(np.max(nonclosed_continuum_norms(t, np.linspace(0.0, 1.0, 400_001))))
    ceiling = _nonclosed_continuum_max(t)
    assert sweep <= ceiling <= sweep * (1 + 2e-9)


def test_nonclosed_control_nijenhuis_pointwise_against_oracle():
    grid = TorusGrid(64)
    result = deformed_structure_field(nonclosed_control_form(grid), 0.5)
    norms = nijenhuis_node_norms(result)
    x, _ = grid.mesh()
    expected = nonclosed_continuum_norms(0.5, x)
    assert np.max(np.abs(norms - expected)) < 0.35  # FD truncation only


# -- section holomorphy ----------------------------------------------------------------


def test_constant_section_trivially_holomorphic():
    grid = TorusGrid(16)
    section = SmoothSection.constant(0.2 + 0.9j)
    certificate = verify_section_holomorphic(section, sample_section_form(section, grid))
    assert certificate.max_residual < 1e-14


def test_random_sections_become_holomorphic():
    for i in range(3):
        rng = np.random.default_rng(700 + i)
        section = SmoothSection.random(rng, 3)
        certificate = verify_section_holomorphic(section, sample_section_form(section, TorusGrid(64)))
        assert failed_nodes(certificate.structure) == 0 and certificate.max_residual <= 1e-8
        assert certificate.max_residual < 1e-10


def test_without_deformation_generic_section_is_not_holomorphic():
    # negative control for the holomorphy check itself: at t = 0 the
    # residual is the anti-holomorphic derivative, nonzero generically
    grid = TorusGrid(32)
    rng = np.random.default_rng(8)
    section = SmoothSection.random(rng, 3, amplitude=0.5)
    eta = sample_section_form(section, grid)
    structure = deformed_structure_field(eta, 0.0)
    x, y = grid.mesh()
    d = section.differential(x, y)
    residual = np.max(np.abs(d @ BASE_J - structure @ d))
    assert residual > 1e-3


def test_grid_differential_is_one_read_only_sample_per_grid():
    section = SmoothSection.random(np.random.default_rng(9), 3)
    grid = TorusGrid(16)
    d = section.grid_differential(grid)
    x, y = grid.mesh()
    assert d.tobytes() == section.differential(x, y).tobytes()
    assert section.grid_differential(TorusGrid(16)) is d and not d.flags.writeable
    assert section.grid_differential(TorusGrid(32)).shape == (32, 32, 4, 2)
    with pytest.raises(TypeError):  # the modes a sample was read from stay put
        section.modes[(0, 0)] = 1.0
