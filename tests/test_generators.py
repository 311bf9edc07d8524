"""Random instance generators: each range builder draws every instance as
the per-instance rejection loop it replaced, bit for bit and to the same
generator state, and tests a range's draws in one condition-number call
per rejection round."""

import contextlib
import copy
import signal

import numpy as np
import pytest

from csympl import suites
from csympl.csymplectic import CSymplecticSpace, q_block_form, random_c_symplectics
from csympl.deformation import LagrangianProjection, LinearSection
from csympl.forms import ComplexTwoForm
from csympl.suites import SuiteConfig, mixed_two_forms, random_lagrangians

# -- the per-instance generators the range builders replaced -------------------------


def c_symplectic_reference(rng, dim, cond_max=1e3):
    """Form matrix and map of one rejection loop, and how many maps it drew."""
    base = q_block_form(dim // 4).matrix
    draws = 0
    while True:
        p = rng.standard_normal((dim, dim))
        draws += 1
        if np.linalg.cond(p) <= cond_max:
            return ComplexTwoForm(p.T @ base @ p).matrix, p, draws


def mixed_reference(rng, dim):
    """Kind and form matrix of one mixed draw."""
    kind = int(rng.integers(5))
    if kind <= 1:
        scale = complex(rng.standard_normal() + 1j * rng.standard_normal()) if kind else None
        omega = ComplexTwoForm(c_symplectic_reference(rng, dim)[0])
        return kind, (omega if scale is None else omega * scale).matrix
    if kind == 2:
        return kind, ComplexTwoForm(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))).matrix
    if kind == 3:
        return kind, ComplexTwoForm(rng.standard_normal((dim, dim))).matrix
    block = np.zeros((dim, dim))
    for pair in range(dim // 4):
        block[2 * pair, 2 * pair + 1] = 1.0
        block[2 * pair + 1, 2 * pair] = -1.0
    p = rng.standard_normal((dim, dim))
    return kind, ComplexTwoForm(p.T @ block @ p).matrix


def structure_reference(rng, dim):
    """Structure and form matrix of one draw, and how many p and m it drew."""
    j0 = np.zeros((dim, dim))
    for k in range(0, dim, 2):
        j0[k, k + 1] = -1.0
        j0[k + 1, k] = 1.0
    p_draws = m_draws = 0
    while True:
        p = rng.standard_normal((dim, dim))
        p_draws += 1
        if np.linalg.cond(p) <= 100.0:
            break
    structure = p @ j0 @ np.linalg.inv(p)
    cov = np.linalg.svd(np.eye(dim) - 1j * structure.T)[0][:, : dim // 2]
    half = dim // 2
    while True:
        m = rng.standard_normal((half, half)) + 1j * rng.standard_normal((half, half))
        m = m - m.T
        m_draws += 1
        if np.linalg.cond(m) <= 1e3:
            break
    return structure, ComplexTwoForm(cov @ m @ cov.T).matrix, (p_draws, m_draws)


def induced_inputs_reference(cfg, dim, indices):
    """The inputs of each index's ``induced-structure`` case, drawn one
    index at a time, each rescaling's lambda after its form."""
    instances = []
    for index in indices:
        rng = suites._case_rng(cfg, dim, index)
        structure, omega, _ = structure_reference(rng, dim)
        inputs = {"omega": omega, "structure": structure}
        if index < 20:
            lam = 0j
            while abs(lam) < 1e-3:
                lam = complex(rng.standard_normal() + 1j * rng.standard_normal())
            inputs["lambda"] = lam
        instances.append(inputs)
    return instances


# -- helpers -----------------------------------------------------------------------------


def generators(dim, count, tag=60):
    """Three independent copies of ``count`` generators in the same state:
    for the range call, the calls on one-element ranges and the reference."""
    rngs = [np.random.default_rng([tag, dim, index]) for index in range(count)]
    return rngs, copy.deepcopy(rngs), copy.deepcopy(rngs)


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def states(rngs):
    return [rng.bit_generator.state for rng in rngs]


@contextlib.contextmanager
def time_limit(seconds):
    """Raise ``TimeoutError`` in the calling thread after ``seconds``."""

    def expire(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def cond_sizes(monkeypatch):
    """The stack size of each ``np.linalg.cond`` call while the test runs."""
    sizes, cond = [], np.linalg.cond

    def recording(x, *args, **kwargs):
        sizes.append(len(x))
        return cond(x, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "cond", recording)
    return sizes


def rounds(draws):
    """Stack size of each rejection round of streams that each make
    ``draws`` draws: round r tests the streams that need more than r."""
    return [sum(d > r for d in draws) for r in range(max(draws))]


# -- bit identity ------------------------------------------------------------------------

#: (dim, cond_max): the default bound, and bounds that reject about half of
#: the draws, so that streams draw again.
C_SYMPLECTIC_CASES = [(4, 1e3), (8, 1e3), (12, 1e3), (4, 10.0), (8, 30.0), (12, 60.0)]


@pytest.mark.parametrize("dim, cond_max", C_SYMPLECTIC_CASES)
def test_c_symplectic_ranges_are_the_rejection_loop_bit_for_bit(dim, cond_max):
    rngs, alone_rngs, reference_rngs = generators(dim, 40)
    omegas, ps = random_c_symplectics(rngs, dim, cond_max)
    draws = []
    for omega, p, alone_rng, reference_rng in zip(omegas, ps, alone_rngs, reference_rngs):
        (alone,), (alone_p,) = random_c_symplectics([alone_rng], dim, cond_max)
        reference, reference_p, count = c_symplectic_reference(reference_rng, dim, cond_max)
        draws.append(count)
        assert same_bits(omega, alone) and same_bits(omega, reference)
        assert same_bits(p, alone_p) and same_bits(p, reference_p)
    assert states(rngs) == states(alone_rngs) == states(reference_rngs)
    if cond_max < 1e3:
        assert max(draws) > 1, "no stream drew again"


@pytest.mark.parametrize("dim", [4, 8, 12])
def test_mixed_ranges_are_the_per_instance_draws_bit_for_bit(dim):
    rngs, alone_rngs, reference_rngs = generators(dim, 40)
    omegas = mixed_two_forms(rngs, dim)
    kinds = []
    for omega, alone_rng, reference_rng in zip(omegas, alone_rngs, reference_rngs):
        kind, reference = mixed_reference(reference_rng, dim)
        kinds.append(kind)
        assert same_bits(omega, mixed_two_forms([alone_rng], dim)[0]) and same_bits(omega, reference)
    assert states(rngs) == states(alone_rngs) == states(reference_rngs)
    assert sorted(set(kinds)) == [0, 1, 2, 3, 4]


@pytest.mark.parametrize("dim", [4, 8, 12])
def test_structure_ranges_are_the_per_instance_draws_bit_for_bit(dim):
    rngs, alone_rngs, reference_rngs = generators(dim, 40)
    structures, omegas = suites._structures_with_forms(rngs, dim)
    redrawn = False
    for structure, omega, alone_rng, reference_rng in zip(structures, omegas, alone_rngs, reference_rngs):
        (alone_structure,), (alone,) = suites._structures_with_forms([alone_rng], dim)
        reference_structure, reference, draws = structure_reference(reference_rng, dim)
        redrawn |= max(draws) > 1
        assert same_bits(structure, alone_structure) and same_bits(structure, reference_structure)
        assert same_bits(omega, alone) and same_bits(omega, reference)
    assert states(rngs) == states(alone_rngs) == states(reference_rngs)
    assert redrawn, "no stream drew again"


@pytest.mark.parametrize("dim", [4, 8, 12])
def test_induced_cases_draw_their_lambdas_as_the_per_index_draws(dim):
    cfg = SuiteConfig(suite="induced-structure", seed=4)
    indices = range(15, 30)  # indices below 20 draw a lambda after their form
    cases = suites._induced_case(cfg, dim, indices)
    reference = induced_inputs_reference(cfg, dim, indices)
    assert [sorted(inputs) for inputs, _ in cases] == [sorted(inputs) for inputs in reference]
    for (inputs, _), expected in zip(cases, reference):
        assert all(same_bits(inputs[name], value) for name, value in expected.items())


@pytest.mark.parametrize("dim", [4, 8, 12])
def test_section_ranges_are_the_per_instance_draws_bit_for_bit(dim):
    rngs, alone_rngs, reference_rngs = generators(dim, 20)
    spaces = CSymplecticSpace.from_forms(ComplexTwoForm.from_skew(random_c_symplectics(rngs, dim)[0]))
    fibers = random_lagrangians(spaces, rngs)
    for others in (alone_rngs, reference_rngs):
        for rng, other in zip(rngs, others):
            other.bit_generator.state = rng.bit_generator.state
    projection = LagrangianProjection.build_many(spaces, fibers)
    sections = LinearSection.random_many(projection, rngs, scale=0.5)
    k = projection.half_dim
    for i, (space, fiber, alone_rng, reference_rng) in enumerate(zip(spaces, fibers, alone_rngs, reference_rngs)):
        offset = 0.5 * reference_rng.standard_normal((k, k))
        reference = projection.maps[i].T + projection.fibers[i] @ offset
        alone = LinearSection.random_many(LagrangianProjection.build(space, fiber), [alone_rng], scale=0.5)
        assert same_bits(sections.maps[i], alone.maps[0])
        assert same_bits(sections.maps[i], reference)
    assert states(rngs) == states(alone_rngs) == states(reference_rngs)


# -- one condition-number call per rejection round ---------------------------------------


def test_a_c_symplectic_range_tests_each_rejection_round_in_one_call(cond_sizes):
    rngs, _, reference_rngs = generators(8, 30)
    draws = [c_symplectic_reference(rng, 8, 30.0)[2] for rng in reference_rngs]
    cond_sizes.clear()
    random_c_symplectics(rngs, 8, 30.0)
    redraws = max(draws) - 1
    assert cond_sizes == rounds(draws)
    assert len(cond_sizes) == 1 + redraws < sum(draws)


def test_a_structure_range_tests_each_rejection_round_in_one_call(cond_sizes):
    rngs, _, reference_rngs = generators(8, 30)
    p_draws, m_draws = zip(*(structure_reference(rng, 8)[2] for rng in reference_rngs))
    cond_sizes.clear()
    suites._structures_with_forms(rngs, 8)
    assert cond_sizes == rounds(p_draws) + rounds(m_draws)
    assert len(cond_sizes) < sum(p_draws) + sum(m_draws)


def test_a_mixed_range_tests_only_its_c_symplectic_draws(cond_sizes):
    rngs, _, reference_rngs = generators(8, 30)
    draws = []
    for rng in reference_rngs:
        kind = int(rng.integers(5))
        if kind == 1:
            rng.standard_normal(2)
        if kind <= 1:
            draws.append(c_symplectic_reference(rng, 8)[2])
    cond_sizes.clear()
    mixed_two_forms(rngs, 8)
    assert cond_sizes == rounds(draws)


# -- invalid arguments ---------------------------------------------------------------------


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda rng: random_c_symplectics([rng], 4, cond_max=0.5), "cond_max must be at least 1, got 0.5"),
        (lambda rng: random_c_symplectics([rng], 8, cond_max=float("nan")), "cond_max must be at least 1, got nan"),
        (lambda rng: random_c_symplectics([rng], 0), "dim must be a positive multiple of 4, got 0"),
        (lambda rng: random_c_symplectics([rng], -4), "dim must be a positive multiple of 4, got -4"),
        (lambda rng: random_c_symplectics([rng], 6), "dim must be a positive multiple of 4, got 6"),
        (lambda rng: suites._structures_with_forms([rng], 2), "dim must be a positive multiple of 4, got 2"),
        (lambda rng: suites._structures_with_forms([rng], 0), "dim must be a positive multiple of 4, got 0"),
        (lambda rng: random_c_symplectics([], 8), "no generators to draw from"),
        (lambda rng: suites._structures_with_forms([], 8), "no generators to draw from"),
        (lambda rng: mixed_two_forms([], 8), "no generators to draw forms from"),
    ],
)
def test_generators_raise_a_value_error_for_invalid_arguments(call, message):
    # cond_max = 0.5 drew forever and dim = 2 found no nondegenerate m, so
    # each call runs under a time limit
    with time_limit(10), pytest.raises(ValueError, match=f"^{message}$"):
        call(np.random.default_rng(0))


def test_section_ranges_of_different_lengths_raise_a_value_error():
    rngs, _, _ = generators(4, 2)
    spaces = CSymplecticSpace.from_forms(ComplexTwoForm.from_skew(random_c_symplectics(rngs, 4)[0]))
    projection = LagrangianProjection.build_many(spaces, random_lagrangians(spaces, rngs))
    with pytest.raises(ValueError, match="^parallel inputs differ in length: 2 projections, 1 rngs$"):
        LinearSection.random_many(projection, rngs[:1])
