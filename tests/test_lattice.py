"""Exact lattice arithmetic: K3 lattice, section classes, twistor curves."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from csympl.lattice import (
    E8_MINUS_GRAM,
    IntegralLattice,
    PeriodPoint,
    PostconditionError,
    TwistorCurve,
    U_GRAM,
    _root_pool,
    dual_vector,
    find_section_class,
    is_primitive_isotropic,
    random_isometry_images,
    random_primitive_isotropic,
    reflect,
    square_minus_two,
    standard_k3_lattice,
    twistor_curve_plane,
    twistor_parameter,
)

K3 = standard_k3_lattice()


def unit(i, rank=22):
    v = [0] * rank
    v[i] = 1
    return v


# -- lattice structure ----------------------------------------------------------


def test_k3_lattice_shape():
    assert K3.rank == 22
    assert K3.is_even()
    assert abs(K3.determinant()) == 1


def test_k3_signature_by_exact_inertia():
    pos, neg, zero = K3.signature()
    assert (pos, neg, zero) == (3, 19, 0)
    # float eigenvalue cross-check
    eigs = np.linalg.eigvalsh(np.array(K3.gram, dtype=float))
    assert int(np.sum(eigs > 0)) == 3 and int(np.sum(eigs < 0)) == 19


def test_hyperbolic_plane_pairings():
    u = IntegralLattice(U_GRAM)
    assert u.pair([1, 0], [0, 1]) == 1
    assert u.pair([1, 0], [1, 0]) == 0
    assert u.pair([1, 1], [1, 1]) == 2


def test_gram_must_be_symmetric_and_square():
    with pytest.raises(ValueError):
        IntegralLattice([[0, 1], [2, 0]])
    with pytest.raises(ValueError):
        IntegralLattice([[0, 1]])


def _dense_pair(gram, v, w):
    rank = len(gram)
    return sum(int(v[i]) * gram[i][j] * int(w[j]) for i in range(rank) for j in range(rank))


@st.composite
def _gram_and_vectors(draw):
    rank = draw(st.integers(1, 7))
    dense = draw(st.booleans())
    entry = st.integers(-5, 5).filter(bool) if dense else st.integers(-3, 3)
    gram = [[0] * rank for _ in range(rank)]
    for i in range(rank):
        for j in range(i, rank):
            gram[i][j] = gram[j][i] = draw(entry)
    for i in draw(st.sets(st.integers(0, rank - 1), max_size=rank)):
        for j in range(rank):
            gram[i][j] = gram[j][i] = 0
    big = st.integers(-(2**70), 2**70)
    v, w = (draw(st.lists(big, min_size=rank, max_size=rank)) for _ in range(2))
    return gram, v, w


@settings(max_examples=200, deadline=None)
@given(case=_gram_and_vectors())
def test_sparse_pair_equals_dense_double_sum(case):
    gram, v, w = case
    lat = IntegralLattice(gram)
    assert lat.pair(v, w) == _dense_pair(gram, v, w)
    # int64 input is paired in Python ints: products of 2**40 entries
    # overflow int64 but not the exact pairing
    v64 = np.array([x >> 30 for x in v], dtype=np.int64)
    w64 = np.array([x >> 30 for x in w], dtype=np.int64)
    exact = lat.pair(v64, w64)
    assert type(exact) is int
    assert exact == _dense_pair(gram, v64, w64)
    vf, wf = v64.astype(float), w64.astype(float)
    assert lat.pair(vf, wf) == vf @ np.asarray(gram, dtype=float) @ wf


U = IntegralLattice(U_GRAM)
BIG = 2**62 - 1


@pytest.mark.parametrize(
    "v, w, exact",
    [
        ([1, 0], [0, 1], True),
        ([True, False], [False, True], True),
        ([np.int64(1), np.int32(2)], [np.uint8(3), np.int16(-1)], True),
        (np.array([1, 2]), np.array([3, -1], dtype=np.int8), True),
        (np.array([BIG, BIG - 1], dtype=np.int64), np.array([BIG, -BIG], dtype=np.int64), True),
        ((1, 2), np.array([3, 4], dtype=np.uint64), True),
        ([1.0, 0.0], [0.0, 1.0], False),
        ([1, 0], [0.0, 1.0], False),
        ([np.True_, np.False_], [1, 0], False),
        (np.array([True, False]), [0, 1], False),
        ([1, 2.5], [1, 1], False),
        (np.array([1.0, 2.0]), np.array([3, 4]), False),
        (np.array([1 + 1j, 2]), np.array([3, 4]), False),
    ],
)
def test_pair_dispatch(v, w, exact):
    # the exact path returns a Python int, also where int64 products would
    # overflow; every other input pairs in floats
    value = U.pair(v, w)
    assert (type(value) is int) is exact
    reference = _dense_pair(U_GRAM, v, w) if exact else np.asarray(v) @ np.asarray(U_GRAM, dtype=float) @ np.asarray(w)
    assert value == reference


def _reference_root_pool(lattice):
    """The enumeration the pool was first defined by: e_i + c e_j over
    j >= i (only c = 1 when i == j), kept when the full pairing gives -2."""
    rank = lattice.rank
    pool = []
    for i in range(rank):
        for j in range(i, rank):
            for coeff_j in (1,) if i == j else (1, -1):
                v = unit(i, rank)
                v[j] += coeff_j
                if not all(x == 0 for x in v) and _dense_pair(lattice.gram, v, v) == -2:
                    pool.append(v)
    return pool


def test_root_pool_matches_reference_enumeration():
    pool = _root_pool(K3)
    assert [list(v) for v in pool] == _reference_root_pool(K3)
    assert _root_pool(K3) is pool  # read once per lattice
    assert len(pool) == 209
    assert sum(-1 not in v for v in pool) == 110  # sums e_i + e_j
    assert all(K3.pair(v, v) == -2 for v in pool)


def test_root_pool_on_small_lattices():
    for gram in ([[-2, 1], [1, -2]], [[0, 1], [1, 0]], [[-2, 0, 1], [0, 0, 3], [1, 3, -4]]):
        lat = IntegralLattice(gram)
        assert [list(v) for v in _root_pool(lat)] == _reference_root_pool(lat)


def test_standard_k3_lattice_is_one_immutable_instance():
    lat = standard_k3_lattice()
    assert standard_k3_lattice() is lat
    with pytest.raises(TypeError):
        lat.gram[0][1] = 5
    with pytest.raises(TypeError):
        lat.gram[0] = (0,) * 22
    assert lat.gram[0][:2] == (0, 1)


def test_determinant_is_computed_once_per_instance(monkeypatch):
    from csympl import lattice

    lat = IntegralLattice(E8_MINUS_GRAM)
    first = lat.determinant()
    monkeypatch.setattr(lattice, "_det_exact", lambda rows: pytest.fail("determinant recomputed"))
    assert lat.determinant() == first == 1
    assert lat.is_unimodular()


# -- primitivity and isotropy -------------------------------------------------------


def test_primitive_isotropic_examples():
    assert is_primitive_isotropic(K3, unit(0))
    assert not is_primitive_isotropic(K3, [2] + [0] * 21)  # content 2
    e = [1, 1] + [0] * 20  # (e, e) = 2 in the first U block
    assert not is_primitive_isotropic(K3, e)
    with pytest.raises(ValueError):
        is_primitive_isotropic(K3, [0] * 22)


# -- dual vectors --------------------------------------------------------------------


def test_dual_vector_in_u_block():
    u = IntegralLattice(U_GRAM)
    b = dual_vector(u, [1, 0])
    assert u.pair(b, [1, 0]) == 1
    assert b == [0, 1]


def test_dual_vector_in_k3():
    e = unit(0)
    b = dual_vector(K3, e)
    assert K3.pair(b, e) == 1


def test_dual_vector_mixed_support():
    rng = np.random.default_rng(0)
    for _ in range(25):
        e = random_primitive_isotropic(K3, rng)
        b = dual_vector(K3, e)
        assert K3.pair(b, e) == 1


def test_dual_vector_rejects_imprimitive():
    with pytest.raises(ValueError):
        dual_vector(K3, [2] + [0] * 21)


# -- section classes -------------------------------------------------------------------


def test_square_minus_two_u_block_hand_oracle():
    # Gram [[0,1],[1,0]]: e = (1,0), b = (0,1), (b,b) = 0, so a = b - e
    u = IntegralLattice(U_GRAM)
    a = square_minus_two(u, [1, 0], [0, 1])
    assert a == [-1, 1]
    assert u.pair(a, [1, 0]) == 1
    assert u.pair(a, a) == -2


def test_square_minus_two_fixed_point_is_minus_two_vector():
    # when (b, b) = -2 the correction coefficient vanishes and a = b
    u = IntegralLattice(U_GRAM)
    b = [-1, 1]
    assert u.pair(b, b) == -2
    assert u.pair(b, [1, 0]) == 1
    assert square_minus_two(u, [1, 0], b) == b


def test_square_minus_two_requires_unit_pairing():
    u = IntegralLattice(U_GRAM)
    with pytest.raises(ValueError):
        square_minus_two(u, [1, 0], [1, 0])


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_square_minus_two_exact_on_random_pairs(seed):
    rng = np.random.default_rng(seed)
    e = random_primitive_isotropic(K3, rng)
    b = dual_vector(K3, e)
    # shifting b along e keeps (b, e) = 1 because e is isotropic
    k = int(rng.integers(-3, 4))
    b = [bi + k * ei for bi, ei in zip(b, e)]
    a = square_minus_two(K3, e, b)
    assert K3.pair(a, e) == 1
    assert K3.pair(a, a) == -2


def test_find_section_class_standard_and_random():
    for e in (unit(0), unit(2), unit(4)):
        s = find_section_class(K3, e)
        assert K3.pair(s, e) == 1
        assert K3.pair(s, s) == -2
    rng = np.random.default_rng(1)
    for _ in range(100):
        e = random_primitive_isotropic(K3, rng)
        s = find_section_class(K3, e)
        assert K3.pair(s, e) == 1
        assert K3.pair(s, s) == -2


def test_find_section_class_rejects_bad_input():
    with pytest.raises(ValueError):
        find_section_class(K3, [1, 1] + [0] * 20)  # not isotropic
    odd = IntegralLattice([[1]])
    with pytest.raises(ValueError):
        find_section_class(odd, [1])


# -- reflections -------------------------------------------------------------------------


def test_reflections_are_isometries():
    rng = np.random.default_rng(2)
    root = [1, -1] + [0] * 20
    assert K3.pair(root, root) == -2
    for _ in range(10):
        v = [int(x) for x in rng.integers(-5, 6, size=22)]
        w = [int(x) for x in rng.integers(-5, 6, size=22)]
        assert K3.pair(reflect(K3, root, v), reflect(K3, root, w)) == K3.pair(v, w)


def test_pool_words_reflect_without_rechecking_the_root_norm(monkeypatch):
    with pytest.raises(ValueError, match=r"\(root, root\) = -2"):
        reflect(K3, [1, 0] + [0] * 20, [0, 1] + [0] * 20)  # public reflect still checks
    pool, rng = _root_pool(K3), np.random.default_rng(5)
    word = [pool[int(rng.integers(len(pool)))] for _ in range(8)]
    vectors = [[1, 0] + [0] * 20, [0, 1, 1] + [0] * 19]
    expected = []
    for image in vectors:
        for root in word:
            image = reflect(K3, root, image)
        expected.append(image)
    calls, pair = [], IntegralLattice.pair
    monkeypatch.setattr(IntegralLattice, "pair", lambda self, v, w: calls.append((v, w)) or pair(self, v, w))
    assert random_isometry_images(K3, np.random.default_rng(5), vectors) == expected
    assert len(calls) == 2 * 8  # one (v, root) pairing per vector and root, no (root, root)


def test_seeded_classes_pinned():
    # literals from the dense-pairing implementation; the reflection words
    # and every seeded lattice report depend on them
    e = random_primitive_isotropic(K3, np.random.default_rng(0))
    assert e == [7, 2, 0, 0, 0, 0, 0, 2, 0, -2, 0, 0, 0, 2, 0, 0, 0, -1, 0, 0, 0, -1]
    assert dual_vector(K3, e) == [-3, 1] + [0] * 20
    assert find_section_class(K3, e) == [11, 5, 0, 0, 0, 0, 0, 4, 0, -4, 0, 0, 0, 4, 0, 0, 0, -2, 0, 0, 0, -2]


def test_postconditions_raise(monkeypatch):
    from csympl import lattice

    monkeypatch.setattr(lattice, "_xgcd", lambda a, b: (1, 0, 0))
    with pytest.raises(PostconditionError, match=r"\(b, e\) = 0 != 1"):
        dual_vector(K3, [1, 0, 1] + [0] * 19)
    monkeypatch.setattr(lattice, "_xgcd", lambda a, b: (abs(a) + 1, 0, 0))
    with pytest.raises(PostconditionError, match="gcd grew"):
        dual_vector(K3, [1, 0, 1] + [0] * 19)
    monkeypatch.undo()
    # (b, e) = 1 but e is not isotropic: (a, e) = 1 - c (e, e) = -1
    with pytest.raises(PostconditionError, match=r"\(a, e\) = -1"):
        square_minus_two(IntegralLattice([[2, 1], [1, 0]]), [1, 0], [0, 1])
    monkeypatch.setattr(lattice, "_reflect", lambda lat, root, v: [1, 1] + [0] * 20)
    with pytest.raises(PostconditionError, match="not primitive isotropic"):
        random_primitive_isotropic(K3, np.random.default_rng(0))
    monkeypatch.undo()
    monkeypatch.setattr(lattice.IntegralLattice, "is_even", lambda self: True)
    with pytest.raises(PostconditionError, match=r"\(a, a\)"):
        square_minus_two(IntegralLattice([[1, 1], [1, 0]]), [0, 1], [1, 0])
    monkeypatch.setattr(lattice.IntegralLattice, "is_unimodular", lambda self: False)
    standard_k3_lattice.cache_clear()  # a cached lattice is never rebuilt, so its check would not run
    try:
        with pytest.raises(PostconditionError, match="not even unimodular"):
            standard_k3_lattice()
    finally:
        standard_k3_lattice.cache_clear()  # later calls get a lattice that passed its check


def test_postcondition_survives_python_O(tmp_path):
    import os
    import subprocess
    import sys
    from pathlib import Path

    import csympl

    # the child imports the csympl under test, from any working directory
    package_root = str(Path(csympl.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    script = (
        "import sys\n"
        "from csympl import lattice\n"
        "lattice._xgcd = lambda a, b: (1, 0, 0)\n"
        "try:\n"
        "    lattice.find_section_class(lattice.standard_k3_lattice(), [1, 0, 1] + [0] * 19)\n"
        "except lattice.PostconditionError as exc:\n"
        "    print(sys.flags.optimize, type(exc).__name__)\n"
    )
    out = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=pythonpath),
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "1 PostconditionError"


def test_random_primitive_isotropic_properties():
    rng = np.random.default_rng(3)
    seen = set()
    for _ in range(50):
        e = random_primitive_isotropic(K3, rng)
        assert is_primitive_isotropic(K3, e)
        seen.add(tuple(e))
    assert len(seen) > 10  # genuinely random, not stuck at the seed vector


# -- period points and twistor curves --------------------------------------------------------


def test_period_point_validation():
    omega = np.zeros(22, dtype=complex)
    omega[0] = omega[1] = 1.0
    omega[2] = omega[3] = 1j
    point = PeriodPoint(K3, omega)
    assert point.lattice.pair(omega, omega) == pytest.approx(0.0)
    bad = omega.copy()
    bad[0] = 2.0  # (omega, omega) != 0
    with pytest.raises(ValueError):
        PeriodPoint(K3, bad)
    with pytest.raises(ValueError):
        PeriodPoint(K3, np.zeros(22, dtype=complex))


def test_twistor_parameter_zero_when_already_orthogonal():
    point = PeriodPoint.standard(K3)
    e = unit(4)
    s = find_section_class(K3, e)
    assert K3.pair(s, point.omega_class) == 0
    assert twistor_parameter(K3, s, e, point.omega_class) == 0


def test_twistor_parameter_substitution_identity():
    rng = np.random.default_rng(4)
    base_re = [1, 1] + [0] * 20
    base_im = [0, 0, 1, 1] + [0] * 18
    for _ in range(25):
        re, im, e = random_isometry_images(K3, rng, (base_re, base_im, unit(4)))
        omega = np.asarray(re, dtype=float) + 1j * np.asarray(im, dtype=float)
        s = find_section_class(K3, e)
        t = twistor_parameter(K3, s, e, omega)
        residual = abs(K3.pair(np.asarray(s), omega - t * np.asarray(e, dtype=float)))
        assert residual < 1e-12 * max(1.0, abs(K3.pair(omega, omega.conj())))


def test_twistor_parameter_rejects_orthogonal_pair():
    point = PeriodPoint.standard(K3)
    e = unit(4)
    with pytest.raises(ValueError, match="no unique deformation"):
        twistor_parameter(K3, e, e, point.omega_class)  # (e, e) = 0


def test_twistor_plane_base_point():
    point = PeriodPoint.standard(K3)
    plane = twistor_curve_plane(point, unit(4), 0.0, 0.0)
    assert np.allclose(plane.v1, 2 * point.omega_class.real)
    assert np.allclose(plane.v2, -2 * point.omega_class.imag)


def test_twistor_plane_gram_constant_over_grid():
    point = PeriodPoint.standard(K3)
    e = unit(4)
    grams = np.array(
        [
            twistor_curve_plane(point, e, x, y).gram
            for x in np.linspace(-2, 2, 10)
            for y in np.linspace(-2, 2, 10)
        ]
    )
    assert np.max(np.abs(grams - grams[0])) < 1e-12 * np.max(np.abs(grams[0]))
    eigs = np.linalg.eigvalsh(grams[0])
    assert np.all(eigs > 0)


def test_twistor_plane_rejects_non_isotropic_direction():
    point = PeriodPoint.standard(K3)
    with pytest.raises(ValueError, match=r"\(e, e\)"):
        twistor_curve_plane(point, [1, 1] + [0] * 20, 0.0, 0.0)


def test_twistor_plane_rejects_non_orthogonal_direction():
    point = PeriodPoint.standard(K3)
    with pytest.raises(ValueError, match="Re Omega"):
        twistor_curve_plane(point, unit(0), 0.0, 0.0)


def test_twistor_curve_planes_match_single_plane_calls():
    point = PeriodPoint.standard(K3)
    curve = TwistorCurve(point, unit(4))
    for x, y in ((0.0, 0.0), (-2.0, 1.5), (0.25, -0.75)):
        plane, single = curve.plane(x, y), twistor_curve_plane(point, unit(4), x, y)
        for name in ("v1", "v2", "gram"):
            assert np.array_equal(getattr(plane, name), getattr(single, name))


def test_twistor_curve_checks_its_direction_once(monkeypatch):
    # (e, e), the period scale and the two orthogonality checks run when the
    # curve is built; an integral period point adds the five exact pairings
    # its planes' Grams expand into and pairs nothing per plane, any other
    # point pairs each plane's own Gram entries
    integral = PeriodPoint.standard(K3)
    scaled = PeriodPoint(K3, 0.3 * integral.omega_class)
    calls = []
    pair = IntegralLattice.pair
    monkeypatch.setattr(IntegralLattice, "pair", lambda self, v, w: calls.append(1) or pair(self, v, w))
    curve = TwistorCurve(integral, unit(4))
    assert len(calls) == 4 + 5
    for x in np.linspace(-2, 2, 10):
        curve.plane(float(x), 0.5)
    assert len(calls) == 4 + 5
    calls.clear()
    curve = TwistorCurve(scaled, unit(4))
    assert len(calls) == 4
    for x in np.linspace(-2, 2, 10):
        curve.plane(float(x), 0.5)
    assert len(calls) == 4 + 10 * 4


def test_twistor_planes_of_integral_points_have_the_exact_gram():
    # a = 2 Re Omega and b = -2 Im Omega are integral and e is orthogonal to
    # both, so every plane's Gram is Gram(a, b) = 4 Gram(Re Omega, -Im Omega)
    rng = np.random.default_rng(9)
    base = ([1, 1] + [0] * 20, [0, 0, 1, 1] + [0] * 18, unit(4))
    for _ in range(5):
        re, im, e = random_isometry_images(K3, rng, base)
        minus_im = [-x for x in im]
        exact = 4 * np.array(
            [[K3.pair(re, re), K3.pair(re, minus_im)], [K3.pair(minus_im, re), K3.pair(minus_im, minus_im)]],
            dtype=float,
        )
        curve = TwistorCurve(PeriodPoint(K3, np.asarray(re) + 1j * np.asarray(im)), e)
        for x in np.linspace(-2, 2, 10):
            for y in np.linspace(-2, 2, 10):
                assert np.array_equal(curve.plane(float(x), float(y)).gram, exact)


def test_twistor_planes_of_non_integral_points_pair_in_floats():
    point = PeriodPoint(K3, 0.3 * PeriodPoint.standard(K3).omega_class)
    curve = TwistorCurve(point, unit(4))
    grams = np.array(
        [curve.plane(float(x), float(y)).gram for x in np.linspace(-2, 2, 10) for y in np.linspace(-2, 2, 10)]
    )
    # 4 Gram(0.3 Re Omega, -0.3 Im Omega) of the standard point: 0.72 Id
    assert np.allclose(grams, 0.72 * np.eye(2), rtol=0, atol=1e-12)
    assert np.all(np.linalg.eigvalsh(grams) > 0)


def test_twistor_sweep_grams_are_the_plane_grams():
    # five integral curves (exact Grams) and one non-integral one (float
    # pairings); the one stacked eigvalsh gives each plane's own eigenvalues
    rng = np.random.default_rng(11)
    base = ([1, 1] + [0] * 20, [0, 0, 1, 1] + [0] * 18, unit(4))
    curves = []
    for _ in range(5):
        re, im, e = random_isometry_images(K3, rng, base)
        curves.append(TwistorCurve(PeriodPoint(K3, np.asarray(re) + 1j * np.asarray(im)), e))
    curves.append(TwistorCurve(PeriodPoint(K3, 0.3 * PeriodPoint.standard(K3).omega_class), unit(4)))
    x, y = (axis.ravel() for axis in np.meshgrid(np.linspace(-2, 2, 10), np.linspace(-2, 2, 10), indexing="ij"))
    for curve in curves:
        grams, eigenvalues = curve.sweep(x, y)
        assert grams.shape == (100, 2, 2) and eigenvalues.shape == (100, 2)
        for k in range(100):
            plane = curve.plane(float(x[k]), float(y[k]))
            assert np.array_equal(grams[k], plane.gram)
            assert np.array_equal(eigenvalues[k], np.linalg.eigvalsh(plane.gram))
            if curve._pairings is None:
                pair = K3.pair
                v1, v2 = plane.v1, plane.v2
                assert np.array_equal(grams[k], [[pair(v1, v1), pair(v1, v2)], [pair(v2, v1), pair(v2, v2)]])


def test_twistor_curve_rejects_bad_directions_when_built():
    point = PeriodPoint.standard(K3)
    with pytest.raises(ValueError, match=r"\(e, e\)"):
        TwistorCurve(point, [1, 1] + [0] * 20)
    with pytest.raises(ValueError, match="Re Omega"):
        TwistorCurve(point, unit(0))
