"""Scatter kernels and the multi-index tables."""

import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from csympl import kernels, multiindex

# -- the per-entry Python builders, kept as the oracle for the numpy tables --


def merge_sign(left: tuple, right: tuple) -> int:
    """Sign of sorting the concatenation of two disjoint sorted tuples:
    (-1)^inversions, where only cross pairs (x in left, y in right, x > y)
    can be inverted."""
    inversions = sum(1 for x in left for y in right if x > y)
    return -1 if inversions % 2 else 1


def oracle_wedge_table(dim, deg_a, deg_b):
    pos_a = multiindex.index_positions(dim, deg_a)
    pos_b = multiindex.index_positions(dim, deg_b)
    ia, ib, iout, sign = [], [], [], []
    for out_pos, union in enumerate(multiindex.index_tuples(dim, deg_a + deg_b)):
        for part_a in combinations(union, deg_a):
            part_b = tuple(i for i in union if i not in part_a)
            ia.append(pos_a[part_a])
            ib.append(pos_b[part_b])
            iout.append(out_pos)
            sign.append(merge_sign(part_a, part_b))
    return (
        np.asarray(ia, dtype=np.intp),
        np.asarray(ib, dtype=np.intp),
        np.asarray(iout, dtype=np.intp),
        np.asarray(sign, dtype=np.float64),
    )


def oracle_contraction_table(dim, degree):
    pos_out = multiindex.index_positions(dim, degree - 1)
    iin, icomp, iout, sign = [], [], [], []
    for in_pos, idx in enumerate(multiindex.index_tuples(dim, degree)):
        for slot, component in enumerate(idx):
            iin.append(in_pos)
            icomp.append(component)
            iout.append(pos_out[idx[:slot] + idx[slot + 1 :]])
            sign.append(-1.0 if slot % 2 else 1.0)
    return (
        np.asarray(iin, dtype=np.intp),
        np.asarray(icomp, dtype=np.intp),
        np.asarray(iout, dtype=np.intp),
        np.asarray(sign, dtype=np.float64),
    )


#: Every wedge shape the suites build (the power criterion at dims 4/8/12),
#: then larger and edge shapes: empty degrees, degree sums above dim, dim 0.
SUITE_WEDGE_SHAPES = (
    (4, 2, 2), (8, 2, 2), (8, 4, 2), (8, 4, 4),
    (12, 2, 2), (12, 4, 2), (12, 4, 4), (12, 6, 2), (12, 8, 4),
)
EDGE_WEDGE_SHAPES = (
    (12, 6, 6), (16, 4, 4), (6, 0, 3), (6, 3, 0), (5, 1, 1), (10, 3, 5),
    (4, 0, 0), (20, 2, 2), (24, 2, 2), (4, 3, 3), (0, 0, 0),
)
CONTRACTION_SHAPES = ((5, 3), (12, 6), (4, 1), (8, 8), (16, 5), (1, 1))


def assert_tables_identical(table, expected):
    for got, want in zip(table, expected, strict=True):
        assert got.dtype == want.dtype
        assert got.shape == want.shape
        assert np.array_equal(got, want)


def test_merge_sign_examples():
    assert merge_sign((0, 2), (1, 3)) == -1
    assert merge_sign((0, 1), (2, 3)) == 1
    assert merge_sign((), (0, 1)) == 1
    assert merge_sign((3,), (0, 1, 2)) == -1


@pytest.mark.parametrize("shape", SUITE_WEDGE_SHAPES + EDGE_WEDGE_SHAPES)
def test_wedge_table_matches_oracle(shape):
    assert_tables_identical(multiindex.wedge_table(*shape), oracle_wedge_table(*shape))


@pytest.mark.parametrize("shape", CONTRACTION_SHAPES)
def test_contraction_table_matches_oracle(shape):
    assert_tables_identical(multiindex.contraction_table(*shape), oracle_contraction_table(*shape))


def test_cached_tables_are_read_only():
    arrays = (
        *multiindex.wedge_table(6, 2, 2),
        *multiindex.contraction_table(5, 3),
        multiindex.index_array(6, 2),
    )
    for array in arrays:
        with pytest.raises(ValueError):
            array[0] = 0
    # the contraction's icomp is its own copy, not a view of index_array
    icomp = multiindex.contraction_table(5, 3)[1]
    assert not np.shares_memory(icomp, multiindex.index_array(5, 3))


def test_wedge_table_build_peaks_at_its_own_size():
    # the builder's temporaries stay below a quarter of the table; the
    # per-entry Python lists it replaced peaked at about twice its size
    build = multiindex.wedge_table.__wrapped__
    build(16, 4, 4)  # caches the index arrays it reads
    tracemalloc.start()
    try:
        table = build(16, 4, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * sum(array.nbytes for array in table)


def test_wedge_table_counts():
    ia, ib, iout, sign = multiindex.wedge_table(6, 2, 2)
    # every output 4-set splits into C(4, 2) ordered (a, b) parts
    assert len(ia) == multiindex.coefficient_count(6, 4) * 6
    assert set(iout.tolist()) == set(range(multiindex.coefficient_count(6, 4)))
    assert set(sign.tolist()) <= {-1.0, 1.0}


def test_contraction_table_counts():
    iin, icomp, iout, sign = multiindex.contraction_table(5, 3)
    assert len(iin) == multiindex.coefficient_count(5, 3) * 3


def test_pure_scatter_blocks_match_one_shot_sum():
    # dim 12, 4 ^ 4 has 34650 entries, several blocks; the blocks keep the
    # order in which each output sums its entries, so the result is exact
    rng = np.random.default_rng(2)
    for dim, p, q in ((12, 4, 4), (12, 6, 2), (6, 2, 2)):
        ia, ib, iout, sign = multiindex.wedge_table(dim, p, q)
        a = rng.standard_normal(len(multiindex.index_tuples(dim, p))) * (1 + 1j)
        b = rng.standard_normal(len(multiindex.index_tuples(dim, q))) * (1 - 2j)
        nout = multiindex.coefficient_count(dim, p + q)
        expected = np.zeros(nout, dtype=np.complex128)
        np.add.at(expected, iout, sign * (a[ia] * b[ib]))
        assert np.array_equal(kernels.wedge_scatter(ia, ib, iout, sign, a, b, nout), expected)
    assert len(multiindex.wedge_table(12, 4, 4)[0]) > 2 * kernels.BLOCK
    # dim 12, iota_v of a 6-form: 5544 entries, two blocks
    iin, icomp, iout, sign = multiindex.contraction_table(12, 6)
    assert len(iin) > kernels.BLOCK
    v = rng.standard_normal(12) * (2 + 1j)
    a = rng.standard_normal(multiindex.coefficient_count(12, 6)) * (1 - 1j)
    nout = multiindex.coefficient_count(12, 5)
    expected = np.zeros(nout, dtype=np.complex128)
    np.add.at(expected, iout, sign * (v[icomp] * a[iin]))
    assert np.array_equal(kernels.contract_scatter(iin, icomp, iout, sign, v, a, nout), expected)
