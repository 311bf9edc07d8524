"""The gather-reduce kernel and the multi-index tables."""

import sys
import tracemalloc
from itertools import combinations
from math import comb
from pathlib import Path

import numpy as np
import pytest

from csympl import kernels, multiindex
from csympl.forms import ComplexKForm, wedge

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


def assert_reduction_of(table, gathers, iout, sign):
    """The oracle's scatter entries ``(gathers, iout, sign)`` are ``table``'s
    fixed-width rows: the same flat gathers, output r owning entries
    r*W .. r*W + W - 1, and the entry signs the table's W signs, tiled."""
    *table_gathers, table_sign = table
    width = len(table_sign)
    assert table_sign.dtype == np.float64 and table_sign.shape == (width,)
    for got, want in zip(table_gathers, gathers, strict=True):
        assert got.dtype == want.dtype
        assert got.shape == want.shape
        assert np.array_equal(got, want)
    assert np.array_equal(iout, np.repeat(np.arange(len(iout) // width), width))
    assert np.array_equal(sign, np.tile(table_sign, len(iout) // width))


def test_merge_sign_examples():
    assert merge_sign((0, 2), (1, 3)) == -1
    assert merge_sign((0, 1), (2, 3)) == 1
    assert merge_sign((), (0, 1)) == 1
    assert merge_sign((3,), (0, 1, 2)) == -1


@pytest.mark.parametrize("shape", SUITE_WEDGE_SHAPES + EDGE_WEDGE_SHAPES)
def test_wedge_table_matches_oracle(shape):
    ia, ib, iout, sign = oracle_wedge_table(*shape)
    assert_reduction_of(multiindex.wedge_table(*shape), (ia, ib), iout, sign)


def test_cached_tables_are_read_only():
    arrays = (*multiindex.wedge_table(6, 2, 2), multiindex.index_array(6, 2))
    for array in arrays:
        with pytest.raises(ValueError):
            array[0] = 0
    # freezing a table leaves the shared index arrays it was built from alone
    for array in multiindex.wedge_table(6, 2, 2):
        assert not np.shares_memory(array, multiindex.index_array(6, 4))


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
    ia, ib, sign = multiindex.wedge_table(6, 2, 2)
    # every output 4-set splits into C(4, 2) ordered (a, b) parts
    assert len(sign) == 6
    assert len(ia) == len(ib) == multiindex.coefficient_count(6, 4) * 6
    assert set(sign.tolist()) <= {-1.0, 1.0}
    # two gathers of N*P intp entries and P signs: half of the four
    # N*P-entry arrays (gathers, output index, tiled sign) of a scatter table
    table_bytes = sum(array.nbytes for array in multiindex.wedge_table(12, 4, 4))
    assert table_bytes == 2 * 495 * 70 * 8 + 70 * 8
    assert table_bytes <= 0.51 * 4 * 495 * 70 * 8


@pytest.mark.parametrize("dim, deg_a", [(4, 2), (8, 2), (8, 4), (8, 6), (12, 2), (12, 4), (12, 6), (12, 10), (6, 0)])
def test_first_row_table_is_the_wedge_table_where_the_2_part_holds_the_smallest_index(dim, deg_a):
    ia, ib, iout, sign = oracle_wedge_table(dim, deg_a, 2)
    pairs = multiindex.index_tuples(dim, 2)
    unions = multiindex.index_tuples(dim, deg_a + 2)
    first = np.array([pairs[b][0] == unions[r][0] for b, r in zip(ib, iout)], dtype=bool)
    assert first.sum() == (deg_a + 1) * len(unions)
    iout = np.repeat(np.arange(len(unions)), deg_a + 1)
    assert_reduction_of(multiindex.first_row_table(dim, deg_a), (ia[first], ib[first]), iout, sign[first])


def unblocked(ix, iy, sign, x, y):
    """wedge_scatter in one block: every row reduced by one matrix product."""
    return (x[ix] * y[iy]).reshape(-1, len(sign)) @ sign


def test_blocked_reduction_matches_unblocked_exactly():
    # each row is reduced by the same length-W product in or out of a
    # block, so blocking changes no bit of the result
    rng = np.random.default_rng(2)
    for dim, p, q in ((12, 4, 4), (12, 6, 2)):
        table = multiindex.wedge_table(dim, p, q)
        assert len(table[0]) > 2 * kernels.BLOCK
        a = rng.standard_normal(multiindex.coefficient_count(dim, p)) * (1 + 1j)
        b = rng.standard_normal(multiindex.coefficient_count(dim, q)) * (1 - 2j)
        assert np.array_equal(kernels.wedge_scatter(*table, a, b), unblocked(*table, a, b))


@pytest.mark.parametrize("shape", [(12, 4, 4), (12, 6, 2), (8, 4, 2), (4, 2, 2)])
def test_a_stacked_scatter_gives_each_form_the_bits_it_gets_alone(shape):
    # whole forms share a block when one form's table fits, rows of one
    # form do otherwise; in both, a form is reduced as it is alone
    dim, p, q = shape
    table = multiindex.wedge_table(*shape)
    rng = np.random.default_rng(4)
    a = rng.standard_normal((2, 3, multiindex.coefficient_count(dim, p))) * (1 + 1j)
    b = rng.standard_normal((2, 3, multiindex.coefficient_count(dim, q))) * (1 - 2j)
    stacked = kernels.wedge_scatter(*table, a, b)
    assert stacked.shape == (2, 3, comb(dim, p + q))
    for i in range(2):
        for j in range(3):
            assert stacked[i, j].tobytes() == kernels.wedge_scatter(*table, a[i, j], b[i, j]).tobytes()
    empty = kernels.wedge_scatter(*table, a[:0, 0], b[:0, 0])
    assert empty.shape == (0, comb(dim, p + q))


def test_traced_wedge_counts_the_products_it_computes():
    # the benchmark's tracer counts kernels.wedge_scatter's first positional
    # array as the products computed; a (12, 4, 4) wedge computes
    # C(12, 8) outputs of C(8, 4) products each
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        from tracing import Tracer
    finally:
        sys.path.pop(0)
    rng = np.random.default_rng(3)
    a = ComplexKForm(12, 4, rng.standard_normal(multiindex.coefficient_count(12, 4)) + 0j)
    b = ComplexKForm(12, 4, rng.standard_normal(multiindex.coefficient_count(12, 4)) * 1j)
    with Tracer().installed() as tracer:
        wedge(a, b)
    assert tracer.scatter_entries == comb(12, 8) * comb(8, 4)
