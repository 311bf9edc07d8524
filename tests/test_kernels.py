"""Scatter kernels and the multi-index tables."""

import numpy as np

from csympl import kernels, multiindex


def test_merge_sign_examples():
    assert multiindex.merge_sign((0, 2), (1, 3)) == -1
    assert multiindex.merge_sign((0, 1), (2, 3)) == 1
    assert multiindex.merge_sign((), (0, 1)) == 1
    assert multiindex.merge_sign((3,), (0, 1, 2)) == -1


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
