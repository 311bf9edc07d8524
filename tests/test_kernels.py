"""Compiled vs pure scatter kernels and the multi-index tables."""

import numpy as np
import pytest

from csympl import _scatter_py
from csympl import kernels, multiindex

try:
    from csympl import _fastscatter
except ImportError:
    _fastscatter = None


def test_some_backend_selected():
    assert kernels.BACKEND in ("cython", "python")


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
        assert np.array_equal(_scatter_py.wedge_scatter(ia, ib, iout, sign, a, b, nout), expected)
    assert len(multiindex.wedge_table(12, 4, 4)[0]) > 2 * _scatter_py.BLOCK


@pytest.mark.skipif(_fastscatter is None, reason="compiled extension unavailable")
def test_backends_agree_on_wedge_scatter():
    rng = np.random.default_rng(0)
    for dim, p, q in ((4, 1, 1), (6, 2, 2), (8, 2, 4), (12, 2, 2)):
        ia, ib, iout, sign = multiindex.wedge_table(dim, p, q)
        a = rng.standard_normal(multiindex.coefficient_count(dim, p)) + 1j * rng.standard_normal(
            multiindex.coefficient_count(dim, p)
        )
        b = rng.standard_normal(multiindex.coefficient_count(dim, q)) + 1j * rng.standard_normal(
            multiindex.coefficient_count(dim, q)
        )
        nout = multiindex.coefficient_count(dim, p + q)
        pure = _scatter_py.wedge_scatter(ia, ib, iout, sign, a, b, nout)
        fast = _fastscatter.wedge_scatter(ia, ib, iout, sign, a, b, nout)
        assert np.allclose(pure, fast, atol=1e-13)


@pytest.mark.skipif(_fastscatter is None, reason="compiled extension unavailable")
def test_backends_agree_on_contract_scatter():
    rng = np.random.default_rng(1)
    for dim, k in ((4, 2), (6, 3), (10, 4)):
        iin, icomp, iout, sign = multiindex.contraction_table(dim, k)
        a = rng.standard_normal(multiindex.coefficient_count(dim, k)) + 0j
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        nout = multiindex.coefficient_count(dim, k - 1)
        pure = _scatter_py.contract_scatter(iin, icomp, iout, sign, v, a, nout)
        fast = _fastscatter.contract_scatter(iin, icomp, iout, sign, v, a, nout)
        assert np.allclose(pure, fast, atol=1e-13)


def test_pure_backend_forced_by_env(tmp_path):
    import os
    import subprocess
    import sys
    from pathlib import Path

    import csympl

    # The child imports the same csympl as this test, from any working
    # directory: put the package's parent directory (absolute) first on its
    # path, since an inherited relative PYTHONPATH such as "src" only
    # resolves from the repository root.
    package_root = str(Path(csympl.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", "from csympl import kernels; print(kernels.BACKEND)"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=dict(os.environ, CSYMPL_PURE="1", PYTHONPATH=pythonpath),
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "python"
