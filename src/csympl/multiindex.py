"""Sorted multi-index bookkeeping for dense exterior-algebra storage.

A k-form on R^m is stored as one complex coefficient per strictly
increasing index tuple, ordered as ``itertools.combinations(range(m), k)``
produces them.  The tables built here flatten wedge products and
contractions into gather/scatter index arrays that the numeric kernels
(:mod:`csympl.kernels`) consume; tables are cached per shape since they
only depend on (dim, degrees), and are read-only since every caller shares
them.

The tables are built by whole-array ranking: the position of a sorted
tuple among all tuples of its length is read off the combinatorial number
system (Knuth, TAOCP Vol. 4A, 7.2.1.3), one tuple slot at a time.
"""

from functools import lru_cache
from itertools import combinations
from math import comb

import numpy as np


@lru_cache(maxsize=None)
def index_tuples(dim: int, degree: int) -> tuple:
    """All strictly increasing index tuples of the given length, lex order."""
    return tuple(combinations(range(dim), degree))


@lru_cache(maxsize=None)
def index_positions(dim: int, degree: int) -> dict:
    return {idx: pos for pos, idx in enumerate(index_tuples(dim, degree))}


def _read_only(*arrays):
    for array in arrays:
        array.setflags(write=False)
    return arrays


def _subtuple_ranks(dim: int, rows: np.ndarray, slots: np.ndarray) -> np.ndarray:
    """(len(rows), len(slots)) positions of the sub-tuples ``rows[:, s]``,
    one per increasing slot tuple ``s`` of ``slots``, among all sorted
    tuples of that length drawn from range(dim).

    The position of c_0 < ... < c_{k-1} is
    C(dim, k) - 1 - sum_j C(dim - 1 - c_j, k - j); the sum is accumulated
    one slot j at a time, so the largest temporary is one output-sized array.
    """
    k = slots.shape[1]
    # binom[c, r] = C(dim - 1 - c, r): row c weighs index value c
    binom = np.array(
        [[comb(dim - 1 - c, r) for r in range(k + 1)] for c in range(dim)], dtype=np.intp
    ).reshape(dim, k + 1)
    ranks = np.full((rows.shape[0], slots.shape[0]), comb(dim, k) - 1, dtype=np.intp)
    for j in range(k):
        ranks -= binom[:, k - j][rows][:, slots[:, j]]
    return ranks


@lru_cache(maxsize=None)
def wedge_table(dim: int, deg_a: int, deg_b: int):
    """Scatter table for the wedge of a deg_a-form with a deg_b-form.

    Returns (ia, ib, iout, sign) flat arrays: every output coefficient is
    the signed sum over splittings of its index set into a deg_a part and
    a deg_b part, the splittings in ``combinations(union, deg_a)`` order.
    """
    out = index_array(dim, deg_a + deg_b)
    # which positions of a sorted union go to the deg_a part; the deg_b
    # parts are their complements, and complementing reverses lex order
    left = index_array(deg_a + deg_b, deg_a)
    right = index_array(deg_a + deg_b, deg_b)[::-1]
    # sorting left + right moves left[j] past the left[j] - j right slots before it
    inversions = left.sum(axis=1) - deg_a * (deg_a - 1) // 2
    pattern_sign = np.where(inversions % 2, -1.0, 1.0)
    ia = _subtuple_ranks(dim, out, left).reshape(-1)
    ib = _subtuple_ranks(dim, out, right).reshape(-1)
    iout = np.repeat(np.arange(len(out), dtype=np.intp), len(left))
    sign = np.tile(pattern_sign, len(out))
    return _read_only(ia, ib, iout, sign)


@lru_cache(maxsize=None)
def contraction_table(dim: int, degree: int):
    """Scatter table for the interior product with a vector.

    (iin, icomp, iout, sign): coefficient iin contributes
    sign * v[icomp] to output coefficient iout, with sign (-1)^r for the
    r-th slot of the input index tuple.
    """
    rows = index_array(dim, degree)
    # kept[r] lists the slots left after dropping slot r
    kept = np.arange(degree - 1) + (np.arange(degree - 1) >= np.arange(degree)[:, None])
    iin = np.repeat(np.arange(len(rows), dtype=np.intp), degree)
    icomp = rows.flatten()
    iout = _subtuple_ranks(dim, rows, kept).reshape(-1)
    sign = np.tile(np.where(np.arange(degree) % 2, -1.0, 1.0), len(rows))
    return _read_only(iin, icomp, iout, sign)


def coefficient_count(dim: int, degree: int) -> int:
    return comb(dim, degree)


@lru_cache(maxsize=None)
def index_array(dim: int, degree: int) -> np.ndarray:
    """(count, degree) integer array of the index tuples."""
    rows = np.asarray(index_tuples(dim, degree), dtype=np.intp).reshape(
        coefficient_count(dim, degree), degree
    )
    rows.setflags(write=False)
    return rows
