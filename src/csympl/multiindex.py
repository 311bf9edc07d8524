"""Sorted multi-index bookkeeping for dense exterior-algebra storage.

A k-form on R^m is stored as one complex coefficient per strictly
increasing index tuple, ordered as ``itertools.combinations(range(m), k)``
produces them.  The tables built here turn wedge products into
fixed-width gather-reduce tables for :func:`csympl.kernels.wedge_scatter`:
each output coefficient is a signed sum of the same number W of products,
so a table is two flat gather arrays of W entries per output, in output
order, plus the W signs every output shares.  ``wedge_table`` sums every
splitting of an output's index set; ``first_row_table`` keeps the
splittings a 2-form's power needs, by the Pfaffian's first-row expansion.
Tables are cached per shape since they only depend on (dim, degrees), and
are read-only since every caller shares them.

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


#: Ranks computed per block while building a table.  The builder then holds
#: the finished arrays plus one block, so a build peaks at the table's own
#: size and not at half as much again.
RANK_BLOCK = 1 << 16


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
    one slot j at a time over a block of rows, so the largest temporary is
    RANK_BLOCK entries rather than one more output-sized array.
    """
    k = slots.shape[1]
    # binom[c, r] = C(dim - 1 - c, r): row c weighs index value c
    binom = np.array(
        [[comb(dim - 1 - c, r) for r in range(k + 1)] for c in range(dim)], dtype=np.intp
    ).reshape(dim, k + 1)
    ranks = np.full((rows.shape[0], slots.shape[0]), comb(dim, k) - 1, dtype=np.intp)
    step = max(1, RANK_BLOCK // slots.shape[0])
    for lo in range(0, rows.shape[0], step):
        for j in range(k):
            ranks[lo : lo + step] -= binom[:, k - j][rows[lo : lo + step]][:, slots[:, j]]
    return ranks


def _splitting_table(dim: int, left: np.ndarray, right: np.ndarray):
    """Gather-reduce table over the splittings of each output index set
    whose first part takes the union's slots ``left[p]`` and whose second
    part takes ``right[p]``, one row p per splitting."""
    deg_a = left.shape[1]
    out = index_array(dim, deg_a + right.shape[1])
    # sorting left + right moves left[j] past the left[j] - j right slots before it
    inversions = left.sum(axis=1) - deg_a * (deg_a - 1) // 2
    sign = np.where(inversions % 2, -1.0, 1.0)
    ia = _subtuple_ranks(dim, out, left).reshape(-1)
    ib = _subtuple_ranks(dim, out, right).reshape(-1)
    return _read_only(ia, ib, sign)


@lru_cache(maxsize=None)
def wedge_table(dim: int, deg_a: int, deg_b: int):
    """Gather-reduce table for the wedge of a deg_a-form with a deg_b-form.

    Returns (ia, ib, sign): output coefficient r is
    ``sum_p sign[p] * a[ia[r*P + p]] * b[ib[r*P + p]]``, one term per
    splitting of its index set into a deg_a part and a deg_b part, the
    P = C(deg_a + deg_b, deg_a) splittings in ``combinations(union, deg_a)``
    order.  The sign of a splitting depends only on which slots of the
    union go to the deg_a part, so the P signs are shared by every output.
    """
    # which positions of a sorted union go to the deg_a part; the deg_b
    # parts are their complements, and complementing reverses lex order
    left = index_array(deg_a + deg_b, deg_a)
    right = index_array(deg_a + deg_b, deg_b)[::-1]
    return _splitting_table(dim, left, right)


@lru_cache(maxsize=None)
def first_row_table(dim: int, deg_a: int):
    """``wedge_table(dim, deg_a, 2)`` kept at the deg_a + 1 splittings whose
    2-part holds the smallest index s1 of the output index set S.

    For a 2-form a with matrix A and even deg_a = 2k, the power
    a^{k+1} = (k+1) * ``wedge_scatter(*first_row_table(dim, 2k), a^k, a)``.
    That is the Pfaffian's expansion along its first row: a^j has the
    coefficients (a^j)_S = j! Pf(A_S) on the principal minors A_S, and with
    S = {s1 < s2 < ...}, Pf(A_S) = sum_{j >= 2} (-1)^j A[s1, sj]
    Pf(A_{S - {s1, sj}}), whose signs are the wedge table's at those
    splittings.  The full table sums all C(2k + 2, 2) splittings, which is
    k + 1 times the first row's sum, so the table gives the same product,
    exact but for rounding, with 1/(k + 1) of the terms.
    """
    # the deg_a parts that miss slot 0 are the last deg_a + 1 in lex
    # order, and their complements {0, j} the last of the reversed pairs
    left = index_array(deg_a + 2, deg_a)[-(deg_a + 1) :]
    right = index_array(deg_a + 2, 2)[::-1][-(deg_a + 1) :]
    return _splitting_table(dim, left, right)


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
