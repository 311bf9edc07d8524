"""Gather-reduce kernel for the dense exterior-algebra products, in numpy."""

import numpy as np

#: Names the one numpy implementation of the product kernel.
BACKEND = "python"

#: Products handled per block.  A block's temporaries hold at most 4096
#: complex values (64 KiB) each, which glibc serves from memory the heap
#: already holds.  Whole-table temporaries (217 KiB on the dim-12 4 ^ 2
#: and 6 ^ 2 tables) are fresh pages from the OS in some processes (mmap, or a heap
#: top trimmed on every free) and not in others, depending on the
#: allocation history; unblocked, the dim-12 4 ^ 2 and 4 ^ 4 wedges ran
#: up to 2x slower.
BLOCK = 4096


def wedge_scatter(ix, iy, sign, x, y):
    """Fixed-width signed gather-reduce from a `multiindex` product table.

    With ``W = len(sign)``, output coefficient r is
    ``sum_w sign[w] * x[ix[r*W + w]] * y[iy[r*W + w]]``.  The wedge
    ``a ^ b`` is ``wedge_scatter(*wedge_table(...), a, b)``.  Rows are
    reduced a block of at most `BLOCK` products at a time.
    """
    width = len(sign)
    nout = len(ix) // width
    out = np.empty(nout, dtype=np.complex128)
    rows = max(1, BLOCK // width)
    for r0 in range(0, nout, rows):
        r1 = min(r0 + rows, nout)
        terms = x[ix[r0 * width : r1 * width]]
        terms *= y[iy[r0 * width : r1 * width]]
        out[r0:r1] = terms.reshape(r1 - r0, width) @ sign
    return out
