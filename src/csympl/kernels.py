"""Gather-reduce kernel for the dense exterior-algebra products, in numpy."""

from math import prod

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
    ``sum_w sign[w] * x[..., ix[r*W + w]] * y[..., iy[r*W + w]]``, gathered
    along the last axis of operands stacked alike on the leading axes, one
    form per stack entry.  The wedge ``a ^ b`` is
    ``wedge_scatter(*wedge_table(...), a, b)``.

    A block holds at most `BLOCK` products: a run of whole forms when one
    form's table fits, else a run of rows of one form.  A form's rows are
    blocked alike in any stack, and each block reduces every form's rows
    by its own matrix-vector product, so a form gets the same bits in a
    stack as alone.
    """
    width = len(sign)
    nout = len(ix) // width
    lead = x.shape[:-1]
    x, y = x.reshape(prod(lead), x.shape[-1]), y.reshape(prod(lead), y.shape[-1])
    out = np.empty((len(x), nout), dtype=np.complex128)
    rows = max(1, min(nout, BLOCK // max(width, 1)))
    forms = max(1, BLOCK // max(rows * width, 1))
    for f0 in range(0, len(x), forms):
        f1 = min(f0 + forms, len(x))
        for r0 in range(0, nout, rows):
            r1 = min(r0 + rows, nout)
            terms = np.take(x[f0:f1], ix[r0 * width : r1 * width], axis=-1)
            terms *= np.take(y[f0:f1], iy[r0 * width : r1 * width], axis=-1)
            out[f0:f1, r0:r1] = terms.reshape(f1 - f0, r1 - r0, width) @ sign
    return out.reshape(*lead, nout)
