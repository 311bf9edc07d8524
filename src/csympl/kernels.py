"""Scatter kernels for the dense exterior-algebra products, in numpy."""

import numpy as np

#: Names the one numpy implementation of the scatter kernels.
BACKEND = "python"

#: Table entries handled per block.  A block's two temporaries hold 4096
#: complex values (64 KiB) each, which glibc serves from memory the heap
#: already holds.  Whole-table temporaries (550 KiB on the dim-12 4 ^ 4
#: table) are fresh pages from the OS in some processes (mmap, or a heap
#: top trimmed on every free) and not in others, depending on the
#: allocation history, so a wedge's cost would vary by up to 1.6x from one
#: process to the next.
BLOCK = 4096


def _scatter_products(ix, iy, iout, sign, x, y, nout):
    """out[iout[k]] += sign[k] * x[ix[k]] * y[iy[k]], block by block in entry order."""
    out = np.zeros(nout, dtype=np.complex128)
    for lo in range(0, len(ix), BLOCK):
        hi = lo + BLOCK
        terms = x[ix[lo:hi]]
        terms *= y[iy[lo:hi]]
        terms *= sign[lo:hi]
        np.add.at(out, iout[lo:hi], terms)
    return out


def wedge_scatter(ia, ib, iout, sign, a, b, nout):
    """Coefficients of a ^ b from a `multiindex.wedge_table`."""
    return _scatter_products(ia, ib, iout, sign, a, b, nout)


def contract_scatter(iin, icomp, iout, sign, v, a, nout):
    """Coefficients of iota_v a from a `multiindex.contraction_table`."""
    return _scatter_products(icomp, iin, iout, sign, v, a, nout)
