"""Dense references for the sparse elimination, shared by the tests.

The former dense rref and the kernel read off it, kept independent of
mapscat.linalg's elimination loop so that tests of rref, kernel_basis and
the hom-space assemblers compare against a second implementation rather
than against the code under test.
"""

import numpy as np

from mapscat import linalg as la


def reference_rref(a, p):
    """The former dense rref: one numpy pass per pivot over a whole column
    and the rows it clears."""
    m = la.normalize(a, p)
    rows, cols = m.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(m[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            m[[r, i]] = m[[i, r]]
        m[r] = (m[r] * la.inv_mod(m[r, c], p)) % p
        other = np.nonzero(m[:, c])[0]
        other = other[other != r]
        if other.size:
            m[other] = (m[other] - np.outer(m[other, c], m[r])) % p
        pivots.append(c)
        r += 1
    return m, pivots


def reference_kernel(a, p):
    cols = a.shape[1]
    if cols == 0:
        return la.zeros(0, 0)
    r, pivots = reference_rref(a, p)
    free = [c for c in range(cols) if c not in pivots]
    basis = la.zeros(cols, len(free))
    for j, fc in enumerate(free):
        basis[fc, j] = 1
        for i, pc in enumerate(pivots):
            basis[pc, j] = (-r[i, fc]) % p
    return basis
