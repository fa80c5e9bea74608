"""Dense references for the sparse elimination, shared by the tests.

The former dense rref and the kernel read off it, kept independent of
mapscat.linalg's elimination loop so that tests of rref, kernel_basis and
the hom-space assemblers compare against a second implementation rather
than against the code under test.  The former isomorphism test, which
inverts every vertex matrix, runs on the dense rref too.
"""

import numpy as np

from mapscat import linalg as la
from mapscat.modules import hom_basis, zero_hom


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


def reference_iso_between(m, n):
    """The former iso_between: the first element of hom_basis(m, n) whose
    vertex matrices are all invertible, or None."""
    if m.dims != n.dims:
        return None
    if m.total_dim == 0:
        return zero_hom(m, n)
    p = m.algebra.p
    for h in hom_basis(m, n):
        if all(len(reference_rref(x, p)[1]) == x.shape[0] for x in h.mats):
            return h
    return None
