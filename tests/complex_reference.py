"""References for the complexes of mapscat.maps, shared by the tests.

The package writes a complex as one module over the chain algebra and
reads chain maps, the disk-cover split and Hom-exactness off hom_basis
and hom_complex_dims.  These references work degree by degree instead:
the chain-map system is assembled with one ``np.kron`` pair per square and
reduced by the dense reference elimination, the split is a rank test on
that basis, and Hom-exactness is the covariant rank loop over Hom(X, -).
"""

import numpy as np

from dense_reference import reference_kernel, reference_rref
from mapscat import linalg as la
from mapscat.maps import ProjComplex, disk_cover
from mapscat.modules import compose, hom_basis, vectorize_hom


def kron_chain_kernel(src, tgt):
    """Canonical basis of the chain maps src -> tgt, as columns.

    The arrow squares of every degree and the differential squares
    tgt.d sigma_k = sigma_(k-1) src.d at every vertex, one np.kron pair
    each, with the kernel taken by the dense reference elimination.  The
    unknown sigma_k at vertex v is block (n - k) * nv + v, top degree
    first, as in complex_module.
    """
    alg = src.modules[0].algebra
    p, nv = alg.p, alg.quiver.n_vertices
    n = src.length

    def block(k, v):
        return (n - k) * nv + v

    sizes = [tgt.modules[k].dims[v] * src.modules[k].dims[v] for k in range(n, -1, -1) for v in range(nv)]
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    total = int(offsets[-1])
    squares = [
        (tgt.modules[k].mats[i], block(k, s), block(k, t), src.modules[k].mats[i])
        for k in range(n + 1)
        for i, (_, s, t) in enumerate(alg.quiver.arrows)
    ] + [
        (tgt.diffs[k - 1].mats[v], block(k, v), block(k - 1, v), src.diffs[k - 1].mats[v])
        for k in range(1, n + 1)
        for v in range(nv)
    ]
    rows = []
    for a, s, t, b in squares:
        # A X_s = X_t B, row-major: vec(A X) = (A kron I) vec(X), vec(X B) = (I kron B^T) vec(X)
        row = la.zeros(a.shape[0] * b.shape[1], total)
        row[:, offsets[s] : offsets[s + 1]] = np.kron(a, la.eye(b.shape[1]))
        row[:, offsets[t] : offsets[t + 1]] -= np.kron(la.eye(a.shape[0]), b.T)
        rows.append(row)
    return reference_kernel(np.vstack(rows), p)


def _reference_rank(a, p):
    return len(reference_rref(a, p)[1]) if a.size else 0


def reference_cover_splits(cpx):
    """Whether pi sigma = 1 for some sigma in the span of kron_chain_kernel(cpx, Q),
    Q the disk cover of cpx and pi its covering chain map."""
    qcpx, pis, _ = disk_cover(cpx)
    p, nv, n = cpx.modules[0].algebra.p, len(cpx.modules[0].dims), cpx.length
    kern = kron_chain_kernel(cpx, qcpx)
    cols = []
    for col in kern.T:
        pieces, off = [], 0
        for k in range(n, -1, -1):
            for v in range(nv):
                r, c = qcpx.modules[k].dims[v], cpx.modules[k].dims[v]
                sigma = col[off : off + r * c].reshape(r, c)
                pieces.append((pis[k].mats[v] @ sigma % p).flatten())
                off += r * c
        cols.append(np.concatenate(pieces))
    one = np.concatenate([la.eye(cpx.modules[k].dims[v]).flatten() for k in range(n, -1, -1) for v in range(nv)])
    if not cols:
        return not one.any()
    system = np.stack(cols, axis=1)
    return _reference_rank(system, p) == _reference_rank(np.hstack([system, one[:, None]]), p)


def reference_rpdim(cpx):
    """The first r whose r-th truncation's disk cover splits, by reference_cover_splits."""
    r = 0
    while not reference_cover_splits(cpx):
        cpx = ProjComplex(cpx.modules[1:], cpx.diffs[1:])
        r += 1
    return r


def reference_hom_exact(cpx, corpus):
    """The covariant rank loop: Hom(X, cpx) exact in all degrees > 0 for
    every X in corpus, reading the kernel of Hom(X, d_(k-1)) against the
    rank coming in from degree k + 1."""
    p = cpx.modules[0].algebra.p
    n = cpx.length
    for x in corpus:
        incoming = 0
        for k in range(n, 0, -1):
            basis_k = hom_basis(x, cpx.modules[k])
            cols = [vectorize_hom(compose(cpx.diffs[k - 1], h)) for h in basis_k]
            mat = np.stack(cols, axis=1) if cols else la.zeros(0, 0)
            rank_down = la.rank(mat, p) if mat.size else 0
            if len(basis_k) - rank_down != incoming:
                return False  # at k == n the kernel must be 0: injective on (X, -)
            incoming = rank_down
    return True
