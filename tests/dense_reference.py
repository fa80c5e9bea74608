"""Dense references for the sparse elimination, shared by the tests.

The former dense rref and the kernel read off it, kept independent of
mapscat.linalg's elimination loop so that tests of rref, kernel_basis and
the hom-space assemblers compare against a second implementation rather
than against the code under test.  The former isomorphism test, which
inverts every vertex matrix, runs on the dense rref too.  So do two
former pieces of the functor realization, the arrow pick with one rank
per candidate and Phi of a morphism assembled from a projection onto
each cokernel and a section of it, and the former projection of a
quotient, which inverts the basis completed by standard vectors.

Two former pieces of the exact structure S are kept beside them: the
three-column membership test, with its kernel column built by the snake
lemma and split searches at each level, and the basis of the morphisms
killed by the cokernel functor, built from level homotopies.  The former
Fitting split factors the minimal polynomial of an endomorphism, with the
polynomial evaluation it needs.

The former construction of an almost split sequence from its
presentation is kept too: the Ext^1 coordinates read from a full basis
of Hom(P0, N), each hom composed with the syzygy inclusion, and the
pushout built on a direct_sum, with a column-space basis of the
submodule and the epi induced through one solve per vertex.
"""

import numpy as np

from mapscat import linalg as la
from mapscat.algebra import path_source, path_target
from mapscat.maps import MapMorphism, SExactness, is_short_exact, split_epi_section
from mapscat.modules import (
    Module,
    ModuleHom,
    act_along,
    combine,
    compose,
    direct_sum,
    end_radical,
    hom_basis,
    hom_basis_coordinates,
    hom_into_sub,
    hom_into_sum,
    hom_scale,
    hom_through_epi,
    is_epi,
    kernel,
    opposite_of,
    quotient,
    radical_bases,
    submodule,
    vectorize_hom,
    zero_hom,
)


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


def reference_arrow_picks(reps, p):
    """The former arrow pick of functor_realization: for each ordered pair
    (i, j), the homs of rad(reps[i], reps[j]) that raise the rank of the
    rad^2 span and of the homs picked before them, one rank per candidate.
    Returns (i, j, hom) in pick order."""
    n = len(reps)
    rad = [[end_radical(reps[i]) if i == j else hom_basis(reps[i], reps[j]) for j in range(n)] for i in range(n)]
    out = []
    for i in range(n):
        for j in range(n):
            acc = [vectorize_hom(compose(v, u)) for z in range(n) for u in rad[i][z] for v in rad[z][j]]
            rank = len(reference_rref(np.stack(acc, axis=1), p)[1]) if acc else 0
            for b in rad[i][j]:
                trial = acc + [vectorize_hom(b)]
                r2 = len(reference_rref(np.stack(trial, axis=1), p)[1])
                if r2 > rank:
                    out.append((i, j, b))
                    acc, rank = trial, r2
    return out


def _reference_eval(x, t, p):
    """The former evaluation of Phi(x) at t: the basis of Hom(t, x.m2), a
    projection of its coordinates onto the cokernel of Hom(t, x.f), and a
    section of that projection."""
    b2 = hom_basis(t, x.m2)
    action = hom_basis_coordinates((compose(x.f, b) for b in hom_basis(t, x.m1)), b2)
    proj = reference_kernel(action.T, p).T
    section = la.solve(proj, la.eye(proj.shape[0]), p)
    return b2, proj, section


def reference_phi_hom_mats(corpus, u):
    """Phi(u) at each corpus object by the former formula proj . post . section,
    post being postcomposition by u.h2 in the bases of Hom(t, -)."""
    p = u.source.algebra.p
    mats = []
    for t in corpus:
        bx, _, section = _reference_eval(u.source, t, p)
        by, proj, _ = _reference_eval(u.target, t, p)
        post = hom_basis_coordinates((compose(u.h2, b) for b in bx), by)
        mats.append(la.matmul(proj, la.matmul(post, section, p), p))
    return mats


def reference_quotient_projection(b, p):
    """The former projection of quotient at one vertex: the rows of the
    inverse of [b | standard vectors at the non-pivot places] that belong
    to the standard vectors; None if the columns of b are dependent."""
    d = b.shape[0]
    pivots = reference_rref(b.T, p)[1]
    comp = la.eye(d)[:, [i for i in range(d) if i not in pivots]]
    full = np.hstack([b, comp])
    if full.shape[1] != d:
        return None
    aug, piv = reference_rref(np.hstack([full, la.eye(d)]), p)
    if piv[:d] != list(range(d)):
        return None
    return aug[b.shape[1] :, d:]


def reference_is_S_exact(u, v):
    """The former three-column membership test of S: the kernel column
    0 -> ker x.f -> ker e.f -> ker y.f -> 0, decided exact by nullities and
    split by a section search on the induced kernel map, and a section
    search on each level."""
    if not is_short_exact(u.gamma, v.gamma):
        raise ValueError("the given pair is not a short exact sequence")
    p = u.source.algebra.p
    nullity = [[d - la.rank(m, p) for d, m in zip(x.m1.dims, x.f.mats)] for x in (u.source, v.source, v.target)]
    kernel_exact = all(a + c == b for a, b, c in zip(*nullity))
    if kernel_exact:
        src_incl, tgt_incl = kernel(v.source.f)[1], kernel(v.target.f)[1]
        induced = hom_into_sub(tgt_incl, compose(v.h1, src_incl))
    splits = (
        kernel_exact and split_epi_section(induced) is not None,
        split_epi_section(v.h1) is not None,
        split_epi_section(v.h2) is not None,
    )
    return SExactness(kernel_exact, splits, kernel_exact and all(splits))


def reference_null_homotopic_basis(x, y):
    """The former basis of the morphisms x -> y killed by the cokernel
    functor: the (h1, h2) with h2 = y.f o s for some s: x.m2 -> y.m1, built
    as (s x.f, y.f s) plus pairs (k, 0) with y.f k = 0, and thinned to an
    independent subset by a dense rref."""
    p = x.algebra.p
    cands = [MapMorphism(x, y, compose(s, x.f), compose(y.f, s), check=False) for s in hom_basis(x.m2, y.m1)]
    kbasis = hom_basis(x.m1, y.m1)
    if kbasis:
        cols = np.stack([vectorize_hom(compose(y.f, k)) for k in kbasis], axis=1)
        kern = reference_kernel(cols, p)
        for j in range(kern.shape[1]):
            k = combine(x.m1, y.m1, kbasis, kern[:, j])
            cands.append(MapMorphism(x, y, k, zero_hom(x.m2, y.m2), check=False))
    if not cands:
        return []
    pivots = reference_rref(np.stack([vectorize_hom(c.gamma) for c in cands], axis=1), p)[1]
    return [cands[j] for j in pivots]


def reference_poly_eval(coeffs, a, p):
    """A polynomial (low-degree coefficients first) evaluated at a square matrix."""
    n = a.shape[0]
    out = la.zeros(n, n)
    power = la.eye(n)
    m = la.normalize(a, p)
    for c in coeffs:
        out = (out + c * power) % p
        power = la.matmul(power, m, p)
    return out


def reference_fitting_split(m, f):
    """The former Fitting split along f: m = ker f^a (+) ker r(f) for the
    minimal polynomial x^a r(x), r(0) != 0, of the block-diagonal matrix
    of f; None when f is invertible (a = 0) or nilpotent (r constant)."""
    p = m.algebra.p
    block = np.zeros((m.total_dim, m.total_dim), dtype=np.int64)
    off = 0
    for v, d in enumerate(m.dims):
        block[off : off + d, off : off + d] = f.mats[v]
        off += d
    mu = la.minimal_polynomial(block, p)
    a = next(i for i, c in enumerate(mu) if c)
    if a == 0 or a == len(mu) - 1:
        return None
    pieces = []
    for coeffs in ([0] * a + [1], mu[a:]):
        bases = [la.kernel_basis(reference_poly_eval(coeffs, x, p), p) for x in f.mats]
        sub, incl = submodule(m, bases)
        pieces.append((sub, incl, bases))
    (m1, i1, b1), (m2, i2, b2) = pieces
    projs1, projs2 = [], []
    for k, i in zip(b1, b2):
        inv = la.invert(np.hstack([k, i]), p)
        assert inv is not None, "Fitting kernels do not span"
        projs1.append(inv[: k.shape[1], :])
        projs2.append(inv[k.shape[1] :, :])
    return (m1, i1, ModuleHom(m, m1, projs1, check=True)), (m2, i2, ModuleHom(m, m2, projs2, check=True))


def _reference_paths(algebra, src, tgt):
    """Indices of the monomials src -> tgt, in monomial order."""
    q = algebra.quiver
    return [i for i, mo in enumerate(algebra.basis.monomials) if path_source(mo) == src and path_target(q, mo) == tgt]


def reference_projective(algebra, v):
    """The former P_v, built from its own path enumeration."""
    b, q = algebra.basis, algebra.quiver
    local = {w: _reference_paths(algebra, v, w) for w in range(q.n_vertices)}
    pos = {gi: j for w in local for j, gi in enumerate(local[w])}
    dims = [len(local[w]) for w in range(q.n_vertices)]
    mats = []
    for a, (_, s, t) in enumerate(q.arrows):
        mat = la.zeros(dims[t], dims[s])
        for col, gi in enumerate(local[s]):
            for ti, c in b.left_action[a].get(gi, {}).items():
                mat[pos[ti], col] = c
        mats.append(mat)
    return Module(algebra, dims, mats, name=f"P{v + 1}")


def reference_projective_sum(algebra, vertices, name=""):
    """The direct_sum of the former P_v, with inclusions and projections."""
    return direct_sum(algebra, [reference_projective(algebra, v) for v in vertices], name=name)


def reference_hom_from_generator_images(psum, vertices, target, images):
    """The former generator hom: one hom per summand of psum, side by side."""
    p = target.algebra.p
    b = target.algebra.basis
    parts = []
    for i, v in enumerate(vertices):
        mats = []
        for w in range(len(target.dims)):
            monos = _reference_paths(target.algebra, v, w)
            mat = la.zeros(target.dims[w], len(monos))
            for col, gi in enumerate(monos):
                mat[:, col] = la.matmul(act_along(target, b.monomials[gi]), images[i].reshape(-1, 1), p)[:, 0]
            mats.append(mat)
        parts.append(ModuleHom(psum.parts[i], target, mats, check=False))
    total = [np.hstack([h.mats[w] for h in parts]) if parts else la.zeros(target.dims[w], 0) for w in range(len(target.dims))]
    return ModuleHom(psum.module, target, total, check=True)


def reference_projective_cover(m):
    """The former cover: (the direct_sum of the P_v, their vertices, the epi)."""
    p = m.algebra.p
    vertices, gen_images = [], []
    for v, b in enumerate(radical_bases(m)):
        pivots = la.rref(b.T, p)[1] if b.shape[1] else []
        for i in (i for i in range(m.dims[v]) if i not in pivots):
            vertices.append(v)
            gen_images.append(np.eye(m.dims[v], dtype=np.int64)[i])
    psum = reference_projective_sum(m.algebra, vertices, name=f"P({m.name})")
    epi = reference_hom_from_generator_images(psum, vertices, m, gen_images)
    assert is_epi(epi)
    return psum, vertices, epi


def _op_element_of(algebra, vec, src, tgt):
    """Rewrite an element of e_tgt A e_src (coords over A-monomials from
    src to tgt) as {op-monomial index: coeff} over the opposite algebra."""
    op = opposite_of(algebra)
    out = {}
    for c, gi in zip(vec, _reference_paths(algebra, src, tgt)):
        if not c:
            continue
        rev = (tgt, tuple(reversed(algebra.basis.monomials[gi][1])))
        for oi, oc in op.basis.reduce_path(rev).items():
            out[oi] = (out.get(oi, 0) + int(c) * oc) % algebra.p
    return {k: v for k, v in out.items() if v}


def reference_star_of_projective_hom(sum_src, src_vs, sum_tgt, tgt_vs, h):
    """The former d*: h between the direct sums sum_src and sum_tgt, read
    through their inclusions and projections, starred between the opposite
    sums on tgt_vs and on src_vs."""
    algebra = h.source.algebra
    op = opposite_of(algebra)
    p = algebra.p
    star_src = reference_projective_sum(op, tgt_vs)
    star_tgt = reference_projective_sum(op, src_vs)
    images = []
    for j, w in enumerate(tgt_vs):
        img = np.zeros(star_tgt.module.dims[w], dtype=np.int64)
        for i, v in enumerate(src_vs):
            gen = la.zeros(sum_src.parts[i].dims[v], 1)
            gen[_reference_paths(algebra, v, v).index(algebra.basis.index[(v, ())]), 0] = 1
            moved = la.matmul(h.mats[v], la.matmul(sum_src.inclusions[i].mats[v], gen, p), p)
            comp = la.matmul(sum_tgt.projections[j].mats[v], moved, p)[:, 0]
            local = _reference_paths(op, v, w)
            vec = np.zeros(star_tgt.parts[i].dims[w], dtype=np.int64)
            for oi, c in _op_element_of(algebra, comp, w, v).items():
                vec[local.index(oi)] = c
            img = (img + la.matmul(star_tgt.inclusions[i].mats[w], vec.reshape(-1, 1), p)[:, 0]) % p
        images.append(img)
    return reference_hom_from_generator_images(star_src, tgt_vs, star_tgt.module, images)


def reference_ext_classes(pres, n, cocycles):
    """The former qmat: the coordinates over cocycles = hom_basis(K, n) of
    h o (K -> P0) for every h of hom_basis(P0, n), and the canonical basis
    of the rows that annihilate them."""
    from_p0 = hom_basis(pres.p0.module, n)
    cob = hom_basis_coordinates((compose(h, pres.syzygy_incl) for h in from_p0), cocycles)
    return reference_kernel(cob.T, n.algebra.p).T


def reference_extension(cocycle, incl, epi):
    """The former pushout: (E, the leg N -> E, the epi E -> X) from the
    quotient of the direct_sum N (+) P by the column space of [cocycle; -incl]."""
    alg = cocycle.source.algebra
    sd = direct_sum(alg, [cocycle.target, incl.target])
    w = hom_into_sum(sd, [cocycle, hom_scale(alg.p - 1, incl)])
    e, proj = quotient(sd.module, [la.column_space_basis(x, alg.p) for x in w.mats])
    return e, compose(proj, sd.inclusions[0]), hom_through_epi(proj, compose(epi, sd.projections[1]))
