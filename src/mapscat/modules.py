"""Modules over a presented quiver algebra, as quiver representations.

A Module carries one dimension per vertex and one exact matrix per arrow
(for an arrow v -> w the matrix has shape dims[w] x dims[v] and acts on
column vectors).  Homs are tuples of vertex matrices forming commuting
squares.  Everything downstream (Auslander-Reiten translates, radicals of
endomorphism algebras, direct sum decompositions) reduces to exact linear
algebra over F_p on these matrices.
"""

from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from . import linalg as la
from .algebra import AlgebraPresentation, Path, path_source, path_target


class Module:
    """A finite-dimensional representation of a presented algebra.

    Immutable by contract: algebra, dims and mats never change after
    construction (only the report label name of a module nobody else
    holds yet may be set).  So a module keeps three of its own invariants
    once they are computed: the kernel of End(m) behind hom_basis(m, m),
    the rad End(m) coordinates behind end_radical(m) and decompose(m), and
    the summands of decompose(m).  They are stored as read-only numpy
    arrays and part modules, never as objects that refer back to the
    module, so a module with filled caches is still freed by reference
    counting alone.  Every call rebuilds its list of ModuleHoms from them,
    so a caller can change that list without touching the cache.

    Args:
        algebra: the AlgebraPresentation acted by.
        dims: dimension at each vertex.
        mats: one matrix per arrow of the quiver, aligned with
            algebra.quiver.arrows; arrow v -> w gets shape (dims[w], dims[v]).
        name: optional label used in reports.
    """

    def __init__(self, algebra: AlgebraPresentation, dims: Sequence[int], mats, name: str = ""):
        self._end_kernel: Optional[np.ndarray] = None  # hom_basis(self, self), as columns
        self._rad_coords: Optional[np.ndarray] = None  # rad End(self) over that basis
        # decompose(self): (part, inclusion, projection) per summand, the homs
        # as vectorize_hom arrays; (None, None, None) when self is indecomposable
        self._summands: Optional[List[Tuple[Optional["Module"], Optional[np.ndarray], Optional[np.ndarray]]]] = None
        self.algebra = algebra
        self.dims = tuple(int(d) for d in dims)
        q = algebra.quiver
        if len(self.dims) != q.n_vertices:
            raise ValueError(f"expected {q.n_vertices} dimensions, got {len(self.dims)}")
        if any(d < 0 for d in self.dims):
            raise ValueError("negative dimension")
        if len(mats) != len(q.arrows):
            raise ValueError(f"expected {len(q.arrows)} arrow matrices, got {len(mats)}")
        self.mats: List[np.ndarray] = []
        for i, m in enumerate(mats):
            _, s, t = q.arrows[i]
            m = la.normalize(np.asarray(m).reshape(self.dims[t], self.dims[s]), algebra.p)
            self.mats.append(m)
        self.name = name
        self._check_relations()

    def _check_relations(self):
        for r in self.algebra.relations:
            acc = None
            for c, path in r.terms:
                term = (c * act_along(self, path)) % self.algebra.p
                acc = term if acc is None else (acc + term) % self.algebra.p
            if acc is not None and acc.any():
                raise ValueError(f"representation violates a relation ({self.name or 'unnamed'})")

    @property
    def total_dim(self) -> int:
        return sum(self.dims)

    def is_zero(self) -> bool:
        return self.total_dim == 0

    def __repr__(self):
        tag = f" {self.name!r}" if self.name else ""
        return f"Module{tag} dims={self.dims}"


class ModuleHom:
    """A homomorphism: one matrix per vertex, commuting with all arrows.

    The vertex matrices are copied, reshaped and reduced mod p, unless
    the caller passes reduced=True for matrices it already holds in that
    form: int64 arrays of shape (target.dims[v], source.dims[v]) with
    entries in [0, p).  Those are kept as given, without a copy.  The
    trusted callers are unvectorize_hom (the kernel columns of hom_basis
    and the summand homs of decompose, views of arrays a Module keeps
    read-only), identity_hom, zero_hom, the products of compose, hom_add
    and hom_scale, and maps.MapMorphism, whose Gamma hom shares the
    matrices of the levels it is built from and whose level views share
    the matrices of its Gamma hom.
    """

    def __init__(self, source: Module, target: Module, mats, check: bool = True, reduced: bool = False):
        self.source = source
        self.target = target
        p = source.algebra.p
        if reduced:
            self.mats = list(mats)
        else:
            self.mats = [
                la.normalize(np.asarray(m).reshape(target.dims[v], source.dims[v]), p)
                for v, m in enumerate(mats)
            ]
        if check:
            q = source.algebra.quiver
            for i, (_, s, t) in enumerate(q.arrows):
                lhs = la.matmul(target.mats[i], self.mats[s], p)
                rhs = la.matmul(self.mats[t], source.mats[i], p)
                if (lhs != rhs).any():
                    raise ValueError("vertex matrices do not commute with the arrows")

    def is_zero(self) -> bool:
        return not any(m.any() for m in self.mats)

    def __repr__(self):
        return f"ModuleHom {self.source.dims} -> {self.target.dims}"


# -- elementwise utilities ----------------------------------------------------


def act_along(m: Module, path: Path) -> np.ndarray:
    """Matrix of the path acting on m (trivial path gives the identity).

    A path of k arrows costs k - 1 products, from its first arrow matrix
    on; a one-arrow path returns m's own matrix, not to be written into.
    """
    v, arrows = path
    if not arrows:
        return la.eye(m.dims[v])
    out = m.mats[arrows[0]]
    p = m.algebra.p
    for a in arrows[1:]:
        out = la.matmul(m.mats[a], out, p)
    return out


def identity_hom(m: Module) -> ModuleHom:
    return ModuleHom(m, m, [la.eye(d) for d in m.dims], check=False, reduced=True)

def zero_hom(source: Module, target: Module) -> ModuleHom:
    return ModuleHom(source, target, [la.zeros(target.dims[v], source.dims[v]) for v in range(len(source.dims))], check=False, reduced=True)


def compose(g: ModuleHom, f: ModuleHom) -> ModuleHom:
    """g o f (f acts first)."""
    if f.target is not g.source and f.target.dims != g.source.dims:
        raise ValueError("composition shape mismatch")
    p = f.source.algebra.p
    return ModuleHom(
        f.source,
        g.target,
        [la.matmul(g.mats[v], f.mats[v], p) for v in range(len(f.source.dims))],
        check=False,
        reduced=True,
    )


def hom_add(f: ModuleHom, g: ModuleHom) -> ModuleHom:
    p = f.source.algebra.p
    return ModuleHom(
        f.source, f.target, [(f.mats[v] + g.mats[v]) % p for v in range(len(f.mats))], check=False, reduced=True
    )


def hom_scale(c: int, f: ModuleHom) -> ModuleHom:
    p = f.source.algebra.p
    return ModuleHom(f.source, f.target, [(c * m) % p for m in f.mats], check=False, reduced=True)


def hom_sub(f: ModuleHom, g: ModuleHom) -> ModuleHom:
    return hom_add(f, hom_scale(f.source.algebra.p - 1, g))


def hom_equal(f: ModuleHom, g: ModuleHom) -> bool:
    return all((a == b).all() for a, b in zip(f.mats, g.mats))


def vectorize_hom(f: ModuleHom) -> np.ndarray:
    pieces = [m.flatten() for m in f.mats]
    return np.concatenate(pieces) if pieces else np.zeros(0, dtype=np.int64)


def unvectorize_hom(source: Module, target: Module, vec: np.ndarray) -> ModuleHom:
    """The hom with vectorize_hom(h) == vec, sharing vec's memory.

    vec must already be reduced: int64 with entries in [0, p), as the
    kernel columns of hom_basis and the products of combine are.
    """
    mats = []
    off = 0
    for v in range(len(source.dims)):
        size = source.dims[v] * target.dims[v]
        mats.append(vec[off : off + size].reshape(target.dims[v], source.dims[v]))
        off += size
    return ModuleHom(source, target, mats, check=False, reduced=True)


def combine(m: Module, n: Module, basis: Sequence[ModuleHom], coords: np.ndarray) -> ModuleHom:
    """The hom sum_i coords[i] basis[i]: m -> n (zero for an empty basis)."""
    if not basis:
        return zero_hom(m, n)
    flat = np.stack([vectorize_hom(b) for b in basis])
    return unvectorize_hom(m, n, coords @ flat % m.algebra.p)


def _frozen(a: np.ndarray) -> np.ndarray:
    """a itself, made read-only: the memoised arrays of a Module."""
    a.flags.writeable = False
    return a


def hom_basis(m: Module, n: Module) -> List[ModuleHom]:
    """Canonical basis of Hom(m, n), the kernel of the commuting squares.

    The one hom-space engine: chain maps of complexes and morphisms of
    map objects are hom_basis over chain_algebra.  The unknowns are the
    vertex matrices X_v of shape (n.dims[v], m.dims[v]), flattened
    row-major and concatenated in vertex order.  Each arrow s -> t, with
    matrices A of n and B of m, asks A X_s == X_t B: one sparse row per
    entry (i, j), from the nonzeros A[i, k] at X_s[k, j] and -B[l, j] at
    X_t[i, l]; terms meeting on one unknown (a loop, s == t) add up, and a
    sum that cancels mod p is dropped.  An arrow with no equation
    (n.dims[t] * m.dims[s] == 0) writes no row, so it is skipped before
    its matrices are read.  The basis is the canonical kernel of
    la.sparse_kernel_basis; that of End(m) = Hom(m, m) is computed once
    and kept on m.
    """
    if m.algebra is not n.algebra and m.algebra.quiver != n.algebra.quiver:
        raise ValueError("modules over different algebras")
    q, p = m.algebra.quiver, m.algebra.p
    sizes = [r * c for r, c in zip(n.dims, m.dims)]
    if not any(sizes):
        return []
    kern = m._end_kernel if m is n else None
    if kern is None:
        offsets = [0, *accumulate(sizes)]
        rows = []
        for (_, s, t), a, b in zip(q.arrows, n.mats, m.mats):
            c, l = m.dims[s], m.dims[t]
            if not n.dims[t] * c:
                continue
            a_rows = [[(k, v) for k, v in enumerate(line) if v] for line in a.tolist()]
            b_cols = [[(x, p - v) for x, v in enumerate(line) if v] for line in b.T.tolist()]
            for i, a_row in enumerate(a_rows):
                xt = offsets[t] + i * l
                for j, b_col in enumerate(b_cols):
                    row = {offsets[s] + k * c + j: v for k, v in a_row}
                    for x, v in b_col:
                        v = (row.get(xt + x, 0) + v) % p
                        if v:
                            row[xt + x] = v
                        else:
                            del row[xt + x]
                    if row:
                        rows.append(row)
        kern = la.sparse_kernel_basis(rows, offsets[-1], p)
        if m is n:
            m._end_kernel = _frozen(kern)
    return [unvectorize_hom(m, n, kern[:, j]) for j in range(kern.shape[1])]


def hom_coordinates(homs: Sequence[ModuleHom], basis: Sequence[ModuleHom]) -> Optional[np.ndarray]:
    """Coordinates of each hom in the basis, one column per hom.

    One solve for all of them; None if any hom lies outside the span.  A
    spanning list that is not independent gets the solution with zeros
    in its free coordinates.  An empty basis spans only zero.  Over a
    canonical hom_basis, hom_basis_coordinates reads the same coordinates
    without a solve.
    """
    if not homs:
        return la.zeros(len(basis), 0)
    rhs = np.stack([vectorize_hom(h) for h in homs], axis=1)
    if not basis:
        return None if rhs.any() else la.zeros(0, len(homs))
    return la.solve(np.stack([vectorize_hom(b) for b in basis], axis=1), rhs, homs[0].source.algebra.p)


def hom_basis_coordinates(homs: Iterable[ModuleHom], basis: Sequence[ModuleHom]) -> np.ndarray:
    """hom_coordinates(homs, basis) for a basis of Hom(m, n) and homs m -> n.

    The canonical kernel basis of hom_basis(m, n) needs no solve: each
    vector is 1 at its last nonzero entry (an RREF pivot row has its
    entries right of the pivot) and the others vanish there, so a hom's
    coordinates are its entries at those places.  Coordinates over a basis
    are unique, so they equal the solved ones.  A basis without that unit
    pattern, such as a hand-picked one, is solved against instead.  The
    basis spans Hom(m, n), so every hom m -> n has coordinates.  homs may
    be a generator, read one at a time.
    """
    vecs = [vectorize_hom(b) for b in basis]
    lead = _last_nonzero(vecs)
    if vecs and not _is_identity(np.stack(vecs)[:, lead]):
        return hom_coordinates(list(homs), basis)
    cols = [vectorize_hom(h)[lead] for h in homs]
    return np.stack(cols, axis=1) if cols else la.zeros(len(basis), 0)


def is_mono(f: ModuleHom) -> bool:
    """Whether f is mono: full column rank at every vertex.  Between
    modules of one dimension vector a mono is an isomorphism."""
    p = f.source.algebra.p
    return all(la.rank(m, p) == d for m, d in zip(f.mats, f.source.dims))


def is_epi(f: ModuleHom) -> bool:
    """Whether f is epi: full row rank at every vertex."""
    p = f.source.algebra.p
    return all(la.rank(m, p) == d for m, d in zip(f.mats, f.target.dims))


def _last_nonzero(vecs: Iterable[np.ndarray]) -> List[int]:
    """The place of each vector's last nonzero entry: where a canonical
    kernel vector is 1 and the other vectors of its basis vanish."""
    return [int(np.flatnonzero(v)[-1]) for v in vecs]


def _is_identity(mat: np.ndarray) -> bool:
    """Whether a reduced square matrix is the identity: as many nonzeros
    as rows, and every diagonal entry 1."""
    return np.count_nonzero(mat) == len(mat) == np.count_nonzero(mat.diagonal() == 1)


def is_identity(f: ModuleHom) -> bool:
    """Whether f is the identity of its source: an endomorphism of one
    module whose every vertex matrix is the identity."""
    return f.source is f.target and all(_is_identity(mat) for mat in f.mats)


def factor_each(q: ModuleHom, gs: Sequence[ModuleHom], past: bool = False) -> List[Optional[ModuleHom]]:
    """For each g of gs, h with q o h = g (past: h o q = g), or None.

    The one factorization of the package.  The homs of gs share their
    source (past: their target) and land where q lands (past: start where
    q starts).  One canonical basis of Hom(g.source, q.source) (past:
    Hom(q.target, g.target)) and one image per basis element serve the
    whole list, and la.solve_each eliminates [images | gs] once.  Each h
    is the solution with zeros in its free coordinates, the same as a
    separate solve for its g alone would give.  When q is an identity,
    each g is its own and only factor, and no basis is built.
    """
    if not gs:
        return []
    if is_identity(q):
        return list(gs)
    src, tgt = (q.target, gs[0].target) if past else (gs[0].source, q.source)
    basis = hom_basis(src, tgt)
    p = src.algebra.p
    rhs = np.stack([vectorize_hom(g) for g in gs], axis=1)
    images = [vectorize_hom(compose(b, q) if past else compose(q, b)) for b in basis]
    a = np.stack(images, axis=1) if images else la.zeros(rhs.shape[0], 0)
    x, ok = la.solve_each(a, rhs, p)
    flat = np.stack([vectorize_hom(b) for b in basis]) if basis else la.zeros(0, sum(d * e for d, e in zip(src.dims, tgt.dims)))
    hs = x.T @ flat % p  # row j: the combination of the basis with coordinates x[:, j]
    return [unvectorize_hom(src, tgt, hs[j]) if ok[j] else None for j in range(len(gs))]


def factor_through(q: ModuleHom, g: ModuleHom) -> Optional[ModuleHom]:
    """h with q o h = g, for g landing where q lands; None if there is none."""
    return factor_each(q, [g])[0]


def factor_past(u: ModuleHom, g: ModuleHom) -> Optional[ModuleHom]:
    """h with h o u = g, extending g along u; None if there is none."""
    return factor_each(u, [g], past=True)[0]


# -- canonical modules --------------------------------------------------------


def zero_module(algebra: AlgebraPresentation) -> Module:
    n = algebra.quiver.n_vertices
    return Module(algebra, [0] * n, [la.zeros(0, 0)] * len(algebra.quiver.arrows), name="0")


def simple_module(algebra: AlgebraPresentation, v: int) -> Module:
    q = algebra.quiver
    dims = [1 if w == v else 0 for w in range(q.n_vertices)]
    mats = [la.zeros(dims[t], dims[s]) for _, s, t in q.arrows]
    return Module(algebra, dims, mats, name=f"S{v + 1}")


def _paths_from(algebra: AlgebraPresentation, v: int) -> List[List[int]]:
    """The basis of P_v = e_v A: for each vertex w, the indices of the monomials
    v -> w in monomial order, so the generator of P_v (the trivial path) is
    row 0 of its block at v.  Cached per (algebra, v), like the projectives."""
    key = ("paths", v)
    if key not in algebra._cache:
        q = algebra.quiver
        table: List[List[int]] = [[] for _ in range(q.n_vertices)]
        for i, mono in enumerate(algebra.basis.monomials):
            if path_source(mono) == v:
                table[path_target(q, mono)].append(i)
        algebra._cache[key] = table
    return algebra._cache[key]


def _block_offsets(algebra: AlgebraPresentation, vertices: Sequence[int]) -> List[List[int]]:
    """offs[i][w]: the first row of summand i at vertex w in the sum of the
    P_v over vertices, whose basis at w lists the paths out of each v in turn."""
    run = [0] * algebra.quiver.n_vertices
    offs = []
    for v in vertices:
        offs.append(list(run))
        run = [r + len(paths) for r, paths in zip(run, _paths_from(algebra, v))]
    return offs


def projective_sum(algebra: AlgebraPresentation, vertices: Sequence[int], name: str = "") -> Module:
    """The sum of the P_v over vertices (named P1+P3 and so on unless a name is
    given), block by block from the paths out of each v and basis.left_action."""
    q = algebra.quiver
    left_action = algebra.basis.left_action
    tables = [_paths_from(algebra, v) for v in vertices]
    offs = _block_offsets(algebra, vertices)
    dims = [sum(len(t[w]) for t in tables) for w in range(q.n_vertices)]
    mats = []
    for a, (_, s, t) in enumerate(q.arrows):
        mat = la.zeros(dims[t], dims[s])
        for table, off in zip(tables, offs):
            row = {gi: off[t] + r for r, gi in enumerate(table[t])}
            for col, gi in enumerate(table[s]):
                for ti, c in left_action[a].get(gi, {}).items():
                    mat[row[ti], off[s] + col] = c
        mats.append(mat)
    return Module(algebra, dims, mats, name=name or "+".join(f"P{v + 1}" for v in vertices))


def indecomposable_projective(algebra: AlgebraPresentation, v: int) -> Module:
    """P_v = e_v A, as projective_sum(algebra, [v]).

    Cached per (algebra, v): every call returns the same shared module,
    which callers must not mutate (not even its name).
    """
    key = ("projective", v)
    if key not in algebra._cache:
        algebra._cache[key] = projective_sum(algebra, [v])
    return algebra._cache[key]


def dual_module(m: Module) -> Module:
    """D(m): the dual module over the opposite algebra (transposed action)."""
    op = opposite_of(m.algebra)
    mats = [mat.T.copy() for mat in m.mats]
    return Module(op, m.dims, mats, name=f"D({m.name})" if m.name else "")


def dual_hom(f: ModuleHom) -> ModuleHom:
    """D(f): D(target) -> D(source), transposed vertexwise."""
    return ModuleHom(
        dual_module(f.target), dual_module(f.source), [m.T.copy() for m in f.mats], check=False
    )


def opposite_of(algebra: AlgebraPresentation) -> AlgebraPresentation:
    """Cached opposite so double duals land on the same algebra object."""
    if "opposite" not in algebra._cache:
        op = algebra.opposite()
        op._cache["opposite"] = algebra
        algebra._cache["opposite"] = op
    return algebra._cache["opposite"]


def indecomposable_injective(algebra: AlgebraPresentation, v: int) -> Module:
    """I_v = D(P_v) over the opposite algebra.

    Cached per (algebra, v) like indecomposable_projective: the returned
    module is shared and must not be mutated.
    """
    key = ("injective", v)
    if key not in algebra._cache:
        m = dual_module(indecomposable_projective(opposite_of(algebra), v))
        m.name = f"I{v + 1}"
        algebra._cache[key] = m
    return algebra._cache[key]


@dataclass
class SumData:
    """A direct sum with its canonical inclusions and projections."""

    module: Module
    parts: List[Module]
    inclusions: List[ModuleHom]
    projections: List[ModuleHom]


def direct_sum(algebra: AlgebraPresentation, parts: Sequence[Module], name: str = "") -> SumData:
    q = algebra.quiver
    nv = q.n_vertices
    dims = [sum(m.dims[v] for m in parts) for v in range(nv)]
    offs = []
    run = [0] * nv
    for m in parts:
        offs.append(list(run))
        run = [run[v] + m.dims[v] for v in range(nv)]
    mats = []
    for a, (_, s, t) in enumerate(q.arrows):
        mat = la.zeros(dims[t], dims[s])
        for i, m in enumerate(parts):
            mat[offs[i][t] : offs[i][t] + m.dims[t], offs[i][s] : offs[i][s] + m.dims[s]] = m.mats[a]
        mats.append(mat)
    total = Module(algebra, dims, mats, name=name or "+".join(m.name for m in parts))
    incls, projs = [], []
    for i, m in enumerate(parts):
        imats, pmats = [], []
        for v in range(nv):
            inc = la.zeros(dims[v], m.dims[v])
            inc[offs[i][v] : offs[i][v] + m.dims[v], :] = la.eye(m.dims[v])
            imats.append(inc)
            pmats.append(inc.T.copy())
        incls.append(ModuleHom(m, total, imats, check=False))
        projs.append(ModuleHom(total, m, pmats, check=False))
    return SumData(total, list(parts), incls, projs)


def hom_out_of_sum(sd: SumData, legs: Sequence[ModuleHom]) -> ModuleHom:
    """The hom out of sd.module that is legs[i] on sd.parts[i], for legs
    with one target: the legs side by side, [f g], at each vertex, which
    is entry for entry the sum of the legs[i] o sd.projections[i]."""
    target = legs[0].target
    mats = [np.hstack([f.mats[v] for f in legs]) for v in range(len(target.dims))]
    return ModuleHom(sd.module, target, mats, check=False, reduced=True)


def hom_into_sum(sd: SumData, legs: Sequence[ModuleHom]) -> ModuleHom:
    """The hom into sd.module with legs[i] as its sd.parts[i] component, for
    legs with one source: the legs stacked, [f; g], at each vertex, which
    is entry for entry the sum of the sd.inclusions[i] o legs[i]."""
    source = legs[0].source
    mats = [np.vstack([g.mats[v] for g in legs]) for v in range(len(source.dims))]
    return ModuleHom(source, sd.module, mats, check=False, reduced=True)


# -- submodules and quotients -------------------------------------------------


def submodule(m: Module, bases: List[np.ndarray], name: str = "") -> Tuple[Module, ModuleHom]:
    """The submodule spanned by the given vertexwise column bases.

    Each bases[v] must have independent columns closed under the arrow
    action; the inclusion hom is returned alongside.
    """
    p = m.algebra.p
    q = m.algebra.quiver
    dims = [b.shape[1] for b in bases]
    mats = []
    for a, (_, s, t) in enumerate(q.arrows):
        rhs = la.matmul(m.mats[a], bases[s], p)
        x = la.solve(bases[t], rhs, p)
        if x is None:
            raise ValueError("subspaces are not closed under the arrow action")
        mats.append(x)
    sub = Module(m.algebra, dims, mats, name=name)
    incl = ModuleHom(sub, m, bases, check=False)
    return sub, incl


def quotient(m: Module, bases: List[np.ndarray], name: str = "") -> Tuple[Module, ModuleHom]:
    """The quotient of m by the submodule spanned by the given bases.

    Returns (Q, projection).  Coordinates on Q come from completing each
    subspace basis with standard basis vectors (pivot-free positions).
    The projection is 1 on those and kills the basis, so it is read off
    the RREF r of the basis rows: at the pivot of row i it is -r[i, free].
    The section Q -> m that _quotient_of returns beside it is the
    inclusion of those standard vectors; extension reads its maps off both.
    """
    quot, projs, _ = _quotient_of(m.algebra, m.dims, m.mats, bases, name)
    return quot, ModuleHom(m, quot, projs, check=True)


def _quotient_of(
    algebra: AlgebraPresentation, dims: Sequence[int], mats: Sequence[np.ndarray], bases: List[np.ndarray], name: str = ""
) -> Tuple[Module, List[np.ndarray], List[np.ndarray]]:
    """quotient of the representation (dims, mats) by the span of bases,
    with the projection and section matrices at each vertex: proj o sect
    is the identity of Q, and sect picks the free standard vectors."""
    p = algebra.p
    projs = []
    sects = []
    for b, d in zip(bases, dims):
        if b.shape[1] == 0:
            projs.append(la.eye(d))
            sects.append(la.eye(d))
            continue
        r, pivots = la.rref(b.T, p)
        if len(pivots) < b.shape[1]:
            raise ValueError("subspace basis is not independent")
        free = [i for i in range(d) if i not in pivots]
        proj = la.eye(d)[free]
        proj[:, pivots] = (-r[: len(pivots), free].T) % p
        projs.append(proj)
        sects.append(la.eye(d)[:, free])
    quot_mats = [la.matmul(projs[t], la.matmul(x, sects[s], p), p) for x, (_, s, t) in zip(mats, algebra.quiver.arrows)]
    return Module(algebra, [x.shape[0] for x in projs], quot_mats, name=name), projs, sects


def kernel(f: ModuleHom) -> Tuple[Module, ModuleHom]:
    """ker f, spanned by the canonical kernel basis at each vertex, with its inclusion.

    submodule(f.source, bases) without its solves: each canonical kernel
    column is 1 at its last nonzero entry, its free coordinate, where the
    other columns vanish, so the coordinates of an arrow's image of the
    basis are its entries at those places (the image lies in ker f, as f
    commutes with the arrows).
    """
    m, p = f.source, f.source.algebra.p
    bases = [la.kernel_basis(f.mats[v], p) for v in range(len(m.dims))]
    lead = [_last_nonzero(b.T) for b in bases]
    mats = [la.matmul(m.mats[a], bases[s], p)[lead[t]] for a, (_, s, t) in enumerate(m.algebra.quiver.arrows)]
    sub = Module(m.algebra, [b.shape[1] for b in bases], mats, name="ker")
    return sub, ModuleHom(sub, m, bases, check=False)


def image(f: ModuleHom) -> Tuple[Module, ModuleHom, ModuleHom]:
    """Image of f with inclusion into the target and the epi from the source."""
    p = f.source.algebra.p
    bases = [la.column_space_basis(f.mats[v], p) for v in range(len(f.mats))]
    img, incl = submodule(f.target, bases, name="im")
    epi_mats = []
    for v in range(len(f.mats)):
        x = la.solve(bases[v], f.mats[v], p)
        assert x is not None
        epi_mats.append(x)
    return img, incl, ModuleHom(f.source, img, epi_mats, check=False)


def cokernel(f: ModuleHom) -> Tuple[Module, ModuleHom]:
    p = f.source.algebra.p
    bases = [la.column_space_basis(f.mats[v], p) for v in range(len(f.mats))]
    return quotient(f.target, bases, name="coker")


def extension(cocycle: ModuleHom, incl: ModuleHom, epi: ModuleHom) -> Tuple[Module, ModuleHom, ModuleHom]:
    """The extension 0 -> N -> E -> X -> 0 of a cocycle K -> N.

    incl: K -> P and epi: P -> X form a short exact sequence, and E is
    its pushout along the cocycle, (N (+) P) / {(cocycle k, -k)}.
    Returns E, the leg N -> E and the epi E -> X induced by epi.

    Assembled from blocks: N (+) P acts by the block-diagonal arrow
    matrices, and [cocycle; -incl] is a basis of the submodule at each
    vertex, as incl is mono (_quotient_of raises if it is not).  The leg
    N -> E is the projection's first block columns, and E -> X is
    [0 epi] o section, the one hom whose composite with the projection
    is [0 epi].  The leg P -> E is checked with the other two; both legs
    together are the projection.
    """
    n, pm, p = cocycle.target, incl.target, cocycle.source.algebra.p
    arrows = n.algebra.quiver.arrows
    dims = [a + b for a, b in zip(n.dims, pm.dims)]
    mats = []
    for x, y, (_, s, t) in zip(n.mats, pm.mats, arrows):
        mat = la.zeros(dims[t], dims[s])
        mat[: n.dims[t], : n.dims[s]] = x
        mat[n.dims[t] :, n.dims[s] :] = y
        mats.append(mat)
    bases = [np.vstack([c, (p - i) % p]) for c, i in zip(cocycle.mats, incl.mats)]
    e, projs, sects = _quotient_of(n.algebra, dims, mats, bases)
    leg = ModuleHom(n, e, [x[:, :d] for x, d in zip(projs, n.dims)])
    ModuleHom(pm, e, [x[:, d:] for x, d in zip(projs, n.dims)])  # checked, not returned
    onto = ModuleHom(e, epi.target, [la.matmul(x, y[d:], p) for x, y, d in zip(epi.mats, sects, n.dims)])
    return e, leg, onto


def hom_through_epi(proj: ModuleHom, raw: ModuleHom) -> ModuleHom:
    """The hom X -> T induced by raw: M -> T along an epi proj: M -> X.

    Requires raw to kill ker(proj); solved exactly, vertexwise.
    """
    p = raw.source.algebra.p
    mats = []
    for v in range(len(raw.mats)):
        x = la.solve(proj.mats[v].T, raw.mats[v].T, p)
        if x is None:
            raise ValueError("hom does not factor through the quotient")
        mats.append(x.T)
    return ModuleHom(proj.target, raw.target, mats, check=False)


def hom_into_sub(incl: ModuleHom, raw: ModuleHom) -> ModuleHom:
    """The corestriction X -> S of raw: X -> M along incl: S -> M."""
    p = raw.source.algebra.p
    mats = []
    for v in range(len(raw.mats)):
        x = la.solve(incl.mats[v], raw.mats[v], p)
        if x is None:
            raise ValueError("hom does not land in the submodule")
        mats.append(x)
    return ModuleHom(raw.source, incl.source, mats, check=False)


# -- radical / socle / top ----------------------------------------------------


def radical_bases(m: Module) -> List[np.ndarray]:
    p = m.algebra.p
    q = m.algebra.quiver
    nv = q.n_vertices
    bases = []
    for v in range(nv):
        cols = [m.mats[a] for a, (_, s, t) in enumerate(q.arrows) if t == v]
        if cols:
            bases.append(la.column_space_basis(np.hstack(cols), p))
        else:
            bases.append(la.zeros(m.dims[v], 0))
    return bases


def radical_submodule(m: Module) -> Tuple[Module, ModuleHom]:
    return submodule(m, radical_bases(m), name="rad")


def top_quotient(m: Module) -> Tuple[Module, ModuleHom]:
    return quotient(m, radical_bases(m), name="top")


def socle_submodule(m: Module) -> Tuple[Module, ModuleHom]:
    p = m.algebra.p
    q = m.algebra.quiver
    bases = []
    for v in range(q.n_vertices):
        rows = [m.mats[a] for a, (_, s, t) in enumerate(q.arrows) if s == v]
        if rows:
            bases.append(la.kernel_basis(np.vstack(rows), p))
        else:
            bases.append(la.eye(m.dims[v]))
    return submodule(m, bases, name="soc")


# -- projective covers and presentations -------------------------------------


@dataclass
class ProjCover:
    """A projective cover: the projective_sum over vertices and the covering epi."""

    module: Module
    vertices: List[int]  # vertex of each indecomposable summand
    epi: ModuleHom


def hom_from_generator_images(source: Module, vertices: List[int], target: Module, images: List[np.ndarray]) -> ModuleHom:
    """Module hom out of source = projective_sum(vertices), from images of the
    top generators: images[i], a vector of target at v = vertices[i], receives
    the generator of summand i, so its path v -> w goes to the path acting on it.
    """
    alg = target.algebra
    mats = [la.zeros(target.dims[w], source.dims[w]) for w in range(len(target.dims))]
    for v, off, image in zip(vertices, _block_offsets(alg, vertices), images):
        for w, paths in enumerate(_paths_from(alg, v)):
            for col, gi in enumerate(paths):
                mats[w][:, off[w] + col] = act_along(target, alg.basis.monomials[gi]) @ image
    return ModuleHom(source, target, mats, check=True)


def projective_cover(m: Module) -> ProjCover:
    """The projective cover P(m) -> m, built by lifting a basis of the top."""
    p = m.algebra.p
    q = m.algebra.quiver
    rb = radical_bases(m)
    vertices: List[int] = []
    gen_images: List[np.ndarray] = []
    for v in range(q.n_vertices):
        b = rb[v]
        d = m.dims[v]
        _, pivots = la.rref(b.T, p) if b.shape[1] else (None, [])
        free = [i for i in range(d) if i not in pivots]
        for i in free:
            vertices.append(v)
            e = np.zeros(d, dtype=np.int64)
            e[i] = 1
            gen_images.append(e)
    psum = projective_sum(m.algebra, vertices, name=f"P({m.name})")
    epi = hom_from_generator_images(psum, vertices, m, gen_images)
    if not is_epi(epi):
        raise AssertionError("projective cover failed to surject")
    return ProjCover(psum, vertices, epi)


@dataclass
class ProjPresentation:
    """Minimal presentation P1 -> P0 -> m -> 0 with the syzygy inclusion."""

    p1: ProjCover
    p0: ProjCover
    d: ModuleHom  # P1 -> P0; p0.epi is P0 -> m
    syzygy: Module
    syzygy_incl: ModuleHom  # syzygy -> P0


def minimal_projective_presentation(m: Module) -> ProjPresentation:
    c0 = projective_cover(m)
    syz, incl = kernel(c0.epi)
    c1 = projective_cover(syz)
    d = compose(incl, c1.epi)
    return ProjPresentation(c1, c0, d, syz, incl)


def injective_envelope(m: Module) -> Tuple[Module, ModuleHom]:
    """The injective envelope, via the projective cover of the dual."""
    cover = projective_cover(dual_module(m))
    env = dual_module(cover.module)
    # D of the cover's epi, m = DD(m) -> env, is its transpose at each vertex
    return env, ModuleHom(m, env, [x.T for x in cover.epi.mats], check=True)


# -- transpose and the translates ---------------------------------------------


def star_of_projective_hom(cover_src: ProjCover, cover_tgt: ProjCover, h: ModuleHom) -> ModuleHom:
    """Apply Hom(-, A) to a hom between explicit projective sums.

    h: cover_src.module -> cover_tgt.module.  Returns the starred hom between
    the opposite projective sums, from the one on cover_tgt.vertices to the one
    on cover_src.vertices.  The generator of summand j (at w) goes to the
    components P_v -> P_w of h, the generator column of each block i (at v) on
    the rows of block j, with each path w -> v reversed into summand i.
    """
    algebra = cover_src.module.algebra
    op = opposite_of(algebra)
    src_vs, tgt_vs = cover_src.vertices, cover_tgt.vertices
    src_offs, op_offs = _block_offsets(algebra, src_vs), _block_offsets(op, src_vs)
    star_tgt = projective_sum(op, src_vs)
    images: List[np.ndarray] = []
    for w, tgt_off in zip(tgt_vs, _block_offsets(algebra, tgt_vs)):
        img = np.zeros(star_tgt.dims[w], dtype=np.int64)
        for v, src_off, op_off in zip(src_vs, src_offs, op_offs):
            paths = _paths_from(algebra, w)[v]
            comp = h.mats[v][tgt_off[v] : tgt_off[v] + len(paths), src_off[v]]
            row = {oi: op_off[w] + r for r, oi in enumerate(_paths_from(op, v)[w])}
            for c, gi in zip(comp, paths):
                for oi, oc in op.basis.reduce_path((v, algebra.basis.monomials[gi][1][::-1])).items():
                    img[row[oi]] = (img[row[oi]] + int(c) * oc) % algebra.p
        images.append(img)
    return hom_from_generator_images(projective_sum(op, tgt_vs), tgt_vs, star_tgt, images)


def transpose_maps(pres: ProjPresentation) -> Tuple[ModuleHom, ModuleHom]:
    """d*: P0* -> P1* for the minimal presentation P1 -d-> P0 -> m, and its
    cokernel map P1* -> Tr(m), over the opposite algebra."""
    star = star_of_projective_hom(pres.p1, pres.p0, pres.d)
    return star, cokernel(star)[1]


def transpose(m: Module) -> Module:
    """Tr(m) over the opposite algebra: the cokernel of d* for the minimal
    presentation P1 -d-> P0 -> m.

    A projective summand P of m contributes 0 -> P to the presentation,
    so Tr of it is zero and Tr(m) is Tr of the projective-free part.
    """
    tr = transpose_maps(minimal_projective_presentation(m))[1].target
    tr.name = f"Tr({m.name})" if m.name else "Tr"
    return tr


def is_projective_indec(m: Module) -> bool:
    n = m.algebra.quiver.n_vertices
    return iso_index(m, [indecomposable_projective(m.algebra, v) for v in range(n)]) is not None


def is_injective_indec(m: Module) -> bool:
    n = m.algebra.quiver.n_vertices
    return iso_index(m, [indecomposable_injective(m.algebra, v) for v in range(n)]) is not None


def tau(m: Module) -> Module:
    """The Auslander-Reiten translate D Tr.

    Raises for a nonzero projective input; projective summands of a mixed
    input contribute nothing.
    """
    tr = transpose(m)
    if tr.is_zero() and not m.is_zero():
        raise ValueError("tau of a projective module is undefined here")
    out = dual_module(tr)
    out.name = f"tau({m.name})" if m.name else ""
    return out


def tau_inverse(m: Module) -> Module:
    """The inverse translate Tr D.  Raises for a nonzero injective input."""
    tr = tau_inverse_maps(m)[2].target
    if tr.is_zero() and not m.is_zero():
        raise ValueError("tau inverse of an injective module is undefined here")
    return tr


def tau_inverse_maps(m: Module) -> Tuple[ProjPresentation, ModuleHom, ModuleHom]:
    """The minimal presentation of Dm, d* for it, and the cokernel map of
    d* onto Tr Dm, which is tau^{-1} m and named so."""
    pres = minimal_projective_presentation(dual_module(m))
    star, coker = transpose_maps(pres)
    coker.target.name = f"tau^-({m.name})" if m.name else ""
    return pres, star, coker


# -- endomorphism algebra: radical and decomposition --------------------------


class CertificationError(RuntimeError):
    pass


def _mult_coords(basis_homs: List[ModuleHom]) -> np.ndarray:
    """Structure constants: T[i, j] holds the coordinates of b_i o b_j over
    the basis of End(m), read by hom_basis_coordinates."""
    k = len(basis_homs)
    coords = hom_basis_coordinates([compose(a, b) for a in basis_homs for b in basis_homs], basis_homs)
    assert coords is not None, "endomorphism product left the span"
    return coords.T.reshape(k, k, k)


def _products(xs: np.ndarray, ys: np.ndarray, T: np.ndarray, p: int) -> np.ndarray:
    """Coordinates of x y for every column x of xs and y of ys, as columns."""
    left = np.einsum("ia,ijk->ajk", xs, T) % p
    return (np.einsum("jb,ajk->kab", ys, left) % p).reshape(T.shape[0], -1)


def _is_nilpotent_ideal(ideal: np.ndarray, T: np.ndarray, p: int) -> bool:
    """Whether the columns of ideal span a nilpotent two-sided ideal."""
    r = ideal.shape[1]
    if not r:
        return True
    whole = la.eye(T.shape[0])
    sides = np.hstack([ideal, _products(ideal, whole, T, p), _products(whole, ideal, T, p)])
    if la.rank(sides, p) != r:
        return False
    power = ideal
    while power.shape[1]:
        nxt = la.column_space_basis(_products(power, ideal, T, p), p)
        if nxt.shape[1] == power.shape[1]:
            return False  # I^(j+1) = I^j != 0
        power = nxt
    return True


def _from_coords(m: Module, ends: List[ModuleHom], cols: np.ndarray) -> List[ModuleHom]:
    """The endomorphisms of m with the given coordinate columns over ends."""
    return [combine(m, m, ends, col) for col in cols.T]


def _matpow(a: np.ndarray, e: int, q: int) -> np.ndarray:
    out = la.eye(a.shape[0])
    while e:
        if e & 1:
            out = (out @ a) % q
        a = (a @ a) % q
        e >>= 1
    return out


def _radical_coords(m: Module, ends: List[ModuleHom], T: np.ndarray) -> np.ndarray:
    """rad End(m) as columns of coordinates over ends, in canonical kernel form.

    The Cohen-Ivanyos-Wales chain (J. Pure Appl. Algebra 117, 1997): with
    n = dim m, I_-1 = End(m) and, for i = 0 .. floor(log_p n),
        I_i = {a in I_(i-1) : Tr((a~ b~)^(p^i)) / p^i = 0 mod p for every basis element b},
    where a~, b~ are integer lifts of the vertex matrices and the powers
    are taken mod p^(i+1).  The last I_i is the radical; for p > n the
    chain is the single trace form Tr(ab).  The answer is certified a
    nilpotent two-sided ideal (it always contains the radical), else
    CertificationError.  Exact in int64 while dim m stays below a few
    thousand.
    """
    p, n, k = m.algebra.p, m.total_dim, len(ends)
    flat = np.stack([vectorize_hom(e) for e in ends])
    flat_t = np.stack([np.concatenate([x.T.flatten() for x in e.mats]) for e in ends])
    cand = la.kernel_basis(flat @ flat_t.T % p, p)  # I_0: the trace form
    power = p
    while power <= n and cand.shape[1]:
        q = power * p
        form = la.zeros(k, cand.shape[1])
        for j, a in enumerate(_from_coords(m, ends, cand)):
            for b in range(k):
                tr = sum(int(np.trace(_matpow(x @ y, power, q))) for x, y in zip(a.mats, ends[b].mats))
                if tr % power:
                    raise CertificationError("a trace power is not divisible along the radical chain")
                form[b, j] = tr // power % p
        cand = la.matmul(cand, la.kernel_basis(form, p), p)
        power *= p
    cand = la.kernel_basis(la.kernel_basis(cand.T, p).T, p)
    if not _is_nilpotent_ideal(cand, T, p):
        raise CertificationError("the radical chain did not end in a nilpotent ideal")
    return cand


def _kept_radical(m: Module, ends: List[ModuleHom]) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """rad End(m) as coordinate columns over ends = hom_basis(m, m), kept on
    m, with the structure constants _mult_coords(ends) when this call built
    them to find the radical, else None."""
    if len(ends) <= 1:
        return la.zeros(len(ends), 0), None  # End(m) is 0 or F_p
    if m._rad_coords is not None:
        return m._rad_coords, None
    T = _mult_coords(ends)
    m._rad_coords = _frozen(_radical_coords(m, ends, T))
    return m._rad_coords, T


def _residue_reduction(rad: np.ndarray, p: int) -> Tuple[np.ndarray, List[int], List[int]]:
    """The RREF rows of rad (coordinate columns over a basis of End(m)), their
    pivots and the other places: x maps to x[free] - x[pivots] @ rows[:, free]
    in End(m)/rad, of dimension len(free)."""
    rr = la.row_space_basis(rad.T, p)
    pivots = [int(np.nonzero(row)[0][0]) for row in rr]
    return rr, pivots, [i for i in range(rad.shape[0]) if i not in pivots]


def end_radical(m: Module) -> List[ModuleHom]:
    """Basis of rad End(m), from the certified chain of _radical_coords.

    The coordinates over hom_basis(m, m) are computed once and kept on m.
    """
    ends = hom_basis(m, m)
    return _from_coords(m, ends, _kept_radical(m, ends)[0])


def summand_multiplicity(y: Module, b: Module) -> int:
    """How often the indecomposable y occurs as a summand of b, without decomposing b.

    A hom f: y -> b lies in rad(y, b) exactly when g f lies in rad End(y)
    for every g: b -> y, and Hom(y, b)/rad(y, b) has F_p-dimension n d,
    with n the multiplicity of y in b and d = dim End(y)/rad End(y) the
    residue degree (Auslander-Reiten-Smalo VIII; Assem-Simson-Skowronski
    IV.4).  So n is the F_p-rank of the composition pairing
    Hom(y, b) x Hom(b, y) -> End(y)/rad End(y), divided by d.  Each g f
    is read off the canonical basis of End(y) by hom_basis_coordinates
    and reduced modulo the rad End(y) that y keeps.
    """
    p = y.algebra.p
    into = hom_basis(y, b)
    out = hom_basis(b, y) if into else []
    if not out:
        return 0
    ends = hom_basis(y, y)
    rr, pivots, free = _residue_reduction(_kept_radical(y, ends)[0], p)
    coords = hom_basis_coordinates((compose(g, f) for f in into for g in out), ends)
    residues = (coords[free] - rr[:, free].T @ coords[pivots]) % p
    d = len(free)
    pairing = residues.reshape(d, len(into), len(out)).transpose(1, 2, 0).reshape(len(into), -1)
    rank = la.rank(pairing, p)
    assert rank % d == 0, "the pairing rank is not a multiple of the residue degree"
    return rank // d


def _split_by_endo(m: Module, f: ModuleHom) -> Optional[Tuple[Tuple[Module, ModuleHom, ModuleHom], Tuple[Module, ModuleHom, ModuleHom]]]:
    """Fitting split along f: m = ker f^n (+) im f^n for n = max(m.dims), vertex by vertex.

    None when f is invertible (ker f^n = 0) or nilpotent (f^n = 0).  Both
    bases are canonical kernel bases, so they depend only on the subspaces.
    """
    p = m.algebra.p
    powers = [_matpow(x, max(m.dims), p) for x in f.mats]
    kers = [la.kernel_basis(x, p) for x in powers]
    if not any(b.shape[1] for b in kers) or not any(x.any() for x in powers):
        return None
    ims = [la.kernel_basis(la.kernel_basis(x.T, p).T, p) for x in powers]
    (m1, i1), (m2, i2) = submodule(m, kers), submodule(m, ims)
    projs1, projs2 = [], []
    for k, i in zip(kers, ims):
        inv = la.invert(np.hstack([k, i]), p)
        assert inv is not None, "ker f^n and im f^n do not span"
        projs1.append(inv[: k.shape[1], :])
        projs2.append(inv[k.shape[1] :, :])
    p1 = ModuleHom(m, m1, projs1, check=True)
    p2 = ModuleHom(m, m2, projs2, check=True)
    return (m1, i1, p1), (m2, i2, p2)


def _berlekamp(span: np.ndarray, mul, p: int) -> np.ndarray:
    """{z : z^p = z} inside the commutative subalgebra spanned by the columns.

    z -> z^p is F_p-linear there, so this is the kernel of Frobenius minus
    the identity; its dimension counts the simple factors of the span's
    semisimple part.
    """
    frob = []
    for z in span.T:
        acc, sq, e = None, z, p
        while e:
            if e & 1:
                acc = sq if acc is None else mul(acc, sq)
            sq, e = mul(sq, sq), e >> 1
        frob.append((acc - z) % p)
    return la.matmul(span, la.kernel_basis(np.stack(frob, axis=1), p), p)


def _splitting_endomorphism(m: Module, ends: List[ModuleHom]) -> Optional[ModuleHom]:
    """Decide m in B = End(m)/rad: None certifies m indecomposable, else an
    endomorphism with a Fitting split.

    m is indecomposable when dim B = 1, or when B is commutative and its
    Berlekamp subalgebra is F_p (then B is a field).  Otherwise a
    Berlekamp element z outside F_p * 1, from the centre of B first and
    then from F_p[b] for each basis element b, has a minimal polynomial
    with distinct roots in F_p; for a root c, lift(z) - c is neither
    invertible nor nilpotent.  Raises CertificationError when neither
    applies.  ends is hom_basis(m, m), so the rad End(m) coordinates are
    the ones end_radical keeps on m: read from there, or computed and kept.
    The structure constants are built once, and only when the radical is
    computed here or B is larger than F_p.
    """
    p = m.algebra.p
    k = len(ends)
    rad, T = _kept_radical(m, ends)
    rr, pivots, free = _residue_reduction(rad, p)
    kq = len(free)
    if kq == 1:
        return None  # B = F_p: End(m) is local
    if T is None:
        T = _mult_coords(ends)
    # B on the images of ends[free]; the RREF rows of the radical reduce the rest
    sub = T[np.ix_(free, free)]
    tq = (sub[..., free] - np.einsum("ijr,rk->ijk", sub[..., pivots], rr[:, free])) % p
    one = hom_basis_coordinates([identity_hom(m)], ends)[:, 0]
    one = (one[free] - one[pivots] @ rr[:, free]) % p

    def mul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return _products(x[:, None], y[:, None], tq, p)[:, 0]

    comm = (tq - tq.transpose(1, 0, 2)).transpose(1, 2, 0).reshape(kq * kq, kq)
    centre = la.kernel_basis(comm, p)
    commutative = centre.shape[1] == kq
    spans = [centre]
    if not commutative:
        for b in la.eye(kq):
            powers = [one, b]
            while la.rank(np.stack(powers, axis=1), p) == len(powers):
                powers.append(mul(powers[-1], b))
            spans.append(np.stack(powers[:-1], axis=1))
    for span in spans:
        for z in _berlekamp(span, mul, p).T:
            if la.rank(np.stack([one, z], axis=1), p) == 2:
                mu = la.minimal_polynomial(_products(z[:, None], la.eye(kq), tq, p), p)
                xs, vals = np.arange(p, dtype=np.int64), np.zeros(p, dtype=np.int64)
                for c in reversed(mu):
                    vals = (vals * xs + c) % p
                c = int(np.nonzero(vals == 0)[0][0])  # mu divides x^p - x: all roots in F_p
                coords = la.zeros(k, 1)
                coords[free, 0] = z
                return hom_sub(_from_coords(m, ends, coords)[0], hom_scale(c, identity_hom(m)))
        if commutative:
            return None  # B is a field
    raise CertificationError(
        "could not decide a summand: End/rad is non-commutative with a trivial "
        "Berlekamp centre, and no basis element generates a split subalgebra"
    )


def decompose(m: Module) -> List[Tuple[Module, ModuleHom, ModuleHom]]:
    """Split m into indecomposable summands with inclusion/projection pairs.

    Each element of hom_basis(cur, cur) is tried in order for a Fitting
    split of the current summand; a summand none of them splits is decided
    in End/rad by _splitting_endomorphism, which certifies it
    indecomposable or supplies an endomorphism that splits it.
    Deterministic in every characteristic.  The split is computed once
    and kept on m; every call returns the same part modules with fresh
    inclusion/projection homs around them.
    """
    if m._summands is None:
        out: List[Tuple[Module, ModuleHom, ModuleHom]] = []
        # a stack, depth first and first piece first; a closure calling itself
        # would be a reference cycle holding m until the cycle collector runs
        todo = [(m, identity_hom(m), identity_hom(m))]
        while todo:
            cur, incl, proj = todo.pop()
            if cur.total_dim == 0:
                continue
            ends = hom_basis(cur, cur)
            split = None
            if len(ends) > 1:
                split = next(filter(None, (_split_by_endo(cur, h) for h in ends)), None)
                if split is None:
                    f = _splitting_endomorphism(cur, ends)
                    if f is not None:
                        split = _split_by_endo(cur, f)
                        assert split is not None, "End/rad splitter failed to split"
            if split is None:
                out.append((cur, incl, proj))
                continue
            for piece, i, pr in reversed(split):
                todo.append((piece, compose(incl, i), compose(pr, proj)))
        out.sort(key=lambda t: (t[0].total_dim, t[0].dims))
        # m itself is stored as None: the cache must not refer back to m
        m._summands = [
            (None, None, None) if part is m else (part, _frozen(vectorize_hom(incl)), _frozen(vectorize_hom(proj)))
            for part, incl, proj in out
        ]
    return [
        (m, identity_hom(m), identity_hom(m)) if part is None
        else (part, unvectorize_hom(part, m, incl), unvectorize_hom(m, part, proj))
        for part, incl, proj in m._summands
    ]


@dataclass
class Decomposition:
    """Indecomposable summands grouped by isomorphism type.

    summands lists (representative, multiplicity); witnesses keeps the flat
    inclusion/projection pair for every copy, in a fixed order.
    """

    module: Module
    summands: List[Tuple[Module, int]]
    witnesses: List[Tuple[Module, ModuleHom, ModuleHom]]


def decomposition(m: Module) -> Decomposition:
    flat = decompose(m)
    reps: List[Module] = []
    mults: List[int] = []
    for part, _, _ in flat:
        i = iso_index(part, reps)
        if i is None:
            reps.append(part)
            mults.append(1)
        else:
            mults[i] += 1
    return Decomposition(m, list(zip(reps, mults)), flat)


def iso_between(m: Module, n: Module) -> Optional[ModuleHom]:
    """The first element of the basis of Hom(m, n) that is an isomorphism, or None.

    m and n share their dimension vector, so a basis element is an
    isomorphism exactly when it is mono.  Complete whenever m or n is
    indecomposable: if f = sum c_i h_i is an isomorphism with inverse g,
    then sum c_i g h_i = 1 in the local ring End(m), so some g h_i is a
    unit and h_i is itself an isomorphism (the same argument runs through
    End(n) when n is the indecomposable side).
    For two decomposable modules None proves nothing; use
    modules_isomorphic.
    """
    if m.dims != n.dims:
        return None
    if m.total_dim == 0:
        return zero_hom(m, n)
    return next((h for h in hom_basis(m, n) if is_mono(h)), None)


def iso_index(m: Module, reps: Sequence[Module]) -> Optional[int]:
    """The first i with reps[i] isomorphic to m by iso_between, or None.

    The one isomorphism-class lookup.  None is a proof when m is
    indecomposable, or when every rep is: iso_between is complete as soon
    as one side is.
    """
    for i, r in enumerate(reps):
        if r.dims == m.dims and iso_between(r, m) is not None:
            return i
    return None


def modules_isomorphic(m: Module, n: Module) -> bool:
    """Isomorphism test for arbitrary modules; False is always a proof.

    Tries the basis scan of iso_between first, then decomposes both sides
    into certified indecomposable summands and matches them one to one,
    where the scan is complete.  Use this, not iso_between, whenever
    both sides may be decomposable.
    """
    if m.dims != n.dims:
        return False
    if iso_between(m, n) is not None:
        return True
    return _summands_match([x[0] for x in decompose(m)], [x[0] for x in decompose(n)])


def _summands_match(ms: Sequence[Module], ns: Sequence[Module]) -> bool:
    """Whether two lists of indecomposables agree up to isomorphism and order.

    Greedy one-to-one matching, which is exact because iso_index is
    complete on indecomposables.
    """
    if len(ms) != len(ns):
        return False
    remaining = list(ns)
    for part in ms:
        i = iso_index(part, remaining)
        if i is None:
            return False
        remaining.pop(i)
    return True


# -- Ext groups ---------------------------------------------------------------


def projective_resolution(m: Module, length: int) -> Tuple[List[ProjCover], List[ModuleHom]]:
    """Covers P_0 .. P_length and differentials d_i: P_i -> P_{i-1}."""
    covers = [projective_cover(m)]
    diffs: List[ModuleHom] = []
    for _ in range(length):
        syz, incl = kernel(covers[-1].epi)
        c = projective_cover(syz)
        covers.append(c)
        diffs.append(compose(incl, c.epi))
    return covers, diffs


def hom_complex_dims(terms: Sequence[Module], diffs: Sequence[ModuleHom], n: Module, degrees: Sequence[int]) -> List[int]:
    """dim H^k Hom(C, n) for each k in degrees, C the complex terms[0] <- terms[1] <- ...

    diffs[i]: terms[i + 1] -> terms[i], and terms past the end count as
    zero.  Hom(C_i, n) is computed once per needed term and the rank r_i
    of Hom(d_i, n): h |-> h o d_i, read off the canonical basis of
    Hom(C_{i+1}, n) by hom_basis_coordinates, once per needed
    differential, so every degree reads dim Hom(C_k, n) - r_k - r_{k-1}.
    """
    if not degrees:
        return []
    p = n.algebra.p
    lo, hi = max(min(degrees) - 1, 0), min(max(degrees) + 1, len(terms) - 1)
    bases = {i: hom_basis(terms[i], n) for i in range(lo, hi + 1)}
    ranks = {
        i: la.rank(hom_basis_coordinates((compose(b, diffs[i]) for b in bases[i]), bases[i + 1]), p)
        for i in range(lo, hi)
    }
    return [len(bases.get(k, ())) - ranks.get(k, 0) - ranks.get(k - 1, 0) for k in degrees]


def ext_dims(resolution: Tuple[List[ProjCover], List[ModuleHom]], n: Module, degrees: Sequence[int]) -> List[int]:
    """dim Ext^k(m, n) for each k in degrees, from resolution = projective_resolution(m, L).

    L must be at least max(degrees) + 1; the count is hom_complex_dims.
    """
    covers, diffs = resolution
    if min(degrees) < 0:
        raise ValueError("Ext is defined for k >= 0 only")
    if max(degrees) >= len(diffs):
        raise ValueError("the resolution is too short for the requested degrees")
    return hom_complex_dims([c.module for c in covers], diffs, n, degrees)


def ext_dim(m: Module, n: Module, k: int) -> int:
    """dim Ext^k(m, n) over the common algebra; one degree of ext_dims."""
    if k == 0:
        return len(hom_basis(m, n))
    return ext_dims(projective_resolution(m, k + 1), n, [k])[0]
