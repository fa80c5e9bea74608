"""Modules over a presented quiver algebra, as quiver representations.

A Module carries one dimension per vertex and one exact matrix per arrow
(for an arrow v -> w the matrix has shape dims[w] x dims[v] and acts on
column vectors).  Homs are tuples of vertex matrices forming commuting
squares.  Everything downstream (Auslander-Reiten translates, radicals of
endomorphism algebras, direct sum decompositions) reduces to exact linear
algebra over F_p on these matrices.
"""

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from sympy import GF, Poly, Symbol

from . import linalg as la
from .algebra import AlgebraPresentation, Path, path_source, path_target

_X = Symbol("x")


class Module:
    """A finite-dimensional representation of a presented algebra.

    Args:
        algebra: the AlgebraPresentation acted by.
        dims: dimension at each vertex.
        mats: one matrix per arrow of the quiver, aligned with
            algebra.quiver.arrows; arrow v -> w gets shape (dims[w], dims[v]).
        name: optional label used in reports.
    """

    def __init__(self, algebra: AlgebraPresentation, dims: Sequence[int], mats, name: str = ""):
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
    """A homomorphism: one matrix per vertex, commuting with all arrows."""

    def __init__(self, source: Module, target: Module, mats, check: bool = True):
        self.source = source
        self.target = target
        p = source.algebra.p
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
    """Matrix of the path acting on m (trivial path gives the identity)."""
    v, arrows = path
    out = la.eye(m.dims[v])
    p = m.algebra.p
    for a in arrows:
        out = la.matmul(m.mats[a], out, p)
    return out


def act_element(m: Module, vec: Dict[int, int], src: int, tgt: int) -> np.ndarray:
    """Matrix of an algebra element given as {monomial index: coeff}.

    Only the (src -> tgt)-component acts; other monomials are ignored.
    """
    p = m.algebra.p
    basis = m.algebra.basis
    out = la.zeros(m.dims[tgt], m.dims[src])
    for mi, c in vec.items():
        mono = basis.monomials[mi]
        if path_source(mono) != src or path_target(m.algebra.quiver, mono) != tgt:
            continue
        out = (out + c * act_along(m, mono)) % p
    return out


def identity_hom(m: Module) -> ModuleHom:
    return ModuleHom(m, m, [la.eye(d) for d in m.dims], check=False)

def zero_hom(source: Module, target: Module) -> ModuleHom:
    return ModuleHom(source, target, [la.zeros(target.dims[v], source.dims[v]) for v in range(len(source.dims))], check=False)


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
    )


def hom_add(f: ModuleHom, g: ModuleHom) -> ModuleHom:
    p = f.source.algebra.p
    return ModuleHom(
        f.source, f.target, [(f.mats[v] + g.mats[v]) % p for v in range(len(f.mats))], check=False
    )


def hom_scale(c: int, f: ModuleHom) -> ModuleHom:
    p = f.source.algebra.p
    return ModuleHom(f.source, f.target, [(c * m) % p for m in f.mats], check=False)


def hom_sub(f: ModuleHom, g: ModuleHom) -> ModuleHom:
    return hom_add(f, hom_scale(f.source.algebra.p - 1, g))


def hom_equal(f: ModuleHom, g: ModuleHom) -> bool:
    return all((a == b).all() for a, b in zip(f.mats, g.mats))


def vectorize_hom(f: ModuleHom) -> np.ndarray:
    pieces = [m.flatten() for m in f.mats]
    return np.concatenate(pieces) if pieces else np.zeros(0, dtype=np.int64)


def unvectorize_hom(source: Module, target: Module, vec: np.ndarray) -> ModuleHom:
    mats = []
    off = 0
    for v in range(len(source.dims)):
        size = source.dims[v] * target.dims[v]
        mats.append(vec[off : off + size].reshape(target.dims[v], source.dims[v]))
        off += size
    return ModuleHom(source, target, mats, check=False)


def commuting_square_kernel(shapes: Sequence[Tuple[int, int]], squares, p: int) -> np.ndarray:
    """Kernel of the system A X_s - X_t B = 0 over a list of squares.

    The unknowns are matrices X_0, X_1, ... of the given (rows, cols)
    shapes, flattened row-major and concatenated in order.  Each square
    (A, s, t, B) asks A @ X_s == X_t @ B; its equations fill one row block
    of a preallocated system, written through 4-D views of that block:
    entry (i, j) of A @ X_s has coefficient A[i, k] at X_s[k, j], and
    entry (i, j) of X_t @ B has B[l, j] at X_t[i, l].  Returns the
    canonical kernel basis of la.kernel_basis, as columns.
    """
    offsets = [0]
    for r, c in shapes:
        offsets.append(offsets[-1] + r * c)
    live = [sq for sq in squares if sq[0].shape[0] * shapes[sq[1]][1]]
    system = np.zeros((sum(a.shape[0] * shapes[s][1] for a, s, _, _ in live), offsets[-1]), dtype=np.int64)
    row = 0
    for a, s, t, b in live:
        r, (k, c), l = a.shape[0], shapes[s], shapes[t][1]
        block = system[row : row + r * c]
        jj, ii = np.arange(c), np.arange(r)
        block[:, offsets[s] : offsets[s + 1]].reshape(r, c, k, c)[:, jj, :, jj] = a
        block[:, offsets[t] : offsets[t + 1]].reshape(r, c, r, l)[ii, :, ii, :] -= b.T
        row += r * c
    return la.kernel_basis(system, p)


def hom_basis(m: Module, n: Module) -> List[ModuleHom]:
    """Canonical basis of Hom(m, n), from the commuting-square kernel."""
    if m.algebra is not n.algebra and m.algebra.quiver != n.algebra.quiver:
        raise ValueError("modules over different algebras")
    q = m.algebra.quiver
    shapes = [(n.dims[v], m.dims[v]) for v in range(q.n_vertices)]
    if not any(r * c for r, c in shapes):
        return []
    squares = [(n.mats[i], s, t, m.mats[i]) for i, (_, s, t) in enumerate(q.arrows)]
    kern = commuting_square_kernel(shapes, squares, m.algebra.p)
    return [unvectorize_hom(m, n, kern[:, j]) for j in range(kern.shape[1])]


def hom_coordinates(homs: Sequence[ModuleHom], basis: Sequence[ModuleHom]) -> Optional[np.ndarray]:
    """Coordinates of each hom in the basis, one column per hom.

    One solve for all of them; None if any hom lies outside the span.  A
    spanning list that is not independent gets the solution with zeros
    in its free coordinates.
    """
    if not homs:
        return la.zeros(len(basis), 0)
    vecs = [vectorize_hom(h) for h in homs]
    return la.span_coordinates([vectorize_hom(b) for b in basis], vecs, homs[0].source.algebra.p)


# -- canonical modules --------------------------------------------------------


def zero_module(algebra: AlgebraPresentation) -> Module:
    n = algebra.quiver.n_vertices
    return Module(algebra, [0] * n, [la.zeros(0, 0)] * len(algebra.quiver.arrows), name="0")


def simple_module(algebra: AlgebraPresentation, v: int) -> Module:
    q = algebra.quiver
    dims = [1 if w == v else 0 for w in range(q.n_vertices)]
    mats = [la.zeros(dims[t], dims[s]) for _, s, t in q.arrows]
    return Module(algebra, dims, mats, name=f"S{v + 1}")


def indecomposable_projective(algebra: AlgebraPresentation, v: int) -> Module:
    """P_v: basis given by the surviving paths out of v.

    Cached per (algebra, v): every call returns the same shared module,
    which callers must not mutate (not even its name).
    """
    key = ("projective", v)
    if key in algebra._cache:
        return algebra._cache[key]
    b = algebra.basis
    q = algebra.quiver
    local: Dict[int, List[int]] = {w: [] for w in range(q.n_vertices)}
    for i, mono in enumerate(b.monomials):
        if path_source(mono) == v:
            local[path_target(q, mono)].append(i)
    pos = {gi: j for w in local for j, gi in enumerate(local[w])}
    dims = [len(local[w]) for w in range(q.n_vertices)]
    mats = []
    for a, (_, s, t) in enumerate(q.arrows):
        mat = la.zeros(dims[t], dims[s])
        for col, gi in enumerate(local[s]):
            for ti, c in b.left_action[a].get(gi, {}).items():
                mat[pos[ti], col] = c
        mats.append(mat)
    m = Module(algebra, dims, mats, name=f"P{v + 1}")
    m._proj_vertex = v
    m._proj_gen_index = pos[b.index[(v, ())]]
    algebra._cache[key] = m
    return m


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
    """
    p = m.algebra.p
    q = m.algebra.quiver
    nv = q.n_vertices
    projs = []
    comps = []
    for v in range(nv):
        b = bases[v]
        d = m.dims[v]
        if b.shape[1] == 0:
            projs.append(la.eye(d))
            comps.append(la.eye(d))
            continue
        _, pivots = la.rref(b.T, p)
        free = [i for i in range(d) if i not in pivots]
        comp = la.zeros(d, len(free))
        for j, i in enumerate(free):
            comp[i, j] = 1
        full = np.hstack([b, comp])
        inv = la.invert(full, p)
        if inv is None:
            raise ValueError("subspace basis is not independent")
        projs.append(inv[b.shape[1] :, :])
        comps.append(comp)
    dims = [projs[v].shape[0] for v in range(nv)]
    mats = []
    for a, (_, s, t) in enumerate(q.arrows):
        mats.append(la.matmul(projs[t], la.matmul(m.mats[a], comps[s], p), p))
    quot = Module(m.algebra, dims, mats, name=name)
    return quot, ModuleHom(m, quot, projs, check=True)


def kernel(f: ModuleHom) -> Tuple[Module, ModuleHom]:
    p = f.source.algebra.p
    bases = [la.kernel_basis(f.mats[v], p) for v in range(len(f.source.dims))]
    return submodule(f.source, bases, name="ker")


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
    """A projective cover: the sum structure plus the covering epi."""

    sum: SumData
    vertices: List[int]  # vertex of each indecomposable summand
    epi: ModuleHom


def hom_from_generator_images(psum: SumData, vertices: List[int], target: Module, images: List[np.ndarray]) -> ModuleHom:
    """Module hom out of a sum of P_v's, from images of the top generators.

    images[i] is the vector in target at vertex vertices[i] receiving the
    generator of the i-th summand.
    """
    p = target.algebra.p
    parts = []
    for i, v in enumerate(vertices):
        pv = psum.parts[i]
        b = target.algebra.basis
        q = target.algebra.quiver
        local: Dict[int, List[int]] = {}
        for gi, mono in enumerate(b.monomials):
            if path_source(mono) == v:
                local.setdefault(path_target(q, mono), []).append(gi)
        mats = []
        for w in range(q.n_vertices):
            monos = local.get(w, [])
            mat = la.zeros(target.dims[w], len(monos))
            for col, gi in enumerate(monos):
                mono = b.monomials[gi]
                mat[:, col] = la.matmul(
                    act_along(target, mono), images[i].reshape(-1, 1), p
                )[:, 0]
            mats.append(mat)
        parts.append(ModuleHom(pv, target, mats, check=False))
    total_mats = []
    for w in range(len(target.dims)):
        total_mats.append(np.hstack([h.mats[w] for h in parts]) if parts else la.zeros(target.dims[w], 0))
    return ModuleHom(psum.module, target, total_mats, check=True)


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
    parts = [indecomposable_projective(m.algebra, v) for v in vertices]
    psum = direct_sum(m.algebra, parts, name=f"P({m.name})")
    epi = hom_from_generator_images(psum, vertices, m, gen_images)
    for v in range(q.n_vertices):
        if la.rank(epi.mats[v], p) != m.dims[v]:
            raise AssertionError("projective cover failed to surject")
    return ProjCover(psum, vertices, epi)


@dataclass
class ProjPresentation:
    """Minimal presentation P1 -> P0 -> m -> 0 with the syzygy inclusion."""

    p1: ProjCover
    p0: ProjCover
    d: ModuleHom  # P1 -> P0
    eps: ModuleHom  # P0 -> m
    syzygy: Module
    syzygy_incl: ModuleHom  # syzygy -> P0


def minimal_projective_presentation(m: Module) -> ProjPresentation:
    c0 = projective_cover(m)
    syz, incl = kernel(c0.epi)
    c1 = projective_cover(syz)
    d = compose(incl, c1.epi)
    return ProjPresentation(c1, c0, d, c0.epi, syz, incl)


def injective_envelope(m: Module) -> Tuple[Module, ModuleHom]:
    """The injective envelope, via the projective cover of the dual."""
    dm = dual_module(m)
    cover = projective_cover(dm)
    env = dual_module(cover.sum.module)
    mono = dual_hom(cover.epi)  # D(dm) -> env, and D(dm) is m again
    mono = ModuleHom(m, env, mono.mats, check=True)
    return env, mono


# -- transpose and the translates ---------------------------------------------


def _op_element_of(algebra: AlgebraPresentation, vec: np.ndarray, src: int, tgt: int) -> Dict[int, int]:
    """Rewrite an element of e_tgt A e_src (coords over A-monomials from
    src to tgt) as {op-monomial index: coeff} over the opposite algebra."""
    op = opposite_of(algebra)
    b = algebra.basis
    q = algebra.quiver
    monos = [i for i, mo in enumerate(b.monomials) if path_source(mo) == src and path_target(q, mo) == tgt]
    out: Dict[int, int] = {}
    for c, gi in zip(vec, monos):
        if not c:
            continue
        v, arrows = b.monomials[gi]
        rev = (tgt, tuple(reversed(arrows)))
        for oi, oc in op.basis.reduce_path(rev).items():
            out[oi] = (out.get(oi, 0) + int(c) * oc) % algebra.p
    return {k: v for k, v in out.items() if v}


def star_of_projective_hom(cover_src: ProjCover, cover_tgt: ProjCover, h: ModuleHom) -> Tuple[SumData, SumData, ModuleHom, List[int], List[int]]:
    """Apply Hom(-, A) to a hom between explicit projective sums.

    h: cover_src.sum.module -> cover_tgt.sum.module.  Returns the opposite
    projective sums (target-star, source-star), the starred hom between
    them, and their vertex lists.
    """
    algebra = cover_src.sum.module.algebra
    op = opposite_of(algebra)
    p = algebra.p
    src_vs, tgt_vs = cover_src.vertices, cover_tgt.vertices
    star_src = direct_sum(op, [indecomposable_projective(op, v) for v in tgt_vs])
    star_tgt = direct_sum(op, [indecomposable_projective(op, v) for v in src_vs])
    b = algebra.basis
    q = algebra.quiver
    images: List[np.ndarray] = []
    for j, w in enumerate(tgt_vs):
        img = np.zeros(star_tgt.module.dims[w], dtype=np.int64)
        for i, v in enumerate(src_vs):
            # component P_v -> P_w of h, read off the generator of P_v
            gen = la.zeros(cover_src.sum.parts[i].dims[v], 1)
            gen[cover_src.sum.parts[i]._proj_gen_index, 0] = 1
            moved = la.matmul(h.mats[v], la.matmul(cover_src.sum.inclusions[i].mats[v], gen, p), p)
            comp = la.matmul(cover_tgt.sum.projections[j].mats[v], moved, p)[:, 0]
            op_elt = _op_element_of(algebra, comp, w, v)
            # place into the P^op_v summand of star_tgt at vertex w
            part = star_tgt.parts[i]
            local = [gi for gi, mo in enumerate(op.basis.monomials) if path_source(mo) == v and path_target(op.quiver, mo) == w]
            vec = np.zeros(part.dims[w], dtype=np.int64)
            for oi, c in op_elt.items():
                vec[local.index(oi)] = c
            img = (img + la.matmul(star_tgt.inclusions[i].mats[w], vec.reshape(-1, 1), p)[:, 0]) % p
        images.append(img)
    star_h = hom_from_generator_images(star_src, tgt_vs, star_tgt.module, images)
    return star_src, star_tgt, star_h, tgt_vs, src_vs


def transpose(m: Module) -> Tuple[Module, List[Module]]:
    """Tr(m) over the opposite algebra, after splitting off projectives.

    Returns (Tr of the projective-free part, list of projective summands
    that were split off).
    """
    parts = decompose(m)
    projectives = []
    rest = []
    for part, _, _ in parts:
        if is_projective_indec(part):
            projectives.append(part)
        else:
            rest.append(part)
    if not rest:
        return zero_module(opposite_of(m.algebra)), projectives
    core = direct_sum(m.algebra, rest).module if len(rest) > 1 else rest[0]
    pres = minimal_projective_presentation(core)
    _, _, star_d, _, _ = star_of_projective_hom(pres.p1, pres.p0, pres.d)
    tr, _ = cokernel(star_d)
    tr.name = f"Tr({m.name})" if m.name else "Tr"
    return tr, projectives


def is_projective_indec(m: Module) -> bool:
    for v in range(m.algebra.quiver.n_vertices):
        pv = indecomposable_projective(m.algebra, v)
        if pv.dims == m.dims and iso_between(m, pv) is not None:
            return True
    return False


def is_injective_indec(m: Module) -> bool:
    for v in range(m.algebra.quiver.n_vertices):
        iv = indecomposable_injective(m.algebra, v)
        if iv.dims == m.dims and iso_between(m, iv) is not None:
            return True
    return False


def tau(m: Module) -> Module:
    """The Auslander-Reiten translate D Tr.

    Raises for a nonzero projective input; projective summands of a mixed
    input are stripped (they contribute nothing).
    """
    tr, stripped = transpose(m)
    if tr.is_zero() and not m.is_zero():
        raise ValueError("tau of a projective module is undefined here")
    out = dual_module(tr)
    out.name = f"tau({m.name})" if m.name else ""
    return out


def tau_inverse(m: Module) -> Module:
    """The inverse translate Tr D.  Raises for a nonzero injective input."""
    tr, _ = transpose(dual_module(m))
    if tr.is_zero() and not m.is_zero():
        raise ValueError("tau inverse of an injective module is undefined here")
    tr.name = f"tau^-({m.name})" if m.name else ""
    return tr


# -- endomorphism algebra: radical and decomposition --------------------------


def _mult_coords(basis_homs: List[ModuleHom]) -> np.ndarray:
    """Structure constants: T[i, j] holds the coordinates of b_i o b_j."""
    k = len(basis_homs)
    coords = hom_coordinates([compose(a, b) for a in basis_homs for b in basis_homs], basis_homs)
    assert coords is not None, "endomorphism product left the span"
    return coords.T.reshape(k, k, k)


def end_radical(m: Module) -> List[ModuleHom]:
    """Basis of rad End(m).

    The trace form of the regular representation is computed first; its
    kernel always contains the radical and equals it whenever the kernel
    is a nilpotent ideal, which is checked.  If the characteristic is too
    small for that to close, the trace form on the underlying space is
    intersected in; if nilpotency still fails, an error is raised rather
    than returning a wrong answer.
    """
    ends = hom_basis(m, m)
    if not ends:
        return []
    p = m.algebra.p
    k = len(ends)
    T = _mult_coords(ends)
    reg_tr = np.array([sum(int(T[i, l, l]) for l in range(k)) % p for i in range(k)], dtype=np.int64)
    gram = np.zeros((k, k), dtype=np.int64)
    for i in range(k):
        for j in range(k):
            gram[i, j] = sum(int(T[i, j, x]) * int(reg_tr[x]) for x in range(k)) % p

    def nilpotent_ideal(coord_basis: np.ndarray) -> bool:
        # coord_basis: columns are elements in End-coordinates
        cur = coord_basis
        for _ in range(k + 1):
            if cur.shape[1] == 0:
                return True
            prods = []
            for a in range(cur.shape[1]):
                for bcol in range(coord_basis.shape[1]):
                    x = cur[:, a]
                    y = coord_basis[:, bcol]
                    out = np.zeros(k, dtype=np.int64)
                    for i in range(k):
                        if not x[i]:
                            continue
                        for j in range(k):
                            if not y[j]:
                                continue
                            out = (out + int(x[i]) * int(y[j]) * T[i, j]) % p
                    prods.append(out)
            nxt = la.column_space_basis(np.stack(prods, axis=1), p) if prods else la.zeros(k, 0)
            if nxt.shape[1] == cur.shape[1] and la.rank(np.hstack([cur, nxt]), p) == cur.shape[1]:
                return False  # stable nonzero power
            cur = nxt
        return cur.shape[1] == 0

    cand = la.kernel_basis(gram, p)
    if not nilpotent_ideal(cand):
        # fall back: intersect with the trace form of the action on m itself
        vtr = np.zeros((k, k), dtype=np.int64)
        for i in range(k):
            for j in range(k):
                comp = compose(ends[i], ends[j])
                vtr[i, j] = sum(int(np.trace(mm)) for mm in comp.mats) % p
        cand = la.intersect_column_spaces(cand, la.kernel_basis(vtr, p), p)
        if not nilpotent_ideal(cand):
            raise ArithmeticError(
                "radical computation did not close; characteristic too small "
                "relative to the endomorphism algebra"
            )
    vecs = [vectorize_hom(e) for e in ends]
    out = []
    for j in range(cand.shape[1]):
        vec = np.zeros(len(vecs[0]), dtype=np.int64)
        for i in range(k):
            vec = (vec + int(cand[i, j]) * vecs[i]) % p
        out.append(unvectorize_hom(m, m, vec))
    return out


def _factor_minpoly(coeffs: List[int], p: int):
    poly = Poly(list(reversed(coeffs)), _X, domain=GF(p))
    _, factors = poly.factor_list()
    return factors  # list of (Poly, multiplicity)


def _poly_coeffs(poly, p: int) -> List[int]:
    cs = [int(c) % p for c in poly.all_coeffs()]
    return list(reversed(cs))


def _split_by_endo(m: Module, f: ModuleHom) -> Optional[Tuple[Tuple[Module, ModuleHom, ModuleHom], Tuple[Module, ModuleHom, ModuleHom]]]:
    """Fitting-style splitting along coprime factors of the minimal polynomial."""
    p = m.algebra.p
    block = np.zeros((m.total_dim, m.total_dim), dtype=np.int64)
    off = 0
    for v in range(len(m.dims)):
        d = m.dims[v]
        block[off : off + d, off : off + d] = f.mats[v]
        off += d
    mu = la.minimal_polynomial(block, p)
    factors = _factor_minpoly(mu, p)
    if len(factors) < 2:
        return None
    g = factors[0][0] ** factors[0][1]
    h = Poly(1, _X, domain=GF(p))
    for poly, mult in factors[1:]:
        h *= poly**mult
    gc = _poly_coeffs(g, p)
    hc = _poly_coeffs(h, p)
    pieces = []
    for coeffs in (gc, hc):
        bases = [la.kernel_basis(la.poly_eval_matrix(coeffs, f.mats[v], p) if m.dims[v] else la.zeros(0, 0), p) for v in range(len(m.dims))]
        sub, incl = submodule(m, bases)
        pieces.append((sub, incl, bases))
    (m1, i1, b1), (m2, i2, b2) = pieces
    if m1.total_dim == 0 or m2.total_dim == 0:
        return None
    projs1, projs2 = [], []
    for v in range(len(m.dims)):
        full = np.hstack([b1[v], b2[v]])
        inv = la.invert(full, p)
        assert inv is not None, "Fitting kernels do not span"
        projs1.append(inv[: b1[v].shape[1], :])
        projs2.append(inv[b1[v].shape[1] :, :])
    p1 = ModuleHom(m, m1, projs1, check=True)
    p2 = ModuleHom(m, m2, projs2, check=True)
    return (m1, i1, p1), (m2, i2, p2)


class CertificationError(RuntimeError):
    pass


def _quotient_algebra_data(ends: List[ModuleHom], rad: List[ModuleHom]):
    """Coordinates for End/rad: complement positions and a reducer."""
    p = ends[0].source.algebra.p
    k = len(ends)
    if rad:
        radmat = hom_coordinates(rad, ends).T
        rr, pivots = la.rref(radmat, p)
        rr = rr[: len(pivots)]
    else:
        rr, pivots = la.zeros(0, k), []
    free = [i for i in range(k) if i not in pivots]

    def reduce_coords(vec: np.ndarray) -> np.ndarray:
        v = vec.copy() % p
        for row, piv in enumerate(pivots):
            c = v[piv]
            if c:
                v = (v - c * rr[row]) % p
        return v[free]

    return free, reduce_coords


def _find_idempotent_split(m: Module, ends: List[ModuleHom], rad: List[ModuleHom], rng) -> Optional[ModuleHom]:
    """Search End/rad for a nontrivial idempotent; return its lift or None
    if End/rad certifies as a field (so m is indecomposable).

    Raises CertificationError when the search is inconclusive.
    """
    p = m.algebra.p
    k = len(ends)
    T = _mult_coords(ends)
    free, reduce_coords = _quotient_algebra_data(ends, rad)
    kq = len(free)
    if kq == 1:
        return None  # End/rad is F_p

    def qmult(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        out = np.zeros(k, dtype=np.int64)
        for i, fi in enumerate(free):
            if not a[i]:
                continue
            for j, fj in enumerate(free):
                if not b[j]:
                    continue
                out = (out + int(a[i]) * int(b[j]) * T[fi, fj]) % p
        return reduce_coords(out)

    # multiplication operators in the quotient must commute for a field
    id_coords = hom_coordinates([identity_hom(m)], ends)[:, 0]
    one = reduce_coords(id_coords)

    def op_matrix(z: np.ndarray) -> np.ndarray:
        cols = []
        for j in range(kq):
            e = np.zeros(kq, dtype=np.int64)
            e[j] = 1
            cols.append(qmult(z, e))
        return np.stack(cols, axis=1)

    candidates = []
    for j in range(kq):
        e = np.zeros(kq, dtype=np.int64)
        e[j] = 1
        candidates.append(e)
    for _ in range(200):
        candidates.append(rng.integers(0, p, size=kq))

    for z in candidates:
        opz = op_matrix(z)
        mu = la.minimal_polynomial(opz, p)
        factors = _factor_minpoly(mu, p)
        if len(factors) >= 2:
            # CRT idempotent: e = (a * g1)(z) with a*g1 + b*g2 = 1
            g1 = factors[0][0] ** factors[0][1]
            g2 = Poly(1, _X, domain=GF(p))
            for poly, mult in factors[1:]:
                g2 *= poly**mult
            s_co, _, g_co = g1.gcdex(g2)
            assert g_co.is_one
            e_poly = (s_co * g1) % (g1 * g2)
            coeffs = _poly_coeffs(e_poly, p)
            acc = np.zeros(kq, dtype=np.int64)
            power = one.copy()
            for c in coeffs:
                acc = (acc + c * power) % p
                power = qmult(power, z)
            ev = acc
            if not ev.any() or not (ev - one).any():
                continue
            # lift to End(m) and polish to an idempotent modulo the radical
            lift = np.zeros(k, dtype=np.int64)
            for i, fi in enumerate(free):
                lift[fi] = ev[i]
            x = None
            for i in range(k):
                piece = hom_scale(int(lift[i]), ends[i])
                x = piece if x is None else hom_add(x, piece)
            for _ in range(60):
                x2 = compose(x, x)
                if hom_equal(x2, x):
                    return x
                # x <- 3x^2 - 2x^3
                x = hom_sub(hom_add(x2, hom_add(x2, x2)), hom_add(compose(x2, x), compose(x2, x)))
            raise CertificationError("idempotent lifting did not converge")
        if len(mu) - 1 == kq:
            # primitive element with irreducible minimal polynomial: a field
            return None
    raise CertificationError(
        "could not certify indecomposability: no primitive element found; "
        "retry with a different seed or a larger prime"
    )


def decompose(m: Module, seed: int = 0) -> List[Tuple[Module, ModuleHom, ModuleHom]]:
    """Split m into indecomposable summands with inclusion/projection pairs.

    Random Fitting splittings do the bulk of the work; any summand they
    fail to split is certified indecomposable through End/rad (and if a
    nontrivial idempotent is found there instead, it is used to split, so
    the answer is never wrong for lack of luck).
    """
    rng = np.random.default_rng(seed)
    out: List[Tuple[Module, ModuleHom, ModuleHom]] = []

    def recurse(cur: Module, incl: ModuleHom, proj: ModuleHom):
        if cur.total_dim == 0:
            return
        ends = hom_basis(cur, cur)
        if len(ends) == 1:
            out.append((cur, incl, proj))
            return
        trial_homs = list(ends)
        for _ in range(40):
            coeffs = rng.integers(0, p_char, size=len(ends))
            h = None
            for c, b in zip(coeffs, ends):
                piece = hom_scale(int(c), b)
                h = piece if h is None else hom_add(h, piece)
            trial_homs.append(h)
        for h in trial_homs:
            split = _split_by_endo(cur, h)
            if split:
                (m1, i1, p1), (m2, i2, p2) = split
                recurse(m1, compose(incl, i1), compose(p1, proj))
                recurse(m2, compose(incl, i2), compose(p2, proj))
                return
        rad = end_radical(cur)
        idem = _find_idempotent_split(cur, ends, rad, rng)
        if idem is None:
            out.append((cur, incl, proj))
            return
        split = _split_by_endo(cur, idem)
        assert split is not None, "idempotent failed to split"
        (m1, i1, p1), (m2, i2, p2) = split
        recurse(m1, compose(incl, i1), compose(p1, proj))
        recurse(m2, compose(incl, i2), compose(p2, proj))

    p_char = m.algebra.p
    recurse(m, identity_hom(m), identity_hom(m))
    out.sort(key=lambda t: (t[0].total_dim, t[0].dims))
    return out


@dataclass
class Decomposition:
    """Indecomposable summands grouped by isomorphism type.

    summands lists (representative, multiplicity); witnesses keeps the flat
    inclusion/projection pair for every copy, in a fixed order.
    """

    module: Module
    summands: List[Tuple[Module, int]]
    witnesses: List[Tuple[Module, ModuleHom, ModuleHom]]


def decomposition(m: Module, seed: int = 0) -> Decomposition:
    flat = decompose(m, seed)
    groups: List[Tuple[Module, int]] = []
    for part, _, _ in flat:
        for i, (rep, mult) in enumerate(groups):
            if part.dims == rep.dims and iso_between(part, rep) is not None:
                groups[i] = (rep, mult + 1)
                break
        else:
            groups.append((part, 1))
    return Decomposition(m, groups, flat)


def iso_between(m: Module, n: Module) -> Optional[ModuleHom]:
    """The first element of the basis of Hom(m, n) that is an isomorphism, or None.

    Complete whenever m or n is indecomposable: if f = sum c_i h_i is an
    isomorphism with inverse g, then sum c_i g h_i = 1 in the local ring
    End(m), so some g h_i is a unit and h_i is itself an isomorphism (the
    same argument runs through End(n) when n is the indecomposable side).
    For two decomposable modules None proves nothing; use
    modules_isomorphic.
    """
    if m.dims != n.dims:
        return None
    if m.total_dim == 0:
        return zero_hom(m, n)
    p = m.algebra.p
    for h in hom_basis(m, n):
        if all(la.invert(x, p) is not None for x in h.mats):
            return h
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
    mparts = [x[0] for x in decompose(m)]
    nparts = [x[0] for x in decompose(n)]
    if len(mparts) != len(nparts):
        return False
    remaining = list(nparts)
    for part in mparts:
        for i, other in enumerate(remaining):
            if part.dims == other.dims and iso_between(part, other) is not None:
                remaining.pop(i)
                break
        else:
            return False
    return True


# -- Ext groups ---------------------------------------------------------------


def hom_space_matrix(d: ModuleHom, source_basis: List[ModuleHom], target_basis: List[ModuleHom]) -> np.ndarray:
    """Matrix of Hom(d, N): h |-> h o d, in the given hom bases.

    source_basis spans Hom(d.target, N), target_basis spans Hom(d.source, N).
    """
    coords = hom_coordinates([compose(b, d) for b in source_basis], target_basis)
    assert coords is not None
    return coords


def projective_resolution(m: Module, length: int) -> Tuple[List[ProjCover], List[ModuleHom]]:
    """Covers P_0 .. P_length and differentials d_i: P_i -> P_{i-1}."""
    covers = [projective_cover(m)]
    diffs: List[ModuleHom] = []
    cur_ker, cur_incl = kernel(covers[0].epi)
    for _ in range(length):
        c = projective_cover(cur_ker)
        covers.append(c)
        diffs.append(compose(cur_incl, c.epi))
        cur_ker, cur_incl = kernel(c.epi)
    return covers, diffs


def ext_dims(resolution: Tuple[List[ProjCover], List[ModuleHom]], n: Module, degrees: Sequence[int]) -> List[int]:
    """dim Ext^k(m, n) for each k in degrees, from resolution = projective_resolution(m, L).

    L must be at least max(degrees) + 1.  Hom(P_i, n) is computed once per
    needed cover and the rank r_i of Hom(d_{i+1}, n): Hom(P_i, n) ->
    Hom(P_{i+1}, n) once per needed differential, so every degree reads
    dim Ext^k = dim Hom(P_k, n) - r_k - r_{k-1}.
    """
    covers, diffs = resolution
    if min(degrees) < 0:
        raise ValueError("Ext is defined for k >= 0 only")
    if max(degrees) >= len(diffs):
        raise ValueError("the resolution is too short for the requested degrees")
    p = n.algebra.p
    lo, hi = max(min(degrees) - 1, 0), max(degrees) + 1
    bases = {i: hom_basis(covers[i].sum.module, n) for i in range(lo, hi + 1)}
    ranks = {i: la.rank(hom_space_matrix(diffs[i], bases[i], bases[i + 1]), p) for i in range(lo, hi)}
    return [len(bases[k]) - ranks[k] - ranks.get(k - 1, 0) for k in degrees]


def ext_dim(m: Module, n: Module, k: int) -> int:
    """dim Ext^k(m, n) over the common algebra; one degree of ext_dims."""
    if k == 0:
        return len(hom_basis(m, n))
    return ext_dims(projective_resolution(m, k + 1), n, [k])[0]
