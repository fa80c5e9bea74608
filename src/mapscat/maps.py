"""The category of maps over a quiver algebra.

Objects are morphisms f: M1 -> M2 in mod Lambda, morphisms are commuting
squares.  The category is equivalent to modules over the triangular matrix
algebra Gamma of Lambda, and goes through Gamma: hom spaces, direct sums,
kernels, extensions, decomposition and the Ext counts are the module
constructions on the Gamma side, split back into squares, and any other
operation on morphisms is the module one on their .gamma.  The
category carries the exact structure S, defined by its relative
projectives, the sums of (M,0,0), (M,M,1) and (0,M,0): a short exact
sequence lies in S when Hom(Q, -) keeps it exact for each of them, which
the three structural legs of its right end decide.  The module supports
the relative homological algebra of S: F-projective covers, resolutions of
length at most two, and relative Ext.
"""

from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional, Sequence, Tuple

from . import linalg as la
from .algebra import AlgebraPresentation, ChainAlgebra, TriangularAlgebra, chain_algebra, triangular_matrix_algebra
from .modules import (
    Module,
    ModuleHom,
    compose,
    decompose,
    direct_sum,
    factor_past,
    factor_through,
    hom_basis,
    hom_basis_coordinates,
    hom_complex_dims,
    hom_equal,
    hom_out_of_sum,
    identity_hom,
    is_epi,
    is_mono,
    iso_between,
    kernel,
    zero_hom,
    zero_module,
)


class MapObject:
    """An object of maps(mod Lambda): a morphism f: m1 -> m2.

    Immutable by contract, like modules: the Gamma module of the object is
    built once, on first use of gamma, and then kept.
    """

    def __init__(self, f: ModuleHom, name: str = ""):
        self.f = f
        self.m1 = f.source
        self.m2 = f.target
        self.algebra = f.source.algebra
        self.name = name
        self._gamma: Optional[Module] = None

    @property
    def gamma(self) -> Module:
        """The same object as a module over the triangular matrix algebra."""
        if self._gamma is None:
            self._gamma = to_gamma_module(self)
        return self._gamma

    @property
    def total_dim(self) -> int:
        return self.m1.total_dim + self.m2.total_dim

    def is_zero(self) -> bool:
        return self.total_dim == 0

    def __repr__(self):
        tag = f" {self.name!r}" if self.name else ""
        return f"MapObject{tag} {self.m1.dims} -> {self.m2.dims}"


class MapMorphism:
    """A morphism of map objects: its Gamma hom gamma: source.gamma -> target.gamma.

    h1: source.m1 -> target.m1 and h2: source.m2 -> target.m2 are the two
    level views of gamma, kept as given when the morphism is built from
    them and read off gamma on first use when it is built by
    from_gamma_hom.  The connecting arrows of Gamma carry the square
    target.f h1 = h2 source.f, so check=True is the Gamma hom check: it
    rejects a square that does not commute and a level that is not a hom.
    """

    def __init__(self, source: MapObject, target: MapObject, h1: ModuleHom, h2: ModuleHom, check: bool = True):
        self.source = source
        self.target = target
        # the level matrices are reduced ModuleHom matrices already, so gamma shares them
        self.gamma = ModuleHom(source.gamma, target.gamma, h1.mats + h2.mats, check=check, reduced=True)
        self.h1 = h1
        self.h2 = h2

    @cached_property
    def h1(self) -> ModuleHom:
        n = self.source.algebra.quiver.n_vertices
        return ModuleHom(self.source.m1, self.target.m1, self.gamma.mats[:n], check=False, reduced=True)

    @cached_property
    def h2(self) -> ModuleHom:
        n = self.source.algebra.quiver.n_vertices
        return ModuleHom(self.source.m2, self.target.m2, self.gamma.mats[n:], check=False, reduced=True)

    def is_zero(self) -> bool:
        return self.gamma.is_zero()

    def __repr__(self):
        return f"MapMorphism {self.source!r} => {self.target!r}"


def from_gamma_hom(h: ModuleHom, x: MapObject, y: MapObject) -> MapMorphism:
    """The morphism x -> y whose Gamma hom is h: x.gamma -> y.gamma itself;
    no level hom is built until h1 or h2 is read."""
    mor = object.__new__(MapMorphism)
    mor.source, mor.target, mor.gamma = x, y, h
    return mor


# -- elementary morphism algebra: the Gamma operations -------------------------


def map_identity(x: MapObject) -> MapMorphism:
    return from_gamma_hom(identity_hom(x.gamma), x, x)


def map_zero(x: MapObject, y: MapObject) -> MapMorphism:
    return from_gamma_hom(zero_hom(x.gamma, y.gamma), x, y)


def map_compose(g: MapMorphism, f: MapMorphism) -> MapMorphism:
    return from_gamma_hom(compose(g.gamma, f.gamma), f.source, g.target)


def identity_object(m: Module) -> MapObject:
    return MapObject(identity_hom(m), name=f"({m.name},{m.name},1)" if m.name else "")


def target_only(m: Module) -> MapObject:
    return MapObject(zero_hom(zero_module(m.algebra), m), name=f"(0,{m.name},0)" if m.name else "")


def source_only(m: Module) -> MapObject:
    return MapObject(zero_hom(m, zero_module(m.algebra)), name=f"({m.name},0,0)" if m.name else "")


def zero_map_object(algebra: AlgebraPresentation) -> MapObject:
    z = zero_module(algebra)
    return MapObject(zero_hom(z, z), name="0")


@dataclass
class MapSum:
    object: MapObject
    parts: List[MapObject]
    inclusions: List[MapMorphism]
    projections: List[MapMorphism]


def direct_sum_maps(algebra: AlgebraPresentation, parts: Sequence[MapObject], name: str = "") -> MapSum:
    tri = gamma_of(algebra)
    s = direct_sum(tri.algebra, [x.gamma for x in parts])
    obj = _fresh_map_object(tri, s.module, name)
    incls = [from_gamma_hom(i, x, obj) for i, x in zip(s.inclusions, parts)]
    projs = [from_gamma_hom(q, obj, x) for q, x in zip(s.projections, parts)]
    return MapSum(obj, list(parts), incls, projs)


# -- hom spaces ----------------------------------------------------------------


def hom_maps(x: MapObject, y: MapObject) -> List[MapMorphism]:
    """Canonical basis of the space of commuting squares x -> y.

    This is hom_basis(x.gamma, y.gamma) split back into squares: the
    connecting arrows of Gamma carry the interchange y.f h1 = h2 x.f.
    """
    return [from_gamma_hom(h, x, y) for h in hom_basis(x.gamma, y.gamma)]


# -- the triangular matrix algebra bridge --------------------------------------


def gamma_of(algebra: AlgebraPresentation) -> TriangularAlgebra:
    if "gamma" not in algebra._cache:
        algebra._cache["gamma"] = triangular_matrix_algebra(algebra)
    return algebra._cache["gamma"]


def chain_of(algebra: AlgebraPresentation, terms: int) -> ChainAlgebra:
    """chain_algebra(algebra, terms), built once per algebra and term count."""
    key = ("chain", terms)
    if key not in algebra._cache:
        algebra._cache[key] = chain_algebra(algebra, terms)
    return algebra._cache[key]


def _chain_module(algebra: AlgebraPresentation, copies, joins, modules, diffs, name: str = "") -> Module:
    """The module of a chain algebra with modules[j] on copy j and diffs[j] on the joins from copy j."""
    mats = [None] * len(algebra.quiver.arrows)
    for arrows, x in zip(copies + joins, modules + diffs):
        for a, mat in zip(arrows, x.mats):
            mats[a] = mat
    return Module(algebra, [d for m in modules for d in m.dims], mats, name=name)


def to_gamma_module(x: MapObject) -> Module:
    """Build the Gamma module of x, the two-term complex m1 -> m2; x.gamma keeps the result."""
    tri = gamma_of(x.algebra)
    return _chain_module(tri.algebra, [tri.copy1_arrows, tri.copy2_arrows], [tri.connecting], [x.m1, x.m2], [x.f], x.name)


def from_gamma_module(tri: TriangularAlgebra, g: Module) -> MapObject:
    """The map object of a Gamma module g; its gamma is g itself."""
    base = tri.base
    n = base.quiver.n_vertices
    m1 = Module(base, g.dims[:n], [g.mats[i] for i in tri.copy1_arrows])
    m2 = Module(base, g.dims[n:], [g.mats[i] for i in tri.copy2_arrows])
    # the commuting squares are relations of Gamma, so g already checked them
    f = ModuleHom(m1, m2, [g.mats[tri.connecting[v]] for v in range(n)], check=False)
    x = MapObject(f, name=g.name)
    x._gamma = g
    return x


def _fresh_map_object(tri: TriangularAlgebra, g: Module, name: str = "") -> MapObject:
    """The map object of a Gamma module that nobody else holds yet.

    The module and the map object are both labelled name.
    """
    g.name = name
    return from_gamma_module(tri, g)


def decompose_map_object(x: MapObject) -> List[Tuple[MapObject, MapMorphism, MapMorphism]]:
    """Indecomposable summands of x, found on the triangular-algebra side."""
    tri = gamma_of(x.algebra)
    out = []
    for part, incl, proj in decompose(x.gamma):
        y = from_gamma_module(tri, part)
        out.append((y, from_gamma_hom(incl, y, x), from_gamma_hom(proj, x, y)))
    return out


def map_iso_between(x: MapObject, y: MapObject) -> Optional[MapMorphism]:
    """An isomorphism x -> y found by iso_between on the Gamma side, or None.

    None is a proof only when x or y is indecomposable.  To compare two
    possibly decomposable objects use modules_isomorphic(x.gamma, y.gamma).
    """
    g = iso_between(x.gamma, y.gamma)
    return None if g is None else from_gamma_hom(g, x, y)


def indec_map_kind(x: MapObject) -> str:
    """Classify an indecomposable map object by its structure map.

    'contractible' for (M,M,1)-type, 'source_only' for (M,0,0)-type,
    'target_only' for (0,M,0)-type, 'generic' otherwise.  Only the first
    two are killed by the cokernel functor.
    """
    if x.m2.is_zero():
        return "source_only" if not x.m1.is_zero() else "zero"
    if x.m1.is_zero():
        return "target_only"
    if x.m1.dims == x.m2.dims and is_mono(x.f):
        return "contractible"
    return "generic"


def minimal_presentation_with_summands(x: MapObject) -> Tuple[MapObject, List[MapObject]]:
    """The minimal presentation of x together with its indecomposable summands.

    Splits x once and keeps the generic and target-only summands; the
    contractible and source-only ones are invisible to the cokernel
    functor.  The summand list is empty for the zero functor.
    """
    parts = decompose_map_object(x)
    keep = [y for y, _, _ in parts if indec_map_kind(y) in ("generic", "target_only")]
    if not keep:
        return zero_map_object(x.algebra), []
    if len(keep) == 1:
        return MapObject(keep[0].f, name=x.name), keep
    return direct_sum_maps(x.algebra, keep, name=x.name).object, keep


def minimize_presentation(x: MapObject) -> MapObject:
    """Split off and drop all contractible and source-only summands.

    The cokernel functor does not see them, so the result presents the
    same functor; what remains is the minimal presentation.
    """
    return minimal_presentation_with_summands(x)[0]


# -- the cokernel functor ------------------------------------------------------


def phi_at(x: MapObject, t: Module) -> int:
    """dim Phi(x)(t) = dim coker(Hom(t, x.m1) -> Hom(t, x.m2)): the action
    of x.f is read off the canonical basis of Hom(t, x.m2) by
    hom_basis_coordinates, and Phi(x)(t) is its cokernel."""
    into_target = hom_basis(t, x.m2)
    action = hom_basis_coordinates((compose(x.f, b) for b in hom_basis(t, x.m1)), into_target)
    return len(into_target) - la.rank(action, x.algebra.p)


# -- exact structure -----------------------------------------------------------


def split_epi_section(v: ModuleHom) -> Optional[ModuleHom]:
    """A section s with v o s = 1, or None."""
    return factor_through(v, identity_hom(v.target))


def split_mono_retraction(u: ModuleHom) -> Optional[ModuleHom]:
    """A retraction r with r o u = 1, or None."""
    return factor_past(u, identity_hom(u.source))


def is_short_exact(u: ModuleHom, v: ModuleHom) -> bool:
    """Exactness of 0 -> A -u-> B -v-> C -> 0 over the algebra."""
    if not (is_mono(u) and is_epi(v) and compose(v, u).is_zero()):
        return False
    return all(a + c == b for a, b, c in zip(u.source.dims, u.target.dims, v.target.dims))


@dataclass
class SExactness:
    """Verdict of membership in the exact structure S.

    columns_split tells, for the kernel column 0 -> ker x.f -> ker e.f ->
    ker y.f -> 0 and the two level columns of 0 -> x -> e -> y -> 0,
    whether it is short exact and splits; the sequence is in S when all
    three do.
    """

    kernel_column_exact: bool
    columns_split: Tuple[bool, bool, bool]  # kernel, level-1, level-2
    verdict: bool


def is_S_exact(u: MapMorphism, v: MapMorphism) -> SExactness:
    """Test a short exact pair of map-object morphisms for membership in S.

    Raises when the pair is not short exact on Gamma (precondition), which
    is exactness of both level rows: Gamma's vertices are the vertices of
    the two levels; everything else is reported in the verdict.

    The pair is in S when Hom(Q, -), which is left exact, keeps it exact
    for every relative projective Q: when each map Q -> y onto the right
    end lifts along v.  A map from (M,0,0), (M,M,1) or (0,M,0) is a map
    M -> ker y.f, y.m1 or y.m2, so it factors through the structural leg
    (ker y.f,0,0), (y.m1,y.m1,1) or (0,y.m2,0) -> y of the F-cover of y,
    and the pair is in S when these three lift.  A lift of each is a
    section of ker e.f -> ker y.f, of v.h1 or of v.h2: the legs are the
    three columns.  A zero leg lifts.  By the snake lemma the kernel
    column is exact but at its right end, so it is short exact when the
    nullities add up, nullity(e.f) = nullity(x.f) + nullity(y.f).
    """
    if not is_short_exact(u.gamma, v.gamma):
        raise ValueError("the given pair is not a short exact sequence")
    p = u.source.algebra.p
    nullity = [[d - la.rank(m, p) for d, m in zip(x.m1.dims, x.f.mats)] for x in (u.source, v.source, v.target)]
    legs = _structural_pieces(v.target, *kernel(v.target.f))
    lifts = {tag: factor_through(v.gamma, leg.gamma) is not None for tag, _, leg in legs}
    splits = tuple(lifts.get(tag, True) for tag in ("kernel", "identity", "target"))
    return SExactness(all(a + c == b for a, b, c in zip(*nullity)), splits, all(splits))


# -- F-projective covers and relative Ext ---------------------------------------


@dataclass
class FCover:
    cover: MapObject
    epi: MapMorphism
    tags: List[str]  # one per retained structural summand
    kernel: Tuple[MapObject, MapMorphism]  # morphism_kernel(epi)


def f_projective_cover(x: MapObject) -> FCover:
    """An S-admissible epi onto x from an F-projective, with its kernel.

    Built from three structural summands: (ker f, 0, 0), (m1, m1, 1) and
    (0, m2, 0); zero summands are dropped.  Each leg lifts along the epi
    through its sum inclusion, so the cover sequence is in S (see
    is_S_exact) once the epi is checked to be an epi Gamma hom that
    restricts to the legs.  The kernel is kept for f_resolution.
    """
    pieces = _structural_pieces(x, *kernel(x.f))
    if not pieces:
        epi = map_zero(zero_map_object(x.algebra), x)
        return FCover(epi.source, epi, [], morphism_kernel(epi))
    epi, inclusions = _epi_from_pieces(x, pieces)
    h = ModuleHom(epi.gamma.source, x.gamma, epi.gamma.mats, reduced=True)  # the Gamma hom check
    if not (is_epi(h) and all(hom_equal(compose(h, i.gamma), leg.gamma) for i, (_, _, leg) in zip(inclusions, pieces))):
        raise AssertionError("constructed cover epi is not S-admissible")
    return FCover(epi.source, epi, [tag for tag, _, _ in pieces], morphism_kernel(epi))


def _structural_pieces(x: MapObject, k: Module, k_incl: ModuleHom) -> List[Tuple[str, MapObject, MapMorphism]]:
    """The nonzero ones of (ker f, 0, 0), (m1, m1, 1), (0, m2, 0), tagged, with their maps onto x.

    k_incl: k -> x.m1 is the kernel of x.f.
    """
    pieces: List[Tuple[str, MapObject, MapMorphism]] = []
    if not k.is_zero():
        src = source_only(k)
        pieces.append(("kernel", src, MapMorphism(src, x, k_incl, zero_hom(src.m2, x.m2), check=False)))
    if not x.m1.is_zero():
        ident = identity_object(x.m1)
        pieces.append(("identity", ident, MapMorphism(ident, x, identity_hom(x.m1), x.f, check=False)))
    if not x.m2.is_zero():
        tgt = target_only(x.m2)
        pieces.append(("target", tgt, MapMorphism(tgt, x, zero_hom(tgt.m1, x.m1), identity_hom(x.m2), check=False)))
    return pieces


def _epi_from_pieces(x: MapObject, pieces, name: str = "") -> Tuple[MapMorphism, List[MapMorphism]]:
    """The map onto x from the sum of the pieces' objects, one leg per
    piece, with the inclusions of the pieces into that sum: one block hom
    out of the sum on Gamma, split back."""
    tri = gamma_of(x.algebra)
    s = direct_sum(tri.algebra, [obj.gamma for _, obj, _ in pieces])
    total = _fresh_map_object(tri, s.module, name)
    epi = from_gamma_hom(hom_out_of_sum(s, [leg.gamma for _, _, leg in pieces]), total, x)
    return epi, [from_gamma_hom(i, obj, total) for i, (_, obj, _) in zip(s.inclusions, pieces)]


def morphism_kernel(mor: MapMorphism) -> Tuple[MapObject, MapMorphism]:
    """Kernel of a morphism of map objects, with its inclusion."""
    k, incl = kernel(mor.gamma)
    kobj = _fresh_map_object(gamma_of(mor.source.algebra), k)
    return kobj, from_gamma_hom(incl, kobj, mor.source)


@dataclass
class FResolution:
    """F-projective resolution Q2 -> Q1 -> Q0 -> x (length at most 2)."""

    x: MapObject
    covers: List[FCover]
    diffs: List[MapMorphism]  # diffs[i]: covers[i+1] -> covers[i]


def f_resolution(x: MapObject) -> FResolution:
    covers = []
    diffs = []
    cur = x
    cover = f_projective_cover(cur)
    covers.append(cover)
    for _ in range(3):
        ker_obj, ker_incl = covers[-1].kernel
        if ker_obj.is_zero():
            break
        nxt = f_projective_cover(ker_obj)
        diffs.append(map_compose(ker_incl, nxt.epi))
        covers.append(nxt)
    else:
        raise AssertionError("relative resolution did not stop within length 2")
    return FResolution(x, covers, diffs)


def relative_ext_dims(res: FResolution, y: MapObject, degrees: Sequence[int]) -> List[int]:
    """dim Ext_F^k(res.x, y) for each k in degrees (each in {1, 2}).

    The cohomology of Hom(Q, y) for the F-projective resolution Q of res,
    counted on Gamma by hom_complex_dims.
    """
    if any(k not in (1, 2) for k in degrees):
        raise ValueError("relative Ext implemented for k = 1, 2 only")
    terms = [c.cover.gamma for c in res.covers]
    return hom_complex_dims(terms, [d.gamma for d in res.diffs], y.gamma, degrees)


def relative_ext_dim(x: MapObject, y: MapObject, k: int) -> int:
    """dim Ext_F^k(x, y) for k in {1, 2}; one degree of relative_ext_dims."""
    return relative_ext_dims(f_resolution(x), y, [k])[0]


# -- complexes of projectives ---------------------------------------------------


class ProjComplex:
    """A bounded complex A_n -> ... -> A_1 -> A_0 (degree 0 last).

    modules[k] is the degree-k term; diffs[k]: modules[k+1] -> modules[k].
    Composites of consecutive differentials must vanish.  complex_module
    writes the complex as one module over chain_algebra, so chain maps are
    hom_basis there.  The class does not check the stronger resolution
    invariant, exactness of Hom(X, -) in degrees > 0; a caller that needs
    it checks it against a corpus of modules X.
    """

    def __init__(self, modules: Sequence[Module], diffs: Sequence[ModuleHom]):
        if len(diffs) != len(modules) - 1:
            raise ValueError("need one differential between consecutive terms")
        self.modules = list(modules)
        self.diffs = list(diffs)
        for k in range(len(self.diffs) - 1):
            if not compose(self.diffs[k], self.diffs[k + 1]).is_zero():
                raise ValueError("consecutive differentials do not compose to zero")

    @property
    def length(self) -> int:
        return len(self.modules) - 1

    def __repr__(self):
        return "ProjComplex " + " <- ".join(str(m.dims) for m in self.modules)


def complex_module(cpx: ProjComplex) -> Module:
    """cpx as a module over chain_algebra(base, length + 1), top degree first.

    Degree k sits on copy n - k and d_k: A_(k+1) -> A_k on the joins from
    copy n - k - 1, so a chain map cpx -> cpx' is a hom of these modules,
    with the degree-k vertex matrices in block (n - k) * nv + v.  A map
    object's Gamma module is the two-term case.
    """
    algebra, copies, joins = chain_of(cpx.modules[0].algebra, cpx.length + 1)
    return _chain_module(algebra, copies, joins, cpx.modules[::-1], cpx.diffs[::-1])


def theta_presentation(cpx: ProjComplex) -> MapObject:
    """The map object presenting the functor of the complex."""
    if cpx.length == 0:
        return target_only(cpx.modules[0])
    return MapObject(cpx.diffs[0])


def relative_syzygy(cpx: ProjComplex, i: int) -> ProjComplex:
    """Truncation dropping degrees 0..i.

    relative_syzygy(p, 0) is the first syzygy (bottom term removed).
    """
    n = cpx.length
    if not 0 <= i <= n - 1:
        raise ValueError(f"syzygy index must lie in [0, {n - 1}]")
    return ProjComplex(cpx.modules[i + 1 :], cpx.diffs[i + 1 :])


def disk_cover(cpx: ProjComplex):
    """The relative projective cover of a complex: disks plus a stalk.

    Degree k < n gets A_{k+1} (+) A_k with shift differentials; degree n
    gets A_n alone.  The covering chain map is (d_{k+1}, 1) degreewise.
    """
    alg = cpx.modules[0].algebra
    n = cpx.length
    if n == 0:
        m = cpx.modules[0]
        return ProjComplex([m], []), [identity_hom(m)], None
    sums = [direct_sum(alg, [cpx.modules[k + 1], cpx.modules[k]]) for k in range(n)]
    q_modules = [sums[k].module for k in range(n)] + [cpx.modules[n]]
    q_diffs = []
    for k in range(1, n):
        # (a_{k+1}, a_k) |-> (a_k, 0)
        q_diffs.append(compose(sums[k - 1].inclusions[0], sums[k].projections[1]))
    q_diffs.append(sums[n - 1].inclusions[0])
    pis = [hom_out_of_sum(sums[k], [cpx.diffs[k], identity_hom(cpx.modules[k])]) for k in range(n)]
    pis.append(identity_hom(cpx.modules[n]))
    return ProjComplex(q_modules, q_diffs), pis, sums


def _cover_splits(cpx: ProjComplex) -> bool:
    """Does the disk cover of cpx admit a chain section?"""
    qcpx, pis, _ = disk_cover(cpx)
    cover = ModuleHom(complex_module(qcpx), complex_module(cpx), [m for h in reversed(pis) for m in h.mats], check=False)
    return split_epi_section(cover) is not None


def rpdim(cpx: ProjComplex) -> int:
    """Relative projective dimension, by iterated syzygy truncation.

    The first r for which the disk cover of the r-th truncation splits,
    that is, has a section among the chain maps, hom_basis over
    chain_algebra.
    """
    cur = cpx
    r = 0
    while True:
        if _cover_splits(cur):
            return r
        if cur.length == 0:
            raise AssertionError("stalk complex failed to split off its cover")
        cur = ProjComplex(cur.modules[1:], cur.diffs[1:])
        r += 1
        if r > cpx.length + 1:
            raise ArithmeticError("relative dimension loop exceeded the length bound")
