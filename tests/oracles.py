"""Second routes kept as test oracles, beside the former routes in
dense_reference.py.

Each answers a question the package answers another way, so a test can
compare the two; nothing outside the tests calls them.

* top_quotient(m) is the quotient of m by its radical, read off
  radical_bases, so tests pin the top of a module and the projection of
  quotient against the dense reference.
* decomposition(m) groups the summands of decompose(m) by iso_index into
  (representative, multiplicity) pairs, the count that summand_multiplicity
  must reproduce without decomposing.
* homotopy_quotient_dim(x, y) is dim Hom(x, y) modulo the morphisms
  through the kernel and identity legs of y, which the cokernel functor
  Phi kills; it must equal dim Hom(Phi x, Phi y) in the functor
  realization (Phi is full) and the count from level homotopies.
* phi_op_dim_at(x, t) is dim coker(Hom(x.m2, t) -> Hom(x.m1, t)), read as
  phi_at of the dual map at Dt; tests compare it with a rank count.
* Ext1Data, ext1_data(x, y) and pushout_extension(data, c) describe
  Ext_F^1(x, y) by cocycles on the first relative syzygy modulo the
  coboundaries from the F-projective cover, as in Auslander-Solberg
  relative homology (Comm. Algebra 21, 1993).  Its dimension must equal
  relative_ext_dim(x, y, 1), and the pushout along a cocycle is an
  S-exact sequence that splits exactly when the class is zero.
* validate_hom_exactness(cpx, corpus) checks that Hom(X, cpx) is exact
  in every degree > 0 for each X of a corpus, through hom_complex_dims on
  the dual complex: the resolution invariant of relative syzygies and of
  the complexes behind rpdim.
* vanishes_on_projectives(f) evaluates a presented functor at each
  indecomposable projective; the tests check it on simple and
  representable functors, whose values at projectives are known.
"""

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from mapscat import linalg as la
from mapscat.functors import FpFunctor, evaluate
from mapscat.maps import (
    FCover,
    MapMorphism,
    MapObject,
    ProjComplex,
    _fresh_map_object,
    _structural_pieces,
    f_projective_cover,
    from_gamma_hom,
    gamma_of,
    phi_at,
)
from mapscat.modules import (
    Module,
    ModuleHom,
    compose,
    decompose,
    dual_hom,
    dual_module,
    extension,
    hom_basis,
    hom_basis_coordinates,
    hom_complex_dims,
    indecomposable_projective,
    iso_index,
    kernel,
    quotient,
    radical_bases,
)


# -- modules: the top and the grouped decomposition ----------------------------


def top_quotient(m: Module) -> Tuple[Module, ModuleHom]:
    return quotient(m, radical_bases(m), name="top")


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


# -- maps: Hom modulo homotopy and the dual cokernel functor -------------------


def homotopy_quotient_dim(x: MapObject, y: MapObject) -> int:
    """dim Hom(x,y) modulo homotopy; equals Hom of the induced functors.

    The cokernel functor kills u exactly when u.h2 = y.f s for some s, so
    u is (s x.f, y.f s), through the identity leg (y.m1, y.m1, 1) -> y,
    plus a (k, 0) with y.f k = 0, through the kernel leg (ker y.f, 0, 0) -> y.
    """
    full = hom_basis(x.gamma, y.gamma)
    legs = [leg.gamma for tag, _, leg in _structural_pieces(y, *kernel(y.f)) if tag != "target"]
    null = hom_basis_coordinates((compose(leg, h) for leg in legs for h in hom_basis(x.gamma, leg.source)), full)
    return len(full) - la.rank(null, x.algebra.p)


def phi_op_dim_at(x: MapObject, t: Module) -> int:
    """The dual construction: dim coker(Hom(m2,t) -> Hom(m1,t)).

    Hom(m, t) = Hom(Dt, Dm) turns it into Phi of D(x.f) at Dt.
    """
    return phi_at(MapObject(dual_hom(x.f)), dual_module(t))


# -- maps: extensions from cocycles (independent Ext^1 oracle) -----------------


@dataclass
class Ext1Data:
    """Cocycle description of Ext_F^1(x, y).

    cocycles is a basis of Hom(N0, y) for N0 the first relative syzygy;
    a cocycle's class is zero exactly when it lies in the column space of
    coboundary_matrix (restrictions of Hom(Q0, y)).  dim Ext_F^1 =
    len(cocycles) - rank(coboundary_matrix).
    """

    x: MapObject
    y: MapObject
    cover: FCover
    syzygy: MapObject
    syzygy_incl: MapMorphism
    cocycles: List[MapMorphism]
    coboundary_matrix: np.ndarray

    @property
    def dim(self) -> int:
        p = self.x.algebra.p
        return len(self.cocycles) - la.rank(self.coboundary_matrix, p)

    def class_is_zero(self, cocycle: MapMorphism) -> bool:
        coords = hom_basis_coordinates([cocycle.gamma], [c.gamma for c in self.cocycles])[:, 0]
        if self.coboundary_matrix.shape[1] == 0:
            return not coords.any()
        return la.solve(self.coboundary_matrix, coords, self.x.algebra.p) is not None


def ext1_data(x: MapObject, y: MapObject) -> Ext1Data:
    """The cocycles and coboundaries of Ext_F^1(x, y), from the kernel the
    cover keeps.  The cocycles are hom_maps(n0, y), so the coboundaries'
    coordinates are read off the canonical Gamma basis behind them."""
    cover = f_projective_cover(x)
    n0, incl = cover.kernel
    basis = hom_basis(n0.gamma, y.gamma)
    mat = hom_basis_coordinates((compose(h, incl.gamma) for h in hom_basis(cover.cover.gamma, y.gamma)), basis)
    return Ext1Data(x, y, cover, n0, incl, [from_gamma_hom(h, n0, y) for h in basis], mat)


def pushout_extension(data: Ext1Data, cocycle: MapMorphism) -> Tuple[MapObject, MapMorphism, MapMorphism]:
    """The extension 0 -> y -> E -> x -> 0 given by a cocycle N0 -> y.

    The pushout of the cover sequence along the cocycle, taken on Gamma.
    """
    e, leg_y, onto = extension(cocycle.gamma, data.syzygy_incl.gamma, data.cover.epi.gamma)
    e_obj = _fresh_map_object(gamma_of(data.x.algebra), e)
    return e_obj, from_gamma_hom(leg_y, data.y, e_obj), from_gamma_hom(onto, e_obj, data.x)


# -- maps: the resolution invariant --------------------------------------------


def validate_hom_exactness(cpx: ProjComplex, corpus: Sequence[Module]) -> bool:
    """The resolution invariant: (X, cpx) exact in all degrees > 0.

    Hom(X, A_k) = Hom(DA_k, DX), so this is the vanishing of the
    cohomology of Hom(-, DX) on the dual complex DA_0 -> ... -> DA_n in
    degrees 0 .. n - 1 (injectivity at A_n, exactness at A_(n-1) .. A_1),
    counted by hom_complex_dims.
    """
    n = cpx.length
    terms = [dual_module(m) for m in reversed(cpx.modules)]
    diffs = [dual_hom(d) for d in reversed(cpx.diffs)]
    return not any(any(hom_complex_dims(terms, diffs, dual_module(x), range(n))) for x in corpus)


# -- functors ------------------------------------------------------------------


def vanishes_on_projectives(f: FpFunctor) -> bool:
    alg = f.algebra
    for v in range(alg.quiver.n_vertices):
        if evaluate(f, indecomposable_projective(alg, v)) != 0:
            return False
    return True
