"""Finitely presented functors on mod Lambda.

A functor F is presented by a map object f: M1 -> M2; its value at X is
coker(Hom(X, M1) -> Hom(X, M2)), whose dimension is maps.phi_at.  Three
layers live here:

* presented functors and their invariants (syzygy, torsion, pdim),
* a realization of the functor category as modules over the endomorphism
  algebra of the additive generator (presented from the AR quiver), used
  as an independent oracle for almost split sequences, Ext and tilting,
* tilting checks and the approximation constructions in the maps
  category, certified against explicit corpora of test objects.
"""

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import linalg as la
from .algebra import AlgebraPresentation, algebra_from_spec
from .modules import (
    CertificationError,
    _summands_match,
    Module,
    ModuleHom,
    cokernel,
    combine,
    compose,
    decompose,
    direct_sum,
    end_radical,
    ext_dims,
    factor_each,
    hom_basis,
    hom_basis_coordinates,
    hom_coordinates,
    hom_into_sum,
    hom_out_of_sum,
    hom_through_epi,
    identity_hom,
    image,
    indecomposable_projective,
    injective_envelope,
    is_epi,
    is_identity,
    is_mono,
    is_projective_indec,
    iso_index,
    kernel,
    modules_isomorphic,
    projective_cover,
    projective_resolution,
    quotient,
    radical_submodule,
    vectorize_hom,
)
from .maps import (
    MapMorphism,
    MapObject,
    ProjComplex,
    _epi_from_pieces,
    _fresh_map_object,
    _structural_pieces,
    decompose_map_object,
    f_resolution,
    from_gamma_hom,
    from_gamma_module,
    gamma_of,
    identity_object,
    is_S_exact,
    map_identity,
    minimal_presentation_with_summands,
    phi_at,
    relative_ext_dims,
    source_only,
    target_only,
    theta_presentation,
    zero_map_object,
)
from .ar import (
    ArQuiver,
    ShortExactSeq,
    almost_split_ending_at,
    is_almost_split,
    knit_ar_quiver,
    s_theorem_hypothesis,
    seq_of_modules,
)


# -- presented functors ----------------------------------------------------------


class FpFunctor:
    """A finitely presented functor, stored by a minimal presentation.

    summands lists the indecomposable summands of the presentation, kept
    from the split that minimized it.
    """

    def __init__(self, presentation: MapObject, name: str = ""):
        self.presentation, self.summands = minimal_presentation_with_summands(presentation)
        self.algebra = presentation.algebra
        self.name = name

    def __repr__(self):
        tag = f" {self.name!r}" if self.name else ""
        q = self.presentation
        return f"FpFunctor{tag} {q.m1.dims} -> {q.m2.dims}"


def evaluate(f: FpFunctor, x: Module) -> int:
    return phi_at(f.presentation, x)


def functor_is_zero(f: FpFunctor) -> bool:
    return f.presentation.is_zero()


def functors_isomorphic(f: FpFunctor, g: FpFunctor) -> bool:
    """Isomorphism of the minimal presentations; False is always a proof.

    Minimal presentations are unique up to isomorphism, so by Krull-Schmidt
    the functors agree exactly when their indecomposable summands match
    one to one; their Gamma modules are matched as modules_isomorphic
    matches summands.
    """
    fp, gp = f.presentation, g.presentation
    if (fp.m1.dims, fp.m2.dims) != (gp.m1.dims, gp.m2.dims):
        return False
    return _summands_match([s.gamma for s in f.summands], [s.gamma for s in g.summands])


def representable_functor(m: Module) -> FpFunctor:
    return FpFunctor(target_only(m), name=f"(-,{m.name or m.dims})")


def simple_functor(m: Module) -> FpFunctor:
    """S_M, presented by the sink map of M.

    For projective M the sink map is the radical inclusion; otherwise it
    is the right almost split epi from the middle of the sequence ending at M.
    """
    if is_projective_indec(m):
        _, incl = radical_submodule(m)
        return FpFunctor(MapObject(incl), name=f"S_{m.name or m.dims}")
    seq = almost_split_ending_at(m)
    return FpFunctor(MapObject(seq.surj), name=f"S_{m.name or m.dims}")


def theta_functor(cpx: ProjComplex) -> FpFunctor:
    return FpFunctor(theta_presentation(cpx))


def functor_syzygy(f: FpFunctor) -> FpFunctor:
    """Omega F, presented by the kernel inclusion of the presentation map."""
    _, k_incl = kernel(f.presentation.f)
    return FpFunctor(MapObject(k_incl), name=f"syz {f.name}" if f.name else "")


def pdim(f: FpFunctor) -> int:
    """Projective dimension, always 0, 1 or 2."""
    q = f.presentation
    if q.m1.is_zero():
        return 0
    return 1 if is_mono(q.f) else 2


def torsion_radical(f: FpFunctor) -> FpFunctor:
    """The largest subfunctor with finite-length composition factors.

    Computed as the kernel of the canonical map onto the image-inclusion
    functor, which is presented by M1 -> Im f.
    """
    q = f.presentation
    if q.m1.is_zero():
        return FpFunctor(zero_map_object(q.algebra), name=f"t({f.name})")
    _, _, onto = image(q.f)
    return FpFunctor(MapObject(onto), name=f"t({f.name})")


def is_torsion_free(f: FpFunctor) -> bool:
    """Three independent tests, asserted to agree."""
    by_radical = functor_is_zero(torsion_radical(f))
    by_pdim = pdim(f) <= 1
    by_mono = is_mono(f.presentation.f)
    if not (by_radical == by_pdim == by_mono):
        raise AssertionError(
            f"torsion-free tests disagree: radical {by_radical}, pdim {by_pdim}, mono {by_mono}"
        )
    return by_radical


# -- realization over the endomorphism algebra ------------------------------------


@dataclass
class FunctorRealization:
    """mod(mod Lambda) as modules over End(additive generator)^op.

    Arrow k of delta runs j -> i and carries the irreducible hom
    corpus[i] -> corpus[j]; a path j -> ... -> i evaluates to a hom
    corpus[i] -> corpus[j] by composing along the way.
    """

    base: AlgebraPresentation
    quiver: ArQuiver
    corpus: List[Module]
    delta: AlgebraPresentation
    arrow_homs: List[ModuleHom]
    _delta_quivers: Dict[int, ArQuiver] = field(default_factory=dict, repr=False)

    def delta_ar_quiver(self, dim_bound: int = 60) -> ArQuiver:
        """The AR quiver of delta, knitted once per dim_bound."""
        if dim_bound not in self._delta_quivers:
            self._delta_quivers[dim_bound] = knit_ar_quiver(self.delta, dim_bound=dim_bound)
        return self._delta_quivers[dim_bound]


def _complete_knit(algebra: AlgebraPresentation, needed_by: str, dim_bound: int = 40) -> ArQuiver:
    """The AR quiver of algebra; an incomplete knit raises CertificationError."""
    q = knit_ar_quiver(algebra, dim_bound=dim_bound)
    if not q.complete:
        raise CertificationError(f"{needed_by} needs the complete corpus; {q.warning}")
    return q


def functor_realization(algebra: AlgebraPresentation, dim_bound: int = 40) -> FunctorRealization:
    p = algebra.p
    q = _complete_knit(algebra, "realization", dim_bound)
    reps = q.vertices
    n = len(reps)
    # rad[i][j]: the radical endomorphisms for i == j, else all of Hom(reps[i], reps[j])
    rad = [
        [end_radical(reps[i]) if i == j else hom_basis(reps[i], reps[j]) for j in range(n)]
        for i in range(n)
    ]
    for i, m in enumerate(reps):
        if len(hom_basis(m, m)) - len(rad[i][i]) != 1:
            raise CertificationError("an endomorphism ring has residue field larger than the base field")

    arrow_specs: List[Tuple[str, int, int]] = []
    arrow_homs: List[ModuleHom] = []
    # every ordered pair, so an irreducible map the knit missed is caught too
    for i in range(n):
        for j in range(n):
            picked = []
            if rad[i][j]:
                # the greedy pick of homs independent modulo rad^2: the pivot
                # columns among rad[i][j] of the RREF of [rad^2 span | rad[i][j]]
                cols = [vectorize_hom(compose(v, u)) for z in range(n) for u in rad[i][z] for v in rad[z][j]]
                skip = len(cols)
                cols += [vectorize_hom(b) for b in rad[i][j]]
                _, pivots = la.rref(np.stack(cols, axis=1), p)
                picked = [rad[i][j][c - skip] for c in pivots if c >= skip]
            if len(picked) != q.arrows.get((i, j), 0):
                raise CertificationError("arrow multiplicity disagrees with the knitted quiver")
            for r in picked:
                arrow_specs.append((f"a{len(arrow_specs)}", j, i))
                arrow_homs.append(r)

    # relations: kernels of the path-value map, degree by degree
    names = [s[0] for s in arrow_specs]
    by_source: Dict[int, List[int]] = {}
    for k, (_, src, _) in enumerate(arrow_specs):
        by_source.setdefault(src, []).append(k)
    relation_specs: List[List[Tuple[int, List[str]]]] = []
    frontier: List[Tuple[int, Tuple[int, ...], int, ModuleHom]] = [
        (arrow_specs[k][1], (k,), arrow_specs[k][2], arrow_homs[k]) for k in range(len(arrow_homs))
    ]
    degree = 1
    while frontier:
        degree += 1
        if degree > 60:
            raise CertificationError("path enumeration did not terminate; radical not nilpotent?")
        groups: Dict[Tuple[int, int], List[Tuple[Tuple[int, ...], ModuleHom]]] = {}
        for (v, idxs, w, val) in frontier:
            for k in by_source.get(w, []):
                new_val = compose(val, arrow_homs[k])
                groups.setdefault((v, arrow_specs[k][2]), []).append((idxs + (k,), new_val))
        frontier = []
        for (v, w), paths in sorted(groups.items()):
            mat = np.stack([vectorize_hom(val) for _, val in paths], axis=1)
            ker = la.kernel_basis(mat, p)
            for c in range(ker.shape[1]):
                terms = [
                    (int(ker[r, c]), [names[k] for k in paths[r][0]])
                    for r in range(len(paths))
                    if ker[r, c] % p
                ]
                relation_specs.append(terms)
            for idxs, val in paths:
                if not val.is_zero():
                    frontier.append((v, idxs, w, val))

    delta = algebra_from_spec(p, n, arrow_specs, relation_specs)
    real = FunctorRealization(algebra, q, reps, delta, arrow_homs)

    total = sum(len(r) for row in rad for r in row) + n  # End of each vertex is its radical plus one
    if delta.dim != total:
        raise CertificationError(
            f"realized algebra has dimension {delta.dim}, expected {total}; "
            "the hom category is not graded by the chosen arrows"
        )
    for v in range(n):
        fv = realize_map_object(real, target_only(reps[v]))
        if not modules_isomorphic(fv, indecomposable_projective(delta, v)):
            raise CertificationError(f"representable at corpus object {v} is not the indecomposable projective")
    return real


def yoneda(real: FunctorRealization, m: Module) -> Tuple[Module, List[List[ModuleHom]]]:
    """Y(m) = Hom(-, m) over real.delta, with the canonical basis
    hom_basis(corpus[v], m) of its fibre at each vertex v.  Arrow k acts by
    precomposition with arrow_homs[k], read off those bases."""
    bases = [hom_basis(t, m) for t in real.corpus]
    q = real.delta.quiver
    mats = [
        hom_basis_coordinates((compose(b, r) for b in bases[q.source(k)]), bases[q.target(k)])
        for k, r in enumerate(real.arrow_homs)
    ]
    return Module(real.delta, [len(b) for b in bases], mats), bases


def _postcompose(h: ModuleHom, basis: List[ModuleHom], onto: List[ModuleHom]) -> np.ndarray:
    """b -> h o b on the span of basis, in coordinates over the canonical basis onto."""
    return hom_basis_coordinates((compose(h, b) for b in basis), onto)


# Phi(x) = coker Y(x.f): the projection Y(x.m2) -> Phi(x) and the fibre bases of Y(x.m2)
Realized = Tuple[ModuleHom, List[List[ModuleHom]]]


def _realize(real: FunctorRealization, x: MapObject) -> Realized:
    """Phi(x) over real.delta, the quotient of Y(x.m2) by the image of
    Y(x.f).  Y(x.m1) needs no arrow action, only that image at each vertex."""
    top, bases = yoneda(real, x.m2)
    p = real.delta.p
    images = [la.column_space_basis(_postcompose(x.f, hom_basis(t, x.m1), b), p) for t, b in zip(real.corpus, bases)]
    return quotient(top, images, name=f"Phi({x.name})" if x.name else "")[1], bases


def realize_map_object(real: FunctorRealization, x: MapObject) -> Module:
    """The module over real.delta with fibers coker(Hom(X_v, f))."""
    return _realize(real, x)[0].target


def _phi_hom(u: MapMorphism, src: Realized, tgt: Realized) -> ModuleHom:
    """Phi(u): src -> tgt, for the realizations src of u.source and tgt of
    u.target: the hom that Y(u.h2) induces on the cokernels."""
    (sp, sb), (tp, tb) = src, tgt
    y = ModuleHom(sp.source, tp.source, [_postcompose(u.h2, b, c) for b, c in zip(sb, tb)], check=False)
    return hom_through_epi(sp, compose(tp, y))


def map_morphism_to_hom(real: FunctorRealization, u: MapMorphism) -> ModuleHom:
    """The natural transformation Phi(u) as a hom of realized modules."""
    return _phi_hom(u, _realize(real, u.source), _realize(real, u.target))


@dataclass
class PhiArImage:
    realized: ShortExactSeq
    certificate: object
    corpus_complete: bool


def phi_image_of_ar(real: FunctorRealization, s: ShortExactSeq) -> PhiArImage:
    """Push an almost split sequence of map objects through Phi and certify it.

    The sequence must be certified almost split and both end structure maps
    must be neither split epi nor split mono; violations raise by name.
    """
    if not s.is_maps_level():
        raise ValueError("expected an almost split sequence of map objects")
    ok, reason = s_theorem_hypothesis(s)
    if not ok:
        raise ValueError(f"structure-map hypothesis fails: {reason}")
    if not s.verified:
        raise ValueError("sequence is not certified almost split; verify it against a corpus first")
    left, middle, right = (_realize(real, x) for x in (s.left, s.middle, s.right))
    inj = _phi_hom(s.inj, left, middle)
    surj = _phi_hom(s.surj, middle, right)
    try:
        realized = seq_of_modules(inj, surj, verified="")
    except ValueError as e:
        raise CertificationError(f"realized sequence is not short exact: {e}")
    dq = real.delta_ar_quiver()
    cert = is_almost_split(realized, dq.vertices)
    if not cert:
        raise CertificationError("realized sequence fails the almost-split test: " + "; ".join(cert.reasons))
    return PhiArImage(realized, cert, dq.complete)


# -- coresolutions and tilting reports ---------------------------------------------


@dataclass
class CheckResult:
    status: str  # "pass" | "fail"
    witnesses: List[dict] = field(default_factory=list)


@dataclass
class TiltingReport:
    category: List[MapObject]
    checks: Dict[str, CheckResult]

    @property
    def verdict(self) -> bool:
        return all(c.status == "pass" for c in self.checks.values())


def _describe_map_object(x: MapObject) -> dict:
    return {"name": x.name, "dims": [list(x.m1.dims), list(x.m2.dims)]}


def tilting_report_json(r: TiltingReport) -> dict:
    return {
        "category": [_describe_map_object(x) for x in r.category],
        "checks": {
            key: {"status": c.status, "witnesses": c.witnesses} for key, c in sorted(r.checks.items())
        },
        "verdict": r.verdict,
        # every check decides; the fixed field keeps the report format unchanged
        "conclusive": True,
    }


def _category_closure(ts: Sequence[MapObject]) -> List[MapObject]:
    """Indecomposable summand representatives, deduplicated and sorted."""
    reps: List[MapObject] = []
    for x in ts:
        if x.is_zero():
            continue
        for part, _, _ in decompose_map_object(x):
            if iso_index(part.gamma, [r.gamma for r in reps]) is None:
                reps.append(part)
    reps.sort(key=lambda x: (x.total_dim, x.m1.dims, x.m2.dims))
    return reps


@dataclass
class Coresolution:
    terms: list  # middle terms, then the final cokernel (in add): map objects or modules
    status: str  # "pass" | "fail"
    detail: dict


def _in_add_modules(x: Module, reps: List[Module]) -> bool:
    """Whether every indecomposable summand of x is isomorphic to one of reps."""
    if x.is_zero():
        return True
    return all(iso_index(part, reps) is not None for part, _, _ in decompose(x))


def _left_add_approx_modules(w: Module, reps: List[Module]) -> Optional[ModuleHom]:
    """The canonical map from w into a sum of reps, one leg per hom basis element."""
    pieces = [(r, b) for r in reps for b in hom_basis(w, r)]
    if not pieces:
        return None
    return hom_into_sum(direct_sum(w.algebra, [r for r, _ in pieces]), [b for _, b in pieces])


def _coresolve(w: Module, reps: List[Module], max_len: int, not_mono: str, in_s: Optional[Callable[[ModuleHom, ModuleHom], bool]] = None) -> Coresolution:
    """The canonical coresolution of w by add(reps), on modules.

    A step whose approximation u is not mono fails with reason not_mono;
    in_s, when given, must also accept u with its cokernel projection.
    """
    terms: List[Module] = []
    cur = w
    while not _in_add_modules(cur, reps):
        step = len(terms)
        if step == max_len:
            return Coresolution(terms, "fail", {"reason": f"canonical coresolution longer than {max_len}", "step": step})
        u = _left_add_approx_modules(cur, reps)
        if u is None:
            return Coresolution(terms, "fail", {"reason": "no maps into the category", "step": step})
        if not is_mono(u):
            return Coresolution(terms, "fail", {"reason": not_mono, "step": step})
        coker, proj = cokernel(u)
        if in_s is not None and not in_s(u, proj):
            return Coresolution(terms, "fail", {"reason": "canonical sequence leaves S", "step": step})
        terms.append(u.target)
        cur = coker
    return Coresolution(terms + [cur], "pass", {"length": len(terms)})


def relative_coresolution(w: MapObject, reps: List[MapObject], max_len: int) -> Coresolution:
    """Decide whether an S-exact coresolution 0 -> w -> T0 -> ... of length <= max_len exists.

    Each step takes the canonical left add(reps)-approximation, the sum of
    all maps into the reps.  Left approximations are unique up to summands
    in add(reps) (Auslander-Smalo 1980), so when Ext_F^i vanishes among the
    reps for 0 < i <= max_len, which the same tilting report checks, a
    coresolution exists exactly when this one ends in time: "fail" is then
    a proof.  The steps run on Gamma; a step must be levelwise mono and
    its canonical sequence must lie in S.
    """
    tri = gamma_of(w.algebra)

    def in_s(u: ModuleHom, proj: ModuleHom) -> bool:
        src, mid, end = (from_gamma_module(tri, m) for m in (u.source, u.target, proj.target))
        return is_S_exact(from_gamma_hom(u, src, mid), from_gamma_hom(proj, mid, end)).verdict

    cr = _coresolve(w.gamma, [r.gamma for r in reps], max_len, "approximation not levelwise mono", in_s)
    cr.terms = [w if t is w.gamma else _fresh_map_object(tri, t) for t in cr.terms]
    return cr


def _aggregate(parts: List[str]) -> str:
    return "fail" if "fail" in parts else "pass"


def _mono_check(reps: List[MapObject]) -> CheckResult:
    wit = []
    for t in reps:
        kdims = [d - la.rank(m, t.algebra.p) for d, m in zip(t.m1.dims, t.f.mats)]
        if any(kdims):
            wit.append({"object": _describe_map_object(t), "kernel_dims": kdims})
    return CheckResult("pass" if not wit else "fail", wit)


def _ext_check(reps: List[MapObject], degrees: Sequence[int]) -> CheckResult:
    wit = []
    for a, x in enumerate(reps):
        res = f_resolution(x)
        for b, y in enumerate(reps):
            for k, d in zip(degrees, relative_ext_dims(res, y, degrees)):
                if d:
                    wit.append({"source": a, "target": b, "degree": k, "dim": d})
    return CheckResult("pass" if not wit else "fail", wit)


def _coresolution_check(
    reps: List[MapObject], lam: List[Module], max_len: int
) -> CheckResult:
    wit = []
    for c in lam:
        cr = relative_coresolution(target_only(c), reps, max_len)
        wit.append(
            {
                "module": {"name": c.name, "dims": list(c.dims)},
                "status": cr.status,
                "terms": [_describe_map_object(t) for t in cr.terms],
                "detail": cr.detail,
            }
        )
    return CheckResult(_aggregate([w["status"] for w in wit]), wit)


def check_classical_tilting(
    ts: Sequence[MapObject], corpus: Optional[Sequence[Module]] = None
) -> TiltingReport:
    """Structure maps mono, Ext_F^1 vanishing, and coresolved projectives."""
    reps = _category_closure(ts)
    if not reps:
        raise ValueError("the tilting candidate is empty")
    lam = list(corpus) if corpus is not None else _complete_knit(reps[0].algebra, "tilting check").vertices
    checks = {
        "structure-maps-mono": _mono_check(reps),
        "ext1-vanishes": _ext_check(reps, [1]),
        "projectives-coresolved": _coresolution_check(reps, lam, 1),
    }
    return TiltingReport(reps, checks)


# -- module-side analogues, used as the independent oracle --------------------------


def module_coresolution(w: Module, reps: List[Module], max_len: int) -> Coresolution:
    """Plain-exact coresolution of w by add(reps), mirroring the relative search.

    As there, "fail" is a proof when Ext^i vanishes among the reps for
    0 < i <= max_len, which the same tilting test checks.  A step must be
    mono.
    """
    return _coresolve(w, reps, max_len, "approximation not mono")


def _module_tilting_status(tmods: List[Module], delta: AlgebraPresentation, degrees: Sequence[int], max_len: int) -> Tuple[str, List[dict]]:
    """Ext vanishing and coresolved projectives; every witness is a failure."""
    wit = []
    for a, x in enumerate(tmods):
        res = projective_resolution(x, max(degrees) + 1)
        for b, y in enumerate(tmods):
            for k, d in zip(degrees, ext_dims(res, y, degrees)):
                if d:
                    wit.append({"source": a, "target": b, "degree": k, "dim": d})
    for v in range(delta.quiver.n_vertices):
        cr = module_coresolution(indecomposable_projective(delta, v), tmods, max_len)
        if cr.status != "pass":
            wit.append({"projective": v, "status": cr.status, "detail": cr.detail})
    return ("fail" if wit else "pass"), wit


def check_generalized_tilting(
    ts: Sequence[MapObject],
    corpus: Optional[Sequence[Module]] = None,
    realization: Optional[FunctorRealization] = None,
) -> TiltingReport:
    """Ext_F^{1,2} vanishing and length-2 coresolutions, with an oracle cross-check.

    The cross-check realizes Phi of the category over the endomorphism
    algebra and runs the plain tilting test there; the two verdicts must
    agree.  Without a corpus, the Lambda-modules to coresolve are the
    realization's own corpus, so both sides read one knit.
    """
    reps = _category_closure(ts)
    if not reps:
        raise ValueError("the tilting candidate is empty")
    real = realization if realization is not None else functor_realization(reps[0].algebra)
    lam = list(corpus) if corpus is not None else real.corpus
    checks = {
        "ext-vanishes": _ext_check(reps, [1, 2]),
        "projectives-coresolved": _coresolution_check(reps, lam, 2),
    }
    tmods: List[Module] = []
    for t in reps:
        m = realize_map_object(real, t)
        if not m.is_zero() and iso_index(m, tmods) is None:
            tmods.append(m)
    maps_side = _aggregate([c.status for c in checks.values()])
    mod_side, wit = _module_tilting_status(tmods, real.delta, [1, 2], 2)
    wit.insert(0, {"maps_side": maps_side, "realized_side": mod_side})
    checks["realized-agreement"] = CheckResult("pass" if maps_side == mod_side else "fail", wit)
    return TiltingReport(reps, checks)


# -- approximations ------------------------------------------------------------------


@dataclass
class ApproxCertificate:
    side: str  # "right" | "left"
    test_factorizations: List[Tuple[int, int, MapMorphism]]
    failures: List[Tuple[int, int]]

    def __bool__(self) -> bool:
        return not self.failures


def certify_right_approx(approx: MapMorphism, corpus: Sequence[MapObject]) -> ApproxCertificate:
    """Factor every corpus hom into the target through the approximation.

    For corpus object k, the i-th hom of the canonical basis of
    Hom(c, approx.target) is recorded with its factor h: c -> approx.source,
    or as a failure (k, i).  See _certify_approx.
    """
    return _certify_approx("right", approx, corpus)


def certify_left_approx(approx: MapMorphism, corpus: Sequence[MapObject]) -> ApproxCertificate:
    """Extend every corpus hom out of the source along the approximation.

    For corpus object k, the i-th hom of the canonical basis of
    Hom(approx.source, c) is recorded with its extension h:
    approx.target -> c, or as a failure (k, i).  See _certify_approx.
    """
    return _certify_approx("left", approx, corpus)


def _certify_approx(side: str, approx: MapMorphism, corpus: Sequence[MapObject]) -> ApproxCertificate:
    """The certificate of a right or left approximation, worked on Gamma.

    The approximation becomes one Gamma hom q, and each corpus object with
    a nonzero hom space costs one hom_basis for the homs to factor and one
    factor_each over all of them; only the factors found go back to map
    morphisms.  An identity approximation factors each hom as itself,
    with no further hom space, as in factor_each; whether q is one is
    decided once for the whole corpus.
    """
    left = side == "left"
    q = approx.gamma
    identity = is_identity(q)
    meets, far = (approx.source, approx.target) if left else (approx.target, approx.source)
    found = []
    failures = []
    for k, c in enumerate(corpus):
        gs = hom_basis(meets.gamma, c.gamma) if left else hom_basis(c.gamma, meets.gamma)
        if not gs:
            continue
        for i, h in enumerate(gs if identity else factor_each(q, gs, past=left)):
            if h is None:
                failures.append((k, i))
            else:
                found.append((k, i, from_gamma_hom(h, far, c) if left else from_gamma_hom(h, c, far)))
    return ApproxCertificate(side, found, failures)


def _is_epimap(x: MapObject) -> bool:
    return is_epi(x.f)


def _is_monomap(x: MapObject) -> bool:
    return is_mono(x.f)


def _gamma_corpus(algebra: AlgebraPresentation, keep: Callable[[MapObject], bool], family: str) -> List[MapObject]:
    tri = gamma_of(algebra)
    q = _complete_knit(tri.algebra, f"{family} approximation")
    return [x for x in (from_gamma_module(tri, m) for m in q.vertices) if keep(x)]


def epimap_corpus(algebra: AlgebraPresentation) -> List[MapObject]:
    """All indecomposable map objects with epi structure map."""
    return _gamma_corpus(algebra, _is_epimap, "epimap")


def monomap_corpus(algebra: AlgebraPresentation) -> List[MapObject]:
    return _gamma_corpus(algebra, _is_monomap, "monomap")


def right_approx_epimaps(x: MapObject, corpus: Sequence[MapObject]) -> Tuple[MapMorphism, ApproxCertificate]:
    """Right approximation of x by epimaps: factor through the image."""
    if _is_epimap(x):
        approx = map_identity(x)
    else:
        _, incl, onto = image(x.f)
        z = MapObject(onto, name=f"{x.name}-epi" if x.name else "")
        approx = MapMorphism(z, x, identity_hom(x.m1), incl)
    return approx, certify_right_approx(approx, corpus)


def left_approx_epimaps(x: MapObject, corpus: Sequence[MapObject]) -> Tuple[MapMorphism, ApproxCertificate]:
    """Left approximation of x by epimaps: absorb a projective cover of the target."""
    if _is_epimap(x):
        approx = map_identity(x)
    else:
        pc = projective_cover(x.m2)
        sm = direct_sum(x.algebra, [x.m1, pc.module])
        z = MapObject(hom_out_of_sum(sm, [x.f, pc.epi]), name=f"{x.name}-epi" if x.name else "")
        approx = MapMorphism(x, z, sm.inclusions[0], identity_hom(x.m2))
    return approx, certify_left_approx(approx, corpus)


def right_approx_monomaps(x: MapObject, corpus: Sequence[MapObject]) -> Tuple[MapMorphism, ApproxCertificate]:
    """Right approximation of x by monomaps: absorb an injective envelope of the source."""
    if _is_monomap(x):
        approx = map_identity(x)
    else:
        env, mono = injective_envelope(x.m1)
        sm = direct_sum(x.algebra, [x.m2, env])
        z = MapObject(hom_into_sum(sm, [x.f, mono]), name=f"{x.name}-mono" if x.name else "")
        approx = MapMorphism(z, x, identity_hom(x.m1), sm.projections[0])
    return approx, certify_right_approx(approx, corpus)


def left_approx_monomaps(x: MapObject, corpus: Sequence[MapObject]) -> Tuple[MapMorphism, ApproxCertificate]:
    """Left approximation of x by monomaps: pass to the image inclusion."""
    if _is_monomap(x):
        approx = map_identity(x)
    else:
        _, incl, onto = image(x.f)
        z = MapObject(incl, name=f"{x.name}-mono" if x.name else "")
        approx = MapMorphism(x, z, onto, identity_hom(x.m2))
    return approx, certify_left_approx(approx, corpus)


def transport_approx_via_phi(
    real: FunctorRealization, approx: MapMorphism, corpus: Sequence[MapObject]
) -> Tuple[ModuleHom, ApproxCertificate]:
    """Phi of a right approximation, certified against Phi of the corpus
    with one factor_each per corpus object.

    Raises when some realized corpus hom fails to factor, naming it.
    """
    rho = map_morphism_to_hom(real, approx)
    found = []
    for k, c in enumerate(corpus):
        fc = realize_map_object(real, c)
        for i, lift in enumerate(factor_each(rho, hom_basis(fc, rho.target))):
            if lift is None:
                raise CertificationError(
                    f"hom {i} from corpus object {k} does not factor through the transported approximation"
                )
            found.append((k, i, lift))
    return rho, ApproxCertificate("right", found, [])


def reconstruct_maps_approx_from_phi(
    real: FunctorRealization,
    m: MapObject,
    corpus: Sequence[MapObject],
    z: MapObject,
    rho: ModuleHom,
) -> Tuple[MapMorphism, ApproxCertificate]:
    """Rebuild a right corpus-approximation of m from a functor-level one.

    rho: Phi(z) -> Phi(m) over the realization.  The result has source
    z + (ker f, 0, 0) + (M1, M1, 1) and restricts to a lift of rho on z;
    the corpus must contain those two auxiliary forms.
    """
    k_mod, k_incl = kernel(m.f)
    gammas = [c.gamma for c in corpus]
    for part, _, _ in (decompose(k_mod) if not k_mod.is_zero() else []):
        if iso_index(source_only(part).gamma, gammas) is None:
            raise CertificationError(
                f"corpus lacks the object ({part.dims}, 0, 0) required by the reconstruction"
            )
    for part, _, _ in (decompose(m.m1) if not m.m1.is_zero() else []):
        if iso_index(identity_object(part).gamma, gammas) is None:
            raise CertificationError(
                f"corpus lacks the object ({part.dims}, {part.dims}, 1) required by the reconstruction"
            )

    basis = hom_basis(z.gamma, m.gamma)
    rz, rm = _realize(real, z), _realize(real, m)
    sol = hom_coordinates([rho], [_phi_hom(from_gamma_hom(b, z, m), rz, rm) for b in basis])
    if sol is None:
        raise CertificationError("the functor approximation does not lift to the maps category")
    r = from_gamma_hom(combine(z.gamma, m.gamma, basis, sol[:, 0]), z, m)

    legs = [("approx", z, r)] + [piece for piece in _structural_pieces(m, k_mod, k_incl) if piece[0] != "target"]
    n, _ = _epi_from_pieces(m, legs, name=f"w({m.name})" if m.name else "")
    ModuleHom(n.gamma.source, n.gamma.target, n.gamma.mats, reduced=True)  # the Gamma hom check
    return n, certify_right_approx(n, corpus)
