import dataclasses
import json
from importlib import resources

import pytest

from dense_reference import reference_arrow_picks, reference_phi_hom_mats
from mapscat import functors, linalg as la, maps, modules
from mapscat.algebra import algebra_from_spec
from mapscat.algfile import parse_algebra_file
from mapscat.modules import (
    CertificationError,
    direct_sum,
    ext_dim,
    hom_basis,
    hom_equal,
    indecomposable_projective,
    kernel,
    modules_isomorphic,
    radical_submodule,
    simple_module,
    zero_module,
)
from mapscat.maps import (
    MapObject,
    ProjComplex,
    from_gamma_module,
    gamma_of,
    homotopy_quotient_dim,
    identity_object,
    indec_map_kind,
    map_identity,
    map_iso_between,
    minimize_presentation,
    relative_ext_dim,
    relative_syzygy,
    rpdim,
    source_only,
    target_only,
    validate_hom_exactness,
    zero_map_object,
)
from mapscat.ar import knit_ar_quiver, maps_seq_from_gamma, s_theorem_hypothesis
from mapscat.functors import (
    FpFunctor,
    check_classical_tilting,
    check_generalized_tilting,
    certify_right_approx,
    epimap_corpus,
    evaluate,
    functor_is_zero,
    functor_realization,
    functor_syzygy,
    functors_isomorphic,
    is_torsion_free,
    left_approx_epimaps,
    left_approx_monomaps,
    map_morphism_to_hom,
    module_coresolution,
    monomap_corpus,
    pdim,
    phi_image_of_ar,
    realize_map_object,
    reconstruct_maps_approx_from_phi,
    relative_coresolution,
    representable_functor,
    right_approx_epimaps,
    right_approx_monomaps,
    simple_functor,
    theta_functor,
    tilting_report_json,
    torsion_radical,
    transport_approx_via_phi,
    vanishes_on_projectives,
)

P = 101


@pytest.fixture(scope="module")
def a2():
    return algebra_from_spec(P, 2, [("a", 0, 1)])


@pytest.fixture(scope="module")
def mods(a2):
    return simple_module(a2, 0), simple_module(a2, 1), indecomposable_projective(a2, 0)


@pytest.fixture(scope="module")
def homs(mods):
    s1, s2, p1 = mods
    return hom_basis(s2, p1)[0], hom_basis(p1, s1)[0]


@pytest.fixture(scope="module")
def real(a2):
    return functor_realization(a2)


@pytest.fixture(scope="module")
def gamma_objects(a2):
    tri = gamma_of(a2)
    q = knit_ar_quiver(tri.algebra, dim_bound=80)
    return tri, q, [from_gamma_module(tri, m) for m in q.vertices]


@pytest.fixture(scope="module")
def a2_file():
    """The bundled a2.alg: its algebra, named modules and named map objects."""
    return parse_algebra_file(resources.files("mapscat").joinpath("data", "a2.alg").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def a2_file_real(a2_file):
    return functor_realization(a2_file.algebra)


@pytest.fixture(scope="module")
def corpora(a2):
    return epimap_corpus(a2), monomap_corpus(a2)


# -- evaluation ----------------------------------------------------------------


def test_yoneda_evaluation(mods):
    # (-, m) evaluated at x has dimension dim Hom(x, m)
    for m in mods:
        rep = representable_functor(m)
        for x in mods:
            assert evaluate(rep, x) == len(hom_basis(x, m))


def test_simple_functor_evaluation(mods):
    s1, s2, p1 = mods
    f = simple_functor(s1)
    assert evaluate(f, s1) == 1
    assert evaluate(f, p1) == 0
    assert evaluate(f, s2) == 0
    assert evaluate(f, zero_module(s1.algebra)) == 0


@pytest.mark.parametrize("name", ["a2", "a3_rel", "a3_flip", "dual_numbers"])
def test_simple_functor_at_a_projective_is_presented_by_its_radical(name):
    # S_P is (-, P) modulo (-, rad P): one dimension at P itself, zero at
    # every other indecomposable; a projective presentation of length 0
    # when P is simple, else the radical inclusion, a mono
    text = resources.files("mapscat").joinpath("data", f"{name}.alg").read_text(encoding="utf-8")
    q = knit_ar_quiver(parse_algebra_file(text).algebra)
    assert q.complete
    for v in q.projectives:
        f = simple_functor(q.vertices[v])
        assert [evaluate(f, x) for x in q.vertices] == [int(u == v) for u in range(len(q.vertices))]
        assert pdim(f) == (0 if radical_submodule(q.vertices[v])[0].is_zero() else 1)


def test_contractible_presentation_is_zero_functor(mods):
    s1, s2, p1 = mods
    f = FpFunctor(identity_object(p1))
    assert functor_is_zero(f)
    assert evaluate(f, p1) == 0 and evaluate(f, s1) == 0


# -- projective dimension and torsion -------------------------------------------


def test_pdim_ladder(mods, homs):
    s1, s2, p1 = mods
    f, g = homs
    assert pdim(representable_functor(p1)) == 0
    assert pdim(FpFunctor(MapObject(f))) == 1  # rad(-, S1), presented by a mono
    assert pdim(simple_functor(s1)) == 2


def test_pdim_at_most_two_everywhere(gamma_objects):
    tri, q, xs = gamma_objects
    for x in xs:
        assert pdim(FpFunctor(x)) <= 2


def test_torsion_radical(mods, homs):
    s1, s2, p1 = mods
    f, g = homs
    s = simple_functor(s1)
    t = torsion_radical(s)
    # S_{S1} is presented by the non-mono g, hence entirely torsion
    assert functors_isomorphic(t, s)
    assert functor_is_zero(torsion_radical(representable_functor(s1)))
    assert functor_is_zero(torsion_radical(FpFunctor(MapObject(f))))


def test_torsion_free_three_characterisations_agree(gamma_objects):
    # is_torsion_free cross-checks radical vanishing, pdim <= 1 and the
    # minimal presentation being mono, and raises if they ever disagree
    tri, q, xs = gamma_objects
    for x in xs:
        fun = FpFunctor(x)
        assert is_torsion_free(fun) == (pdim(fun) <= 1)


def test_vanishes_on_projectives(mods, homs):
    s1, s2, p1 = mods
    assert vanishes_on_projectives(simple_functor(s1))
    assert not vanishes_on_projectives(representable_functor(p1))
    assert vanishes_on_projectives(FpFunctor(zero_map_object(s1.algebra)))


def test_evaluation_cache_is_not_fooled_by_a_reused_id(a2):
    # Hom(S1, S2) = 0, so nothing else keeps the first simple alive; its id
    # may be handed to the second one, which must still get its own value
    f = representable_functor(simple_module(a2, 1))
    assert [evaluate(f, simple_module(a2, v)) for v in range(2)] == [0, 1]


def test_vanishes_on_projectives_sees_the_simple_projective(a2):
    f = representable_functor(simple_module(a2, 1))
    assert evaluate(f, indecomposable_projective(a2, 1)) == 1
    assert not vanishes_on_projectives(f)


PICK_ALGEBRAS = [
    ("a2", 2, [("a", 0, 1)], []),
    ("a3_linear", 3, [("a", 0, 1), ("b", 1, 2)], []),
    ("a3_flip", 3, [("a", 0, 1), ("b", 2, 1)], []),
    ("a3_rel", 3, [("a", 0, 1), ("b", 1, 2)], [[(1, ["a", "b"])]]),
    ("dual_numbers", 1, [("x", 0, 0)], [[(1, ["x", "x"])]]),
    # Hom(K[x]/x^2, K[x]/x^3) holds an irreducible map and one in rad^2, so the pick order shows
    ("truncated_x3", 1, [("x", 0, 0)], [[(1, ["x", "x", "x"])]]),
]


@pytest.mark.parametrize("p", [2, 3, 101])
@pytest.mark.parametrize("name,n,arrows,rels", PICK_ALGEBRAS, ids=[a[0] for a in PICK_ALGEBRAS])
def test_arrow_picks_match_the_rank_per_candidate_reference(name, n, arrows, rels, p):
    """The pivot columns of one RREF per pair pick the homs the greedy rank loop picked."""
    real = functor_realization(algebra_from_spec(p, n, arrows, rels))
    want = reference_arrow_picks(real.corpus, p)
    q = real.delta.quiver
    assert [(q.target(k), q.source(k)) for k in range(len(q.arrows))] == [(i, j) for i, j, _ in want]
    assert all(modules.hom_equal(h, b) for h, (_, _, b) in zip(real.arrow_homs, want))


@pytest.mark.parametrize("name", ["a3_linear", "a3_flip", "a3_rel"])
def test_mono_check_reads_nullities_without_building_kernels(name, monkeypatch):
    """The kernel_dims witnesses of the mono check are the kernel dimensions,
    read as nullities: kernel is never called."""
    alg = parse_algebra_file(resources.files("mapscat").joinpath("data", f"{name}.alg").read_text(encoding="utf-8")).algebra
    tri = gamma_of(alg)
    xs = [from_gamma_module(tri, m) for m in knit_ar_quiver(tri.algebra).vertices]
    want = [list(kernel(x.f)[0].dims) for x in xs]

    def no_kernel(f):
        raise AssertionError("_mono_check built a kernel")

    monkeypatch.setattr(functors, "kernel", no_kernel)
    got = functors._mono_check(xs)
    assert got.status == "fail"
    assert [w["kernel_dims"] for w in got.witnesses] == [k for k in want if any(k)]
    assert [w["object"] for w in got.witnesses] == [functors._describe_map_object(x) for x, k in zip(xs, want) if any(k)]


def test_realization_rejects_an_arrow_the_knit_missed(monkeypatch):
    alg = algebra_from_spec(P, 3, [("a", 0, 1), ("b", 1, 2)])
    knit = functors.knit_ar_quiver

    def knit_dropping_an_arrow(algebra, dim_bound=40):
        q = knit(algebra, dim_bound=dim_bound)
        del q.arrows[min(q.arrows)]
        return q

    monkeypatch.setattr(functors, "knit_ar_quiver", knit_dropping_an_arrow)
    with pytest.raises(CertificationError, match="arrow multiplicity"):
        functor_realization(alg)


def test_isomorphic_decomposable_functors_over_f2():
    # No element of the hom basis of End(M) is invertible here, and among
    # the 2^26 combinations invertible ones are rare: an isomorphism test
    # that searched combinations would have to get lucky to say yes.
    alg = algebra_from_spec(2, 4, [])
    pieces = [simple_module(alg, v) for v, mult in enumerate((2, 2, 3, 3)) for _ in range(mult)]
    m = direct_sum(alg, pieces).module
    m_rev = direct_sum(alg, pieces[::-1]).module
    assert functors_isomorphic(FpFunctor(target_only(m)), FpFunctor(target_only(m_rev)))


def test_functors_isomorphic_reuses_the_summands_of_the_minimal_presentation(monkeypatch, mods):
    s1, s2, p1 = mods

    def represented(a, b):
        return FpFunctor(target_only(direct_sum(s1.algebra, [a, b]).module))

    f, g, h = represented(s1, p1), represented(p1, s1), represented(s2, p1)
    assert len(f.summands) == 2
    calls = []

    def no_decompose(*args, **kw):
        calls.append(args)
        raise AssertionError("functors_isomorphic decomposed again")

    for mod in (modules, maps, functors):
        monkeypatch.setattr(mod, "decompose", no_decompose)
    monkeypatch.setattr(maps, "decompose_map_object", no_decompose)
    monkeypatch.setattr(functors, "decompose_map_object", no_decompose)
    assert functors_isomorphic(f, g)
    assert not functors_isomorphic(f, h)
    assert calls == []


def _resolutions_in_tilting_check(monkeypatch):
    """Run check_generalized_tilting on A3 and record, for _ext_check and
    _module_tilting_status, the objects they were given and the sources of
    the resolutions built while they ran."""
    alg = algebra_from_spec(P, 3, [("a", 0, 1), ("b", 1, 2)])
    lam = knit_ar_quiver(alg).vertices
    ts = [identity_object(m) for m in lam] + [target_only(m) for m in lam]
    given, resolved, active = {}, {}, []

    def watch(name):
        inner = getattr(functors, name)

        def wrapped(objs, *args, **kw):
            given[name], resolved[name] = objs, []
            active.append(name)
            try:
                return inner(objs, *args, **kw)
            finally:
                active.pop()

        monkeypatch.setattr(functors, name, wrapped)

    def count(mod, name):
        inner = getattr(mod, name)

        def counted(x, *args, **kw):
            if active:
                resolved[active[-1]].append(x)
            return inner(x, *args, **kw)

        monkeypatch.setattr(mod, name, counted)
        monkeypatch.setattr(functors, name, counted, raising=False)

    watch("_ext_check")
    watch("_module_tilting_status")
    count(maps, "f_resolution")
    count(modules, "projective_resolution")
    report = check_generalized_tilting(ts, corpus=lam)
    assert report.verdict
    return given, resolved


def test_maps_side_ext_check_resolves_each_representative_once(monkeypatch):
    given, resolved = _resolutions_in_tilting_check(monkeypatch)
    reps = given["_ext_check"]
    assert len(reps) > 1
    assert [id(x) for x in resolved["_ext_check"]] == [id(x) for x in reps]


def test_module_side_ext_check_resolves_each_realized_module_once(monkeypatch):
    given, resolved = _resolutions_in_tilting_check(monkeypatch)
    tmods = given["_module_tilting_status"]
    assert len(tmods) > 1
    # the coresolution part of the module-side check builds no resolution
    assert [id(m) for m in resolved["_module_tilting_status"]] == [id(m) for m in tmods]


# -- the evaluation-category realization ----------------------------------------


def test_realization_shape(real):
    assert real.delta.dim == 5
    assert real.delta.quiver.n_vertices == 3
    assert sorted((a[1], a[2]) for a in real.delta.quiver.arrows) == [(1, 2), (2, 0)]
    assert len(real.delta.relations) == 1
    assert sorted(tuple(m.dims) for m in real.corpus) == [(0, 1), (1, 0), (1, 1)]


def test_representables_realize_to_projectives(real):
    for v, m in enumerate(real.corpus):
        proj = realize_map_object(real, representable_functor(m).presentation)
        assert modules_isomorphic(proj, indecomposable_projective(real.delta, v))


def test_realization_is_injective_on_nonzero_objects(real, gamma_objects):
    tri, q, xs = gamma_objects
    assert len(xs) == 11
    images = [realize_map_object(real, x) for x in xs]
    nonzero = [m for m in images if not m.is_zero()]
    assert sorted(tuple(m.dims) for m in nonzero) == [
        (0, 0, 1),
        (0, 1, 0),
        (0, 1, 1),
        (1, 0, 0),
        (1, 0, 1),
    ]
    for i in range(len(nonzero)):
        for j in range(i + 1, len(nonzero)):
            assert not modules_isomorphic(nonzero[i], nonzero[j])


def test_kernel_of_realization_is_the_contractible_part(real, gamma_objects):
    tri, q, xs = gamma_objects
    for x in xs:
        killed = indec_map_kind(x) in ("contractible", "source_only")
        assert realize_map_object(real, x).is_zero() == killed


def test_homotopy_quotient_is_hom_of_realized_functors(real, gamma_objects):
    """Phi is full, and its kernel is the null-homotopic maps."""
    tri, q, xs = gamma_objects
    images = [realize_map_object(real, x) for x in xs]
    for x, fx in zip(xs, images):
        for y, fy in zip(xs, images):
            assert homotopy_quotient_dim(x, y) == len(hom_basis(fx, fy))


GAMMA_CASES = [("a2", 2, [("a", 0, 1)], []), ("a3_rel", 3, [("a", 0, 1), ("b", 1, 2)], [[(1, ["a", "b"])]])]


@pytest.fixture(
    scope="module",
    params=[(case, p) for case in GAMMA_CASES for p in (2, 101)],
    ids=[f"{case[0]}-p{p}" for case in GAMMA_CASES for p in (2, 101)],
)
def realized_gamma(request):
    """The realization over an algebra, its Gamma indecomposables and their realizations."""
    (_, n, arrows, rels), p = request.param
    alg = algebra_from_spec(p, n, arrows, rels)
    real = functor_realization(alg)
    tri = gamma_of(alg)
    xs = [from_gamma_module(tri, m) for m in knit_ar_quiver(tri.algebra, dim_bound=80).vertices]
    return real, xs, [functors._realize(real, x) for x in xs]


def test_phi_is_functorial_on_basis_morphisms(realized_gamma):
    """Phi(v o u) = Phi(v) Phi(u) for composable basis morphisms, and Phi(1) = 1."""
    real, xs, rs = realized_gamma
    homs = {(a, b): maps.hom_maps(xs[a], xs[b]) for a in range(len(xs)) for b in range(len(xs))}
    phis = {key: [functors._phi_hom(u, rs[key[0]], rs[key[1]]) for u in us] for key, us in homs.items()}
    for a, r in enumerate(rs):
        assert modules.hom_equal(functors._phi_hom(map_identity(xs[a]), r, r), modules.identity_hom(r[0].target))
    checked = 0
    for (a, b), us in homs.items():
        for c in range(len(xs)):
            for u, pu in zip(us, phis[a, b]):
                for v, pv in zip(homs[b, c], phis[b, c]):
                    vu = functors._phi_hom(maps.map_compose(v, u), rs[a], rs[c])
                    assert modules.hom_equal(vu, modules.compose(pv, pu))
                    checked += 1
    assert checked


def test_phi_hom_ranks_match_the_former_formula(realized_gamma):
    """At each corpus object, Phi(u) has the rank of the former proj . post . section."""
    real, xs, rs = realized_gamma
    p = real.delta.p
    for a, x in enumerate(xs):
        for b, y in enumerate(xs):
            for u in maps.hom_maps(x, y):
                got = functors._phi_hom(u, rs[a], rs[b]).mats
                want = reference_phi_hom_mats(real.corpus, u)
                assert [m.shape for m in got] == [m.shape for m in want]
                assert [la.rank(m, p) for m in got] == [la.rank(m, p) for m in want]


# -- almost split sequences through the cokernel functor ------------------------


@pytest.fixture(scope="module")
def hypothesis_seqs(gamma_objects):
    tri, q, xs = gamma_objects
    out = []
    for _, s in sorted(q.sequences.items()):
        ms = maps_seq_from_gamma(tri, s)
        ok, _ = s_theorem_hypothesis(ms)
        out.append((ms, ok))
    return out


def test_exactly_one_sequence_meets_the_hypothesis(hypothesis_seqs):
    assert sum(ok for _, ok in hypothesis_seqs) == 1


def test_phi_image_of_ar(real, hypothesis_seqs):
    ms = next(s for s, ok in hypothesis_seqs if ok)
    img = phi_image_of_ar(real, ms)
    assert img.certificate
    assert img.corpus_complete
    assert tuple(img.realized.left.dims) == (0, 0, 1)  # rad(-, S1)
    assert tuple(img.realized.middle.dims) == (0, 1, 1)  # (-, S1)
    assert tuple(img.realized.right.dims) == (0, 1, 0)  # S_{S1}


def test_phi_image_rejects_sequences_failing_the_hypothesis(real, hypothesis_seqs):
    bad = next(s for s, ok in hypothesis_seqs if not ok)
    with pytest.raises(ValueError, match="hypothesis"):
        phi_image_of_ar(real, bad)


def test_phi_image_requires_a_certified_sequence(real, hypothesis_seqs):
    ms = next(s for s, ok in hypothesis_seqs if ok)
    with pytest.raises(ValueError, match="certified"):
        phi_image_of_ar(real, dataclasses.replace(ms, verified=""))


# -- relative Ext against realized Ext -------------------------------------------


def test_relative_ext_matches_realized_ext(real, gamma_objects):
    tri, q, xs = gamma_objects
    minimized = []
    for x in xs:
        y = minimize_presentation(x)
        if y.is_zero():
            continue
        if any(map_iso_between(y, z) is not None for z in minimized):
            continue
        minimized.append(y)
    assert len(minimized) == 5
    for x in minimized:
        fx = realize_map_object(real, x)
        for y in minimized:
            fy = realize_map_object(real, y)
            for k in (1, 2):
                assert relative_ext_dim(x, y, k) == ext_dim(fx, fy, k)


# -- theta, syzygies and relative projective dimension ---------------------------


def test_theta_of_a_kernel_completed_complex(mods, homs):
    s1, s2, p1 = mods
    f, g = homs
    ker, incl = kernel(g)
    cpx = ProjComplex([s1, p1, ker], [g, incl])
    assert validate_hom_exactness(cpx, list(mods))
    assert rpdim(cpx) == 2
    th = theta_functor(cpx)
    assert functors_isomorphic(th, simple_functor(s1))
    assert pdim(th) == rpdim(cpx)
    # first syzygy commutes with theta
    trunc = relative_syzygy(cpx, 0)
    assert functors_isomorphic(theta_functor(trunc), functor_syzygy(th))


def test_theta_syzygy_on_a_mono_complex(mods, homs):
    s1, s2, p1 = mods
    f, g = homs
    cpx = ProjComplex([p1, s2], [f])
    assert validate_hom_exactness(cpx, list(mods))
    assert rpdim(cpx) == 1
    th = theta_functor(cpx)
    assert pdim(th) == 1
    assert functors_isomorphic(theta_functor(relative_syzygy(cpx, 0)), functor_syzygy(th))


# -- tilting checks ---------------------------------------------------------------


def test_projective_generators_are_tilting(mods):
    s1, s2, p1 = mods
    ts = [identity_object(m) for m in mods] + [target_only(m) for m in mods]
    rep = check_classical_tilting(ts, corpus=list(mods))
    assert rep.verdict
    assert all(c.status == "pass" for c in rep.checks.values())


def test_representables_alone_are_tilting(mods):
    rep = check_classical_tilting([target_only(m) for m in mods], corpus=list(mods))
    assert rep.verdict


def test_projective_gamma_modules_are_not_tilting(mods, gamma_objects):
    # (0, S1, 0) admits no map at all into their additive closure, so the
    # coresolution axiom fails even though Ext vanishes
    tri, q, xs = gamma_objects
    ts = [xs[i] for i in q.projectives]
    assert len(ts) == 4
    rep = check_classical_tilting(ts, corpus=list(mods))
    assert not rep.verdict
    assert rep.checks["projectives-coresolved"].status == "fail"
    assert rep.checks["ext1-vanishes"].status == "pass"


def test_generalized_tilting_with_cross_check(real, mods):
    ts = [identity_object(m) for m in mods] + [target_only(m) for m in mods]
    rep = check_generalized_tilting(ts, corpus=list(mods), realization=real)
    assert rep.verdict
    assert rep.checks["realized-agreement"].status == "pass"


def test_generalized_tilting_failure_still_agrees(real, mods, homs):
    s1, s2, p1 = mods
    f, g = homs
    ts = [MapObject(f), MapObject(g)]
    rep = check_generalized_tilting(ts, corpus=list(mods), realization=real)
    assert not rep.verdict
    assert rep.checks["ext-vanishes"].status == "fail"
    assert rep.checks["realized-agreement"].status == "pass"
    json.dumps(tilting_report_json(rep))  # report must serialize


def test_coresolution_statuses(mods, a2_file):
    s1, s2, p1 = mods
    reps = [target_only(s2), target_only(p1)]
    hit = relative_coresolution(target_only(s2), reps, max_len=2)
    assert hit.status == "pass" and hit.detail["length"] == 0
    # nothing maps from (0, S1, 0) into add of these: a genuine disproof
    miss = relative_coresolution(target_only(s1), reps, max_len=2)
    assert miss.status == "fail"
    # Ext vanishes among the reps, so a canonical coresolution that has not
    # ended after max_len steps proves that none of that length exists
    plain = module_coresolution(s2, [p1], max_len=1)
    assert plain.status == "fail" and plain.detail["step"] == 1
    assert plain.detail["reason"] == "canonical coresolution longer than 1"
    relative = relative_coresolution(target_only(s2), [identity_object(s2)], max_len=0)
    assert relative.status == "fail" and relative.detail["step"] == 0

    # one case per relative outcome, on the named objects of a2.alg
    alg, named = a2_file.algebra, a2_file.maps
    wp1, wp2 = (target_only(indecomposable_projective(alg, v)) for v in range(2))
    assert (wp1.name, wp2.name) == ("(0,P1,0)", "(0,P2,0)")

    def run(names, w):
        return relative_coresolution(w, [named[n] for n in names], max_len=1)

    cr = run(["yS1"], wp1)
    assert (cr.status, cr.detail, cr.terms) == ("fail", {"reason": "approximation not levelwise mono", "step": 0}, [])
    cr = run(["yP1"], wp2)
    assert (cr.status, cr.detail, cr.terms) == ("fail", {"reason": "canonical sequence leaves S", "step": 0}, [])
    cr = run(["yP1", "idS2"], wp2)
    assert (cr.status, cr.detail) == ("fail", {"reason": "canonical coresolution longer than 1", "step": 1})
    assert [(t.name, t.m1.dims, t.m2.dims) for t in cr.terms] == [("", (0, 1), (1, 2))]
    cr = run(["yP1", "idS2", "f"], wp2)
    assert (cr.status, cr.detail) == ("pass", {"length": 1})
    assert [(t.name, t.m1.dims, t.m2.dims) for t in cr.terms] == [("", (0, 2), (2, 3)), ("", (0, 2), (2, 2))]
    # a length-0 pass returns w itself
    cr = run(["yP1", "idS2"], wp1)
    assert (cr.status, cr.detail) == ("pass", {"length": 0})
    assert len(cr.terms) == 1 and cr.terms[0] is wp1


@pytest.mark.parametrize("third", ["f", "g"])
def test_minimal_realized_disagreements_on_a2(a2_file, a2_file_real, third):
    """{yS1, yP1, f} and {yS1, yP1, g}: the smallest subsets where the two sides disagree.

    This pins current behaviour until ROADMAP item 1 decides which side is
    right: the maps side fails because the canonical approximation of
    (0,P2,0) leaves S at step 0, while the realized side passes.
    """
    ts = [a2_file.maps[n] for n in ("yS1", "yP1", third)]
    rep = check_generalized_tilting(ts, realization=a2_file_real)
    agreement = rep.checks["realized-agreement"]
    assert agreement.status == "fail"
    assert agreement.witnesses[0] == {"maps_side": "fail", "realized_side": "pass"}
    assert rep.checks["ext-vanishes"].status == "pass"
    coresolved = rep.checks["projectives-coresolved"]
    assert coresolved.status == "fail"
    failed = [w for w in coresolved.witnesses if w["status"] == "fail"]
    assert [(w["module"], w["terms"], w["detail"]) for w in failed] == [
        ({"name": "P2", "dims": [0, 1]}, [], {"reason": "canonical sequence leaves S", "step": 0})
    ]


def _killed_by_phi(a2_file):
    """N: the six objects (X,0,0) and (X,X,1) of Gamma(A2) that Phi kills, by name."""
    mods = [a2_file.modules[n] for n in ("S1", "S2", "P1")]
    return {x.name: x for m in mods for x in (source_only(m), identity_object(m))}


@pytest.mark.parametrize(
    "live, added, sides",
    [
        (("yS1", "yS2", "yP1"), (), ("pass", "pass")),
        (("yS1", "yP1", "f"), (), ("fail", "pass")),
        (("yS1", "yP1", "f"), ("(S2,S2,1)",), ("pass", "pass")),
        (("yS1", "yP1", "g"), ("(S2,0,0)", "(S2,S2,1)"), ("fail", "pass")),
        (("yS1", "yP1", "g"), ("(S2,0,0)", "(S2,S2,1)", "(P1,P1,1)"), ("pass", "pass")),
        (
            ("f", "g", "yS2"),
            ("(S1,0,0)", "(S1,S1,1)", "(S2,0,0)", "(S2,S2,1)", "(P1,0,0)", "(P1,P1,1)"),
            ("fail", "fail"),
        ),
    ],
    ids=["yoneda", "f-alone", "f-closed", "g-short", "g-closed", "f-g-yS2-all-of-N"],
)
def test_maps_side_of_live_sets_closed_under_N_on_a2(a2_file, a2_file_real, live, added, sides):
    """The maps side passes once the objects Phi kills that a live set needs are added.

    The realized side reads only the live objects, so adding members of
    N leaves it unchanged.
    """
    n_objects = _killed_by_phi(a2_file)
    ts = [a2_file.maps[name] for name in live] + [n_objects[name] for name in added]
    rep = check_generalized_tilting(ts, realization=a2_file_real)
    maps_side, realized_side = sides
    assert rep.checks["realized-agreement"].witnesses[0] == {"maps_side": maps_side, "realized_side": realized_side}


def _knit_bounded_at_1(monkeypatch):
    # every indecomposable of a2 but the simples is cut off, so the knit is incomplete
    knit = functors.knit_ar_quiver
    monkeypatch.setattr(functors, "knit_ar_quiver", lambda algebra, dim_bound=40: knit(algebra, dim_bound=1))


def test_incomplete_default_corpus_raises(a2, mods, monkeypatch):
    _knit_bounded_at_1(monkeypatch)
    ts = [target_only(m) for m in mods]
    with pytest.raises(CertificationError, match="^tilting check needs the complete corpus; .* exceeds bound 1"):
        check_classical_tilting(ts)
    with pytest.raises(CertificationError, match="^realization needs the complete corpus"):
        check_generalized_tilting(ts)
    with pytest.raises(CertificationError, match="^epimap approximation needs the complete corpus"):
        epimap_corpus(a2)
    with pytest.raises(CertificationError, match="^monomap approximation needs the complete corpus"):
        right_approx_monomaps(ts[0], monomap_corpus(a2))
    # a corpus the caller supplies is used as given
    assert check_classical_tilting(ts, corpus=list(mods)).verdict


def test_generalized_check_knits_lambda_once(a2, mods, monkeypatch):
    knitted = []
    knit = functors.knit_ar_quiver

    def counting_knit(algebra, dim_bound=40):
        knitted.append(algebra)
        return knit(algebra, dim_bound=dim_bound)

    monkeypatch.setattr(functors, "knit_ar_quiver", counting_knit)
    ts = [identity_object(m) for m in mods] + [target_only(m) for m in mods]
    rep = check_generalized_tilting(ts)
    assert knitted == [a2]
    assert rep.verdict
    assert len(rep.checks["projectives-coresolved"].witnesses) == 3


# -- approximations ---------------------------------------------------------------


def test_right_epimap_approximation_replaces_target_by_image(mods, homs, corpora):
    s1, s2, p1 = mods
    f, g = homs
    ec, mc = corpora
    x = MapObject(f, name="(S2,P1,f)")
    approx, cert = right_approx_epimaps(x, ec)
    assert map_iso_between(approx.source, identity_object(s2)) is not None
    assert cert


def test_left_epimap_approximation_adds_a_projective_cover(mods, homs, corpora):
    s1, s2, p1 = mods
    f, g = homs
    ec, mc = corpora
    x = target_only(s1)
    approx, cert = left_approx_epimaps(x, ec)
    assert map_iso_between(approx.target, MapObject(g)) is not None
    assert cert


def test_approximation_identity_shortcut(mods, homs, corpora):
    s1, s2, p1 = mods
    f, g = homs
    ec, mc = corpora
    x = MapObject(g)  # already an epimap
    approx, cert = right_approx_epimaps(x, ec)
    assert hom_equal(approx.gamma, map_identity(x).gamma)
    assert cert


def test_identity_approximation_is_decided_once_per_certificate(mods, homs, corpora, monkeypatch):
    # the identity test of the approximation runs once for the whole corpus,
    # and an identity approximation then calls factor_each for no object
    _, g = homs
    ec, _ = corpora
    tests = []

    def counted(q):
        tests.append(q)
        return modules.is_identity(q)

    def no_factor_each(*args, **kwargs):
        raise AssertionError("an identity approximation factors each hom as itself")

    monkeypatch.setattr(functors, "is_identity", counted)
    monkeypatch.setattr(functors, "factor_each", no_factor_each)
    approx, cert = right_approx_epimaps(MapObject(g), ec)
    assert cert and len({k for k, _, _ in cert.test_factorizations}) > 1
    assert len(tests) == 1


def test_corpus_sizes(corpora):
    ec, mc = corpora
    assert len(ec) == 7
    assert len(mc) == 7


def test_every_object_has_all_four_certified_approximations(gamma_objects, corpora):
    tri, q, xs = gamma_objects
    ec, mc = corpora
    for x in xs:
        for fn, corpus in (
            (right_approx_epimaps, ec),
            (left_approx_epimaps, ec),
            (right_approx_monomaps, mc),
            (left_approx_monomaps, mc),
        ):
            _, cert = fn(x, corpus)
            assert cert, (x.name, fn.__name__)


# -- transport along the cokernel functor and back --------------------------------


def test_transport_and_reconstruct_roundtrip(real, mods, homs, corpora):
    s1, s2, p1 = mods
    f, g = homs
    ec, mc = corpora
    m = MapObject(g, name="(P1,S1,g)")
    approx, cert = right_approx_epimaps(m, ec)
    assert cert
    rho, tcert = transport_approx_via_phi(real, approx, ec)
    assert tcert
    n, rcert = reconstruct_maps_approx_from_phi(real, m, ec, approx.source, rho)
    assert rcert
    again = certify_right_approx(n, ec)
    assert again


def test_phi_of_morphisms_evaluates_each_object_once(real, homs, corpora, hypothesis_seqs, monkeypatch):
    """Each object is realized once, however many morphisms leave it."""
    ec, _ = corpora
    m = MapObject(homs[1])
    approx, _ = right_approx_epimaps(m, ec)
    rho, _ = transport_approx_via_phi(real, approx, ec)
    ms = next(s for s, ok in hypothesis_seqs if ok)
    realized = []
    realize = functors._realize

    def counting(r, x):
        realized.append(x)
        return realize(r, x)

    monkeypatch.setattr(functors, "_realize", counting)
    map_morphism_to_hom(real, approx)
    assert realized == [approx.source, approx.target]
    realized.clear()
    phi_image_of_ar(real, ms)
    assert realized == [ms.left, ms.middle, ms.right]
    realized.clear()
    assert hom_basis(approx.source.gamma, m.gamma)
    reconstruct_maps_approx_from_phi(real, m, ec, approx.source, rho)
    assert realized == [approx.source, m]


def test_transport_rejects_a_non_approximation(real, mods, homs, corpora):
    s1, s2, p1 = mods
    f, g = homs
    ec, mc = corpora
    # the zero morphism into (P1, S1, g) factors nothing
    from mapscat.maps import map_zero

    bogus = map_zero(target_only(s2), MapObject(g))
    with pytest.raises(CertificationError):
        transport_approx_via_phi(real, bogus, ec)


def test_reconstruct_requires_the_identity_objects_in_the_corpus(real, mods, homs, corpora):
    s1, s2, p1 = mods
    f, g = homs
    ec, mc = corpora
    m = MapObject(g)
    approx, _ = right_approx_epimaps(m, ec)
    rho, _ = transport_approx_via_phi(real, approx, ec)
    thin = [c for c in ec if indec_map_kind(c) != "contractible"]
    with pytest.raises(CertificationError, match="required by the reconstruction"):
        reconstruct_maps_approx_from_phi(real, m, thin, approx.source, rho)


# -- the realization across the whole corpus of algebras --------------------------

CORPUS_ALGEBRAS = [
    ("a2", 2, [("a", 0, 1)], [], 5, 1, 5),
    ("a3_linear", 3, [("a", 0, 1), ("b", 1, 2)], [], 15, 6, 17),
    ("a3_flip", 3, [("a", 0, 1), ("b", 2, 1)], [], 15, 5, 18),
    ("a3_rel", 3, [("a", 0, 1), ("b", 1, 2)], [[(1, ["a", "b"])]], 10, 3, 10),
]


@pytest.mark.parametrize("name,n,arrows,rels,ddim,nrel,nindec", CORPUS_ALGEBRAS)
def test_realization_across_corpus(name, n, arrows, rels, ddim, nrel, nindec):
    alg = algebra_from_spec(P, n, arrows, rels)
    real = functor_realization(alg)
    assert real.delta.dim == ddim
    assert len(real.delta.relations) == nrel
    dq = real.delta_ar_quiver()
    assert dq.complete
    assert len(dq.vertices) == nindec


def test_delta_ar_quiver_is_knitted_per_dim_bound(a2):
    """A bounded knit must not stand in for a later call with a larger bound."""
    real = functor_realization(a2)
    small = real.delta_ar_quiver(dim_bound=1)
    assert not small.complete and len(small.vertices) == 1
    full = real.delta_ar_quiver(dim_bound=60)
    assert full.complete and len(full.vertices) == 5
    assert real.delta_ar_quiver(dim_bound=60) is full
    assert real.delta_ar_quiver(dim_bound=1) is small
