import json
import random
from functools import lru_cache
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_reference import reference_ext_classes, reference_extension

from mapscat import ar, modules
from mapscat import linalg as la
from mapscat.algebra import algebra_from_spec
from mapscat.algfile import parse_algebra_file
from mapscat.maps import gamma_of, split_epi_section, to_gamma_module
from mapscat.modules import (
    Module,
    combine,
    compose,
    direct_sum,
    dual_module,
    end_radical,
    extension,
    hom_add,
    hom_basis,
    hom_coordinates,
    hom_into_sub,
    identity_hom,
    indecomposable_projective,
    is_injective_indec,
    is_projective_indec,
    iso_between,
    iso_index,
    minimal_projective_presentation,
    modules_isomorphic,
    radical_submodule,
    decompose,
    simple_module,
    tau,
    tau_inverse,
    transpose_maps,
    vectorize_hom,
)
from mapscat.ar import (
    almost_split_ending_at,
    almost_split_starting_at,
    ar_quiver_dot,
    ar_quiver_json,
    check_ar_in_S,
    is_almost_split,
    knit_ar_quiver,
    maps_seq_from_gamma,
    s_theorem_hypothesis,
    seq_of_modules,
    special_seq_M_zero,
    special_seq_duals,
    special_seq_identity_target,
    special_seq_zero_source,
)

P = 101
DATA = resources.files("mapscat").joinpath("data")
BUNDLED = ("a2", "a3_linear", "a3_flip", "a3_rel")
SPECS = {
    "a3_source": (3, [("a", 1, 0), ("b", 1, 2)], []),
    "dual": (1, [("x", 0, 0)], [[(1, ["x", "x"])]]),
    "a4_linear": (4, [("a", 0, 1), ("b", 1, 2), ("c", 2, 3)], []),
}


@lru_cache(maxsize=None)
def _algebra(name):
    if name in BUNDLED:
        return parse_algebra_file((DATA / f"{name}.alg").read_text(encoding="utf-8")).algebra
    return algebra_from_spec(P, *SPECS[name])


@pytest.fixture(scope="module")
def knit():
    """Complete knits by (algebra name, side), each built once per module."""
    built = {}

    def get(name, side):
        if (name, side) not in built:
            alg = _algebra(name)
            q = knit_ar_quiver(alg if side == "lambda" else gamma_of(alg).algebra, dim_bound=80)
            assert q.complete
            built[name, side] = q
        return built[name, side]

    return get


@pytest.fixture(scope="module")
def a2():
    return _algebra("a2")


@pytest.fixture(scope="module")
def a2_modules(a2):
    return simple_module(a2, 0), simple_module(a2, 1), indecomposable_projective(a2, 0)


@pytest.fixture(scope="module")
def gamma_a2(a2):
    return gamma_of(a2)


@pytest.fixture(scope="module")
def gamma_quiver(knit):
    return knit("a2", "gamma")


def test_a2_almost_split_sequence(a2, a2_modules):
    s1, s2, p1 = a2_modules
    seq = almost_split_ending_at(s1)
    assert seq.left.dims == (0, 1)
    assert seq.middle.dims == (1, 1)
    assert seq.right.dims == (1, 0)
    assert is_almost_split(seq, [s1, s2, p1])
    assert iso_between(seq.left, tau(s1)) is not None


def test_ending_at_input_errors(a2, a2_modules):
    s1, s2, p1 = a2_modules
    with pytest.raises(ValueError):
        almost_split_ending_at(p1)
    both = direct_sum(a2, [s1, s2]).module
    with pytest.raises(ValueError):
        almost_split_ending_at(both)


def test_starting_at(a2, a2_modules):
    s1, s2, p1 = a2_modules
    seq = almost_split_starting_at(s2)
    assert is_almost_split(seq, [s1, s2, p1])
    assert seq.left is s2
    assert iso_between(seq.right, tau_inverse(s2)) is not None
    # s1 is the injective envelope of itself here
    with pytest.raises(ValueError):
        almost_split_starting_at(s1)


def test_lambda_quiver_a2(a2):
    q = knit_ar_quiver(a2)
    assert [tuple(m.dims) for m in q.vertices] == [(0, 1), (1, 0), (1, 1)]
    assert q.arrows == {(0, 2): 1, (2, 1): 1}
    assert q.tau_edges == [(1, 0)]
    assert q.projectives == [0, 2]
    assert q.injectives == [1, 2]
    assert q.complete


GAMMA_A2_DIMS = [
    (0, 0, 0, 1),
    (0, 0, 1, 0),
    (0, 1, 0, 0),
    (1, 0, 0, 0),
    (0, 0, 1, 1),
    (0, 1, 0, 1),
    (1, 0, 1, 0),
    (1, 1, 0, 0),
    (0, 1, 1, 1),
    (1, 1, 1, 0),
    (1, 1, 1, 1),
]


def test_gamma_quiver_a2_frozen(gamma_quiver):
    q = gamma_quiver
    assert [tuple(m.dims) for m in q.vertices] == GAMMA_A2_DIMS
    assert q.projectives == [0, 4, 5, 10]
    assert q.injectives == [3, 6, 7, 10]
    assert q.complete and q.warning == ""
    assert len(q.arrows) == 14
    assert q.tau_edges == [(1, 5), (2, 4), (3, 9), (6, 2), (7, 1), (8, 0), (9, 8)]
    assert len(q.sequences) == 7
    assert all(s.verified == "corpus" for s in q.sequences.values())


def _rad_rad2_arrows(reps):
    """Arrow multiplicities dim rad(X,Y)/rad^2(X,Y) from the corpus."""
    n = len(reps)
    p = reps[0].algebra.p if reps else 2
    rad_basis = {}
    for i in range(n):
        for j in range(n):
            if i == j:
                rad_basis[(i, j)] = end_radical(reps[i])
            else:
                rad_basis[(i, j)] = hom_basis(reps[i], reps[j])
    arrows = {}
    for i in range(n):
        for j in range(n):
            basis = rad_basis[(i, j)]
            if not basis:
                continue
            sq_cols = []
            for z in range(n):
                for a in rad_basis[(i, z)]:
                    for b in rad_basis[(z, j)]:
                        sq_cols.append(vectorize_hom(compose(b, a)))
            total = np.stack([vectorize_hom(h) for h in basis], axis=1)
            rank_rad = la.rank(total, p)
            if sq_cols:
                sq = np.stack(sq_cols, axis=1)
                rank_sq = la.rank(sq, p)
            else:
                rank_sq = 0
            mult = rank_rad - rank_sq
            if mult > 0:
                arrows[(i, j)] = mult
    return arrows


@pytest.mark.parametrize(
    "name,side",
    [
        ("a2", "lambda"),
        ("a3_linear", "lambda"),
        ("a3_source", "lambda"),
        ("a3_rel", "lambda"),
        ("dual", "lambda"),
        ("a2", "gamma"),
        ("a3_rel", "gamma"),
        ("dual", "gamma"),
    ],
    ids=["a2", "a3", "a3-flip", "a3-rel", "dual", "gamma-a2", "gamma-a3-rel", "gamma-dual"],
)
def test_arrows_match_rad_rad2_reference(knit, name, side):
    # knitting reads arrows off middle terms; rad/rad^2 is an independent count
    q = knit(name, side)
    assert q.arrows == _rad_rad2_arrows(q.vertices)


@pytest.mark.parametrize("side", ["lambda", "gamma"])
@pytest.mark.parametrize("name", [*BUNDLED, "dual", "a4_linear"])
def test_knitted_sequences_almost_split_over_corpus(knit, name, side):
    # knitting certifies from the right end alone; the definition check
    # against every indecomposable is the independent oracle
    q = knit(name, side)
    assert q.sequences
    for i, seq in q.sequences.items():
        assert seq.verified == "corpus"
        cert = is_almost_split(seq, q.vertices)
        assert cert, (i, cert.reasons)


def test_socle_criterion_rejects_a_class_outside_the_socle(knit):
    # Gamma of K[x]/x^2 at C = [2, 0]: Ext^1(C, tau C) is 2-dimensional and
    # rad End(C) 1-dimensional, so some non-split class is not in the socle
    q = knit("dual", "gamma")
    c = next(m for m in q.vertices if tuple(m.dims) == (2, 0))
    tc = tau(c)
    pres = minimal_projective_presentation(c)
    incl = pres.syzygy_incl
    cocycles = hom_basis(pres.syzygy, tc)
    from_p0 = hom_basis(pres.p0.module, tc)
    cob = hom_coordinates([compose(h, incl) for h in from_p0], cocycles)
    classes = la.kernel_basis(cob.T, P).T  # coordinates on Ext^1(C, tau C)
    rad = end_radical(c)
    assert classes.shape[0] == 2 and len(rad) == 1
    r0 = ar._lift_along_epi(pres.p0.epi, compose(rad[0], pres.p0.epi))
    r1 = hom_into_sub(incl, compose(r0, incl))
    act = hom_coordinates([compose(z, r1) for z in cocycles], cocycles)
    j = next(j for j in range(len(cocycles)) if la.matmul(classes, act[:, j : j + 1], P).any())
    _, leg, surj = extension(cocycles[j], incl, pres.p0.epi)
    seq = seq_of_modules(leg, surj)
    assert tuple(seq.middle.dims) == (2, 2)
    assert split_epi_section(surj) is None
    for test_set in ([c], q.vertices):
        cert = is_almost_split(seq, test_set)
        assert not cert
        assert any("radical endomorphisms do not all factor" in r for r in cert.reasons)


@pytest.mark.parametrize("name, side", [("a3_rel", "lambda"), ("dual", "gamma")])
def test_coboundary_classes_split_and_are_never_picked(knit, name, side):
    # a cocycle h o (K -> P0) with h: P0 -> tau m has class zero in
    # Ext^1(m, tau m): its extension splits, and the pick passes over it to
    # a class whose extension does not, which is why the construction of
    # almost split sequences needs no search for a section
    q = knit(name, side)
    for i, m in enumerate(q.vertices):
        if i in q.projectives:
            continue
        tm, pres = tau(m), minimal_projective_presentation(m)
        incl = pres.syzygy_incl
        cocycles = hom_basis(pres.syzygy, tm)
        from_p0 = hom_basis(pres.p0.module, tm)
        cob = hom_coordinates([compose(h, incl) for h in from_p0], cocycles)
        classes = la.kernel_basis(cob.T, P).T
        assert ar._nonzero_class(classes, cob, P) is None
        for h in from_p0:
            assert split_epi_section(extension(compose(h, incl), incl, pres.p0.epi)[2]) is not None
        pick = ar._nonzero_class(classes, np.hstack([cob, la.eye(len(cocycles))]), P)
        assert pick is not None
        surj = extension(combine(pres.syzygy, tm, cocycles, pick), incl, pres.p0.epi)[2]
        assert split_epi_section(surj) is None


def test_tau_three_ways_gamma_a2(gamma_quiver):
    q = gamma_quiver
    for i, j in q.tau_edges:
        assert iso_between(tau(q.vertices[i]), q.vertices[j]) is not None
        assert iso_between(tau_inverse(q.vertices[j]), q.vertices[i]) is not None


@pytest.mark.parametrize("name", ["a3_rel", "a3_flip"])
def test_translates_are_additive(knit, name):
    # tau(x (+) y) = tau x (+) tau y, where a projective summand contributes
    # nothing and a sum of projectives raises; dually for tau^-1 and injectives
    q = knit(name, "lambda")
    alg = q.algebra
    for translate, ends in ((tau, q.projectives), (tau_inverse, q.injectives)):
        for i, x in enumerate(q.vertices):
            for j in range(i, len(q.vertices)):
                total = direct_sum(alg, [x, q.vertices[j]]).module
                kept = [q.vertices[k] for k in (i, j) if k not in ends]
                if not kept:
                    with pytest.raises(ValueError):
                        translate(total)
                    continue
                expected = direct_sum(alg, [translate(m) for m in kept]).module
                assert modules_isomorphic(translate(total), expected), (translate.__name__, i, j)


def test_special_shapes_a2(a2_modules):
    s1, s2, p1 = a2_modules
    st_ = special_seq_identity_target(s1)
    assert (st_.left.m1.dims, st_.left.m2.dims) == ((0, 1), (0, 0))
    assert (st_.middle.m1.dims, st_.middle.m2.dims) == ((1, 1), (1, 0))
    assert (st_.right.m1.dims, st_.right.m2.dims) == ((1, 0), (1, 0))
    zs = special_seq_zero_source(s1)
    assert (zs.left.m1.dims, zs.left.m2.dims) == ((0, 1), (0, 1))
    assert (zs.middle.m1.dims, zs.middle.m2.dims) == ((0, 1), (1, 1))
    assert (zs.right.m1.dims, zs.right.m2.dims) == ((0, 0), (1, 0))
    mz = special_seq_M_zero(s1)
    # left term is the Nakayama image of the minimal presentation
    assert (mz.left.m1.dims, mz.left.m2.dims) == ((1, 1), (1, 0))
    assert (mz.middle.m1.dims, mz.middle.m2.dims) == ((2, 1), (1, 0))
    assert (mz.right.m1.dims, mz.right.m2.dims) == ((1, 0), (0, 0))


def test_special_seq_M_zero_builds_one_presentation(a2_modules, monkeypatch):
    # the presentation behind the almost split sequence also gives the left term
    built = []
    present = ar.minimal_projective_presentation

    def counted(m):
        built.append(m)
        return present(m)

    monkeypatch.setattr(ar, "minimal_projective_presentation", counted)
    monkeypatch.setattr(modules, "minimal_projective_presentation", counted)
    s1 = a2_modules[0]
    special_seq_M_zero(s1)
    assert built == [s1]


def _count_calls(monkeypatch, name):
    """Record each call of modules.<name>, under every module that uses the name."""
    calls = []
    real = getattr(modules, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for mod in (modules, ar):
        if hasattr(mod, name):
            monkeypatch.setattr(mod, name, counted)
    return calls


def _non_injectives(knit):
    for name in ("a2", "a3_rel", "a3_flip"):
        q = knit(name, "lambda")
        yield from (m for i, m in enumerate(q.vertices) if i not in q.injectives)


def test_starting_at_reads_one_presentation_of_the_dual(knit, monkeypatch):
    # the sequence is the dual of the one ending at Dn: one transpose, no tau^-1
    for n in _non_injectives(knit):
        with monkeypatch.context() as mp:
            counts = {k: _count_calls(mp, k) for k in ("minimal_projective_presentation", "star_of_projective_hom", "tau_inverse")}
            seq = almost_split_starting_at(n)
        assert seq.left is n
        assert {k: len(v) for k, v in counts.items()} == {
            "minimal_projective_presentation": 1, "star_of_projective_hom": 1, "tau_inverse": 0
        }


def test_starting_at_checks_its_entry_once(knit, monkeypatch):
    # n is tested for injectivity once; Dn is not tested for projectivity again
    for n in _non_injectives(knit):
        with monkeypatch.context() as mp:
            counts = {k: _count_calls(mp, k) for k in ("is_injective_indec", "is_projective_indec")}
            almost_split_starting_at(n)
        assert {k: len(v) for k, v in counts.items()} == {"is_injective_indec": 1, "is_projective_indec": 0}


def test_knit_runs_no_entry_check_on_the_sequences_it_builds_ahead(monkeypatch, gamma_a2):
    # the knit knows each vertex's kind: it tests injectivity once per
    # vertex, and projectivity only where no sequence was built ahead
    injective = _count_calls(monkeypatch, "is_injective_indec")
    projective = _count_calls(monkeypatch, "is_projective_indec")
    ahead = []
    build_ahead = ar._almost_split_from_dual

    def counted(n, pres, coker):
        ahead.append(n)
        return build_ahead(n, pres, coker)

    monkeypatch.setattr(ar, "_almost_split_from_dual", counted)
    q = knit_ar_quiver(gamma_a2.algebra, dim_bound=80)
    assert q.complete and ahead
    assert len(injective) == len(q.vertices)
    assert len(projective) == len(q.vertices) - len(ahead)


def _non_projectives(knit):
    for name in ("a2", "a3_rel", "a3_flip"):
        q = knit(name, "lambda")
        yield from (m for i, m in enumerate(q.vertices) if i not in q.projectives)


def test_special_seq_M_zero_reads_the_star_behind_its_sequence(knit, monkeypatch):
    # tau m -> D(P1*) is D of the cokernel map that gave tau m: one star,
    # no kernel of D(p1*) to match with tau m
    for m in _non_projectives(knit):
        with monkeypatch.context() as mp:
            counts = {k: _count_calls(mp, k) for k in ("star_of_projective_hom", "iso_between")}
            special_seq_M_zero(m)
        assert {k: len(v) for k, v in counts.items()} == {"star_of_projective_hom": 1, "iso_between": 0}


def test_special_seq_duals_build_one_presentation(knit, monkeypatch):
    # family (b) reads D(I0)* -> D(I1)* off the presentation of Dn behind
    # the sequence starting at n: no injective envelopes, no further covers
    for n in _non_injectives(knit):
        with monkeypatch.context() as mp:
            presented = _count_calls(mp, "minimal_projective_presentation")
            covered = _count_calls(mp, "projective_cover")
            special_seq_duals(n)
        assert (len(presented), len(covered)) == (1, 2)


def test_dual_shapes_a2(a2_modules):
    s1, s2, p1 = a2_modules
    d1, d2, d3 = special_seq_duals(s2)
    assert (d1.left.m1.dims, d1.left.m2.dims) == ((0, 1), (0, 1))
    assert (d1.right.m1.dims, d1.right.m2.dims) == ((0, 0), (1, 0))
    assert (d2.left.m1.dims, d2.left.m2.dims) == ((0, 1), (0, 0))
    assert (d2.right.m1.dims, d2.right.m2.dims) == ((1, 0), (1, 0))
    # third family comes from the injective copresentation of s2
    assert (d3.left.m1.dims, d3.left.m2.dims) == ((0, 0), (0, 1))
    assert (d3.middle.m1.dims, d3.middle.m2.dims) == ((0, 1), (1, 2))
    assert (d3.right.m1.dims, d3.right.m2.dims) == ((0, 1), (1, 1))
    with pytest.raises(ValueError):
        special_seq_duals(p1)  # p1 is injective here


def test_special_families_almost_split_over_corpus(a2_modules, gamma_quiver):
    s1, s2, _ = a2_modules
    corpus = gamma_quiver.vertices
    seqs = [
        special_seq_identity_target(s1),
        special_seq_zero_source(s1),
        special_seq_M_zero(s1),
        *special_seq_duals(s2),
    ]
    for seq in seqs:
        cert = is_almost_split(seq, corpus)
        assert bool(cert), cert.reasons


def test_is_almost_split_rejections(a2, a2_modules):
    s1, s2, p1 = a2_modules
    sd = direct_sum(a2, [s2, s1])
    split_seq = seq_of_modules(sd.inclusions[0], sd.projections[1])
    cert = is_almost_split(split_seq, [s1, s2, p1])
    assert not cert and "splits" in cert.reasons[0]

    base = almost_split_ending_at(s1)
    right = direct_sum(a2, [s1, s2])
    middle = direct_sum(a2, [p1, s2])
    inj = compose(middle.inclusions[0], base.inj)
    surj = hom_add(
        compose(right.inclusions[0], compose(base.surj, middle.projections[0])),
        compose(right.inclusions[1], middle.projections[1]),
    )
    padded = seq_of_modules(inj, surj)
    cert = is_almost_split(padded, [s1, s2, p1])
    assert not cert and any("decomposable" in r for r in cert.reasons)


def test_s_membership_theorem_gamma_a2(gamma_a2, gamma_quiver):
    hyp_hits = []
    for i, s in sorted(gamma_quiver.sequences.items()):
        ms = maps_seq_from_gamma(gamma_a2, s)
        holds, _ = s_theorem_hypothesis(ms)
        verdict = check_ar_in_S(ms)  # raises if the theorem were violated
        if holds:
            hyp_hits.append((i, verdict.verdict))
    # exactly one sequence here has both end structure maps non-split
    assert len(hyp_hits) == 1
    assert hyp_hits[0][1] is True


def test_s_hypothesis_needs_maps_level(a2_modules):
    s1, _, _ = a2_modules
    with pytest.raises(ValueError):
        s_theorem_hypothesis(almost_split_ending_at(s1))


def test_dim_bound_gives_partial_quiver(a2):
    q = knit_ar_quiver(a2, dim_bound=1)
    assert not q.complete
    assert "bound" in q.warning or "cap" in q.warning


def _count_sequence_builds(monkeypatch, algebra):
    """Record the right end over algebra of every almost split sequence built.

    Each one goes through _almost_split_with_presentation(m, pres, coker):
    over algebra it ends at m; over the opposite algebra it is the dual
    of a sequence ending at coker.target, the cokernel of d*.
    """
    right_ends = []
    build = ar._almost_split_with_presentation

    def counted(m, pres, coker):
        right_ends.append(m if m.algebra is algebra else coker.target)
        return build(m, pres, coker)

    monkeypatch.setattr(ar, "_almost_split_with_presentation", counted)
    return right_ends


def _built_once(right_ends, q):
    """Whether the recorded builds are one per sequence of q."""
    return sorted(m.dims for m in right_ends) == sorted(q.vertices[i].dims for i in q.sequences)


def _record_certificates(monkeypatch):
    calls = []
    certify = ar.is_almost_split

    def recorded(seq, test_set):
        calls.append((seq, list(test_set)))
        return certify(seq, test_set)

    monkeypatch.setattr(ar, "is_almost_split", recorded)
    return calls


def test_bounded_kronecker_builds_each_sequence_once(monkeypatch):
    alg = algebra_from_spec(P, 2, [("a", 0, 1), ("b", 0, 1)], [])
    calls = _count_sequence_builds(monkeypatch, alg)
    certified = _record_certificates(monkeypatch)
    q = knit_ar_quiver(alg, dim_bound=12)
    assert not q.complete and "exceeds bound 12" in q.warning
    assert [tuple(m.dims) for m in q.vertices] == [(k, k + 1) for k in range(6)]
    assert q.arrows == {(i, i + 1): 2 for i in range(5)}
    assert q.tau_edges == [(2, 0), (3, 1), (4, 2), (5, 3)]
    assert all(s.verified == "corpus-bounded" for s in q.sequences.values())
    # nothing is built for a right end past the bound
    assert len(calls) == len(q.vertices) - len(q.projectives) == len(q.sequences)
    assert _built_once(calls, q)
    assert not certified


def test_complete_knit_builds_each_sequence_once(monkeypatch, gamma_a2):
    calls = _count_sequence_builds(monkeypatch, gamma_a2.algebra)
    q = knit_ar_quiver(gamma_a2.algebra, dim_bound=80)
    assert q.complete
    assert len(calls) == len(q.vertices) - len(q.projectives) == 7
    assert _built_once(calls, q)


@pytest.mark.parametrize("name", ["a2", "dual"])
def test_complete_knit_transposes_once_per_ar_pair(monkeypatch, name):
    # one presentation per sequence: of DX, whose transpose discovers
    # tau^-1 X, or of the right end Z when Z was processed before X; the
    # dual numbers take the second route too
    fallbacks = []
    fall_back = ar.almost_split_ending_at

    def counted(m):
        fallbacks.append(m)
        return fall_back(m)

    monkeypatch.setattr(ar, "almost_split_ending_at", counted)
    presented = _count_calls(monkeypatch, "minimal_projective_presentation")
    q = knit_ar_quiver(gamma_of(_algebra(name)).algebra, dim_bound=80)
    assert q.complete
    assert len(presented) == len(q.sequences)
    assert (len(fallbacks) > 0) == (name == "dual")


@pytest.mark.parametrize("name", ["a2", "a3_linear"])
def test_every_pairing_attempt_certifies(monkeypatch, name):
    # the pairing runs only when its candidates are complete, so no middle
    # term it reads is decomposed after all
    paired = _count_calls(monkeypatch, "summand_multiplicity")
    decomposed = _count_calls(monkeypatch, "decompose")
    q = knit_ar_quiver(gamma_of(_algebra(name)).algebra, dim_bound=80)
    assert q.complete
    read = {id(args[1]) for args in paired}
    assert read
    assert not read & {id(args[0]) for args in decomposed}


def test_complete_knit_certifies_from_the_right_end_alone(monkeypatch, gamma_a2):
    certified = _record_certificates(monkeypatch)
    q = knit_ar_quiver(gamma_a2.algebra, dim_bound=80)
    assert q.complete
    assert len(certified) == len(q.sequences) == 7
    for seq, test_set in certified:
        assert len(test_set) == 1 and test_set[0] is seq.right


def test_right_end_is_compared_with_itself_by_its_identity(monkeypatch, a2_modules):
    """is_almost_split(seq, [seq.right]) runs no isomorphism search; an isomorphic copy still does."""
    s1, s2, p1 = a2_modules
    seqs = [almost_split_ending_at(s1), special_seq_identity_target(s1)]
    calls = []

    def counting(m, n):
        calls.append((m, n))
        return iso_between(m, n)

    monkeypatch.setattr(ar, "iso_between", counting)
    for seq in seqs:
        assert is_almost_split(seq, [seq.right])
    assert calls == []
    copy = Module(s1.algebra, s1.dims, s1.mats)
    assert is_almost_split(seqs[0], [copy])
    assert calls == [(copy, s1)]


def _arrows_and_tau_by_lookup(q):
    """q.arrows and q.tau_edges rebuilt by looking every module up in q.vertices.

    The reference the knit used to run as a second pass: each summand of
    a sink's source (rad P at a projective, else the middle term) and
    each left end is resolved by iso_index over the final vertex list.
    """
    residue = [len(hom_basis(m, m)) - len(end_radical(m)) for m in q.vertices]
    arrows, tau_edges = {}, []
    for i, m in enumerate(q.vertices):
        seq = q.sequences.get(i)
        source = radical_submodule(m)[0] if seq is None else seq.middle
        for part, _, _ in decompose(source):
            j = iso_index(part, q.vertices)
            if j is not None:
                arrows[(j, i)] = arrows.get((j, i), 0) + residue[j]
        if seq is not None and (at := iso_index(seq.left, q.vertices)) is not None:
            tau_edges.append((i, at))
    return arrows, tau_edges


@pytest.mark.parametrize("case", ["gamma-a3-linear", "kronecker-30", "gamma-a4-8"])
def test_knit_remaps_recorded_indices_after_sorting(knit, monkeypatch, case):
    if case == "gamma-a3-linear":
        q = knit("a3_linear", "gamma")
        assert q.complete
    elif case == "gamma-a4-8":
        # some right ends met after the bound had no sequence built ahead:
        # their left ends are looked up in the final vertex list
        q = knit_ar_quiver(gamma_of(_algebra("a4_linear")).algebra, dim_bound=8)
        assert not q.complete and "exceeds bound 8" in q.warning
    else:
        alg = algebra_from_spec(P, 2, [("a", 0, 1), ("b", 0, 1)], [])
        calls = _count_sequence_builds(monkeypatch, alg)
        processed = _count_calls(monkeypatch, "is_injective_indec")  # once per vertex, in knit order
        decomposed = _count_calls(monkeypatch, "decompose")
        q = knit_ar_quiver(alg, dim_bound=30)
        assert not q.complete and "exceeds bound 30" in q.warning
        assert _built_once(calls, q)
        # the composition pairing reads every middle term (k - 1, k)^2, so
        # only rad P1 = P2^2 and rad P2 = 0 are decomposed
        assert [args[0].dims for args in decomposed] == [(0, 2), (0, 0)]
        # tau^-1 (13, 14) has dimension 31 and stops the knit before (12, 13)
        # is processed, so that vertex is resolved after the bound was hit
        order = [args[0].dims for args in processed]
        assert order.index((13, 14)) < order.index((12, 13))
    arrows, tau_edges = _arrows_and_tau_by_lookup(q)
    assert q.arrows == arrows
    assert q.tau_edges == tau_edges
    assert q.projectives == [i for i, m in enumerate(q.vertices) if is_projective_indec(m)]
    assert q.injectives == [i for i, m in enumerate(q.vertices) if is_injective_indec(m)]
    assert sorted(q.sequences) == [i for i in range(len(q.vertices)) if i not in q.projectives]


@pytest.mark.parametrize(
    "name,side",
    [*((name, side) for side in ("lambda", "gamma") for name in BUNDLED), ("kronecker-12", "lambda")],
)
def test_knitted_left_ends_are_the_translates_of_the_right_ends(knit, name, side):
    # the knit builds a sequence from the transpose of its left end and
    # never computes tau of the right end: tau is the oracle here
    if name == "kronecker-12":
        q = knit_ar_quiver(algebra_from_spec(P, 2, [("a", 0, 1), ("b", 0, 1)], []), dim_bound=12)
        assert not q.complete
    else:
        q = knit(name, side)
    assert q.sequences
    for i, seq in q.sequences.items():
        assert iso_between(seq.left, tau(seq.right)) is not None, i
    assert q.tau_edges == _arrows_and_tau_by_lookup(q)[1]


def test_knit_nakayama_with_relation():
    alg = algebra_from_spec(P, 3, [("a", 0, 1), ("b", 1, 2)], [[(1, ["a", "b"])]])
    q = knit_ar_quiver(alg)
    assert len(q.vertices) == 5
    assert q.complete
    assert len(q.arrows) == 4
    # Nakayama meshes have at most two middle summands
    assert all(len(decompose(s.middle)) <= 2 for s in q.sequences.values())


@pytest.mark.parametrize(
    "arrows",
    [
        [("a", 0, 1), ("b", 1, 2)],
        [("a", 1, 0), ("b", 1, 2)],
    ],
)
def test_knit_a3_orientations(arrows):
    alg = algebra_from_spec(P, 3, arrows, [])
    q = knit_ar_quiver(alg)
    assert len(q.vertices) == 6
    assert q.complete
    for i, seq in q.sequences.items():
        assert iso_between(seq.left, tau(q.vertices[i])) is not None


def test_dot_and_json_outputs(gamma_quiver):
    dot = ar_quiver_dot(gamma_quiver)
    assert dot.startswith("digraph ar {")
    assert dot.count("style=dashed") == 7
    assert '[label="1"]' not in dot  # no multiplicities above one in this quiver
    blob = ar_quiver_json(gamma_quiver)
    assert len(blob["vertices"]) == 11
    assert blob["complete"] is True
    again = ar_quiver_json(gamma_quiver)
    assert json.dumps(blob, sort_keys=True) == json.dumps(again, sort_keys=True)


def test_gamma_sequence_matches_special_family(a2, a2_modules, gamma_a2, gamma_quiver):
    # the knitted sequence ending at the generic object (S2 -> P1) must be
    # the image of the module sequence under the identity-target family
    s1, s2, p1 = a2_modules
    target = special_seq_identity_target(s1)
    g_right = to_gamma_module(target.right)
    for i, seq in gamma_quiver.sequences.items():
        if iso_between(gamma_quiver.vertices[i], g_right) is not None:
            knitted = maps_seq_from_gamma(gamma_a2, seq)
            assert modules_isomorphic(to_gamma_module(knitted.middle), to_gamma_module(target.middle))
            assert iso_between(to_gamma_module(knitted.left), to_gamma_module(target.left)) is not None
            return
    raise AssertionError("identity object of s1 not found in the knitted quiver")


def _truncated_polynomials(p, n):
    """K[x]/x^n over F_p."""
    return algebra_from_spec(p, 1, [("x", 0, 0)], [[(1, ["x"] * n)]])


@pytest.mark.parametrize(
    "p, n, side",
    [(2, 2, "lambda"), (2, 2, "gamma"), (3, 3, "lambda")],
)
def test_knit_in_small_characteristic_matches_p101(p, n, side):
    def knit(prime):
        alg = _truncated_polynomials(prime, n)
        return knit_ar_quiver(alg if side == "lambda" else gamma_of(alg).algebra)

    q = knit(p)
    assert q.complete and q.sequences
    assert all(seq.verified == "corpus" for seq in q.sequences.values())
    assert sorted(m.dims for m in q.vertices) == sorted(m.dims for m in knit(101).vertices)


# -- the presentation route against the former one ------------------------------


def _same_mats(a, b):
    return len(a) == len(b) and all(x.shape == y.shape and (x == y).all() for x, y in zip(a, b))


def _assert_former_route(pres, n):
    """qmat of Ext^1(m, n), for the presentation pres of m, and the pushout
    of every cocycle K -> n agree matrix for matrix with the former route
    of dense_reference."""
    cocycles = hom_basis(pres.syzygy, n)
    if not cocycles:
        return
    qmat, want = ar._ext_classes(pres, n, cocycles), reference_ext_classes(pres, n, cocycles)
    assert qmat.shape == want.shape and (qmat == want).all()
    for c in cocycles:
        e, leg, onto = extension(c, pres.syzygy_incl, pres.p0.epi)
        ref_e, ref_leg, ref_onto = reference_extension(c, pres.syzygy_incl, pres.p0.epi)
        assert e.dims == ref_e.dims and _same_mats(e.mats, ref_e.mats)
        assert _same_mats(leg.mats, ref_leg.mats) and _same_mats(onto.mats, ref_onto.mats)


# the bundled files; a bound keeps the knits of infinite type finite
ORACLE_BOUNDS = {
    "a2": 60, "a3_flip": 60, "a3_linear": 60, "a3_rel": 60, "a4_linear": 60,
    "commutative_square": 8, "dual_numbers": 60, "kronecker": 12, "truncated_x3": 60,
}


@pytest.mark.parametrize("side", ["lambda", "gamma"])
@pytest.mark.parametrize("name", sorted(ORACLE_BOUNDS))
def test_ext_classes_and_pushouts_match_the_former_route(name, side):
    # at every non-projective indecomposable m of the knit, Ext^1(m, tau m)
    # read from the generator images of P0 and every pushout assembled
    # from blocks agree with hom_basis(P0, tau m) and the direct_sum build
    alg = parse_algebra_file((DATA / f"{name}.alg").read_text(encoding="utf-8")).algebra
    q = knit_ar_quiver(alg if side == "lambda" else gamma_of(alg).algebra, dim_bound=ORACLE_BOUNDS[name])
    for i, m in enumerate(q.vertices):
        if i not in q.projectives:
            pres = minimal_projective_presentation(m)
            _assert_former_route(pres, dual_module(transpose_maps(pres)[1].target))


def _random_mat(rng, rows, cols, p):
    return np.array([rng.randrange(p) for _ in range(rows * cols)], dtype=np.int64).reshape(rows, cols)


def _random_rep(alg, dims, rng):
    """A representation with random entries; with the relation a.b = 0 of
    1 -> 2 -> 3, the columns of a are drawn from ker b."""
    p = alg.p
    mats = [_random_mat(rng, dims[t], dims[s], p) for _, s, t in alg.quiver.arrows]
    if alg.relations:
        k = la.kernel_basis(mats[1], p)
        mats[0] = la.matmul(k, _random_mat(rng, k.shape[1], dims[0], p), p)
    return Module(alg, dims, mats)


def _presentation(m, extra, rng):
    """A projective presentation of m whose P0 is its cover plus P_v for v
    in extra, sent to random vectors of m.  With extra summands it is not
    minimal, so K meets their tops: the trivial paths of P0 then count in
    the coboundaries, which they never do for K inside rad P0."""
    alg = m.algebra
    cover = modules.projective_cover(m)
    offs = modules._block_offsets(alg, cover.vertices)
    images = [cover.epi.mats[v][:, off[v]] for v, off in zip(cover.vertices, offs)]  # the tops: row 0 at v
    images += [_random_mat(rng, m.dims[v], 1, alg.p)[:, 0] for v in extra]
    vertices = cover.vertices + extra
    p0 = modules.projective_sum(alg, vertices)
    epi = modules.hom_from_generator_images(p0, vertices, m, images)
    syz, incl = modules.kernel(epi)
    p1 = modules.projective_cover(syz)
    return modules.ProjPresentation(p1, modules.ProjCover(p0, vertices, epi), compose(incl, p1.epi), syz, incl)


RANDOM_QUIVERS = {
    "kronecker": (2, [("a", 0, 1), ("b", 0, 1)], []),
    "a3_rel": (3, [("a", 0, 1), ("b", 1, 2)], [[(1, ["a", "b"])]]),
}


@settings(max_examples=25, deadline=None)
@given(
    name=st.sampled_from(sorted(RANDOM_QUIVERS)),
    p=st.sampled_from([2, 3, 5, 101]),
    dims=st.lists(st.lists(st.integers(0, 3), min_size=3, max_size=3), min_size=2, max_size=2),
    extra=st.lists(st.integers(0, 2), max_size=2),
    seed=st.integers(0, 10**6),
)
def test_ext_classes_and_pushouts_match_the_former_route_on_random_representations(name, p, dims, extra, seed):
    # Ext^1(m, n) for two random representations, decomposable or not, read
    # from a presentation with up to two summands beyond the cover
    n_vertices, arrows, relations = RANDOM_QUIVERS[name]
    alg = algebra_from_spec(p, n_vertices, arrows, relations)
    rng = random.Random(seed)
    m, n = (_random_rep(alg, d[:n_vertices], rng) for d in dims)
    _assert_former_route(_presentation(m, [v % n_vertices for v in extra], rng), n)
