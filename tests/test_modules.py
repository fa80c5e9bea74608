import gc
import random
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_reference import (
    reference_hom_from_generator_images,
    reference_projective_cover,
    reference_projective_sum,
    reference_quotient_projection,
    reference_star_of_projective_hom,
)
from mapscat import linalg as la
from mapscat import modules
from mapscat.algebra import algebra_from_spec, linear_quiver_algebra
from mapscat.ar import knit_ar_quiver
from mapscat.maps import gamma_of
from mapscat.modules import (
    Module,
    cokernel,
    compose,
    decompose,
    decomposition,
    direct_sum,
    dual_module,
    end_radical,
    ext_dim,
    ext_dims,
    hom_add,
    hom_basis,
    hom_basis_coordinates,
    hom_coordinates,
    hom_equal,
    hom_scale,
    identity_hom,
    indecomposable_injective,
    indecomposable_projective,
    injective_envelope,
    iso_between,
    kernel,
    minimal_projective_presentation,
    modules_isomorphic,
    opposite_of,
    projective_cover,
    projective_resolution,
    radical_submodule,
    simple_module,
    socle_submodule,
    summand_multiplicity,
    tau,
    tau_inverse,
    top_quotient,
    transpose,
    zero_module,
)

P = 101


@pytest.fixture(scope="module")
def a2():
    return linear_quiver_algebra(P, 2)


@pytest.fixture(scope="module")
def a3rel():
    # 1 -> 2 -> 3 with the length-two composite set to zero
    return algebra_from_spec(
        P, 3, [("a", 0, 1), ("b", 1, 2)], [[(1, ["a", "b"])]]
    )


def test_projectives_and_injectives_a2(a2):
    p0 = indecomposable_projective(a2, 0)
    p1 = indecomposable_projective(a2, 1)
    assert p0.dims == (1, 1)
    assert p1.dims == (0, 1)
    assert (p0.mats[0] == [[1]]).all()
    i0 = indecomposable_injective(a2, 0)
    i1 = indecomposable_injective(a2, 1)
    assert i0.dims == (1, 0)
    assert i1.dims == (1, 1)


def test_projectives_and_injectives_are_cached(a2):
    for v in range(2):
        assert indecomposable_projective(a2, v) is indecomposable_projective(a2, v)
        assert indecomposable_injective(a2, v) is indecomposable_injective(a2, v)
    assert indecomposable_projective(a2, 0) is not indecomposable_projective(a2, 1)


def test_hom_dimensions_a2(a2):
    s1 = simple_module(a2, 0)
    s2 = simple_module(a2, 1)
    p0 = indecomposable_projective(a2, 0)
    table = {
        (x.name, y.name): len(hom_basis(x, y))
        for x in (s1, s2, p0)
        for y in (s1, s2, p0)
    }
    assert table[("S1", "S1")] == 1
    assert table[("S2", "S2")] == 1
    assert table[("P1", "P1")] == 1
    assert table[("S2", "P1")] == 1  # socle inclusion
    assert table[("P1", "S1")] == 1  # top quotient
    assert table[("S1", "S2")] == 0
    assert table[("S2", "S1")] == 0
    assert table[("S1", "P1")] == 0
    assert table[("P1", "S2")] == 0


def test_radical_top_socle(a2):
    p0 = indecomposable_projective(a2, 0)
    rad, _ = radical_submodule(p0)
    top, _ = top_quotient(p0)
    soc, _ = socle_submodule(p0)
    assert rad.dims == (0, 1)
    assert top.dims == (1, 0)
    assert soc.dims == (0, 1)


def test_projective_cover_and_presentation(a2):
    s1 = simple_module(a2, 0)
    cover = projective_cover(s1)
    assert cover.vertices == [0]
    assert cover.module.dims == (1, 1)
    ker, _ = kernel(cover.epi)
    assert ker.dims == (0, 1)
    pres = minimal_projective_presentation(s1)
    assert pres.p1.module.dims == (0, 1)
    assert not pres.d.is_zero()
    # epi then cover composes to zero
    assert compose(pres.p0.epi, pres.d).is_zero()


def test_direct_sum_identity(a2):
    p0 = indecomposable_projective(a2, 0)
    s2 = simple_module(a2, 1)
    sd = direct_sum(a2, [p0, s2, s2])
    assert sd.module.dims == (1, 3)
    acc = None
    for inc, prj in zip(sd.inclusions, sd.projections):
        term = compose(inc, prj)
        acc = term if acc is None else hom_add(acc, term)
    assert hom_equal(acc, identity_hom(sd.module))


def test_decompose_with_multiplicity(a2):
    p0 = indecomposable_projective(a2, 0)
    s2 = simple_module(a2, 1)
    big = direct_sum(a2, [p0, s2, p0]).module
    parts = decompose(big)
    dims = sorted(part.dims for part, _, _ in parts)
    assert dims == [(0, 1), (1, 1), (1, 1)]
    acc = None
    for _, inc, prj in parts:
        term = compose(inc, prj)
        acc = term if acc is None else hom_add(acc, term)
    assert hom_equal(acc, identity_hom(big))


def test_end_radical_local_and_sum(a2):
    p0 = indecomposable_projective(a2, 0)
    assert end_radical(p0) == []
    s1 = simple_module(a2, 0)
    pair = direct_sum(a2, [p0, s1]).module
    rad = end_radical(pair)
    assert len(rad) == 1
    sq = compose(rad[0], rad[0])
    assert sq.is_zero()


def test_dual_is_involutive(a2):
    p0 = indecomposable_projective(a2, 0)
    dd = dual_module(dual_module(p0))
    assert dd.algebra is p0.algebra
    assert dd.dims == p0.dims
    assert all((a == b).all() for a, b in zip(dd.mats, p0.mats))


def test_opposite_is_cached(a2):
    assert opposite_of(opposite_of(a2)) is a2


def test_transpose_and_tau_a2(a2):
    s1 = simple_module(a2, 0)
    s2 = simple_module(a2, 1)
    tr = transpose(s1)
    assert tr.dims == (0, 1)  # simple at the sink of the opposite quiver
    t = tau(s1)
    assert t.dims == (0, 1)
    assert iso_between(t, s2) is not None
    # tau of a projective is a precondition violation
    p0 = indecomposable_projective(a2, 0)
    with pytest.raises(ValueError):
        tau(p0)
    # tau inverse brings it back
    back = tau_inverse(t)
    assert iso_between(back, s1) is not None
    with pytest.raises(ValueError):
        tau_inverse(indecomposable_injective(a2, 1))


def test_tau_nakayama_with_relation(a3rel):
    s = [simple_module(a3rel, v) for v in range(3)]
    t0 = tau(s[0])
    t1 = tau(s[1])
    assert iso_between(t0, s[1]) is not None
    assert iso_between(t1, s[2]) is not None
    assert transpose(indecomposable_projective(a3rel, 0)).is_zero()


def test_yoneda_dimension_invariant(a3rel):
    mods = [simple_module(a3rel, v) for v in range(3)]
    mods.append(indecomposable_projective(a3rel, 1))
    for m in mods:
        for v in range(3):
            pv = indecomposable_projective(a3rel, v)
            assert len(hom_basis(pv, m)) == m.dims[v]


def test_grouped_decomposition(a2):
    p0 = indecomposable_projective(a2, 0)
    s2 = simple_module(a2, 1)
    big = direct_sum(a2, [p0, s2, p0]).module
    dec = decomposition(big)
    mults = sorted((rep.dims, mult) for rep, mult in dec.summands)
    assert mults == [((0, 1), 1), ((1, 1), 2)]
    # projections hit their own inclusion as identity, others as zero
    for i, (_, inc_i, prj_i) in enumerate(dec.witnesses):
        for j, (_, inc_j, _) in enumerate(dec.witnesses):
            comp = compose(prj_i, inc_j)
            if i == j:
                assert hom_equal(comp, identity_hom(inc_i.source))
            else:
                assert comp.is_zero()


def test_injective_envelope(a2):
    s1 = simple_module(a2, 0)
    env, mono = injective_envelope(s1)
    assert env.dims == (1, 0)  # already injective at the source vertex
    s2 = simple_module(a2, 1)
    env2, mono2 = injective_envelope(s2)
    assert env2.dims == (1, 1)
    for v in range(2):
        assert la.rank(mono2.mats[v], P) == s2.dims[v]


def test_ext_groups_a2(a2):
    s1 = simple_module(a2, 0)
    s2 = simple_module(a2, 1)
    assert ext_dim(s1, s2, 1) == 1  # the one almost split extension
    assert ext_dim(s1, s1, 1) == 0
    assert ext_dim(s2, s1, 1) == 0  # s2 is projective
    assert ext_dim(s1, s2, 2) == 0  # hereditary
    with pytest.raises(ValueError):
        ext_dim(s1, s2, -1)
    with pytest.raises(ValueError, match="too short"):
        ext_dims(projective_resolution(s1, 1), s2, [1])


def test_ext_square_with_relation(a3rel):
    s0 = simple_module(a3rel, 0)
    s2 = simple_module(a3rel, 2)
    assert ext_dim(s0, s2, 2) == 1
    assert ext_dim(s0, s2, 1) == 0


def test_projective_resolution_takes_one_kernel_per_step(a3rel, monkeypatch):
    # the syzygy after the last cover is never read, so it is never built
    calls = []
    counted = modules.kernel
    monkeypatch.setattr(modules, "kernel", lambda f: calls.append(f) or counted(f))
    s0 = simple_module(a3rel, 0)
    for length in (0, 1, 3):
        calls.clear()
        covers, diffs = projective_resolution(s0, length)
        assert len(covers) == length + 1 and len(diffs) == length
        assert len(calls) == length


def test_kronecker_local_endos():
    alg = algebra_from_spec(P, 2, [("a", 0, 1), ("b", 0, 1)], [])
    # the regular representation: End is local of dimension 2
    m = Module(alg, (2, 2), [la.eye(2), np.array([[0, 1], [0, 0]])])
    assert len(hom_basis(m, m)) == 2
    assert len(end_radical(m)) == 1
    parts = decompose(m)
    assert len(parts) == 1
    p0 = indecomposable_projective(alg, 0)
    assert p0.dims == (1, 2)
    assert len(decompose(p0)) == 1


def test_iso_rejects_nonisomorphic(a2):
    s1 = simple_module(a2, 0)
    s2 = simple_module(a2, 1)
    p0 = indecomposable_projective(a2, 0)
    assert iso_between(s1, s2) is None
    assert iso_between(p0, direct_sum(a2, [s1, s2]).module) is None
    assert not modules_isomorphic(p0, direct_sum(a2, [s1, s2]).module)
    assert modules_isomorphic(
        direct_sum(a2, [s1, s2]).module, direct_sum(a2, [s2, s1]).module
    )


def test_zero_module_edge_cases(a2):
    z = zero_module(a2)
    assert decompose(z) == []
    assert tau(z).is_zero()
    cover = projective_cover(z)
    assert cover.module.is_zero()


def _random_invertible(rng, n, p):
    while True:
        g = rng.integers(0, p, size=(n, n))
        if la.invert(g, p) is not None:
            return g


@settings(max_examples=12, deadline=None)
@given(
    counts=st.tuples(
        st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)
    ).filter(lambda t: sum(t) > 0),
    seed=st.integers(0, 10**6),
    p=st.sampled_from([2, 3, 5, 101]),
)
def test_decompose_recovers_summands_after_base_change(counts, seed, p):
    alg = linear_quiver_algebra(p, 2)
    pieces = (
        [simple_module(alg, 0)] * counts[0]
        + [simple_module(alg, 1)] * counts[1]
        + [indecomposable_projective(alg, 0)] * counts[2]
    )
    m = direct_sum(alg, pieces).module
    rng = np.random.default_rng(seed)
    g = [_random_invertible(rng, d, p) for d in m.dims]
    ginv = [la.invert(x, p) for x in g]
    mats = [
        la.matmul(g[t], la.matmul(m.mats[a], ginv[s], p), p)
        for a, (_, s, t) in enumerate(alg.quiver.arrows)
    ]
    twisted = Module(alg, m.dims, mats)
    assert modules_isomorphic(twisted, m)
    parts = decompose(twisted)
    got = sorted(part.dims for part, _, _ in parts)
    want = sorted(piece.dims for piece in pieces)
    assert got == want
    for part, _, _ in parts:
        isos = [h for h in (iso_between(part, piece) for piece in pieces) if h is not None]
        assert isos
        assert all(la.invert(x, p) is not None for x in isos[0].mats)


# -- memoised invariants --------------------------------------------------------


def _s2_plus_p2(alg):
    """S2 + P2 over 1 -> 2 -> 3: End of dimension 3 with a one-dimensional radical."""
    return direct_sum(alg, [simple_module(alg, 1), indecomposable_projective(alg, 1)]).module


@pytest.mark.parametrize("build", [_s2_plus_p2, lambda alg: simple_module(alg, 1)], ids=["sum", "indecomposable"])
def test_module_with_filled_caches_is_freed_without_the_cycle_collector(build):
    alg = linear_quiver_algebra(P, 3)
    gc.collect()
    gc.disable()
    try:
        m = build(alg)
        hom_basis(m, m)
        end_radical(m)
        decompose(m)
        tau(m)
        assert m._end_kernel is not None and m._summands is not None
        ref = weakref.ref(m)
        del m
        assert ref() is None
    finally:
        gc.enable()


def _plain(result):
    """A detached, comparable copy of a list of homs or of decompose triples."""

    def mats(h):
        return [x.tolist() for x in h.mats]

    return [(it[0].dims, mats(it[1]), mats(it[2])) if isinstance(it, tuple) else mats(it) for it in result]


INVARIANTS = {"hom_basis": lambda x: hom_basis(x, x), "end_radical": end_radical, "decompose": decompose}


@pytest.mark.parametrize("name", sorted(INVARIANTS))
def test_callers_cannot_change_a_memoised_invariant(name):
    m = _s2_plus_p2(linear_quiver_algebra(P, 3))
    first = INVARIANTS[name](m)
    want = _plain(first)
    assert want
    first.reverse()
    first.append(first[0])
    first[0] = None
    again = INVARIANTS[name](m)
    assert _plain(again) == want
    assert INVARIANTS[name](m) is not again


@pytest.mark.parametrize("name", ["hom_basis", "decompose"])
def test_memoised_matrices_are_read_only(name):
    # these homs are views of the arrays kept on the module
    m = _s2_plus_p2(linear_quiver_algebra(P, 3))
    homs = [h for it in INVARIANTS[name](m) for h in (it[1:] if isinstance(it, tuple) else [it])]
    mats = [x for h in homs for x in h.mats if x.size]
    assert mats
    for x in mats:
        with pytest.raises(ValueError):
            x[0, 0] = 1


def test_memoised_decompose_returns_the_same_parts():
    alg = linear_quiver_algebra(P, 3)
    m = _s2_plus_p2(alg)
    first = [part for part, _, _ in decompose(m)]
    assert [part for part, _, _ in decompose(m)] == first
    s = simple_module(alg, 1)
    assert [part for part, _, _ in decompose(s)] == [s]


def _dual_numbers_projectives():
    """P of K[x]/x^2 and the two indecomposable projectives of its Gamma, each with End != K."""
    alg = algebra_from_spec(P, 1, [("x", 0, 0)], [[(1, ["x", "x"])]])
    gamma = gamma_of(alg).algebra
    return [indecomposable_projective(alg, 0)] + [indecomposable_projective(gamma, v) for v in range(2)]


@pytest.mark.parametrize("order", [("decompose", "end_radical"), ("end_radical", "decompose")], ids=["decompose", "end_radical"])
def test_radical_coordinates_are_computed_once_for_decompose_and_end_radical(order, monkeypatch):
    # decompose certifies an indecomposable with End != K through rad End,
    # so it keeps the coordinates that end_radical reads, and the other way round
    calls = []
    inner = modules._radical_coords
    monkeypatch.setattr(modules, "_radical_coords", lambda *args: calls.append(1) or inner(*args))
    for proj in _dual_numbers_projectives():
        m = Module(proj.algebra, proj.dims, proj.mats)  # fresh, with nothing kept yet
        assert len(hom_basis(m, m)) > 1
        calls.clear()
        results = {name: INVARIANTS[name](m) for name in order}
        assert len(calls) == 1, m
        assert [part for part, _, _ in results["decompose"]] == [m]
        assert _plain(results["end_radical"]) == _plain(end_radical(proj))


@pytest.mark.parametrize("order", [("decompose", "end_radical"), ("end_radical", "decompose")], ids=["decompose", "end_radical"])
def test_structure_constants_are_built_once_for_decompose_and_end_radical(order, monkeypatch):
    # with rad End kept and End/rad = K, decompose needs no structure
    # constants of its own: one _mult_coords call in either order
    calls = []
    inner = modules._mult_coords
    monkeypatch.setattr(modules, "_mult_coords", lambda *args: calls.append(1) or inner(*args))
    for proj in _dual_numbers_projectives():
        m = Module(proj.algebra, proj.dims, proj.mats)  # fresh, with nothing kept yet
        calls.clear()
        for name in order:
            INVARIANTS[name](m)
        assert len(calls) == 1, m


def _knitted_sums(alg):
    """The knitted indecomposables of alg and some sums of two or three of them."""
    q = knit_ar_quiver(alg)
    assert q.complete
    vs = q.vertices
    n = len(vs)
    picks = [(i, (i + 1) % n, i) for i in range(0, n, 3)] + [(i, (i + 2) % n) for i in range(1, n, 3)]
    return vs, [direct_sum(alg, [vs[i] for i in pick]).module for pick in picks]


@pytest.mark.parametrize("p", [2, 3, 101])
def test_summand_multiplicity_matches_decomposition(p):
    # the oracle: decompose the sum and match its parts to the corpus
    a3_rel = algebra_from_spec(p, 3, [("a", 0, 1), ("b", 1, 2)], [[(1, ["a", "b"])]])
    dual = algebra_from_spec(p, 1, [("x", 0, 0)], [[(1, ["x", "x"])]])
    gamma_a2 = gamma_of(linear_quiver_algebra(p, 2)).algebra
    for alg in (a3_rel, gamma_a2, dual):
        vs, sums = _knitted_sums(alg)
        for b in sums:
            expected = [0] * len(vs)
            for part, mult in decomposition(b).summands:
                expected[modules.iso_index(part, vs)] = mult
            assert [summand_multiplicity(y, b) for y in vs] == expected, b


def test_summand_multiplicity_divides_by_the_residue_degree():
    # over the Kronecker quiver at p = 2, b = [[0, 1], [1, 1]] has the
    # irreducible characteristic polynomial x^2 + x + 1, so End(y) = F_4:
    # each copy of y adds 2 to the pairing rank
    alg = algebra_from_spec(2, 2, [("a", 0, 1), ("b", 0, 1)], [])
    y = Module(alg, [2, 2], [la.eye(2), np.array([[0, 1], [1, 1]])])
    s1 = simple_module(alg, 0)
    assert len(hom_basis(y, y)) == 2 and not end_radical(y)
    b = direct_sum(alg, [y, s1, y]).module
    assert summand_multiplicity(y, b) == 2
    assert summand_multiplicity(s1, b) == 1
    assert summand_multiplicity(y, s1) == 0


def _assert_reduced(h, p):
    for v, x in enumerate(h.mats):
        assert x.dtype == np.int64
        assert x.shape == (h.target.dims[v], h.source.dims[v])
        assert x.size == 0 or (x.min() >= 0 and x.max() < p)


@pytest.mark.parametrize("p", [3, 101])
def test_basis_homs_over_the_a3_gamma_corpus_are_reduced(p):
    # the invariant that ModuleHom's normalization guaranteed before kernel
    # columns and composites were taken as given
    alg = algebra_from_spec(p, 3, [("a", 0, 1), ("b", 1, 2)])
    q = knit_ar_quiver(gamma_of(alg).algebra)
    assert q.complete and len(q.vertices) == 29
    for x in q.vertices:
        for y in q.vertices:
            for h in hom_basis(x, y):
                _assert_reduced(h, p)
        for h in end_radical(x):
            _assert_reduced(h, p)
    for seq in q.sequences.values():
        for _, incl, proj in decompose(seq.middle):
            _assert_reduced(incl, p)
            _assert_reduced(proj, p)
            _assert_reduced(compose(seq.surj, incl), p)


@pytest.mark.parametrize("p", [3, 101])
def test_hom_basis_coordinates_match_the_solve(p):
    # read off the canonical basis, the coordinates of every composite
    # x -> z -> y are those the solve finds: over the Kronecker modules
    # (k, k + 1), whose hom spaces have several basis vectors sharing
    # support, and the Gamma(A2) corpus with a sum of three of its objects
    kron = knit_ar_quiver(algebra_from_spec(p, 2, [("a", 0, 1), ("b", 0, 1)], []), dim_bound=9)
    gam = knit_ar_quiver(gamma_of(linear_quiver_algebra(p, 2)).algebra)
    corpus = kron.vertices + gam.vertices + [direct_sum(gam.algebra, gam.vertices[:3]).module]
    checked = 0
    for x in corpus:
        same = [z for z in corpus if z.algebra is x.algebra]
        for y in same:
            basis = hom_basis(x, y)
            homs = [compose(g, f) for z in same for f in hom_basis(x, z) for g in hom_basis(z, y)]
            read = hom_basis_coordinates(iter(homs), basis)
            assert read.shape == (len(basis), len(homs))
            assert (read == hom_coordinates(homs, basis)).all()
            checked += bool(homs)
    assert checked > 50


@pytest.mark.parametrize("p", [2, 3, 5, 101])
def test_quotient_projection_matches_the_former_inversion(p):
    # over one vertex every subspace is a submodule: the projection read
    # off the RREF is the former inverse of the completed basis, and a
    # dependent basis still raises; over Gamma(A2) so is the projection
    # onto each top
    rng = np.random.default_rng(p)
    point = algebra_from_spec(p, 1, [], [])
    dependent = 0
    for i in range(40):
        d = int(rng.integers(1, 7))
        b = rng.integers(0, p, size=(d, int(rng.integers(1, d + 1))))
        if i % 4 == 3:
            b = np.hstack([b, 2 * b[:, :1] % p])  # dependent on purpose
        want = reference_quotient_projection(b, p)
        if want is None:
            dependent += 1
            with pytest.raises(ValueError):
                modules.quotient(Module(point, [d], []), [b])
            continue
        _, proj = modules.quotient(Module(point, [d], []), [b])
        assert (proj.mats[0] == want).all()
    assert 0 < dependent < 40
    for m in knit_ar_quiver(gamma_of(linear_quiver_algebra(p, 2)).algebra).vertices:
        _, proj = modules.top_quotient(m)
        for b, got in zip(modules.radical_bases(m), proj.mats):
            if b.shape[1]:
                assert (got == reference_quotient_projection(b, p)).all()


def _commutative_square(p):
    # arrows in the order a, b, c, d: c.b is the basis path 1 -> 4, but its
    # reverse b.c is rewritten by the opposite algebra as -1/3 d.a, so d* of
    # a hom P4 -> P1 meets a coefficient other than +-1 (it vanishes at p = 3)
    return algebra_from_spec(p, 4, [("a", 0, 1), ("b", 2, 3), ("c", 0, 2), ("d", 1, 3)], [[(1, ["a", "d"]), (3, ["c", "b"])]])


PROJECTIVE_ORACLE_ALGEBRAS = {
    "a2": lambda: linear_quiver_algebra(P, 2),
    "a3_rel": lambda: algebra_from_spec(P, 3, [("a", 0, 1), ("b", 1, 2)], [[(1, ["a", "b"])]]),
    "dual_numbers": lambda: algebra_from_spec(P, 1, [("x", 0, 0)], [[(1, ["x", "x"])]]),
    "square_p5": lambda: _commutative_square(5),
    "square_p101": lambda: _commutative_square(101),
}


def _same_mats(a, b):
    return len(a) == len(b) and all(x.shape == y.shape and (x == y).all() for x, y in zip(a, b))


@pytest.mark.parametrize("side", ["lambda", "gamma"])
@pytest.mark.parametrize("name", list(PROJECTIVE_ORACLE_ALGEBRAS))
def test_projective_layer_matches_the_direct_sum_reference(name, side):
    # the sums of projectives, generator homs, covers and d* read off the
    # path table agree matrix for matrix with the former direct_sum build,
    # on hom_basis elements between sums of one or two projectives: P_n -> P_1
    # (on the square, the hom through the path c.b) and a seeded sample
    alg = PROJECTIVE_ORACLE_ALGEBRAS[name]()
    if side == "gamma":
        alg = gamma_of(alg).algebra
    n, p = alg.quiver.n_vertices, alg.p
    rng = random.Random(f"{name}/{side}")
    sums = [[v] for v in range(n)] + [[v, w] for v in range(n) for w in range(n)]
    pairs = [([n - 1], [0])] + rng.sample([(s, t) for s in sums for t in sums], min(6, len(sums) ** 2))
    for src_vs, tgt_vs in pairs:
        src, tgt = modules.projective_sum(alg, src_vs), modules.projective_sum(alg, tgt_vs)
        ref_src, ref_tgt = reference_projective_sum(alg, src_vs), reference_projective_sum(alg, tgt_vs)
        assert _same_mats(src.mats, ref_src.module.mats) and _same_mats(tgt.mats, ref_tgt.module.mats)
        images = [np.array([rng.randrange(p) for _ in range(tgt.dims[v])], dtype=np.int64) for v in src_vs]
        gen = modules.hom_from_generator_images(src, src_vs, tgt, images)
        assert _same_mats(gen.mats, reference_hom_from_generator_images(ref_src, src_vs, tgt, images).mats)
        cover_src, cover_tgt = modules.ProjCover(src, src_vs, identity_hom(src)), modules.ProjCover(tgt, tgt_vs, identity_hom(tgt))
        for h in hom_basis(src, tgt):
            star = modules.star_of_projective_hom(cover_src, cover_tgt, h)
            ref = reference_star_of_projective_hom(ref_src, src_vs, ref_tgt, tgt_vs, h)
            assert _same_mats(star.mats, ref.mats)
            assert _same_mats(star.source.mats, ref.source.mats) and _same_mats(star.target.mats, ref.target.mats)
            for m in (cokernel(h)[0], cokernel(star)[0]):
                cover = projective_cover(m)
                ref_sum, ref_vertices, ref_epi = reference_projective_cover(m)
                assert cover.vertices == ref_vertices and cover.module.name == ref_sum.module.name
                assert _same_mats(cover.module.mats, ref_sum.module.mats) and _same_mats(cover.epi.mats, ref_epi.mats)
