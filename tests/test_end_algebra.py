"""The End(M) layer: the radical chain, the End/rad decision and determinism.

The oracles are independent of the package's radical: Krull-Schmidt fixes
dim End(M) - dim rad End(M) = sum n_i^2 for M = sum n_i X_i with pairwise
non-isomorphic X_i whose endomorphism rings are local with residue field
F_p; the radical must be a nilpotent two-sided ideal, checked here by
composing homs; and for p > dim M it must equal the trace-form routine
below, the single-form radical the package used before the chain.
"""

import random
from collections import Counter
from functools import lru_cache
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_reference import reference_fitting_split
from mapscat import linalg as la
from mapscat.algebra import algebra_from_spec
from mapscat.algfile import parse_algebra_file
from mapscat.ar import knit_ar_quiver
from mapscat.functors import check_classical_tilting
from mapscat.maps import identity_object, target_only
from mapscat.modules import (
    CertificationError,
    Module,
    _split_by_endo,
    _splitting_endomorphism,
    compose,
    decompose,
    direct_sum,
    end_radical,
    hom_basis,
    hom_coordinates,
    indecomposable_projective,
    simple_module,
    unvectorize_hom,
    vectorize_hom,
)

A3 = {
    "a3_linear": ([("a", 0, 1), ("b", 1, 2)], []),
    "a3_flip": ([("a", 0, 1), ("b", 2, 1)], []),
    "a3_rel": ([("a", 0, 1), ("b", 1, 2)], [[(1, ["a", "b"])]]),
}


@lru_cache(maxsize=None)
def _a3_indecomposables(name: str, p: int):
    arrows, relations = A3[name]
    q = knit_ar_quiver(algebra_from_spec(p, 3, arrows, relations))
    assert q.complete
    return q.vertices


def _random_invertible(rng, n, p):
    while True:
        g = rng.integers(0, p, size=(n, n))
        if la.invert(g, p) is not None:
            return g


def _base_change(m: Module, rng) -> Module:
    p = m.algebra.p
    g = [_random_invertible(rng, d, p) for d in m.dims]
    ginv = [la.invert(x, p) for x in g]
    mats = [
        la.matmul(g[t], la.matmul(m.mats[a], ginv[s], p), p)
        for a, (_, s, t) in enumerate(m.algebra.quiver.arrows)
    ]
    return Module(m.algebra, m.dims, mats)


def _mult_coords(ends):
    k = len(ends)
    coords = hom_coordinates([compose(a, b) for a in ends for b in ends], ends)
    return coords.T.reshape(k, k, k)


def _is_nilpotent_ideal_by_composition(m: Module, rad) -> bool:
    """rad spans a two-sided ideal of End(m) and rad^(dim m) = 0."""
    p = m.algebra.p
    ends = hom_basis(m, m)
    sides = [compose(r, e) for r in rad for e in ends] + [compose(e, r) for r in rad for e in ends]
    if sides and hom_coordinates(sides, rad) is None:
        return False
    power = list(rad)
    for _ in range(m.total_dim):
        if not power:
            return True
        prods = np.stack([vectorize_hom(compose(x, r)) for x in power for r in rad], axis=1)
        cols = la.column_space_basis(prods, p)
        power = [unvectorize_hom(m, m, cols[:, j]) for j in range(cols.shape[1])]
    return not power


def intersect_column_spaces(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Basis (as columns) of im(a) meet im(b)."""
    k = la.kernel_basis(np.hstack([a, -b % p]), p)
    return la.column_space_basis(la.matmul(a, k[: a.shape[1]], p), p)


def trace_form_radical(m: Module):
    """Reference radical: the kernel of the regular trace form, intersected
    with the kernel of the trace form on m when the first is not a
    nilpotent ideal.  Correct for p > dim m; raises ArithmeticError when
    neither kernel is a nilpotent ideal."""
    ends = hom_basis(m, m)
    if not ends:
        return []
    p, k = m.algebra.p, len(ends)
    T = _mult_coords(ends)
    reg_tr = np.einsum("ill->i", T) % p
    gram = np.einsum("ijx,x->ij", T, reg_tr) % p
    vtr = la.zeros(k, k)
    for i in range(k):
        for j in range(k):
            vtr[i, j] = sum(int(np.trace(x)) for x in compose(ends[i], ends[j]).mats) % p

    def homs(cand):
        flat = np.stack([vectorize_hom(e) for e in ends])
        return [unvectorize_hom(m, m, cand[:, j] @ flat % p) for j in range(cand.shape[1])]

    cand = la.kernel_basis(gram, p)
    if _is_nilpotent_ideal_by_composition(m, homs(cand)):
        return homs(cand)
    cand = intersect_column_spaces(cand, la.kernel_basis(vtr, p), p)
    cand = la.kernel_basis(la.kernel_basis(cand.T, p).T, p)
    if _is_nilpotent_ideal_by_composition(m, homs(cand)):
        return homs(cand)
    raise ArithmeticError("the trace forms do not give the radical")


def _same_homs(a, b) -> bool:
    return len(a) == len(b) and all((vectorize_hom(x) == vectorize_hom(y)).all() for x, y in zip(a, b))


@settings(max_examples=25, deadline=None)
@given(
    name=st.sampled_from(sorted(A3)),
    p=st.sampled_from([2, 3, 5]),
    picks=st.lists(st.integers(0, 5), min_size=1, max_size=4),
    seed=st.integers(0, 10**6),
)
def test_radical_oracles_on_a3_sums_after_base_change(name, p, picks, seed):
    reps = _a3_indecomposables(name, p)
    counts = Counter(i % len(reps) for i in picks)
    pieces = [reps[i] for i, n in sorted(counts.items()) for _ in range(n)]
    m = _base_change(direct_sum(reps[0].algebra, pieces).module, np.random.default_rng(seed))
    rad = end_radical(m)
    assert len(hom_basis(m, m)) - len(rad) == sum(n * n for n in counts.values())
    assert _is_nilpotent_ideal_by_composition(m, rad)
    if p > m.total_dim:
        assert _same_homs(rad, trace_form_radical(m))
    assert len(decompose(m)) == len(pieces)


@pytest.mark.parametrize("name", sorted(A3))
def test_radical_equals_the_trace_form_at_large_p(name):
    reps = _a3_indecomposables(name, 101)
    for i in range(len(reps)):
        for j in range(i, len(reps)):
            m = direct_sum(reps[0].algebra, [reps[i], reps[j], reps[j]]).module
            assert _same_homs(end_radical(m), trace_form_radical(m))


DATA = resources.files("mapscat").joinpath("data")
BUNDLED = ["a2", "a3_flip", "a3_linear", "a3_rel", "dual_numbers", "kronecker", "truncated_x3"]


@lru_cache(maxsize=None)
def _bundled_indecomposables(name: str, p: int):
    text = DATA.joinpath(f"{name}.alg").read_text(encoding="utf-8")
    return knit_ar_quiver(parse_algebra_file(text, p_override=p).algebra, dim_bound=4).vertices


def _same_piece(a, b) -> bool:
    (m, i, q), (n, j, r) = a, b
    same_mats = all((x == y).all() for x, y in zip(m.mats, n.mats))
    return m.dims == n.dims and same_mats and _same_homs([i, q], [j, r])


@pytest.mark.parametrize("p", [2, 3, 5, 101])
def test_fitting_split_by_powers_matches_the_minimal_polynomial_split(p):
    # ker f^n (+) im f^n against ker f^a (+) ker r(f) for mu_f = x^a r(x):
    # the same subspaces, so the same canonical bases, part modules and homs;
    # a base change keeps the powers of f from being read off unit columns
    rng, np_rng = random.Random(p), np.random.default_rng(p)
    for name in BUNDLED:
        inds = _bundled_indecomposables(name, p)
        for _ in range(2):
            parts = [rng.choice(inds) for _ in range(rng.randint(1, 3))]
            s = _base_change(direct_sum(parts[0].algebra, parts).module, np_rng)
            for f in hom_basis(s, s):
                ours, ref = _split_by_endo(s, f), reference_fitting_split(s, f)
                assert (ours is None) == (ref is None)
                assert ours is None or all(_same_piece(a, b) for a, b in zip(ours, ref))


def _dual_numbers(p):
    return algebra_from_spec(p, 1, [("x", 0, 0)], [[(1, ["x", "x"])]])


def _kronecker_f9():
    """(F_3^2, F_3^2, I, C) over the Kronecker quiver, C the companion
    matrix of x^2 + 1: End = F_3[C] = F_9."""
    alg = algebra_from_spec(3, 2, [("a", 0, 1), ("b", 0, 1)])
    return Module(alg, (2, 2), [la.eye(2), np.array([[0, 2], [1, 0]])])


def _assert_splits_into(m, f, dims):
    split = _split_by_endo(m, f)
    assert split is not None
    assert sorted(part.dims for part, _, _ in split) == sorted(dims)


@pytest.mark.parametrize("p", [2, 3, 101])
def test_end_quotient_local(p):
    # the regular module of K[x]/x^2: End = K[x]/x^2, End/rad = F_p
    m = indecomposable_projective(_dual_numbers(p), 0)
    ends = hom_basis(m, m)
    assert len(ends) == 2 and len(end_radical(m)) == 1
    assert _splitting_endomorphism(m, ends) is None


def test_end_quotient_field():
    m = _kronecker_f9()
    ends = hom_basis(m, m)
    assert len(ends) == 2 and end_radical(m) == []
    assert _splitting_endomorphism(m, ends) is None
    assert len(decompose(m)) == 1


def test_end_quotient_commutative_non_field():
    # F_9 (+) (F_3, F_3, 1, 0), two regular Kronecker modules from different
    # tubes: End = End/rad = F_9 x F_3, with a two-dimensional Berlekamp subalgebra
    f9 = _kronecker_f9()
    r = Module(f9.algebra, (1, 1), [la.eye(1), la.zeros(1, 1)])
    m = direct_sum(f9.algebra, [f9, r]).module
    ends = hom_basis(m, m)
    assert len(ends) == 3 and end_radical(m) == []
    f = _splitting_endomorphism(m, ends)
    _assert_splits_into(m, f, [(2, 2), (1, 1)])


@pytest.mark.parametrize("p", [2, 3])
def test_end_quotient_non_commutative(p):
    # End = End/rad = M_2(F_p): the centre is F_p, so F_p[b] supplies the split
    alg = algebra_from_spec(p, 2, [("a", 0, 1)])
    s = simple_module(alg, 0)
    m = direct_sum(alg, [s, s]).module
    ends = hom_basis(m, m)
    f = _splitting_endomorphism(m, ends)
    _assert_splits_into(m, f, [(1, 0), (1, 0)])


def test_end_quotient_undecided_raises():
    # a basis of M_2(F_2) with no element generating a split subalgebra:
    # 1, two square-zero elements and one of order 3 (minimal polynomial x^2 + x + 1)
    alg = algebra_from_spec(2, 2, [("a", 0, 1)])
    s = simple_module(alg, 0)
    m = direct_sum(alg, [s, s]).module
    z = la.zeros(0, 0)
    basis = [la.eye(2), np.array([[0, 1], [0, 0]]), np.array([[0, 0], [1, 0]]), np.array([[0, 1], [1, 1]])]
    ends = [unvectorize_hom(m, m, np.concatenate([b.flatten(), z.flatten()])) for b in basis]
    with pytest.raises(CertificationError, match="non-commutative"):
        _splitting_endomorphism(m, ends)


def test_no_random_numbers_are_drawn(monkeypatch):
    def no_rng(*args, **kw):
        raise AssertionError("the End(M) layer drew random numbers")

    monkeypatch.setattr(np.random, "default_rng", no_rng)
    alg = algebra_from_spec(2, 4, [])
    pieces = [simple_module(alg, v) for v, mult in enumerate((2, 2, 3, 3)) for _ in range(mult)]
    parts = decompose(direct_sum(alg, pieces).module)
    assert sorted(part.dims for part, _, _ in parts) == sorted(x.dims for x in pieces)
    a2 = algebra_from_spec(101, 2, [("a", 0, 1)])
    s1, s2 = simple_module(a2, 0), simple_module(a2, 1)
    p1 = indecomposable_projective(a2, 0)
    ts = [identity_object(x) for x in (s1, s2, p1)] + [target_only(x) for x in (s1, s2, p1)]
    rep = check_classical_tilting(ts)
    assert all(c.status == "pass" for c in rep.checks.values())
