"""Ext dimensions against the Euler form, and the all-degree Ext readers
against their single-degree wrappers.

For an algebra KQ/I of global dimension at most 2 with minimal relations
R, the Euler form of dimension vectors x = dim M, y = dim N is

    dim Hom(M, N) - dim Ext^1(M, N) + dim Ext^2(M, N)
        = sum_v x_v y_v - sum_{a: s -> t} x_s y_t + sum_{r: s -> t} x_s y_t,

which needs nothing but the dimension vectors, so it checks the
resolution-based Ext independently.  Path algebras of acyclic quivers are
hereditary (Ext^2 = 0); A3 with its length-2 relation has global
dimension 2, where the relation term counts.
"""

from functools import lru_cache
from importlib import resources

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import ext1_data
from mapscat.algebra import algebra_from_spec, path_source, path_target
from mapscat.algfile import parse_algebra_file
from mapscat.ar import knit_ar_quiver
from mapscat.maps import f_resolution, from_gamma_module, gamma_of, relative_ext_dim, relative_ext_dims
from mapscat.modules import Module, ext_dim, ext_dims, hom_basis, projective_resolution

DATA = resources.files("mapscat").joinpath("data")
A3 = ("a3_linear", "a3_flip", "a3_rel")


def _euler_form(alg, x, y) -> int:
    q = alg.quiver
    total = sum(a * b for a, b in zip(x, y))
    total -= sum(x[s] * y[t] for _, s, t in q.arrows)
    for r in alg.relations:
        path = r.terms[0][1]
        total += x[path_source(path)] * y[path_target(q, path)]
    return total


def _homological_euler(m: Module, n: Module) -> int:
    ext1, ext2 = ext_dims(projective_resolution(m, 3), n, [1, 2])
    return len(hom_basis(m, n)) - ext1 + ext2


@lru_cache(maxsize=None)
def _algebra(name):
    return parse_algebra_file((DATA / f"{name}.alg").read_text(encoding="utf-8")).algebra


@lru_cache(maxsize=None)
def _lambda_corpus(name):
    return knit_ar_quiver(_algebra(name)).vertices


@lru_cache(maxsize=None)
def _gamma_corpus(name):
    tri = gamma_of(_algebra(name))
    return [from_gamma_module(tri, m) for m in knit_ar_quiver(tri.algebra).vertices]


def test_euler_form_on_the_knitted_a3_modules():
    pairs = 0
    for name in A3:
        alg = _algebra(name)
        for m in _lambda_corpus(name):
            for n in _lambda_corpus(name):
                assert _homological_euler(m, n) == _euler_form(alg, m.dims, n.dims), (name, m.dims, n.dims)
                pairs += 1
    assert pairs == 97
    # the relation term is live: Ext^2(S1, S3) = 1 over A3 with a.b = 0
    s1, s3 = (next(m for m in _lambda_corpus("a3_rel") if list(m.dims) == d) for d in ([1, 0, 0], [0, 0, 1]))
    assert ext_dim(s1, s3, 2) == 1


def test_euler_form_on_large_kronecker_preprojectives():
    # the first eight preprojectives (k, k+1) of the Kronecker quiver: their
    # hom systems reach 114,240 cells, far larger than any other tier-1 rref
    alg = algebra_from_spec(101, 2, [("a", 0, 1), ("b", 0, 1)])
    mods = knit_ar_quiver(alg, dim_bound=16).vertices
    assert [list(m.dims) for m in mods] == [[k, k + 1] for k in range(8)]
    for m in mods:
        for n in mods:
            assert _homological_euler(m, n) == _euler_form(alg, m.dims, n.dims), (m.dims, n.dims)


@st.composite
def hereditary_pairs(draw):
    """Two random representations of a random acyclic quiver, no relations."""
    p = draw(st.sampled_from([2, 3, 5]))
    nv = draw(st.integers(1, 4))
    pairs = [(s, t) for s in range(nv) for t in range(s + 1, nv)]
    arrows = draw(st.lists(st.sampled_from(pairs), max_size=4)) if pairs else []
    alg = algebra_from_spec(p, nv, [(f"a{i}", s, t) for i, (s, t) in enumerate(arrows)])
    rng = np.random.default_rng(draw(st.integers(0, 10**6)))
    mods = []
    for _ in range(2):
        dims = [draw(st.integers(0, 2)) for _ in range(nv)]
        mods.append(Module(alg, dims, [rng.integers(0, p, size=(dims[t], dims[s])) for s, t in arrows]))
    return alg, mods


@settings(max_examples=40, deadline=None)
@given(hereditary_pairs())
def test_euler_form_on_random_hereditary_representations(drawn):
    alg, (m, n) = drawn
    for a, b in ((m, n), (n, m)):
        assert ext_dims(projective_resolution(a, 3), b, [2]) == [0]
        assert _homological_euler(a, b) == _euler_form(alg, a.dims, b.dims)


def test_ext_dims_equal_the_single_degree_wrapper_on_a3():
    for name in A3:
        mods = _lambda_corpus(name)
        for m in mods:
            res = projective_resolution(m, 3)
            for n in mods:
                assert ext_dims(res, n, [0, 1, 2]) == [ext_dim(m, n, k) for k in (0, 1, 2)]
                assert ext_dims(res, n, [2, 1]) == [ext_dim(m, n, 2), ext_dim(m, n, 1)]


@settings(max_examples=30, deadline=None)
@given(i=st.integers(0, 10**3), j=st.integers(0, 10**3))
def test_relative_ext_dims_against_the_wrapper_and_the_cocycle_oracle(i, j):
    # Gamma of A3 with its relation: both Ext degrees occur among its 20
    # indecomposables
    xs = _gamma_corpus("a3_rel")
    x, y = xs[i % len(xs)], xs[j % len(xs)]
    ext1, ext2 = relative_ext_dims(f_resolution(x), y, [1, 2])
    assert [ext1, ext2] == [relative_ext_dim(x, y, 1), relative_ext_dim(x, y, 2)]
    assert ext1 == ext1_data(x, y).dim


def test_gamma_corpus_has_both_relative_ext_degrees():
    xs = _gamma_corpus("a3_rel")
    seen = {1: 0, 2: 0}
    for x in xs:
        res = f_resolution(x)
        for y in xs:
            for k, d in zip((1, 2), relative_ext_dims(res, y, [1, 2])):
                seen[k] += d
    assert seen[1] and seen[2]
