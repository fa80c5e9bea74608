from importlib import resources

import pytest

from mapscat.algebra import (
    AlgebraPresentation,
    Quiver,
    Relation,
    algebra_from_spec,
    chain_algebra,
    linear_quiver_algebra,
    triangular_matrix_algebra,
)
from mapscat.algfile import parse_algebra_file

P = 101


def a2():
    return linear_quiver_algebra(P, 2)


def a3():
    return linear_quiver_algebra(P, 3)


def a3_rel():
    # 1 -> 2 -> 3 with the length-two composite equal to zero
    return algebra_from_spec(
        P,
        3,
        [("a", 0, 1), ("b", 1, 2)],
        [[(1, ["a", "b"])]],
    )


def test_a2_basis():
    alg = a2()
    assert alg.dim == 3
    lens = sorted(len(m[1]) for m in alg.basis.monomials)
    assert lens == [0, 0, 1]


def test_a3_basis():
    alg = a3()
    assert alg.dim == 6  # three idempotents, two arrows, one length-two path


def test_a3_with_zero_relation():
    alg = a3_rel()
    assert alg.dim == 5
    # the length-two path reduces to zero
    q = alg.quiver
    long_path = (0, (q.arrow_index("a"), q.arrow_index("b")))
    assert alg.basis.reduce_path(long_path) == {}


def test_kronecker_dim():
    alg = algebra_from_spec(P, 2, [("x", 0, 1), ("y", 0, 1)])
    assert alg.dim == 4


def test_loop_square_zero():
    alg = algebra_from_spec(P, 1, [("x", 0, 0)], [[(1, ["x", "x"])]])
    assert alg.dim == 2


def test_loop_cube_zero():
    alg = algebra_from_spec(P, 1, [("x", 0, 0)], [[(1, ["x", "x", "x"])]])
    assert alg.dim == 3
    b = alg.basis
    x = alg.quiver.arrow_index("x")
    assert b.reduce_path((0, (x, x, x))) == {}
    assert len(b.reduce_path((0, (x, x)))) == 1


def test_loop_without_relation_rejected():
    with pytest.raises(ValueError):
        algebra_from_spec(P, 1, [("x", 0, 0)]).basis


def test_relation_validation():
    q = Quiver(2, (("a", 0, 1),))
    with pytest.raises(ValueError):
        # length-one path in a relation
        AlgebraPresentation(P, q, [Relation(((1, (0, (0,))),))])
    with pytest.raises(ValueError):
        AlgebraPresentation(4, q)  # p not prime


@pytest.mark.parametrize("p", [2, 3, 101, 1048573])
def test_primes_below_the_int64_bound_are_accepted(p):
    assert AlgebraPresentation(p, Quiver(1, ())).p == p


@pytest.mark.parametrize("p", [0, 1, 4, 1048575])
def test_non_primes_are_rejected(p):
    with pytest.raises(ValueError, match="not prime"):
        AlgebraPresentation(p, Quiver(1, ()))


def test_triangular_of_a2():
    tri = triangular_matrix_algebra(a2())
    g = tri.algebra
    assert g.quiver.n_vertices == 4
    assert g.dim == 9
    # commutativity: c2 o a = a' o c1 in the quotient
    left = (0, (tri.copy1_arrows[0], tri.connecting[1]))
    right = (0, (tri.connecting[0], tri.copy2_arrows[0]))
    assert g.basis.reduce_path(left) == g.basis.reduce_path(right)


def test_triangular_of_a3_with_relation():
    tri = triangular_matrix_algebra(a3_rel())
    assert tri.algebra.dim == 3 * 5


def test_triangular_dimension_scaling():
    for alg in (a3(), algebra_from_spec(P, 2, [("x", 0, 1), ("y", 0, 1)])):
        tri = triangular_matrix_algebra(alg)
        assert tri.algebra.dim == 3 * alg.dim


# Gamma's quiver and relations as triangular_matrix_algebra built them by
# hand before it became chain_algebra(a, 2): (arrows, relation terms)
GAMMA = {
    "a3_rel": (
        (("a", 0, 1), ("b", 1, 2), ("a'", 3, 4), ("b'", 4, 5), ("c1", 0, 3), ("c2", 1, 4), ("c3", 2, 5)),
        [((1, (0, (0, 1))),), ((1, (3, (2, 3))),), ((1, (0, (0, 5))), (100, (0, (4, 2)))), ((1, (1, (1, 6))), (100, (1, (5, 3))))],
    ),
    "dual_numbers": (
        (("x", 0, 0), ("x'", 1, 1), ("c1", 0, 1)),
        [((1, (0, (0, 0))),), ((1, (1, (1, 1))),), ((1, (0, (0, 2))), (100, (0, (2, 1))))],
    ),
    # names already taken in the base get an underscore in front
    "taken_names": (
        (("a", 0, 1), ("a'", 1, 2), ("c1", 0, 2), ("_a'", 3, 4), ("a''", 4, 5), ("c1'", 3, 5), ("_c1", 0, 3), ("c2", 1, 4), ("c3", 2, 5)),
        [((1, (0, (0, 7))), (100, (0, (6, 3)))), ((1, (1, (1, 8))), (100, (1, (7, 4)))), ((1, (0, (2, 8))), (100, (0, (6, 5))))],
    ),
}


def _bundled(name):
    return parse_algebra_file(resources.files("mapscat").joinpath("data", f"{name}.alg").read_text()).algebra


@pytest.mark.parametrize("name", sorted(GAMMA))
def test_two_term_chain_algebra_is_gamma(name):
    if name == "taken_names":
        alg = algebra_from_spec(P, 3, [("a", 0, 1), ("a'", 1, 2), ("c1", 0, 2)])
    else:
        alg = _bundled(name)
    arrows, relations = GAMMA[name]
    chain = chain_algebra(alg, 2)
    assert chain.algebra.quiver.arrows == arrows
    assert [r.terms for r in chain.algebra.relations] == relations
    tri = triangular_matrix_algebra(alg)
    assert (tri.algebra.quiver, tri.algebra.relations) == (chain.algebra.quiver, chain.algebra.relations)
    assert [tri.copy1_arrows, tri.copy2_arrows] == chain.copies and [tri.connecting] == chain.joins


@pytest.mark.parametrize("name", ["a2", "a3_flip", "a3_linear", "a3_rel", "dual_numbers"])
def test_chain_algebra_dimension(name):
    # complexes of length terms - 1: a on each copy and on each join
    alg = _bundled(name)
    for terms in range(1, 5):
        assert chain_algebra(alg, terms).algebra.dim == (2 * terms - 1) * alg.dim


def test_opposite_involution():
    alg = a3_rel()
    op = alg.opposite()
    assert op.dim == alg.dim
    opop = op.opposite()
    assert opop.quiver == alg.quiver
    assert opop.relations == alg.relations


def test_opposite_reverses_arrows():
    alg = a3()
    op = alg.opposite()
    assert [(s, t) for _, s, t in op.quiver.arrows] == [(1, 0), (2, 1)]
