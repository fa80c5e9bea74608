import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mapscat import linalg as la

P = 101


def arr(rows):
    return np.array(rows, dtype=np.int64)


# ---- frozen hand-computed values ----


def test_rref_rank_one():
    # [[1,2],[2,4]] over F_101: second row is twice the first
    r, pivots = la.rref(arr([[1, 2], [2, 4]]), P)
    assert pivots == [0]
    assert r.tolist() == [[1, 2], [0, 0]]


def test_kernel_rank_one():
    # kernel of [[1,2],[2,4]] is spanned by (-2, 1) ~ (99, 1)
    k = la.kernel_basis(arr([[1, 2], [2, 4]]), P)
    assert k.shape == (2, 1)
    assert k[:, 0].tolist() == [99, 1]


def test_solve_upper_triangular():
    a = arr([[1, 1], [0, 1]])
    b = arr([3, 2])
    x = la.solve(a, b, P)
    assert x.tolist() == [1, 2]


def test_solve_inconsistent():
    a = arr([[1, 2], [2, 4]])
    b = arr([0, 1])
    assert la.solve(a, b, P) is None


def test_solve_underdetermined_picks_zero_free_part():
    a = arr([[1, 2]])
    b = arr([5])
    x = la.solve(a, b, P)
    assert x.tolist() == [5, 0]


def test_invert():
    a = arr([[1, 1], [0, 1]])
    ainv = la.invert(a, P)
    assert la.matmul(a, ainv, P).tolist() == [[1, 0], [0, 1]]
    assert la.invert(arr([[1, 2], [2, 4]]), P) is None


def test_minimal_polynomial_nilpotent_jordan():
    a = arr([[0, 1], [0, 0]])
    assert la.minimal_polynomial(a, P) == [0, 0, 1]  # x^2


def test_minimal_polynomial_idempotent():
    a = arr([[1, 0], [0, 0]])
    assert la.minimal_polynomial(a, P) == [0, 100, 1]  # x^2 - x


# ---- property tests ----

small_matrix = st.integers(1, 6).flatmap(
    lambda r: st.integers(1, 6).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(0, P - 1), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        )
    )
)


@given(small_matrix)
@settings(max_examples=60, deadline=None)
def test_rref_idempotent(rows):
    a = arr(rows)
    r1, piv1 = la.rref(a, P)
    r2, piv2 = la.rref(r1, P)
    assert (r1 == r2).all()
    assert piv1 == piv2


@given(small_matrix)
@settings(max_examples=60, deadline=None)
def test_rank_nullity(rows):
    a = arr(rows)
    k = la.kernel_basis(a, P)
    assert la.rank(a, P) + k.shape[1] == a.shape[1]
    if k.shape[1]:
        assert not la.matmul(a, k, P).any()
        # canonical kernel columns are themselves in echelon position
        assert la.rank(k, P) == k.shape[1]


@given(small_matrix, st.integers(0, P - 1))
@settings(max_examples=40, deadline=None)
def test_solve_round_trip(rows, seed):
    a = arr(rows)
    rng = np.random.default_rng(seed)
    x = rng.integers(0, P, size=a.shape[1])
    b = la.matmul(a, x.reshape(-1, 1), P)[:, 0]
    got = la.solve(a, b, P)
    assert got is not None
    assert (la.matmul(a, got.reshape(-1, 1), P)[:, 0] == b).all()


def test_minimal_polynomial_agrees_with_evaluation():
    rng = np.random.default_rng(0)
    for n in (1, 2, 3, 4):
        for _ in range(10):
            a = rng.integers(0, P, size=(n, n))
            mu = la.minimal_polynomial(a, P)
            assert not la.poly_eval_matrix(mu, a, P).any()
            assert mu[-1] == 1
