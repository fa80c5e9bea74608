import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dense_reference import reference_kernel, reference_poly_eval, reference_rref
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


# ---- the dense column loop as reference for the sparse rref ----


def _reference_solve(a, b, p):
    ncols = a.shape[1]
    aug, pivots = reference_rref(np.hstack([a, b.reshape(-1, 1)]), p)
    if any(c >= ncols for c in pivots):
        return None
    x = la.zeros(ncols, 1)
    for i, c in enumerate(pivots):
        x[c] = aug[i, ncols:]
    return x[:, 0]


def _reference_invert(a, p):
    n = a.shape[0]
    if n == 0:
        return la.zeros(0, 0)
    aug, pivots = reference_rref(np.hstack([a, la.eye(n)]), p)
    return aug[:, n:] if pivots == list(range(n)) else None


PRIMES = st.sampled_from([2, 3, 5, 101])
ENTRY = st.integers(-250, 250)  # negative and >= p as well as [0, p)


@st.composite
def dense_matrices(draw):
    shape = (draw(st.integers(0, 8)), draw(st.integers(0, 8)))
    return draw(arrays(np.int64, shape, elements=ENTRY))


@st.composite
def sparse_matrices(draw):
    """Up to 40 x 40 with at most two nonzeros per row, as the hom systems."""
    rows, cols = draw(st.integers(0, 40)), draw(st.integers(0, 40))
    a = la.zeros(rows, cols)
    if cols:
        at = draw(arrays(np.int64, (rows, 2), elements=st.integers(0, cols - 1)))
        a[np.arange(rows)[:, None], at] = draw(arrays(np.int64, (rows, 2), elements=ENTRY))
    return a


def _assert_matches_reference(a, p, rhs):
    r, pivots = la.rref(a, p)
    ref_r, ref_pivots = reference_rref(a, p)
    assert r.dtype == np.int64 and r.shape == a.shape
    assert (r == ref_r).all() and pivots == ref_pivots
    k = la.kernel_basis(a, p)
    ref_k = reference_kernel(a, p)
    assert k.shape == ref_k.shape and (k == ref_k).all()
    x, ref_x = la.solve(a, rhs, p), _reference_solve(a, rhs, p)
    assert (x is None) == (ref_x is None)
    if x is not None:
        assert (x == ref_x).all()
    n = min(a.shape)
    inv, ref_inv = la.invert(a[:n, :n], p), _reference_invert(a[:n, :n], p)
    assert (inv is None) == (ref_inv is None)
    if inv is not None:
        assert inv.shape == ref_inv.shape and (inv == ref_inv).all()


def _with_rhs(a):
    return st.tuples(st.just(a), arrays(np.int64, a.shape[0], elements=ENTRY))


@given(st.one_of(dense_matrices(), sparse_matrices()).flatmap(_with_rhs), PRIMES)
@settings(max_examples=150, deadline=None)
# one column with a nonzero row: the kernel is 0
@example(system=(arr([[1]]), arr([4])), p=2)
@example(system=(arr([[0], [5]]), arr([0, 5])), p=3)
@example(system=(arr([[2], [3], [0]]), arr([1, 0, 7])), p=101)
def test_rref_matches_the_dense_reference(system, p):
    a, rhs = system
    _assert_matches_reference(a, p, rhs)


@pytest.mark.parametrize("p", [2, 3, 5, 101])
@pytest.mark.parametrize("shape", [(0, 0), (0, 4), (4, 0), (3, 5), (5, 3), (4, 4), (0, 1), (1, 1), (3, 1)])
def test_rref_matches_the_dense_reference_on_empty_and_zero_matrices(shape, p):
    a = la.zeros(*shape)
    _assert_matches_reference(a, p, la.zeros(shape[0], 1)[:, 0])
    _assert_matches_reference(a + p, p, arr([p] * shape[0]))  # zero mod p
    r, pivots = la.rref(a, p)
    assert pivots == [] and r.shape == shape and not r.any()


def test_minimal_polynomial_agrees_with_evaluation():
    rng = np.random.default_rng(0)
    for n in (1, 2, 3, 4):
        for _ in range(10):
            a = rng.integers(0, P, size=(n, n))
            mu = la.minimal_polynomial(a, P)
            assert not reference_poly_eval(mu, a, P).any()
            assert mu[-1] == 1
