"""Exact linear algebra over a prime field F_p.

Matrices are stored dense, as numpy int64 arrays with entries reduced to
[0, p).  Every routine here is exact: no floating point anywhere.  Row
reduction is the workhorse; everything else (kernels, solving, inverses,
minimal polynomials) is phrased through it.  rref eliminates over the
stored nonzeros only, so its cost follows the entries it touches, not
rows x cols; its (R, pivots) is the unique RREF, which callers freeze
into expected values.
"""

from typing import List, Optional, Tuple

import numpy as np


def normalize(a: np.ndarray, p: int) -> np.ndarray:
    """Return a copy of ``a`` as int64 with entries reduced mod p."""
    return np.asarray(a, dtype=np.int64) % p


def zeros(rows: int, cols: int) -> np.ndarray:
    return np.zeros((rows, cols), dtype=np.int64)


def eye(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.int64)


def matmul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Exact product a @ b mod p.

    int64 accumulation is exact as long as inner_dim * (p-1)^2 stays below
    2**63; with p < 2**20 that allows inner dimensions in the millions,
    far beyond desk scale.
    """
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"shape mismatch {a.shape} @ {b.shape}")
    return (a @ b) % p


def inv_mod(x: int, p: int) -> int:
    return pow(int(x), p - 2, p)


def rref(a: np.ndarray, p: int) -> Tuple[np.ndarray, List[int]]:
    """Reduced row echelon form over F_p.

    Returns (R, pivot_cols).  R has the same shape as ``a``, pivots are 1,
    pivot columns are cleared above and below, zero rows sit at the bottom.
    The pair (R, pivot_cols) is the unique RREF, so callers may rely on it
    for canonical forms.

    The matrix is stored dense but eliminated over its stored nonzeros:
    each row becomes a {col: value} dict, a column -> rows index finds the
    rows a pivot must clear, and pivot columns are taken in ascending
    order.  Cost is proportional to the entries the elimination touches,
    not to rows x cols; the commuting-square systems of the hom spaces
    hold a few nonzeros per row and barely fill in.  A dense input pays
    for that in dict traffic.  R is written into the reduced copy of
    ``a``, returned as a dense int64 array.
    """
    m = np.asarray(a, dtype=np.int64, order="C") % p
    rows, cols = m.shape
    flat = m.reshape(-1)  # a view, since m is C-contiguous
    at = flat.nonzero()[0]
    pivots: List[int] = []
    if not at.size:  # the zero matrix is its own RREF
        return m, pivots
    row_of: List[dict] = [{} for _ in range(rows)]
    rows_in: List[set] = [set() for _ in range(cols)]
    for f, v in zip(at.tolist(), flat[at].tolist()):
        i, c = divmod(f, cols)
        row_of[i][c] = v
        rows_in[c].add(i)
    pivot_rows: List[int] = []
    used = [False] * rows
    for c in range(cols):
        if len(pivots) == rows:
            break
        free = [i for i in rows_in[c] if not used[i]]
        if not free:
            continue
        r = min(free)
        pivot = row_of[r]
        if pivot[c] != 1:
            s = inv_mod(pivot[c], p)
            pivot = row_of[r] = {k: v * s % p for k, v in pivot.items()}
        clear, rows_in[c] = rows_in[c], {r}
        for i in clear:
            if i == r:
                continue
            row = row_of[i]
            f = row[c]
            for k, v in pivot.items():
                x = (row.get(k, 0) - f * v) % p
                if x:
                    if k not in row:
                        rows_in[k].add(i)
                    row[k] = x
                else:  # f * v cancels a stored entry; at k = c always
                    del row[k]
                    rows_in[k].discard(i)
        used[r] = True
        pivots.append(c)
        pivot_rows.append(r)
    flat[at] = 0
    out = [(i * cols, row_of[r]) for i, r in enumerate(pivot_rows)]
    flat[[start + k for start, row in out for k in row]] = [v for _, row in out for v in row.values()]
    return m, pivots


def rank(a: np.ndarray, p: int) -> int:
    if a.size == 0:
        return 0
    return len(rref(a, p)[1])


def kernel_basis(a: np.ndarray, p: int) -> np.ndarray:
    """Basis of the right kernel {x : a x = 0}, as columns.

    Canonical form: one basis column per free column of the RREF, ordered
    by ascending free-column index, with a 1 in the free coordinate.  The
    canonical choice matters: downstream code freezes kernel output into
    expected values.
    """
    cols = a.shape[1]
    if cols == 0:
        return zeros(0, 0)
    r, pivots = rref(a, p)
    pivot_set = set(pivots)
    free = [c for c in range(cols) if c not in pivot_set]
    basis = zeros(cols, len(free))
    for j, fc in enumerate(free):
        basis[fc, j] = 1
    if pivots:
        basis[pivots] = -r[: len(pivots), free] % p
    return basis


def solve(a: np.ndarray, b: np.ndarray, p: int) -> Optional[np.ndarray]:
    """One solution x of a x = b, or None when the system is inconsistent.

    ``b`` may be a vector or a matrix of stacked right-hand sides; the
    result matches its shape.  The particular solution is the one with
    zeros in all free coordinates.
    """
    m = normalize(a, p)
    vec = b.ndim == 1
    rhs = normalize(b.reshape(-1, 1) if vec else b, p)
    if m.shape[0] != rhs.shape[0]:
        raise ValueError(f"solve: {m.shape} vs rhs {rhs.shape}")
    aug, pivots = rref(np.hstack([m, rhs]), p)
    ncols = m.shape[1]
    if any(c >= ncols for c in pivots):
        return None
    x = zeros(ncols, rhs.shape[1])
    for i, c in enumerate(pivots):
        x[c] = aug[i, ncols:]
    return x[:, 0] if vec else x


def span_coordinates(basis: List[np.ndarray], vecs: List[np.ndarray], p: int) -> Optional[np.ndarray]:
    """Coordinates of each vector of vecs over the list basis, as columns.

    One solve with every vector as a right-hand side; None if any of them
    leaves the span.  An empty basis spans only zero.
    """
    rhs = np.stack(vecs, axis=1)
    if not basis:
        return None if rhs.any() else zeros(0, len(vecs))
    return solve(np.stack(basis, axis=1), rhs, p)


def column_space_basis(a: np.ndarray, p: int) -> np.ndarray:
    """Columns of ``a`` restricted to a basis of the column space.

    Picks the pivot columns of the RREF, so the output is a subset of the
    input columns in their original order.
    """
    m = normalize(a, p)
    if m.size == 0:
        return m.reshape(m.shape[0], 0)
    _, pivots = rref(m, p)
    return m[:, pivots]


def row_space_basis(a: np.ndarray, p: int) -> np.ndarray:
    """Nonzero rows of the RREF: the canonical basis of the row space."""
    m = normalize(a, p)
    r, pivots = rref(m, p)
    return r[: len(pivots)]


def invert(a: np.ndarray, p: int) -> Optional[np.ndarray]:
    """Inverse of a square matrix, or None if singular."""
    if a.shape[0] != a.shape[1]:
        raise ValueError("not square")
    n = a.shape[0]
    if n == 0:
        return zeros(0, 0)
    aug, pivots = rref(np.hstack([normalize(a, p), eye(n)]), p)
    if len(pivots) < n or pivots != list(range(n)):
        return None
    return aug[:, n:]


def minimal_polynomial(a: np.ndarray, p: int) -> List[int]:
    """Minimal polynomial of a square matrix, low-degree coefficients first.

    Monic; found as the first linear dependence among I, a, a^2, ... in the
    n^2-dimensional matrix space.
    """
    if a.shape[0] != a.shape[1]:
        raise ValueError("not square")
    n = a.shape[0]
    if n == 0:
        return [1]  # every polynomial annihilates the empty operator
    power = eye(n)
    flats = [power.flatten()]
    m = normalize(a, p)
    for _ in range(n):
        power = matmul(power, m, p)
        flats.append(power.flatten())
        stacked = np.stack(flats, axis=1)
        k = kernel_basis(stacked, p)
        if k.shape[1] > 0:
            rel = k[:, 0]
            lead = len(flats) - 1
            c = inv_mod(rel[lead], p)
            return [int(x * c % p) for x in rel]
    raise AssertionError("no dependence found below degree n+1")


def poly_eval_matrix(coeffs: List[int], a: np.ndarray, p: int) -> np.ndarray:
    """Evaluate a polynomial (low-degree first) at a square matrix."""
    n = a.shape[0]
    out = zeros(n, n)
    power = eye(n)
    m = normalize(a, p)
    for c in coeffs:
        out = (out + c * power) % p
        power = matmul(power, m, p)
    return out
