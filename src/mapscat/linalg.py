"""Exact linear algebra over a prime field F_p.

Matrices are numpy int64 arrays with entries in [0, p); a linear system
may instead come as sparse rows, one {col: value} dict per equation.
Every routine here is exact: no floating point anywhere.  One sparse
Gauss-Jordan loop, _eliminate, is the workhorse; rref, kernels, solves,
inverses and minimal polynomials are phrased through it.  Its cost
follows the entries it touches, not rows x cols, and its result is the
unique RREF, which callers freeze into expected values.
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


def _eliminate(row_of: List[dict], cols: int, p: int) -> Tuple[List[int], List[dict]]:
    """Gauss-Jordan over sparse rows: the one elimination loop of the package.

    ``row_of`` holds one {col: value} dict per row, values in (0, p); it is
    consumed.  Returns (pivot_cols, pivot_rows): the nonzero rows of the
    unique RREF, in pivot order.  A column -> rows index finds the rows a
    pivot must clear, so cost follows the entries touched; the hom systems
    hold a few nonzeros per row and barely fill in.
    """
    rows_in: List[set] = [set() for _ in range(cols)]
    for i, row in enumerate(row_of):
        for c in row:
            rows_in[c].add(i)
    pivots: List[int] = []
    pivot_rows: List[dict] = []
    used = [False] * len(row_of)
    for c in range(cols):
        if len(pivots) == len(row_of):
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
        pivot_rows.append(pivot)
    return pivots, pivot_rows


def _sparse_rows(m: np.ndarray) -> List[dict]:
    """The rows of a reduced 2-D array as {col: value} dicts of its nonzeros."""
    row_of: List[dict] = [{} for _ in range(m.shape[0])]
    flat = m.reshape(-1)
    at = flat.nonzero()[0]
    for f, v in zip(at.tolist(), flat[at].tolist()):
        i, c = divmod(f, m.shape[1])
        row_of[i][c] = v
    return row_of


def rref(a: np.ndarray, p: int) -> Tuple[np.ndarray, List[int]]:
    """Reduced row echelon form over F_p.

    Returns (R, pivot_cols).  R has the same shape as ``a``, pivots are 1,
    pivot columns are cleared above and below, zero rows sit at the bottom.
    The pair (R, pivot_cols) is the unique RREF, so callers may rely on it
    for canonical forms.

    The dense wrapper of _eliminate, for callers that need R itself: the
    nonzeros of ``a`` mod p become sparse rows, and the pivot rows are
    written back into a dense int64 array.  A dense input pays for that
    in dict traffic.
    """
    m = np.asarray(a, dtype=np.int64, order="C") % p
    pivots, pivot_rows = _eliminate(_sparse_rows(m), m.shape[1], p)
    m.fill(0)
    at = [(i * m.shape[1] + k, v) for i, row in enumerate(pivot_rows) for k, v in row.items()]
    if at:
        flat, values = zip(*at)
        m.reshape(-1)[list(flat)] = values
    return m, pivots


def rank(a: np.ndarray, p: int) -> int:
    """The number of pivots of _eliminate; R is not written out."""
    if a.size == 0:
        return 0
    m = normalize(a, p)
    return len(_eliminate(_sparse_rows(m), m.shape[1], p)[0])


def sparse_kernel_basis(row_of: List[dict], cols: int, p: int) -> np.ndarray:
    """Basis of the right kernel of the system whose rows are {col: value}
    dicts with values in (0, p); ``row_of`` is consumed.

    Canonical form: one basis column per free column of the RREF, ordered
    by ascending free-column index, with a 1 in the free coordinate.  The
    canonical choice matters: downstream code freezes kernel output into
    expected values.  The pivot coordinates are read off the sparse pivot
    rows; R is never written out.

    Two systems skip the elimination, as their RREF is known: with no
    nonzero row every column is free and the basis is the identity, and
    one column with a nonzero row is a pivot, so the kernel is 0.  The
    rows of a zero matrix come in as empty dicts, hence any(row_of).
    """
    if not any(row_of):
        return eye(cols)
    if cols == 1:
        return zeros(1, 0)
    pivots, pivot_rows = _eliminate(row_of, cols, p)
    free = sorted(set(range(cols)).difference(pivots))
    slot = {c: j for j, c in enumerate(free)}
    at = [(c * len(free) + j, 1) for j, c in enumerate(free)]
    at += [(pc * len(free) + slot[k], p - v) for pc, row in zip(pivots, pivot_rows) for k, v in row.items() if k != pc]
    basis = zeros(cols, len(free))
    if at:
        flat, values = zip(*at)
        basis.reshape(-1)[list(flat)] = values
    return basis


def kernel_basis(a: np.ndarray, p: int) -> np.ndarray:
    """Basis of the right kernel {x : a x = 0}, as columns, in the canonical
    form of sparse_kernel_basis."""
    return sparse_kernel_basis(_sparse_rows(normalize(a, p)), a.shape[1], p)


def solve_each(a: np.ndarray, b: np.ndarray, p: int) -> Tuple[np.ndarray, np.ndarray]:
    """Solve a x = b column by column, with one elimination for all columns.

    Returns (x, ok): ok[j] says whether column j of the matrix b is
    consistent, and then x[:, j] is its solution with zeros in all free
    coordinates.  The RREF of [a | b] has the pivots of a in its first
    rank(a) rows; a column is consistent exactly when it vanishes in the
    rows below, and the particular solution does not depend on the other
    columns.  Both are read off the sparse pivot rows of _eliminate.
    """
    m = normalize(a, p)
    rhs = normalize(b, p)
    if m.shape[0] != rhs.shape[0]:
        raise ValueError(f"solve: {m.shape} vs rhs {rhs.shape}")
    ncols = m.shape[1]
    pivots, pivot_rows = _eliminate(_sparse_rows(np.hstack([m, rhs])), ncols + rhs.shape[1], p)
    x = zeros(ncols, rhs.shape[1])
    ok = np.ones(rhs.shape[1], dtype=bool)
    for c, row in zip(pivots, pivot_rows):
        for k, v in row.items():
            if k < ncols:
                continue
            if c < ncols:
                x[c, k - ncols] = v
            else:
                ok[k - ncols] = False
    return x, ok


def solve(a: np.ndarray, b: np.ndarray, p: int) -> Optional[np.ndarray]:
    """One solution x of a x = b, or None when the system is inconsistent.

    ``b`` may be a vector or a matrix of stacked right-hand sides; the
    result matches its shape, and is None when any column is
    inconsistent.  The particular solution is the one with zeros in all
    free coordinates (see solve_each).
    """
    vec = b.ndim == 1
    x, ok = solve_each(a, b.reshape(-1, 1) if vec else b, p)
    if not ok.all():
        return None
    return x[:, 0] if vec else x


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

