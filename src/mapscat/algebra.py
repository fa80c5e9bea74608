"""Presentations of finite-dimensional quiver algebras KQ/I over F_p.

A path is stored as (source_vertex, arrow_tuple) with arrows listed in
application order: in (v, (a, b)) the arrow a acts first.  Relations are
linear combinations of parallel paths of length >= 2.  The monomial basis
of KQ/I is computed length by length together with exact reduction data,
so projective modules and multiplication come out of one table.

Vertices are 0-based everywhere in the library; the file format used by
the command line shifts to 1-based labels at the boundary.
"""

import math
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Sequence, Tuple

import numpy as np

from . import linalg as la

Path = Tuple[int, Tuple[int, ...]]  # (source vertex, arrows in application order)

# growth guards for the basis computation; admissible presentations at desk
# scale stay far below these.  A path surviving reduction past
# MAX_PATH_LEN rejects the presentation as not admissible.
MAX_PATH_LEN = 30
MAX_PATHS_PER_LENGTH = 4000
MAX_TOTAL_PATHS = 50000


@dataclass(frozen=True)
class Quiver:
    """A finite quiver: vertex count plus named arrows."""

    n_vertices: int
    arrows: Tuple[Tuple[str, int, int], ...]  # (name, source, target)

    def __post_init__(self):
        if self.n_vertices < 1:
            raise ValueError("quiver needs at least one vertex")
        names = [a[0] for a in self.arrows]
        if len(set(names)) != len(names):
            raise ValueError("arrow names must be distinct")
        for name, s, t in self.arrows:
            if not name:
                raise ValueError("empty arrow name")
            if not (0 <= s < self.n_vertices and 0 <= t < self.n_vertices):
                raise ValueError(f"arrow {name}: endpoint out of range")

    def arrow_index(self, name: str) -> int:
        for i, (n, _, _) in enumerate(self.arrows):
            if n == name:
                return i
        raise KeyError(f"no arrow named {name}")

    def source(self, i: int) -> int:
        return self.arrows[i][1]

    def target(self, i: int) -> int:
        return self.arrows[i][2]


def path_source(p: Path) -> int:
    return p[0]


def path_target(q: Quiver, p: Path) -> int:
    v, arrows = p
    for a in arrows:
        v = q.target(a)
    return v


def _check_path(q: Quiver, p: Path) -> None:
    v, arrows = p
    if not (0 <= v < q.n_vertices):
        raise ValueError(f"path source {v} out of range")
    for a in arrows:
        if q.source(a) != v:
            raise ValueError(f"path not composable at arrow {q.arrows[a][0]}")
        v = q.target(a)


@dataclass(frozen=True)
class Relation:
    """Sum of coefficient * path, required to vanish in the algebra.

    All paths must be parallel (shared source and target) and of length
    >= 2.  Mixed lengths inside one relation are rejected: the basis
    computation is graded by path length and relies on homogeneity.
    """

    terms: Tuple[Tuple[int, Path], ...]

    def validated(self, q: Quiver, p: int) -> "Relation":
        if not self.terms:
            raise ValueError("empty relation")
        lengths = set()
        endpoints = set()
        terms = []
        for c, path in self.terms:
            _check_path(q, path)
            if len(path[1]) < 2:
                raise ValueError("relation paths must have length >= 2")
            lengths.add(len(path[1]))
            endpoints.add((path_source(path), path_target(q, path)))
            terms.append((c % p, path))
        if len(endpoints) > 1:
            raise ValueError("relation paths are not parallel")
        if len(lengths) > 1:
            raise ValueError("paths of unequal length in one relation are not supported")
        if all(c == 0 for c, _ in terms):
            raise ValueError("relation is identically zero")
        return Relation(tuple(terms))

    def degree(self) -> int:
        return len(self.terms[0][1][1])


class PathBasis:
    """Monomial basis of KQ/I with reduction and action tables.

    monomials: surviving paths, ordered by (length, source, arrow tuple).
    index: path -> position in monomials.
    reductions: path -> coefficient dict over monomials (only for
        enumerated non-basis paths; longer paths reduce to zero).
    left_action[a]: for each arrow a, dict monomial-index ->
        {monomial-index: coeff} describing (arrow a) o monomial.
    """

    def __init__(self, monomials, index, reductions, left_action):
        self.monomials: List[Path] = monomials
        self.index: Dict[Path, int] = index
        self.reductions: Dict[Path, Dict[int, int]] = reductions
        self.left_action: List[Dict[int, Dict[int, int]]] = left_action

    @property
    def dim(self) -> int:
        return len(self.monomials)

    def reduce_path(self, p: Path) -> Dict[int, int]:
        """Image of an arbitrary path in the quotient, as {index: coeff}."""
        if p in self.index:
            return {self.index[p]: 1}
        if p in self.reductions:
            return dict(self.reductions[p])
        return {}


def check_prime(p: int) -> None:
    """Raise ValueError unless p is a prime small enough for exact int64 arithmetic."""
    if p >= 2**20:
        raise ValueError("p too large for exact int64 arithmetic")
    if p < 2 or any(p % d == 0 for d in range(2, math.isqrt(p) + 1)):
        raise ValueError(f"p = {p} is not prime")


class AlgebraPresentation:
    """A quiver algebra KQ/I over F_p with an admissible ideal.

    Args:
        p: field characteristic, a prime.
        quiver: the quiver.
        relations: generators of the ideal.
    """

    def __init__(self, p: int, quiver: Quiver, relations: Sequence[Relation] = ()):
        check_prime(p)
        self.p = int(p)
        self.quiver = quiver
        self.relations = tuple(r.validated(quiver, p) for r in relations)
        self._cache: Dict = {}

    # -- basis -------------------------------------------------------------

    @property
    def basis(self) -> PathBasis:
        if "basis" not in self._cache:
            self._cache["basis"] = self._compute_basis()
        return self._cache["basis"]

    @property
    def dim(self) -> int:
        return self.basis.dim

    def _compute_basis(self) -> PathBasis:
        q, p = self.quiver, self.p
        rel_by_deg: Dict[int, List[Relation]] = {}
        for r in self.relations:
            rel_by_deg.setdefault(r.degree(), []).append(r)

        trivial = [(v, ()) for v in range(q.n_vertices)]
        paths_at = {0: trivial, 1: [(q.source(a), (a,)) for a in range(len(q.arrows))]}
        retained = {0: list(trivial), 1: list(paths_at[1])}
        ideal_vecs: Dict[int, np.ndarray] = {}  # length -> rows over paths_at[length]
        reductions: Dict[Path, Dict[int, int]] = {}
        # reductions are kept per length as {path: {path: coeff}} first, then
        # re-indexed against the final monomial list
        red_paths: Dict[Path, Dict[Path, int]] = {}

        total = q.n_vertices + len(q.arrows)
        d = 1
        while retained.get(d):
            d += 1
            if d > MAX_PATH_LEN:
                raise ValueError(
                    f"paths still survive at length {MAX_PATH_LEN}: "
                    "ideal is not admissible within the cutoff"
                )
            prev = paths_at[d - 1]
            cur = []
            for v, arrows in prev:
                last_target = path_target(q, (v, arrows))
                for a in range(len(q.arrows)):
                    if q.source(a) == last_target:
                        cur.append((v, arrows + (a,)))
            cur.sort(key=lambda path: (path[0], path[1]))
            if len(cur) > MAX_PATHS_PER_LENGTH or total + len(cur) > MAX_TOTAL_PATHS:
                raise ValueError("path growth exceeds the enumeration guard")
            total += len(cur)
            paths_at[d] = cur
            if not cur:
                retained[d] = []
                break
            pos = {path: i for i, path in enumerate(cur)}

            rows: List[np.ndarray] = []
            prev_ideal = ideal_vecs.get(d - 1)
            if prev_ideal is not None and prev_ideal.size:
                prev_pos = {path: i for i, path in enumerate(prev)}
                for vec in prev_ideal:
                    # arrow acting on the left and on the right of ideal elements
                    for a in range(len(q.arrows)):
                        left = np.zeros(len(cur), dtype=np.int64)
                        right = np.zeros(len(cur), dtype=np.int64)
                        any_l = any_r = False
                        for path, i in prev_pos.items():
                            c = int(vec[i])
                            if not c:
                                continue
                            v, arrows = path
                            if q.source(a) == path_target(q, path):
                                left[pos[(v, arrows + (a,))]] += c
                                any_l = True
                            if q.target(a) == v:
                                right[pos[(q.source(a), (a,) + arrows)]] += c
                                any_r = True
                        if any_l:
                            rows.append(left % p)
                        if any_r:
                            rows.append(right % p)
            for r in rel_by_deg.get(d, []):
                row = np.zeros(len(cur), dtype=np.int64)
                for c, path in r.terms:
                    row[pos[path]] = (row[pos[path]] + c) % p
                rows.append(row)

            if rows:
                mat = np.stack(rows)
                red, pivots = la.rref(mat, p)
                ideal_vecs[d] = red[: len(pivots)]
                keep = [i for i in range(len(cur)) if i not in pivots]
                retained[d] = [cur[i] for i in keep]
                for rix, piv in enumerate(pivots):
                    expr = {}
                    for i in keep:
                        c = int((-red[rix, i]) % p)
                        if c:
                            expr[cur[i]] = c
                    red_paths[cur[piv]] = expr
            else:
                ideal_vecs[d] = np.zeros((0, len(cur)), dtype=np.int64)
                retained[d] = list(cur)

        monomials: List[Path] = []
        for length in sorted(k for k in retained if retained[k]):
            monomials.extend(retained[length])
        index = {m: i for i, m in enumerate(monomials)}
        for path, expr in red_paths.items():
            reductions[path] = {index[m]: c for m, c in expr.items() if m in index}
            # every surviving path in a reduction is retained at its length,
            # so the lookup above never drops terms
            assert len(reductions[path]) == len(expr)

        left_action: List[Dict[int, Dict[int, int]]] = []
        for a in range(len(q.arrows)):
            table: Dict[int, Dict[int, int]] = {}
            for i, m in enumerate(monomials):
                if q.source(a) != path_target(q, m):
                    continue
                ext = (m[0], m[1] + (a,))
                if ext in index:
                    table[i] = {index[ext]: 1}
                elif ext in reductions:
                    entry = {k: v for k, v in reductions[ext].items() if v}
                    if entry:
                        table[i] = entry
            left_action.append(table)
        return PathBasis(monomials, index, reductions, left_action)

    # -- derived presentations ----------------------------------------------

    def opposite(self) -> "AlgebraPresentation":
        """The opposite algebra: arrows and relation paths reversed."""
        q = self.quiver
        op_arrows = tuple((name, t, s) for name, s, t in q.arrows)
        opq = Quiver(q.n_vertices, op_arrows)
        op_rels = []
        for r in self.relations:
            terms = []
            for c, (v, arrows) in r.terms:
                src = path_target(q, (v, arrows))
                terms.append((c, (src, tuple(reversed(arrows)))))
            op_rels.append(Relation(tuple(terms)))
        return AlgebraPresentation(self.p, opq, op_rels)

    def __repr__(self):
        return (
            f"AlgebraPresentation(p={self.p}, vertices={self.quiver.n_vertices}, "
            f"arrows={len(self.quiver.arrows)}, relations={len(self.relations)})"
        )


class ChainAlgebra(NamedTuple):
    """The algebra whose modules are complexes of modules over a base algebra.

    Vertex v of copy j is j * n + v, for n base vertices.  copies[j][i]
    is base arrow i in copy j, and joins[j][v] is the arrow from v in
    copy j to v in copy j + 1.  It holds no reference to the base
    algebra, so the base may cache it.
    """

    algebra: AlgebraPresentation
    copies: List[List[int]]
    joins: List[List[int]]


def chain_algebra(a: AlgebraPresentation, terms: int) -> ChainAlgebra:
    """Complexes M_0 -> M_1 -> ... of terms modules over a, as one quiver algebra.

    The quiver is terms copies of a's quiver, with one joining arrow per
    vertex from each copy to the next.  The relations are the base
    relations on every copy, the commuting square c_t alpha = alpha' c_s
    for every base arrow alpha: s -> t and every pair of neighbouring
    copies, and c c = 0 for consecutive joins.  Arrows are listed copy by
    copy and then join by join; copy j > 0 names its arrows with j primes
    and joins after the first carry primes too, with an underscore in
    front of any name already taken.  Its dimension is (2 terms - 1) dim a.
    """
    q = a.quiver
    n = q.n_vertices
    used = {name for name, _, _ in q.arrows}

    def fresh(candidate: str) -> str:
        while candidate in used:
            candidate = "_" + candidate
        used.add(candidate)
        return candidate

    arrows: List[Tuple[str, int, int]] = []
    copies: List[List[int]] = []
    for j in range(terms):
        copies.append(list(range(len(arrows), len(arrows) + len(q.arrows))))
        arrows += [(fresh(name + "'" * j) if j else name, s + j * n, t + j * n) for name, s, t in q.arrows]
    joins: List[List[int]] = []
    for j in range(terms - 1):
        joins.append(list(range(len(arrows), len(arrows) + n)))
        arrows += [(fresh(f"c{v + 1}" + "'" * j), v + j * n, v + (j + 1) * n) for v in range(n)]

    rels: List[Relation] = []
    for r in a.relations:
        for j in range(terms):
            rels.append(Relation(tuple((c, (v + j * n, tuple(copies[j][x] for x in pa))) for c, (v, pa) in r.terms)))
    for j in range(terms - 1):
        for i, (_, s, t) in enumerate(q.arrows):
            # c_t o alpha = alpha' o c_s  (application order: first entry acts first)
            lhs = (s + j * n, (copies[j][i], joins[j][t]))
            rhs = (s + j * n, (joins[j][s], copies[j + 1][i]))
            rels.append(Relation(((1, lhs), (-1, rhs))))
    for j in range(terms - 2):
        rels += [Relation(((1, (v + j * n, (joins[j][v], joins[j + 1][v]))),)) for v in range(n)]
    return ChainAlgebra(AlgebraPresentation(a.p, Quiver(terms * n, tuple(arrows)), rels), copies, joins)


@dataclass
class TriangularAlgebra:
    """The triangular matrix algebra of ``base`` with translation tables.

    Vertex v of the base quiver appears twice: as v (first copy, the
    source side of a map) and as v + n (second copy, the target side).
    copy1_arrows / copy2_arrows align with base.quiver.arrows; connecting[v]
    is the index of the arrow v -> v + n.
    """

    base: AlgebraPresentation
    algebra: AlgebraPresentation
    copy1_arrows: List[int]
    copy2_arrows: List[int]
    connecting: List[int]


def triangular_matrix_algebra(a: AlgebraPresentation) -> TriangularAlgebra:
    """Build [[L, 0], [L, L]] for L = a as a quiver algebra.

    This is chain_algebra(a, 2): a map f: M1 -> M2 is the two-term complex
    with M1 on the first copy and f on the connecting arrows.  The
    dimension always comes out to 3 * dim(a); this is asserted.
    """
    gamma, (copy1, copy2), (connecting,) = chain_algebra(a, 2)
    assert gamma.dim == 3 * a.dim, (gamma.dim, a.dim)
    return TriangularAlgebra(a, gamma, copy1, copy2, connecting)


# -- convenience constructors used all over the tests ------------------------


def linear_quiver_algebra(p: int, n: int) -> AlgebraPresentation:
    """The path algebra of 1 -> 2 -> ... -> n (vertices 0-based internally)."""
    arrows = tuple((f"a{i + 1}", i, i + 1) for i in range(n - 1))
    return AlgebraPresentation(p, Quiver(n, arrows))


def algebra_from_spec(
    p: int,
    n_vertices: int,
    arrow_specs: Sequence[Tuple[str, int, int]],
    relation_specs: Sequence[Sequence[Tuple[int, Sequence[str]]]] = (),
) -> AlgebraPresentation:
    """Build a presentation from arrow names.

    relation_specs lists relations as [(coeff, [name1, name2, ...]), ...]
    with arrow names in application order (name1 acts first).
    """
    quiver = Quiver(n_vertices, tuple(arrow_specs))
    rels = []
    for spec in relation_specs:
        terms = []
        for c, names in spec:
            idxs = tuple(quiver.arrow_index(nm) for nm in names)
            terms.append((c, (quiver.source(idxs[0]), idxs)))
        rels.append(Relation(tuple(terms)))
    return AlgebraPresentation(p, quiver, rels)
