"""Line-oriented text format for algebras, modules and map objects.

The format is hand-writable and diff-friendly:

    # comments run to end of line
    field p=101
    vertices 2
    arrow a: 1 -> 2
    relation 1*a.b + 100*c = 0
    module P1 dims=[1,1] a=[[1]]
    map f: S2 -> P1 via [[], [[1]]]

Vertices are 1-based in the file (and only there).  A relation term is
coeff*path with the path written as dot-separated arrow names in
application order: `a.b` means a followed by b.  A module line gives the
dimension vector and one matrix per arrow; omitted arrows act by zero.
A map line gives one matrix per vertex, target dims x source dims, with
[] standing for any matrix without entries.  All the integers are read
mod p.
"""

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from .algebra import AlgebraPresentation, algebra_from_spec
from .modules import Module, ModuleHom
from .maps import MapObject

NAME = r"[A-Za-z_][A-Za-z0-9_]*"


class AlgFileError(ValueError):
    """A parse or validation error, carrying the 1-based line number."""

    def __init__(self, line: int, message: str):
        self.line = line
        self.message = message
        super().__init__(f"line {line}: {message}")


@dataclass
class AlgebraFile:
    """Parsed contents of an algebra description file."""

    p: int
    algebra: AlgebraPresentation
    modules: Dict[str, Module] = field(default_factory=dict)
    maps: Dict[str, MapObject] = field(default_factory=dict)


def _is_name(tok: str) -> bool:
    return bool(tok) and (tok[0].isalpha() or tok[0] == "_") and all(
        c.isalnum() or c == "_" for c in tok
    )


def _literal_list(text: str, line: int):
    import ast

    try:
        value = ast.literal_eval(text)
    except (ValueError, SyntaxError):
        raise AlgFileError(line, f"expected a bracketed list, got {text!r}")
    if not isinstance(value, list):
        raise AlgFileError(line, f"expected a bracketed list, got {text!r}")
    return value


def _flatten(value, line: int) -> List[int]:
    out: List[int] = []
    stack = [value]
    while stack:
        v = stack.pop()
        if isinstance(v, list):
            stack.extend(reversed(v))
        elif isinstance(v, int):
            out.append(v)
        else:
            raise AlgFileError(line, f"matrix entries must be integers, got {v!r}")
    return out


def _matrix(value, rows: int, cols: int, p: int, line: int) -> np.ndarray:
    flat = _flatten(value, line)
    if len(flat) != rows * cols:
        raise AlgFileError(
            line, f"matrix needs {rows}x{cols} entries, got {len(flat)}"
        )
    return (np.array(flat, dtype=np.int64) % p).reshape(rows, cols)


def _split_assignments(rest: str, line: int) -> List[Tuple[str, str]]:
    # key=[...] tokens; values never contain '=' so split on names
    out: List[Tuple[str, str]] = []
    i = 0
    n = len(rest)
    while i < n:
        if rest[i].isspace():
            i += 1
            continue
        j = rest.find("=", i)
        if j < 0:
            raise AlgFileError(line, f"expected key=value, got {rest[i:]!r}")
        key = rest[i:j].strip()
        if not _is_name(key):
            raise AlgFileError(line, f"bad key {key!r}")
        k = j + 1
        while k < n and rest[k].isspace():
            k += 1
        # a bracketed value ends at its closing bracket, any other at whitespace
        depth = 0
        while k < n and (depth > 0 or not rest[k].isspace()):
            if rest[k] == "[":
                depth += 1
            elif rest[k] == "]":
                depth -= 1
                if depth == 0:
                    k += 1
                    break
            k += 1
        value = rest[j + 1 : k].strip()
        if not value:
            raise AlgFileError(line, f"empty value for {key!r}")
        out.append((key, value))
        i = k
    return out


def _parse_relation(rest: str, line: int, p: int) -> List[Tuple[int, List[str]]]:
    body = rest.strip()
    if not body.endswith("= 0") and not body.endswith("=0"):
        raise AlgFileError(line, "relation must end with '= 0'")
    body = body[: body.rfind("=")].strip()
    terms = []
    for chunk in body.split("+"):
        chunk = chunk.strip()
        if not chunk:
            raise AlgFileError(line, "empty relation term")
        if "*" in chunk:
            coeff_s, path_s = chunk.split("*", 1)
            try:
                coeff = int(coeff_s) % p
            except ValueError:
                raise AlgFileError(line, f"bad coefficient {coeff_s!r}")
        else:
            coeff, path_s = 1, chunk
        names = [t.strip() for t in path_s.strip().split(".")]
        if not all(_is_name(t) for t in names):
            raise AlgFileError(line, f"bad path {path_s.strip()!r}")
        terms.append((coeff, names))
    return terms


def parse_algebra_file(text: str, p_override: Optional[int] = None) -> AlgebraFile:
    p: Optional[int] = None
    n_vertices: Optional[int] = None
    arrow_specs: List[Tuple[str, int, int]] = []
    relation_specs: List[List[Tuple[int, List[str]]]] = []
    algebra: Optional[AlgebraPresentation] = None
    modules: Dict[str, Module] = {}
    maps: Dict[str, MapObject] = {}

    def require_header(line: int):
        if p is None:
            raise AlgFileError(line, "missing 'field p=...' line")
        if n_vertices is None:
            raise AlgFileError(line, "missing 'vertices n' line")

    def build_algebra(line: int) -> AlgebraPresentation:
        nonlocal algebra
        if algebra is None:
            require_header(line)
            try:
                algebra = algebra_from_spec(p, n_vertices, arrow_specs, relation_specs)
                algebra.basis  # the admissibility check runs with the basis
            except ValueError as e:
                raise AlgFileError(line, str(e))
        return algebra

    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        keyword, _, rest = stripped.partition(" ")
        rest = rest.strip()

        if keyword == "field":
            if p is not None:
                raise AlgFileError(lineno, "duplicate field line")
            if not rest.startswith("p="):
                raise AlgFileError(lineno, "expected 'field p=<prime>'")
            try:
                p = int(rest[2:])
            except ValueError:
                raise AlgFileError(lineno, f"bad prime {rest[2:]!r}")
            if p_override is not None:
                p = p_override
            if p < 2:
                raise AlgFileError(lineno, f"bad prime {p}")

        elif keyword == "vertices":
            if n_vertices is not None:
                raise AlgFileError(lineno, "duplicate vertices line")
            try:
                n_vertices = int(rest)
            except ValueError:
                raise AlgFileError(lineno, f"bad vertex count {rest!r}")
            if n_vertices < 1:
                raise AlgFileError(lineno, "need at least one vertex")

        elif keyword == "arrow":
            if algebra is not None:
                raise AlgFileError(lineno, "arrows must come before modules and maps")
            require_header(lineno)
            m = re.fullmatch(rf"({NAME})\s*:\s*(\d+)\s*->\s*(\d+)", rest)
            if not m:
                raise AlgFileError(lineno, "expected 'arrow name: i -> j'")
            name, src, tgt = m.group(1), int(m.group(2)), int(m.group(3))
            if not (1 <= src <= n_vertices and 1 <= tgt <= n_vertices):
                raise AlgFileError(
                    lineno, f"arrow endpoints out of range 1..{n_vertices}"
                )
            if any(a[0] == name for a in arrow_specs):
                raise AlgFileError(lineno, f"duplicate arrow name {name!r}")
            arrow_specs.append((name, src - 1, tgt - 1))

        elif keyword == "relation":
            if algebra is not None:
                raise AlgFileError(lineno, "relations must come before modules and maps")
            require_header(lineno)
            terms = _parse_relation(rest, lineno, p)
            known = {a[0] for a in arrow_specs}
            for _, names in terms:
                for t in names:
                    if t not in known:
                        raise AlgFileError(lineno, f"unknown arrow {t!r} in relation")
            relation_specs.append(terms)
            try:  # pin a malformed relation to this line
                algebra_from_spec(p, n_vertices, arrow_specs, relation_specs)
            except ValueError as e:
                raise AlgFileError(lineno, str(e))

        elif keyword == "module":
            name, _, body = rest.partition(" ")
            if not _is_name(name):
                raise AlgFileError(lineno, f"bad module name {name!r}")
            if name in modules:
                raise AlgFileError(lineno, f"duplicate module name {name!r}")
            alg = build_algebra(lineno)
            pairs = _split_assignments(body, lineno)
            if not pairs or pairs[0][0] != "dims":
                raise AlgFileError(lineno, "module line must start with dims=[...]")
            dims = _literal_list(pairs[0][1], lineno)
            if len(dims) != alg.quiver.n_vertices or not all(
                isinstance(d, int) and d >= 0 for d in dims
            ):
                raise AlgFileError(
                    lineno, f"dims must list {alg.quiver.n_vertices} nonnegative sizes"
                )
            mats = [
                np.zeros((dims[alg.quiver.target(i)], dims[alg.quiver.source(i)]), dtype=np.int64)
                for i in range(len(alg.quiver.arrows))
            ]
            for key, value in pairs[1:]:
                try:
                    idx = alg.quiver.arrow_index(key)
                except KeyError:
                    raise AlgFileError(lineno, f"unknown arrow {key!r}")
                rows = dims[alg.quiver.target(idx)]
                cols = dims[alg.quiver.source(idx)]
                mats[idx] = _matrix(_literal_list(value, lineno), rows, cols, alg.p, lineno)
            try:
                modules[name] = Module(alg, list(dims), mats, name=name)
            except ValueError as e:
                raise AlgFileError(lineno, f"module {name!r}: {e}")

        elif keyword == "map":
            m = re.fullmatch(
                rf"({NAME})\s*:\s*({NAME})\s*->\s*({NAME})\s+via\s+(\[.*)", rest
            )
            if not m:
                raise AlgFileError(lineno, "expected 'map name: Src -> Tgt via [...]'")
            name, src_name, tgt_name, via_part = m.groups()
            if name in maps:
                raise AlgFileError(lineno, f"duplicate map name {name!r}")
            alg = build_algebra(lineno)
            for nm in (src_name, tgt_name):
                if nm not in modules:
                    raise AlgFileError(lineno, f"unknown module {nm!r}")
            src, tgt = modules[src_name], modules[tgt_name]
            blocks = _literal_list(via_part.strip(), lineno)
            if len(blocks) != alg.quiver.n_vertices:
                raise AlgFileError(
                    lineno, f"via needs one matrix per vertex ({alg.quiver.n_vertices})"
                )
            mats = [
                _matrix(blocks[v], tgt.dims[v], src.dims[v], alg.p, lineno)
                for v in range(alg.quiver.n_vertices)
            ]
            try:
                hom = ModuleHom(src, tgt, mats)
            except ValueError as e:
                raise AlgFileError(lineno, f"map {name!r}: {e}")
            maps[name] = MapObject(hom, name=name)

        else:
            raise AlgFileError(lineno, f"unknown directive {keyword!r}")

    # an error of the whole file is reported at its last line
    algebra = build_algebra(max(len(text.splitlines()), 1))
    return AlgebraFile(p, algebra, modules, maps)


def load_algebra_file(path: str, p_override: Optional[int] = None) -> AlgebraFile:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_algebra_file(fh.read(), p_override=p_override)
