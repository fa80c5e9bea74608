"""Every top-level def in the package is reached from outside the tests.

The scan parses src/mapscat, demos/ and perfbench/ with ast, so it counts
code references only, never docstrings or comments.  Its roots are the
names in mapscat.__all__, the console script cli.main, the module-level
code of each package module, and all code in demos/ and perfbench/; a def
is reached when a reached piece of code names it, directly, through an
import alias, or as an attribute of a package module.  A def that only
tests call belongs beside the other second routes in tests/oracles.py or
tests/dense_reference.py, not in the package.
"""

import ast
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
PKG = REPO / "src" / "mapscat"
SCRIPTS = [REPO / "demos", REPO / "perfbench"]
DEFS = (ast.FunctionDef, ast.ClassDef)
PACKAGE = "__init__"


def _aliases(tree, module, modules):
    """Local name -> ("module", m) or ("name", m, name) for the imports of
    one file and, inside the package, its own top-level defs."""
    table = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name == "mapscat":
                    table[a.asname or a.name] = ("module", PACKAGE)
        elif isinstance(node, ast.ImportFrom):
            # "from .maps import x" in the package, "from mapscat.maps import x" outside
            parts = (node.module or "").split(".")
            if node.level == 0 and parts[0] != "mapscat":
                continue
            inner = parts[1:] if node.level == 0 else [p for p in parts if p]
            source = inner[0] if inner else PACKAGE
            for a in node.names:
                local = a.asname or a.name
                if source == PACKAGE and a.name in modules:
                    table[local] = ("module", a.name)
                else:
                    table[local] = ("name", source, a.name)
    if module is not None:
        for node in tree.body:
            if isinstance(node, DEFS):
                table[node.name] = ("name", module, node.name)
    return table


def _resolve(target, tables, defs):
    """Follow re-exports to the (module, name) of a def, or None."""
    while target and target[0] == "name":
        _, module, name = target
        if (module, name) in defs:
            return module, name
        target = tables.get(module, {}).get(name)
    return None


def _references(node, table, tables, defs):
    """The package defs that the code under node names."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            hit = _resolve(table.get(sub.id), tables, defs)
        elif isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name):
            base = table.get(sub.value.id)
            hit = base and base[0] == "module" and _resolve(("name", base[1], sub.attr), tables, defs)
        else:
            continue
        if hit:
            found.add(hit)
    return found


def _scan():
    """The package's top-level defs, those reached from outside the tests,
    and the names in mapscat.__all__ that resolve to no def."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PKG.glob("*.py"))}
    modules = set(trees)
    tables = {m: _aliases(tree, m, modules) for m, tree in trees.items()}
    defs = {(m, node.name): node for m, tree in trees.items() for node in tree.body if isinstance(node, DEFS)}

    reached = set()
    for m, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, DEFS + (ast.Import, ast.ImportFrom)):
                reached |= _references(node, tables[m], tables, defs)
    public = next(
        node.value for node in trees[PACKAGE].body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets)
    )
    exported = {name: _resolve(("name", PACKAGE, name), tables, defs) for name in ast.literal_eval(public)}
    reached |= {hit for hit in exported.values() if hit}
    reached.add(("cli", "main"))
    for folder in SCRIPTS:
        for path in sorted(folder.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            reached |= _references(tree, _aliases(tree, None, modules), tables, defs)

    todo = list(reached)
    while todo:
        key = todo.pop()
        for hit in _references(defs[key], tables[key[0]], tables, defs) - reached:
            reached.add(hit)
            todo.append(hit)
    return set(defs), reached, sorted(name for name, hit in exported.items() if not hit)


def test_every_package_def_is_reached_from_outside_the_tests():
    defs, reached, unresolved = _scan()
    assert not unresolved, f"names in mapscat.__all__ that resolve to no def: {unresolved}"
    # the roots resolve: a name from __all__, a def reached only inside the
    # package, and one the demos call through the package
    assert {("maps", "hom_maps"), ("modules", "_paths_from"), ("functors", "phi_image_of_ar")} <= reached
    unreached = sorted(f"{m}.{name}" for m, name in defs - reached)
    assert not unreached, f"package defs that only tests reach: {unreached}"
