"""Rules the package source keeps that no behavioural test would notice."""

from __future__ import annotations

import ast
from pathlib import Path

import supercrystal

SOURCES = sorted(Path(supercrystal.__file__).parent.glob("*.py"))


def test_package_has_no_assert_statements():
    assert SOURCES
    # python -O strips assert statements, so every invariant the package
    # checks raises AssertionError itself
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_scale_is_defined_once_in_qvec():
    # the linear structure of every sparse Q(q)-vector lives in qfield.QVec:
    # a second ``def scale`` means a subclass writes it out again
    found = [
        (path.name, getattr(parent, "name", None))
        for path in SOURCES
        for parent in ast.walk(ast.parse(path.read_text(), str(path)))
        for node in ast.iter_child_nodes(parent)
        if isinstance(node, ast.FunctionDef) and node.name == "scale"
    ]
    assert found == [("qfield.py", "QVec")]


def test_every_top_level_definition_is_named_outside_its_own_body():
    # a helper whose last caller went away is still defined; it is named
    # nowhere else in the package, its tests or the benchmark
    # (perfbench/reference is a frozen older copy, so it does not count)
    root = Path(__file__).resolve().parent.parent
    readers = SOURCES + [p for d in ("tests", "perfbench") for p in sorted((root / d).glob("*.py"))]
    named: dict[str, list[tuple[Path, int]]] = {}
    for path in readers:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name.rpartition(".")[2]
            else:
                continue
            named.setdefault(name, []).append((path, node.lineno))
    unused = [
        f"{path.name}:{node.name}"
        for path in SOURCES
        for node in ast.parse(path.read_text(), str(path)).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and all(
            where == path and node.lineno <= line <= node.end_lineno
            for where, line in named.get(node.name, [])
        )
    ]
    assert unused == []


def test_superpbw_memo_tables_fill_only_through_their_table():
    # every memo table of a RootData is a _Table, whose __missing__ stores
    # each key once; a hand-written "get, compute, store" block stores into
    # a subscript of an attribute (rd._x[k] = ...) or rebinds one outside
    # __init__ (rd._x = ...)
    path = next(p for p in SOURCES if p.name == "superpbw.py")
    tree = ast.parse(path.read_text(), str(path))
    owner: dict[ast.AST, str] = {}
    for scope in ast.walk(tree):  # breadth first, so an inner scope wins
        if isinstance(scope, (ast.ClassDef, ast.FunctionDef)):
            name = f"{owner[scope]}.{scope.name}" if scope in owner else scope.name
            for node in ast.walk(scope):
                if node is not scope:
                    owner[node] = name
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            continue
        where = owner.get(node, "<module>")
        for leaf in (leaf for t in targets for leaf in ast.walk(t)):
            if not isinstance(getattr(leaf, "ctx", None), ast.Store):
                continue
            if isinstance(leaf, ast.Subscript) and isinstance(leaf.value, ast.Attribute):
                if where != "_Table.__missing__":
                    found.append(f"{where}:{node.lineno}")
            elif isinstance(leaf, ast.Attribute) and not where.endswith(".__init__"):
                found.append(f"{where}:{node.lineno}")
    assert found == []


def test_no_inverse_outside_qrat_in_the_elimination_modules():
    # qfield.row_reduce eliminates fraction-free on integers; an ``.inverse()``
    # in qboson, or in qfield outside QRat itself, is a second elimination
    # over Q(q) coming back beside it
    found = []
    for path in SOURCES:
        if path.name not in ("qboson.py", "qfield.py"):
            continue
        tree = ast.parse(path.read_text(), str(path))
        inside = {
            node
            for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef) and cls.name == "QRat" and path.name == "qfield.py"
            for node in ast.walk(cls)
        }
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "inverse"
            and node not in inside
        ]
    assert found == []


def _is_named(node: ast.AST, name: str) -> bool:
    return (isinstance(node, ast.Name) and node.id == name) or (
        isinstance(node, ast.Attribute) and node.attr == name
    )


def test_every_lru_cache_passes_an_explicit_maxsize():
    # memos keyed by polynomials see new keys for as long as a process runs,
    # so each lru_cache names a maxsize that is not None, and the unbounded
    # functools.cache keys by ints and tuples of ints, never by a Poly
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call) and _is_named(node.func, "lru_cache"):
                size = [k.value for k in node.keywords if k.arg == "maxsize"]
                if not size or (isinstance(size[0], ast.Constant) and size[0].value is None):
                    found.append(f"{path.name}:{node.lineno}")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
                annotations = [ast.unparse(a.annotation) for a in args if a.annotation]
                keyed_by_poly = any("Poly" in a for a in annotations)
                for deco in node.decorator_list:
                    if _is_named(deco, "lru_cache") or (_is_named(deco, "cache") and keyed_by_poly):
                        found.append(f"{path.name}:{node.lineno}")
    assert found == []
