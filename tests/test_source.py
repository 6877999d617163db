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
