"""Checks on the package source itself."""

import ast
import pathlib

import curv2x

SOURCE = pathlib.Path(curv2x.__file__).parent


def test_no_assert_in_package():
    # python -O strips assert statements, so no check may live in one
    paths = sorted(SOURCE.glob("*.py"))
    assert paths
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []
