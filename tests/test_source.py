"""Checks on the package source itself."""

import ast
import importlib
import pathlib

import curv2x

SOURCE = pathlib.Path(curv2x.__file__).parent
PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


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


def test_every_traced_name_resolves(monkeypatch):
    # the benchmark's tracer wraps these names; deleting or renaming one
    # should fail here, not in a traced benchmark run
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    assert tracing.WRAPS
    missing = []
    for where, attr, _, _ in tracing.WRAPS:
        module, *path = where.split(".")
        owner = importlib.import_module(f"curv2x.{module}")
        for part in path:
            owner = getattr(owner, part, None)
        if not hasattr(owner, attr):
            missing.append(f"{where}.{attr}")
    assert missing == []
