"""Checks on the package source itself."""

import ast
import importlib
import pathlib
import re
from collections import Counter

import curv2x
from curv2x.rational_lp import LPProblem

SOURCE = pathlib.Path(curv2x.__file__).parent
ROOT = pathlib.Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


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


def test_no_unused_imports():
    # no linter runs on the package; an import left behind after its last
    # use is removed should fail here (the package's __init__ re-exports)
    paths = sorted(p for p in SOURCE.glob("*.py") if p.name != "__init__.py")
    assert paths
    unused = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}"
                   for name, line in imported.items() if name not in used]
    assert unused == []


def script_entry_points():
    """The function names pyproject.toml's [project.scripts] table
    points into the package ("curv2x.module:function" targets)."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    table = re.search(r"^\[project\.scripts\]$(.*?)(?=^\[|\Z)", text,
                      re.M | re.S)
    return set(re.findall(r'=\s*"curv2x\.\w+:(\w+)"', table.group(1)))


def test_every_definition_has_a_caller(monkeypatch):
    # a module-level function or class that the package names only in
    # its own body, and that is not decorated, exported, a console
    # script or used by the benchmark, has no caller left: it belongs in
    # tests/ or nowhere.  Only bare names count as uses, so a method or
    # attribute of the same name (`obj.f`) cannot hide a dead `f`.  A
    # public, undecorated method of a package class is used when the
    # package or the benchmark names it as an attribute (`obj.f`)
    # outside its own body; exporting its class does not count.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    used = (set(curv2x.__all__) | script_entry_points()
            | {attr for _, attr, _, _ in tracing.WRAPS})
    benchmark = [ast.parse(path.read_text(encoding="utf-8"))
                 for path in PERFBENCH.glob("*.py")]
    for tree in benchmark:
        used.update(alias.name for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom)
                    and (node.module or "").startswith("curv2x")
                    for alias in node.names)

    def names(tree):
        return [node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)]

    def attributes(tree):
        return [node.attr for node in ast.walk(tree)
                if isinstance(node, ast.Attribute)]

    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SOURCE.glob("*.py"))}
    named = Counter(name for tree in trees.values() for name in names(tree))
    dead = [f"{where}:{node.lineno} {node.name}"
            for where, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.decorator_list and node.name not in used
            and named[node.name] == names(node).count(node.name)]
    attributed = Counter(attr for tree in [*trees.values(), *benchmark]
                         for attr in attributes(tree))
    dead += [f"{where}:{method.lineno} {node.name}.{method.name}"
             for where, tree in trees.items() for node in tree.body
             if isinstance(node, ast.ClassDef)
             for method in node.body
             if isinstance(method, ast.FunctionDef)
             and not method.decorator_list
             and not method.name.startswith("_")
             and attributed[method.name]
             == attributes(method).count(method.name)]
    assert dead == []


def test_no_environment_reads():
    # the command line's flags are the program's only settings, so no
    # module may read os.environ or call os.getenv
    banned = {"environ", "environb", "getenv", "getenvb"}
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute):
                names = {node.attr}
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                names = {alias.name for alias in node.names}
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}"
                      for name in sorted(names & banned)]
    assert found == []


def test_graph_order_is_decided_at_construction():
    # serre_graph's contract: order is decided once, when a graph is
    # built, so no other method of SerreGraph may sort or compare keys
    tree = ast.parse((SOURCE / "serre_graph.py").read_text(encoding="utf-8"))
    graph, = [node for node in tree.body
              if isinstance(node, ast.ClassDef) and node.name == "SerreGraph"]
    found = []
    for method in graph.body:
        if isinstance(method, ast.FunctionDef) and method.name != "__init__":
            found += [f"{method.name}:{node.lineno}"
                      for node in ast.walk(method)
                      if isinstance(node, ast.Name)
                      and node.id in ("sort_key", "ssorted")]
    assert found == []


def test_block_order_is_decided_at_construction():
    # blocks' contract: a block's order and key are decided once, by its
    # constructor, through one rank helper; nothing else in the module
    # may sort or compare by sort_key
    tree = ast.parse((SOURCE / "blocks.py").read_text(encoding="utf-8"))
    helpers = {"_ordered", "_canonical"}
    assert helpers <= {node.name for node in tree.body
                       if isinstance(node, ast.FunctionDef)}
    found = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name in helpers:
            continue
        found += [f"{getattr(node, 'name', 'module')}:{name.lineno}"
                  for name in ast.walk(node)
                  if isinstance(name, ast.Name)
                  and name.id in ("sort_key", "ssorted")]
    assert found == []


def test_block_search_decides_each_condition_once():
    # blocks' contract: the search decides each block condition where
    # its data is built, so neither it nor _emit may rebuild the upper
    # link or run the whole validator; the census still does
    tree = ast.parse((SOURCE / "blocks.py").read_text(encoding="utf-8"))
    top = {node.name: node for node in tree.body
           if isinstance(node, ast.FunctionDef)}
    banned = {"validate_vertex_block", "_upper_graph", "upper_link",
              "component_map", "is_forest"}

    def names(node):
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                yield sub.id, sub.lineno
            elif isinstance(sub, ast.Attribute):
                yield sub.attr, sub.lineno

    found = [f"{name}:{line} {used}"
             for name in ("_blocks_at_vertex", "_assemble_relations", "_emit")
             for used, line in names(top[name]) if used in banned]
    assert found == []
    assert "validate_vertex_block" in {used for used, _ in
                                       names(top["block_census"])}


def test_simplex_loop_is_integer_only():
    # rational_lp's contract: the tableau holds ints, and Fractions are
    # built only once the simplex is done, so the nested pivot, run and
    # price of solve, and the row helpers they call, may not name
    # Fraction
    tree = ast.parse((SOURCE / "rational_lp.py").read_text(encoding="utf-8"))
    top = {node.name: node for node in tree.body
           if isinstance(node, ast.FunctionDef)}
    nested = {node.name: node for node in top["solve"].body
              if isinstance(node, ast.FunctionDef)}
    loops = {name: nested[name] for name in ("pivot", "run", "price")}
    loops.update((name, top[name]) for name in ("_primitive", "_lowest_terms"))
    found = [f"{name}:{node.lineno}"
             for name, loop in loops.items()
             for node in ast.walk(loop)
             if isinstance(node, ast.Name) and node.id == "Fraction"]
    assert found == []


def test_simplex_loop_visits_only_indexed_rows():
    # rational_lp's contract: a pivot visits only the rows that the
    # entering column's index holds, and run takes the entering column
    # from its heap, so pivot and run may only index the tableau and the
    # basis (no loop over all rows), and run may only look reduced costs
    # up one column at a time (no scan of red)
    tree = ast.parse((SOURCE / "rational_lp.py").read_text(encoding="utf-8"))
    solve, = [node for node in tree.body
              if isinstance(node, ast.FunctionDef) and node.name == "solve"]
    nested = {node.name: node for node in solve.body
              if isinstance(node, ast.FunctionDef)}
    found = []
    for name in ("pivot", "run"):
        parent = {child: node for node in ast.walk(nested[name])
                  for child in ast.iter_child_nodes(node)}
        for node in ast.walk(nested[name]):
            if not isinstance(node, ast.Name):
                continue
            up = parent[node]
            if node.id in ("tab", "basis"):
                ok = isinstance(up, ast.Subscript) and up.value is node
            elif node.id == "red" and name == "run":
                ok = isinstance(up, ast.Attribute) and up.attr == "get"
            else:
                continue
            if not ok:
                found.append(f"{name}:{node.lineno} {node.id}")
    assert found == []


def test_traced_tableau_size_reads_the_problem(monkeypatch):
    # the benchmark's tracer counts tableau cells from LPProblem's
    # attributes; renaming one should fail here, not in a traced run
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    p = LPProblem(["t1", "t2", "t3"], [({"t1": 1, "t2": -1}, 0),
                                       ({"t1": 1, "t2": 1, "t3": 1}, 1)],
                  {"t3": 1})
    m, n = 2, 3
    assert tracing._cells(p) == m * (n + m + 1)
