"""The library's source holds no assert statements, and its modules import
each other in one direction.

python -O strips asserts, so an invariant that guards termination or output
must be a check that raises.  An import inside a function hides an edge of
the module graph from the reader, and a cycle means no module of it can be
read without the others.  The two solvers share only what they import from
below them.
"""

import ast
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import polytx

SRC = Path(polytx.__file__).parent


def parsed_sources() -> list[tuple[Path, ast.Module]]:
    sources = sorted(SRC.glob("*.py"))
    assert sources
    return [(path, ast.parse(path.read_text(encoding="utf-8"), filename=str(path))) for path in sources]


def test_library_has_no_asserts():
    found = []
    for path, tree in parsed_sources():
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def package_imports(tree: ast.Module) -> dict[str, int]:
    """The polytx modules that a module's import statements name, wherever
    they sit, each with the line of its first import."""
    named: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            modules = [node.module] if node.module else [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("polytx."):
            modules = [node.module.split(".")[1]]
        elif isinstance(node, ast.Import):
            modules = [a.name.split(".")[1] for a in node.names if a.name.startswith("polytx.")]
        else:
            continue
        for module in modules:
            named[module] = min(named.get(module, node.lineno), node.lineno)
    return named


def test_no_import_inside_a_function():
    found = set()
    for path, tree in parsed_sources():
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found |= {
                    f"{path.name}:{node.lineno}"
                    for node in ast.walk(fn)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                }
    assert sorted(found) == []


def test_module_imports_form_a_dag():
    graph = {path.stem: package_imports(tree) for path, tree in parsed_sources()}
    assert graph["visibility"].keys() >= {"candidates", "geometry"}  # the walk sees the edges
    try:
        order = list(TopologicalSorter(graph).static_order())
    except CycleError as exc:
        raise AssertionError(f"import cycle: {' -> '.join(exc.args[1])}") from None
    assert order.index("geometry") < order.index("candidates") < order.index("visibility")


def test_solvers_do_not_import_each_other():
    graph = {path.stem: package_imports(tree) for path, tree in parsed_sources()}
    found = [
        f"{a}.py:{graph[a][b]} imports {b}"
        for a, b in (("approx", "exact"), ("exact", "approx"))
        if b in graph[a]
    ]
    assert found == []
