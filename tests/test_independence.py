"""The reference routes stay independent of the code they check.

`tests/oracles.py` and `bench/workloads.py` compute expected values from
first principles; agreement with partgraph is evidence only while neither
imports it.  These tests read both files as syntax trees and never import
or change them.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC_MODULES = {
    path.stem for path in (ROOT / "src").iterdir()
    if not path.name.startswith((".", "_")) and (path.is_dir() or path.suffix == ".py")
}
INDEPENDENT = ["tests/oracles.py", "bench/workloads.py"]


def imported_modules(tree: ast.AST) -> set[str]:
    """Top-level names of every module the code imports, statically or by name."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            found.add(node.module)
        elif isinstance(node, ast.Call) and node.args:
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            first = node.args[0]
            if name in ("__import__", "import_module") and isinstance(first, ast.Constant):
                found.add(str(first.value))
    return {name.split(".")[0] for name in found}


def test_src_provides_the_package():
    assert "partgraph" in SRC_MODULES


@pytest.mark.parametrize("relative", INDEPENDENT)
def test_reference_imports_nothing_from_src(relative):
    tree = ast.parse((ROOT / relative).read_text(), filename=relative)
    assert not imported_modules(tree) & SRC_MODULES


@pytest.mark.parametrize("statement", [
    "import partgraph",
    "import partgraph.transfers as t",
    "from partgraph import neighbors",
    "from partgraph.graphs import line_graph",
    "import importlib\nimportlib.import_module('partgraph.oracle')",
    "__import__('partgraph')",
])
def test_detects_an_import(statement):
    assert "partgraph" in imported_modules(ast.parse(statement))
