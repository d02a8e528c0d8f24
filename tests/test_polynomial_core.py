"""The core modules stay polynomial by construction: no loop or
comprehension in them runs over ``range(1 << ...)`` (or ``range(2 ** ...)``),
every subset of a point or stratum set. Two definitional routes are the
exceptions, ``Decomposition.quotient_open_family`` and ``final_topology``:
the benchmark's tracer wraps them by name, so they stay until it no longer
does and they can join the other definitional routes in ``oracle.py``.
"""

from __future__ import annotations

import ast
from pathlib import Path

import stratkit

SRC = Path(stratkit.__file__).parent
CORE = ("topology.py", "order.py", "decomposition.py", "documents.py")
ALLOWED = {
    ("decomposition.py", "Decomposition.quotient_open_family"),
    ("topology.py", "final_topology"),
}


def _all_subsets(node: ast.AST) -> bool:
    """Whether ``node`` is a ``range`` call with an argument 1 << x or 2 ** x."""
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "range"):
        return False
    return any(
        isinstance(arg, ast.BinOp) and isinstance(arg.left, ast.Constant)
        and (isinstance(arg.op, ast.LShift) and arg.left.value == 1
             or isinstance(arg.op, ast.Pow) and arg.left.value == 2)
        for arg in node.args
    )


def subset_loops(source: str) -> list[str]:
    """The qualified name of the function or class around each loop or
    comprehension over every subset, in source order."""
    found = []

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope += (node.name,)
        if isinstance(node, (ast.For, ast.AsyncFor, ast.comprehension)) and _all_subsets(
            node.iter
        ):
            found.append(".".join(scope) or "<module>")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), ())
    return found


def test_detector_finds_subset_loops():
    source = (
        "class A:\n"
        "    def f(self, n):\n"
        "        return [m for m in range(0, 1 << n) if m]\n"
        "def g(k):\n"
        "    for j in range(2 ** k):\n"
        "        pass\n"
        "    for j in range(k << 1):\n"
        "        pass\n"
        "    return {m: [i for i in range(1 << m)] for m in range(k)}\n"
    )
    assert subset_loops(source) == ["A.f", "g", "g"]
    oracle = (SRC / "oracle.py").read_text(encoding="utf-8")
    assert {"naive_preorder_rows", "alexandrov_by_subset_filter"} <= set(subset_loops(oracle))


def test_core_modules_enumerate_no_subsets():
    found = {
        (name, where)
        for name in CORE
        for where in subset_loops((SRC / name).read_text(encoding="utf-8"))
    }
    assert found <= ALLOWED, sorted(found - ALLOWED)
