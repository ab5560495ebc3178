"""Every public function has a caller in the program, not only in the tests.

A function exported from ``beamcap`` must be referenced somewhere in
``src/`` or ``perfbench/`` outside its own body and outside
``__init__.py``.  Check routes that exist to be compared against the
engines are named exceptions.
"""

import ast
import inspect
from pathlib import Path

import beamcap

ROOT = Path(__file__).parent.parent
CHECK_ROUTES = {"expected_pair_distance", "telescoped_state_weight"}


def program_references() -> set[str]:
    """Names loaded in src/ and perfbench/, each outside the function of the same name."""
    found: set[str] = set()

    def visit(node, enclosing: frozenset) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            enclosing = enclosing | {node.name}
        name = (node.id if isinstance(node, ast.Name) else
                node.attr if isinstance(node, ast.Attribute) else None)
        if name is not None and name not in enclosing:
            found.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    files = [f for f in (ROOT / "src" / "beamcap").glob("*.py") if f.name != "__init__.py"]
    for path in files + sorted((ROOT / "perfbench").glob("*.py")):
        visit(ast.parse(path.read_text()), frozenset())
    return found


def test_every_public_function_has_a_program_caller():
    public = {name for name in beamcap.__all__ if inspect.isfunction(getattr(beamcap, name))}
    assert CHECK_ROUTES <= public
    uncalled = public - CHECK_ROUTES - program_references()
    assert not uncalled, f"public functions only tests use: {sorted(uncalled)}"
