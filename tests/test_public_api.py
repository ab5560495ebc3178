"""Every public function, and every defaulted parameter of one, has a user
in the program, not only in the tests.

A function exported from ``beamcap`` must be referenced somewhere in
``src/`` or ``perfbench/`` outside its own body and outside
``__init__.py``.  Each defaulted parameter of a public module-level
function of any ``beamcap`` module must be passed, by keyword or by
position, by some call there.  Code that only tests use lives in the
tests, so there is no named exception for it.
"""

import ast
import importlib
import inspect
from pathlib import Path

import beamcap

ROOT = Path(__file__).parent.parent


def program_files() -> list[Path]:
    files = [f for f in (ROOT / "src" / "beamcap").glob("*.py") if f.name != "__init__.py"]
    return files + sorted((ROOT / "perfbench").glob("*.py"))


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

    for path in program_files():
        visit(ast.parse(path.read_text()), frozenset())
    return found


def passed_parameters() -> tuple[dict[str, int], set[tuple[str, str]]]:
    """Most positional arguments any program call gives each callee name, and
    the (callee, keyword) pairs some program call sets.

    A keyword passed on under its own name (``k=k``) is taken to forward the
    enclosing function's parameter ``k``: it counts only when that parameter
    is required or itself set by some call, not when it is a default nobody
    overrides.
    """
    positional: dict[str, int] = {}
    required: dict[str, set[str]] = {}
    calls = []   # (callee, enclosing function, keyword, forwarded)

    def visit(node, enclosing: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            enclosing = node.name
            args = node.args
            ordered = args.posonlyargs + args.args
            names = [a.arg for a in ordered[:len(ordered) - len(args.defaults)]]
            names += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is None]
            required.setdefault(enclosing, set()).update(names)
        if isinstance(node, ast.Call):
            fn = node.func
            callee = fn.id if isinstance(fn, ast.Name) else getattr(fn, "attr", None)
            positional[callee] = max(positional.get(callee, 0), len(node.args))
            for kw in node.keywords:
                forwarded = isinstance(kw.value, ast.Name) and kw.value.id == kw.arg
                calls.append((callee, enclosing, kw.arg, forwarded))
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    for path in program_files():
        visit(ast.parse(path.read_text()), "")
    keywords: set[tuple[str, str]] = set()
    while True:
        grown = {(callee, kw) for callee, enclosing, kw, forwarded in calls
                 if not forwarded or kw in required.get(enclosing, ())
                 or (enclosing, kw) in keywords}
        if grown == keywords:
            return positional, keywords
        keywords = grown


def test_every_public_function_has_a_program_caller():
    public = {name for name in beamcap.__all__ if inspect.isfunction(getattr(beamcap, name))}
    uncalled = public - program_references()
    assert not uncalled, f"public functions only tests use: {sorted(uncalled)}"


def module_functions() -> dict[str, object]:
    """Public functions defined at module level anywhere in src/beamcap, by name."""
    found = {}
    for path in sorted((ROOT / "src" / "beamcap").glob("*.py")):
        if path.name == "__init__.py":
            continue
        module = importlib.import_module(f"beamcap.{path.stem}")
        for name, fn in inspect.getmembers(module, inspect.isfunction):
            if not name.startswith("_") and fn.__module__ == module.__name__:
                assert name not in found, f"{name} defined twice"
                found[name] = fn
    return found


def test_module_functions_cover_the_package_exports():
    exported = {name for name in beamcap.__all__ if inspect.isfunction(getattr(beamcap, name))}
    assert exported <= set(module_functions())


def test_every_defaulted_parameter_is_set_by_the_program():
    positional, keywords = passed_parameters()
    unset = []
    for name, fn in sorted(module_functions().items()):
        for i, p in enumerate(inspect.signature(fn).parameters.values()):
            by_position = p.kind is not p.KEYWORD_ONLY and positional.get(name, 0) > i
            if p.default is not p.empty and not by_position and (name, p.name) not in keywords:
                unset.append(f"{name}({p.name})")
    assert not unset, f"defaulted parameters no program call sets: {unset}"


def test_queueing_imports_no_beamcap_module():
    """The chain solver stands alone; scenarios form its chains (Scenario.chain)."""
    tree = ast.parse((ROOT / "src" / "beamcap" / "queueing.py").read_text())
    imported = [node.module or "." for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                and (node.level or node.module.split(".")[0] == "beamcap")]
    imported += [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                 for alias in node.names if alias.name.split(".")[0] == "beamcap"]
    assert not imported, f"queueing imports {imported}"


def test_radio_imports_no_numpy():
    """The link budget is scalar Python: a table antenna keeps its samples as float
    tuples, and no array kernel sits beside radio.power_kernel."""
    tree = ast.parse((ROOT / "src" / "beamcap" / "radio.py").read_text())
    imported = [node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module]
    imported += [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                 for alias in node.names]
    assert not [m for m in imported if m.split(".")[0] == "numpy"], f"radio imports {imported}"
