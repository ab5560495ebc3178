"""Every public function, and every defaulted parameter of one, has a user
in the program, not only in the tests.

A function exported from ``beamcap`` must be referenced somewhere in
``src/`` or ``perfbench/`` outside its own body and outside
``__init__.py``, and each of its defaulted parameters must be passed, by
keyword or by position, by some call there.  Check routes that exist to be
compared against the engines are named exceptions.
"""

import ast
import inspect
from pathlib import Path

import beamcap

ROOT = Path(__file__).parent.parent
CHECK_ROUTES = {"expected_pair_distance", "telescoped_state_weight"}
# the truncation-boundary property tests set the state limit
TEST_SET_PARAMETERS = {("steady_state", "max_states")}


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
    assert CHECK_ROUTES <= public
    uncalled = public - CHECK_ROUTES - program_references()
    assert not uncalled, f"public functions only tests use: {sorted(uncalled)}"


def test_every_defaulted_parameter_is_set_by_the_program():
    positional, keywords = passed_parameters()
    unset = []
    for name in sorted(beamcap.__all__):
        fn = getattr(beamcap, name)
        if not inspect.isfunction(fn) or name in CHECK_ROUTES:
            continue
        for i, p in enumerate(inspect.signature(fn).parameters.values()):
            by_position = p.kind is not p.KEYWORD_ONLY and positional.get(name, 0) > i
            if (p.default is not p.empty and not by_position and (name, p.name) not in keywords
                    and (name, p.name) not in TEST_SET_PARAMETERS):
                unset.append(f"{name}({p.name})")
    assert not unset, f"defaulted parameters no program call sets: {unset}"
