"""The package's public surface, and no src name that only tests use.

`elitist_lo_lab.__all__` is pinned, and so are `run_one_plus_one`'s
parameters.  Every module-level function and class in src, and every
method, must be named somewhere outside its own definition: in src,
`scripts/`, `perfbench/` or `tests/test_acceptance.py`.  A name that only
the other tests use belongs in those tests, or goes with them.  Dunder
methods, which Python calls, and overrides, which their base class calls,
are exempt.  Likewise some file in `USERS` must pass each defaulted
parameter of a src function, by keyword or by position.  src holds no
`assert` statement, which `python -O` strips: an invariant check raises.
"""
import ast
import importlib
import inspect
import math
from collections import Counter
from pathlib import Path

import elitist_lo_lab

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "elitist_lo_lab"
USERS = [
    *sorted(SRC.glob("*.py")),
    *sorted((ROOT / "scripts").glob("*.py")),
    *sorted((ROOT / "perfbench").glob("*.py")),
    ROOT / "tests" / "test_acceptance.py",
]

PUBLIC = [
    "BitString",
    "CountingOracle",
    "LoInstance",
    "Memlog",
    "OneEa",
    "Ordering",
    "Rls",
    "RunRecord",
    "lo_value",
    "make_strategy",
    "random_instance",
    "run_one_plus_one",
    "verify_ranking_invariance",
]


def uses(node: ast.AST) -> Counter:
    """Identifiers that node refers to: names, attributes, imported names,
    and string constants that are identifiers (as getattr and setattr take)."""
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            out[sub.name.rpartition(".")[2]] += 1
        elif (isinstance(sub, ast.Constant) and isinstance(sub.value, str)
              and sub.value.isidentifier()):
            out[sub.value] += 1
    return out


def definitions(tree: ast.Module, module):
    """(qualified name, node) of each module-level function and class and
    of each method that is neither a dunder nor an override."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            bases = getattr(module, node.name).__mro__[1:]
            for sub in node.body:
                name = sub.name if isinstance(sub, defs) else ""
                if (name and not (name.startswith("__") and name.endswith("__"))
                        and not any(hasattr(base, name) for base in bases)):
                    yield f"{node.name}.{name}", sub


def calls(tree: ast.AST) -> Counter:
    """(called name, positional argument count, keyword names) of each call;
    a `*args` counts as every position and a `**kwargs` as the keyword "*"."""
    out = Counter()
    for sub in ast.walk(tree):
        if isinstance(sub, ast.Call):
            func = sub.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
            starred = any(isinstance(a, ast.Starred) for a in sub.args)
            keywords = frozenset(kw.arg or "*" for kw in sub.keywords)
            out[name, math.inf if starred else len(sub.args), keywords] += 1
    return out


def defaulted(node: ast.FunctionDef, method: bool):
    """(position, name) of each defaulted parameter; a method's position
    leaves out self, and a keyword-only parameter has no position."""
    args = node.args
    positional = (args.posonlyargs + args.args)[method:]
    first = len(positional) - len(args.defaults)
    yield from ((i, a.arg) for i, a in enumerate(positional) if i >= first)
    yield from ((math.inf, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                if d is not None)


def test_public_surface_is_pinned():
    assert elitist_lo_lab.__all__ == PUBLIC
    assert all(hasattr(elitist_lo_lab, name) for name in PUBLIC)


def test_runner_parameters_are_pinned():
    params = inspect.signature(elitist_lo_lab.run_one_plus_one).parameters
    assert list(params) == ["strategy", "inst", "seed", "budget", "oracle", "observer"]


def test_every_src_name_has_a_user_outside_the_tests():
    total = Counter()
    for path in USERS:
        total += uses(ast.parse(path.read_text(), str(path)))
    unused = []
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module(f"elitist_lo_lab.{path.stem}")
        for qualname, node in definitions(ast.parse(path.read_text(), str(path)), module):
            name = node.name
            if total[name] - uses(node)[name] == 0:
                unused.append(f"{path.name}:{node.lineno} {qualname}")
    assert unused == []


def test_every_defaulted_parameter_is_passed_outside_the_tests():
    passed = Counter()
    for path in USERS:
        passed += calls(ast.parse(path.read_text(), str(path)))
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef)
    unpassed = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        owners = (n for n in ast.walk(tree) if isinstance(n, (ast.Module, ast.ClassDef, *funcs)))
        for owner in owners:
            method = isinstance(owner, ast.ClassDef)
            for node in (n for n in owner.body if isinstance(n, funcs)):
                name = owner.name if method and node.name == "__init__" else node.name
                # a function's calls of itself pass nothing from outside
                users = passed - calls(node)
                for i, arg in defaulted(node, method):
                    if not any(c == name and (p > i or arg in k or "*" in k)
                               for c, p, k in users):
                        unpassed.append(f"{path.name}:{node.lineno} {node.name}({arg})")
    assert unpassed == []


def test_src_has_no_assert_statement():
    found = [f"{path.name}:{node.lineno}" for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
