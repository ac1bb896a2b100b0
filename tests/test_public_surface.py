"""The package's public surface, and no src name that only tests use.

`elitist_lo_lab.__all__` is pinned, and so are `run_one_plus_one`'s
parameters.  Every module-level function and class in src, and every
method, must be named somewhere outside its own definition: in src,
`scripts/`, `perfbench/` or `tests/test_acceptance.py`.  A name that only
the other tests use belongs in those tests, or goes with them; so does a
keyword parameter that no command, script or criterion passes.  Dunder
methods, which Python calls, and overrides, which their base class calls,
are exempt.
"""
import ast
import importlib
import inspect
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


def test_public_surface_is_pinned():
    assert elitist_lo_lab.__all__ == PUBLIC
    assert all(hasattr(elitist_lo_lab, name) for name in PUBLIC)


def test_runner_parameters_are_pinned():
    # `initial` stays for criterion 9's coupling (`run_coupled`)
    params = inspect.signature(elitist_lo_lab.run_one_plus_one).parameters
    assert list(params) == ["strategy", "inst", "seed", "budget", "oracle", "initial",
                            "observer"]


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
