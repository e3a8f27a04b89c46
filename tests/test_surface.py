"""Every name the package exports has a caller, only the callables whose
callers set a tolerance take one, and the library imports no scipy.

A name exported from ``ternlab/__init__.py`` must be referenced, outside its
own definition, by a ``src/ternlab`` module, by the acceptance criteria, by a
README Python example or by the benchmark harness; tests of the name alone do
not count.  References are read from the syntax tree: a ``Name`` or an
``Attribute`` of that name.
"""

import ast
import inspect
import os
import pathlib
import re
import subprocess
import sys

import ternlab

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ternlab"


def _exports():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return [a.asname or a.name for node in tree.body if isinstance(node, ast.ImportFrom)
            for a in node.names]


def _references(tree, skip=None) -> set:
    """Names and attribute names used in the tree, outside the top-level
    definition named ``skip``."""
    out = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == skip:
            continue
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                out.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                out.add(sub.attr)
    return out


def _callers() -> list:
    """Syntax trees whose references count for every name: the acceptance
    criteria, the README examples and the benchmark harness."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    sources = [(ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8")]
    sources += re.findall(r"```python\n(.*?)```", readme, re.S)
    sources += [p.read_text(encoding="utf-8") for p in sorted((ROOT / "perfbench").glob("*.py"))]
    return [ast.parse(src) for src in sources]


def test_every_export_has_a_caller():
    modules = [ast.parse(p.read_text(encoding="utf-8"))
               for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    used = set().union(*(_references(t) for t in _callers()))
    orphans = [name for name in _exports()
               if name not in used and not any(name in _references(t, skip=name)
                                               for t in modules)]
    assert orphans == []


# The exported callables that take a ``tol``: the CLI's --tol sets check_axioms
# and zettl_decompose, and the acceptance criteria set pi_norm_lower_bounds.
# Every other check reads its module's constant; closure, that of the
# constructors, their validators and mul_coords, is judged at ternary.DEFAULT_TOL.
TOL_TAKERS = {"check_axioms", "zettl_decompose", "pi_norm_lower_bounds"}


def _takes_tol(f) -> bool:
    return callable(f) and "tol" in inspect.signature(f).parameters


def test_only_callables_whose_callers_set_a_tolerance_take_one():
    # exported functions and the public methods of exported classes; a class's
    # private names (its dataclass __init__ among them, so AxiomReport's tol
    # field) do not count
    takers = set()
    for name in _exports():
        obj = getattr(ternlab, name)
        if inspect.isclass(obj):
            takers |= {f"{name}.{attr}" for attr in vars(obj)
                       if not attr.startswith("_") and _takes_tol(getattr(obj, attr))}
        elif inspect.isfunction(obj) and _takes_tol(obj):
            takers.add(name)
    assert takers == TOL_TAKERS


def test_the_cli_loads_no_scipy():
    # numpy is the library's one dependency; scipy is a reference for the
    # tests only.  A fresh interpreter sees transitive imports as well.
    probe = "import sys, ternlab.cli; print(sorted(m for m in sys.modules if 'scipy' in m))"
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    run = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert run.stdout.strip() == "[]"
