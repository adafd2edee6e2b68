"""Static rules over the package source, checked on its syntax trees.

* Every imported name is read in its module, except the bindings in
  KEPT_FOR_TRACING, and every name in `mhscalc.__all__` resolves.
* Every module-level private name (a def, class or assignment named
  `_name`) is read in its module, so a helper that a change stops calling
  goes with it.
* Only `guards.py` constructs `GuardExceeded`, and only it constructs or
  tests for a `Plan`, so every work estimate, limit and guard message stays
  in that one module, and so does the proof that a route checked its plan.
* The route modules (ROUTES) import from `.guards` only `DEFAULT_GUARD`,
  `Plan`, `check`, `checked` and the `plan_*` blocks, apart from the
  KEPT_FOR_TRACING bindings, so a route runs no estimator of its own and
  its checked plan bounds everything it builds.  `cli.py` reads two
  estimators for `bench`'s CSV columns.
* No module uses `functools.cache`, `lru_cache` or `cached_property`, except
  the uses in KEPT_CACHES: the library keeps no state between calls, so
  whatever a computation shares (chain lists, column factors, exponent
  vectors) lives in one call.
* Only `nestedsums.py` reads `combinations_with_replacement`: the package
  has one chain enumerator, `chain_tails` and `enumerate_chains` built on
  it, and every route that walks chains (`c_direct`, `mhs_value`) goes
  through it.
* Every public top-level def or class, and each public method of one, is
  read in a library module other than `__init__.py`, in `perfbench/` (a
  word of a string counts) or in the README's Library block.
"""

import ast
import re
from pathlib import Path

import pytest

import mhscalc

SRC = Path(__file__).resolve().parent.parent / "src" / "mhscalc"
MODULES = sorted(path.name for path in SRC.glob("*.py"))

# (module, name) -> why the module binds an import it never reads.
KEPT_FOR_TRACING = {
    ("egf.py", "iterated_delta"): (
        "perfbench's tracer wraps multiseq.iterated_delta in every namespace that binds "
        "it, and its selftest expects the egf binding"
    ),
    ("nestedsums.py", "direct_summand_count"): (
        "perfbench's tracer counts c_direct summands through nestedsums.direct_summand_count"
    ),
    ("nestedsums.py", "gen_binomial"): (
        "perfbench's tracer wraps kernel.gen_binomial in every namespace that binds it, and "
        "its selftest expects the nestedsums binding; the column factors use gen_binomial_pair"
    ),
}

GUARD_OWNER = "guards.py"
ROUTES = ("egf.py", "mhs.py", "multiseq.py", "nestedsums.py")
PLAN_NAMES = {"DEFAULT_GUARD", "Plan", "check", "checked"}
CHAIN_OWNER = "nestedsums.py"
CACHES = {"cache", "lru_cache", "cached_property"}

# (module, use) -> why a memoizing decorator is kept.
KEPT_CACHES = {
    ("cli.py", "build_parser: functools.cache"): (
        "the argparse parser holds no computed value and is never changed after it is "
        "built; test_parser_is_built_once pins that `main` builds it once per process"
    ),
}


def _tree(module: str) -> ast.Module:
    return ast.parse((SRC / module).read_text(encoding="utf-8"), module)


def unused_imports(tree: ast.Module) -> set[str]:
    """Names bound by an import that nothing in the module reads.

    A name counts as read where it appears as an expression (an attribute
    chain counts for its root) or as a string in `__all__`.
    """
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            read.update(item.value for item in node.value.elts)
    return imported - read


def unread_private_names(tree: ast.Module) -> set[str]:
    """Module-level `_name` bindings that nothing in the module reads.

    A binding is a top-level def, class or assignment target; a read is the
    name loaded anywhere in the module.  Dunder names are not private.
    """
    bound = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound.update(
                name.id for target in targets for name in ast.walk(target)
                if isinstance(name, ast.Name)
            )
    read = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return {name for name in bound - read if name.startswith("_") and not name.startswith("__")}


def _callee(node: ast.expr) -> str | None:
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def guard_raisers(tree: ast.Module) -> list[str]:
    """Constructions or raises of `GuardExceeded`, and constructions of or
    `isinstance` tests for a `Plan`."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _callee(node) in ("GuardExceeded", "Plan"):
            found.append((node.lineno, f"{_callee(node)}(...)"))
        elif isinstance(node, ast.Call) and _callee(node) == "isinstance" and len(node.args) == 2:
            if "Plan" in map(_callee, ast.walk(node.args[1])):
                found.append((node.lineno, "isinstance(..., Plan)"))
        elif isinstance(node, ast.Raise) and node.exc is not None:
            if _callee(node.exc) == "GuardExceeded" and not isinstance(node.exc, ast.Call):
                found.append((node.lineno, "raise GuardExceeded"))
    return [f"line {line}: {what}" for line, what in sorted(found)]


def estimator_imports(tree: ast.Module) -> set[str]:
    """Names imported from `.guards` other than PLAN_NAMES and the `plan_*` blocks."""
    return {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level, node.module) in ((1, "guards"), (0, "mhscalc.guards"))
        for alias in node.names
        if alias.name not in PLAN_NAMES and not alias.name.startswith("plan_")
    }


def chain_enumerators(tree: ast.Module) -> list[str]:
    """Reads and imports of `combinations_with_replacement`, by line.

    Any read counts, not only a call, so an alias bound to it is caught
    where it is bound.
    """
    name = "combinations_with_replacement"
    lines = sorted(
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and node.id == name)
        or (isinstance(node, ast.Attribute) and node.attr == name)
        or (isinstance(node, ast.ImportFrom) and any(a.name == name for a in node.names))
    )
    return [f"line {line}: {name}" for line in lines]


def cache_uses(tree: ast.Module) -> list[str]:
    """Uses of functools' memoizing decorators, named by what they decorate.

    A decorator (bare or called, read off a functools import or imported
    from it by name) reports as `name: functools.<decorator>`; any other
    reference reports its line.
    """
    modules, names = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.asname or alias.name for alias in node.names
                           if alias.name == "functools")
        elif isinstance(node, ast.ImportFrom) and node.module == "functools":
            names.update((alias.asname or alias.name, alias.name)
                         for alias in node.names if alias.name in CACHES)

    def cache(node: ast.expr) -> str | None:
        if isinstance(node, ast.Call):
            node = node.func
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in modules and node.attr in CACHES:
                return node.attr
        if isinstance(node, ast.Name):
            return names.get(node.id)
        return None

    found, decorators = [], set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            for decorator in node.decorator_list:
                if cache(decorator):
                    decorators.add(id(getattr(decorator, "func", decorator)))
                    found.append(f"{node.name}: functools.{cache(decorator)}")
    for node in ast.walk(tree):
        if isinstance(node, (ast.Attribute, ast.Name)) and id(node) not in decorators:
            if cache(node):
                found.append(f"line {node.lineno}: functools.{cache(node)}")
    return sorted(found)


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_read(module):
    kept = {name for (owner, name) in KEPT_FOR_TRACING if owner == module}
    assert unused_imports(_tree(module)) == kept


@pytest.mark.parametrize("module", MODULES)
def test_every_private_name_is_read(module):
    assert unread_private_names(_tree(module)) == set()


def test_the_private_name_rule_sees_an_unread_helper():
    tree = ast.parse(
        "import math\n"
        "__version__ = '1'\n"
        "_LIMIT, _SPARE = 3, 4\n"
        "_table: dict = {}\n"
        "def _used(n):\n"
        "    return _LIMIT * n\n"
        "def _left_behind(n):\n"
        "    _local = n\n"
        "    return _local\n"
        "class _Case:\n"
        "    _field = 1\n"
        "def public():\n"
        "    _table['a'] = _used(1)\n"
        "    _SPARE = 5\n"
    )
    assert unread_private_names(tree) == {"_SPARE", "_left_behind", "_Case"}


def test_every_exported_name_resolves():
    # the import rule reads `__all__` strings as uses, so an export whose
    # import is gone passes it and breaks `from mhscalc import *`
    assert [name for name in mhscalc.__all__ if not hasattr(mhscalc, name)] == []


@pytest.mark.parametrize("module", sorted(set(MODULES) - {GUARD_OWNER}))
def test_only_the_guard_module_raises_guards(module):
    assert guard_raisers(_tree(module)) == []


def test_the_guard_module_raises_the_guards():
    assert guard_raisers(_tree(GUARD_OWNER))


def test_routes_import_no_estimator():
    found = [f"{module}: {name}" for module in ROUTES
             for name in sorted(estimator_imports(_tree(module)))
             if (module, name) not in KEPT_FOR_TRACING]
    assert found == []


@pytest.mark.parametrize("module", sorted(set(MODULES) - {CHAIN_OWNER}))
def test_only_nestedsums_enumerates_chains(module):
    assert chain_enumerators(_tree(module)) == []


def test_nestedsums_enumerates_the_chains():
    assert chain_enumerators(_tree(CHAIN_OWNER))


def test_the_chain_rule_sees_an_enumerator():
    tree = ast.parse(
        "import itertools\n"
        "from itertools import combinations, combinations_with_replacement as tails\n"
        "chains = itertools.combinations_with_replacement(range(3), 2)\n"
        "pairs = combinations(range(3), 2)\n"
        "enumerate = itertools.combinations_with_replacement\n"
    )
    assert chain_enumerators(tree) == [
        "line 2: combinations_with_replacement", "line 3: combinations_with_replacement",
        "line 5: combinations_with_replacement",
    ]


def test_the_rules_see_what_they_forbid():
    tree = ast.parse(
        "import os.path\n"
        "from math import comb, prod as product\n"
        "from .guards import GuardExceeded, Plan\n"
        "__all__ = ['comb']\n"
        "def f(size):\n"
        "    plan = Plan([('x', size, 1)])\n"
        "    raise GuardExceeded\n"
        "def g(guard):\n"
        "    raise guards.GuardExceeded('x', 2, 1)\n"
        "    return isinstance(guard, (int, guards.Plan)) or isinstance(guard, tuple)\n"
    )
    assert unused_imports(tree) == {"os", "product"}
    assert guard_raisers(tree) == [
        "line 6: Plan(...)", "line 7: raise GuardExceeded", "line 9: GuardExceeded(...)",
        "line 10: isinstance(..., Plan)",
    ]
    tree = ast.parse(
        "from .guards import DEFAULT_GUARD, Plan, check, checked, plan_fill\n"
        "from .guards import fill_bits as bits, NUMERATOR_TABLE_MAX_BITS\n"
        "from mhscalc.guards import chain_count\n"
        "from .kernel import multinomial\n"
        "from .plans import fill_bits\n"
    )
    assert estimator_imports(tree) == {"bits", "NUMERATOR_TABLE_MAX_BITS", "chain_count"}


@pytest.mark.parametrize("module", MODULES)
def test_no_module_caches_across_calls(module):
    kept = sorted(use for (owner, use) in KEPT_CACHES if owner == module)
    assert cache_uses(_tree(module)) == kept


def test_the_cache_rule_sees_a_cache():
    tree = ast.parse(
        "import functools\n"
        "import functools as ft\n"
        "from functools import lru_cache, reduce\n"
        "@functools.cache\n"
        "def f(n):\n"
        "    cache = {}\n"
        "    return cache\n"
        "class A:\n"
        "    @ft.cached_property\n"
        "    def g(self):\n"
        "        return reduce(max, [1])\n"
        "    @lru_cache(maxsize=None)\n"
        "    def h(self):\n"
        "        return functools.partial(max, 1)\n"
        "memo = ft.lru_cache(len)\n"
    )
    assert cache_uses(tree) == [
        "f: functools.cache", "g: functools.cached_property", "h: functools.lru_cache",
        "line 15: functools.lru_cache",
    ]


def reads(tree: ast.AST, strings: bool = False) -> set[str]:
    """Names and attributes read in a tree; with `strings`, the words of its strings too."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.update(re.findall(r"\w+", node.value))
    return found


def public_names(tree: ast.Module):
    """Public top-level defs and classes, and `Class.method` for a public class's public methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name
            for method in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(method, ast.FunctionDef) and not method.name.startswith("_"):
                    yield f"{node.name}.{method.name}"


def test_every_public_name_has_a_caller_outside_the_tests():
    trees = {module: _tree(module) for module in MODULES if module != "__init__.py"}
    read = set().union(*map(reads, trees.values()))
    for path in SRC.parents[1].glob("perfbench/*.py"):
        read |= reads(ast.parse(path.read_text(encoding="utf-8")), strings=True)
    library = (SRC.parents[1] / "README.md").read_text(encoding="utf-8").split("## Library")[1]
    read |= reads(ast.parse(library.split("```python")[1].split("```")[0]))
    unread = [f"{module}: {name}" for module, tree in trees.items()
              for name in public_names(tree) if name.split(".")[-1] not in read]
    assert unread == []
