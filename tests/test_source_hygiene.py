"""Source hygiene of the package, checked with the standard library's
``ast`` (no linter is needed): every name a module or test file imports is
used there, every parameter of a package function is read, the package
imports nothing outside the standard library, every name
``hiershare.__all__`` exports exists, every public function and method is
read somewhere in the package, only ``config`` reads an adversary's
strategy, and only ``algebra`` draws other than by ``getrandbits``.
"""

import ast
import random
import sys
from collections import Counter
from pathlib import Path

import pytest
from test_tracer_names import traced_table

import hiershare

PACKAGE = Path(hiershare.__file__).resolve().parent
MODULES = sorted(PACKAGE.glob("*.py"))
TEST_FILES = sorted(Path(__file__).resolve().parent.glob("*.py"))


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Name bound by each import in the module -> its line."""
    bound: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def used_names(tree: ast.Module) -> set[str]:
    """Names the module reads, including those inside string annotations
    and the strings listed in ``__all__``."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for annotation in filter(None, annotations):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                parsed = ast.parse(node.value, mode="eval")
                used |= {n.id for n in ast.walk(parsed) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return used


@pytest.mark.parametrize("path", MODULES + TEST_FILES, ids=lambda path: path.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = used_names(tree)
    unused = sorted(
        f"{name} (line {line})"
        for name, line in imported_names(tree).items()
        if name not in used
    )
    assert unused == []


def absolute_imports(tree: ast.Module) -> dict[str, int]:
    """Top-level package of each absolute import in the module -> its line."""
    found: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                found[alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found[node.module.split(".")[0]] = node.lineno
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_imports_only_the_standard_library(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    foreign = sorted(
        f"{name} (line {line})"
        for name, line in absolute_imports(tree).items()
        if name != "__future__" and name not in sys.stdlib_module_names
    )
    assert foreign == []


def test_all_entries_resolve():
    missing = [name for name in hiershare.__all__ if not hasattr(hiershare, name)]
    assert missing == []


def test_every_error_class_is_raised():
    """Each ``HierShareError`` subclass the package defines is constructed
    (called, or raised by name) somewhere in the package; a class nothing
    raises guards a state the code can no longer reach."""
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in MODULES]
    classes = [
        node for tree in trees for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
    ]
    errors = {"HierShareError"}
    grown = True
    while grown:
        found = {
            cls.name for cls in classes
            if any(isinstance(base, ast.Name) and base.id in errors for base in cls.bases)
        }
        grown = not found <= errors
        errors |= found
    constructed = set()
    for tree in trees:
        for node in ast.walk(tree):
            target = node.func if isinstance(node, ast.Call) else None
            if isinstance(node, ast.Raise):
                target = node.exc
            if isinstance(target, ast.Name):
                constructed.add(target.id)
            elif isinstance(target, ast.Attribute):
                constructed.add(target.attr)
    assert sorted(errors - {"HierShareError"} - constructed) == []


def public_definitions(tree: ast.Module):
    """Each public top-level function and public method of a public class,
    as (qualified name, its node)."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, functions) and not node.name.startswith("_"):
            yield node.name, node
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if isinstance(item, functions) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item


def name_reads(node: ast.AST) -> Counter:
    """How often each name is read under ``node``, as a plain name or as an
    attribute; a string that spells a name does not count."""
    return Counter(
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, (ast.Name, ast.Attribute)) and isinstance(sub.ctx, ast.Load)
    )


# ``expand_tree`` documents the scenario numbering and is kept on purpose.
KEPT_UNREAD = {"hiershare.config.expand_tree"}


def test_every_public_function_is_read():
    """Every public function and method is read in the package outside its
    own definition. The names perfbench's tracer wraps are exempt: the
    tracer reads them by name."""
    trees = {f"hiershare.{path.stem}": ast.parse(path.read_text(encoding="utf-8")) for path in MODULES}
    reads = sum((name_reads(tree) for tree in trees.values()), Counter())
    traced = {f"{module}.{path}" for module, path in traced_table().values()}
    unread = [
        f"{module}.{qualname}"
        for module, tree in trees.items()
        for qualname, node in public_definitions(tree)
        if reads[node.name] == name_reads(node)[node.name]
    ]
    assert sorted(set(unread) - traced - KEPT_UNREAD) == []


def unread_parameters(tree: ast.Module) -> list[str]:
    """Parameters that their function's body never reads, as
    ``name.parameter (line n)``; ``self``, ``cls`` and ``_``-prefixed names
    are exempt. A read inside a nested function or lambda counts."""
    unread = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = args.posonlyargs + args.args + args.kwonlyargs
        params += [arg for arg in (args.vararg, args.kwarg) if arg is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {
            name.id for stmt in body for name in ast.walk(stmt)
            if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Load)
        }
        label = getattr(node, "name", "<lambda>")
        unread += [
            f"{label}.{param.arg} (line {node.lineno})" for param in params
            if param.arg not in ("self", "cls") and not param.arg.startswith("_")
            and param.arg not in read
        ]
    return unread


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_unread_parameters(path):
    assert unread_parameters(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_only_config_reads_the_strategy():
    """``config.adversary_plan`` turns every strategy into a per-epoch plan;
    another module that reads a ``strategy`` attribute would be a second
    adversary path."""
    readers = [
        f"{path.name} (line {node.lineno})"
        for path in MODULES if path.name != "config.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr == "strategy"
    ]
    assert readers == []


# ``random.Random`` methods that draw or reseed: all its public ones but
# ``getrandbits`` and the two that save and restore its state.
DRAWING_METHODS = {
    name for name in dir(random.Random)
    if not name.startswith("_") and callable(getattr(random.Random, name))
} - {"getrandbits", "getstate", "setstate"}


def test_only_algebra_draws_other_than_getrandbits():
    """Every bounded draw goes through ``algebra.randbelow`` (or its loop,
    inlined in ``algebra``), which makes the same draws as ``randrange``
    from ``getrandbits`` alone; a call to another ``random.Random`` method
    elsewhere would be a second way to draw."""
    callers = [
        f"{path.name} (line {node.lineno}): {node.func.attr}"
        for path in MODULES if path.name != "algebra.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr in DRAWING_METHODS
    ]
    assert callers == []
