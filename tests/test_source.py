"""Source hygiene of the package: no unused imports, no orphaned helpers,
no public name that no module reads (a re-export in __init__.py is not a
read)."""
import ast
from pathlib import Path

import pytest

import eubalance

PACKAGE = Path(eubalance.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _bindings(scope):
    """Names a function, lambda or comprehension binds for itself: its
    parameters or loop targets, and in a function every assignment, loop,
    with, except, walrus, import, def and class target. A ``global``
    declaration is not followed: that can only report a name that is
    read, never pass one that is not."""
    if isinstance(scope, _COMPREHENSIONS):
        return {node.id for gen in scope.generators
                for node in ast.walk(gen.target)
                if isinstance(node, ast.Name)}
    args = scope.args
    names = {arg.arg for arg in (*args.posonlyargs, *args.args,
                                 *args.kwonlyargs, args.vararg, args.kwarg)
             if arg is not None}
    stack = list(scope.body) if isinstance(scope.body, list) else [scope.body]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((alias.asname or alias.name).split(".")[0]
                         for alias in node.names)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)):
            names.add(node.name)
            continue
        elif isinstance(node, ast.Lambda):
            continue
        elif isinstance(node, _COMPREHENSIONS):
            # a walrus in a comprehension binds in the enclosing function
            names.update(sub.target.id for sub in ast.walk(node)
                         if isinstance(sub, ast.NamedExpr))
            continue
        stack.extend(ast.iter_child_nodes(node))
    return names


def _outside(scope):
    """The children of a scope that run in the enclosing scope."""
    if isinstance(scope, _COMPREHENSIONS):
        return [scope.generators[0].iter]
    args = scope.args
    out = [*args.defaults, *filter(None, args.kw_defaults)]
    if not isinstance(scope, ast.Lambda):
        out += scope.decorator_list
    return out


def _loads(node, local=frozenset()):
    """Each name loaded under node that no enclosing function, lambda or
    comprehension binds: a load of a local is not a read of the module's
    name."""
    if isinstance(node, ast.Name):
        if isinstance(node.ctx, ast.Load) and node.id not in local:
            yield node.id
        return
    if not isinstance(node, _FUNCTIONS + _COMPREHENSIONS):
        for child in ast.iter_child_nodes(node):
            yield from _loads(child, local)
        return
    for child in _outside(node):
        yield from _loads(child, local)
    # walking those children again inside only repeats names read outside
    inner = local | _bindings(node)
    for child in ast.iter_child_nodes(node):
        yield from _loads(child, inner)


def _names(tree):
    """Every identifier the tree reads, as a name, attribute or import."""
    out = set(_loads(tree))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx,
                                                          ast.Load):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def test_modules_found():
    assert {p.stem for p in MODULES} >= {"dataset", "stability", "expfit"}


def test_no_unused_import():
    unused = []
    for path in MODULES:
        tree = _tree(path)
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound = [(a.asname or a.name).split(".")[0]
                         for a in node.names]
            elif (isinstance(node, ast.ImportFrom)
                  and node.module != "__future__"):
                bound = [a.asname or a.name for a in node.names]
            else:
                continue
            unused += [f"{path.name}: {name}" for name in bound
                       if name not in read]
    assert unused == []


def test_no_orphaned_private_definition():
    trees = {path: _tree(path) for path in MODULES}
    named = set().union(*map(_names, trees.values()),
                        _names(_tree(PACKAGE / "__init__.py")))
    orphans = [f"{path.name}: {node.name}"
               for path, tree in trees.items() for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and node.name.startswith("_")
               and not node.name.startswith("__")
               and node.name not in named]
    assert orphans == []


def _top_level_names(tree):
    """Names a module defines at top level by def, class or assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                yield from (sub.id for sub in ast.walk(target)
                            if isinstance(sub, ast.Name))
        elif isinstance(node, ast.AnnAssign):
            yield node.target.id


# Public names that no module reads but that are kept, with the reason.
UNREAD_BUT_KEPT = {
    # reproduces the paper's published average rates
    # (tests/golden_values.py AVERAGE_RATES)
    "average_rate",
    # perfbench/spans.py wraps it by name; Recorder.install fails
    # without it
    "gap_eval",
    # perfbench/spans.py wraps it by name, and it is the tests' reference
    # for tables 2-4 (tests/test_reports.py TestTotalsTables)
    "region_total",
}


def _unread(trees):
    named = set().union(*map(_names, trees.values()))
    return [f"{path}: {name}" for path, tree in trees.items()
            for name in _top_level_names(tree)
            if not name.startswith("_") and name not in named
            and name not in UNREAD_BUT_KEPT]


def test_every_public_name_is_read():
    # __init__.py is left out: re-exporting a name is not a use of it
    trees = {path.name: _tree(path) for path in MODULES}
    assert _unread(trees) == []
    named = set().union(*map(_names, trees.values()))
    assert not UNREAD_BUT_KEPT & named  # a kept name that is read now


@pytest.mark.parametrize("body", (
    "def table(psb):\n    return psb",
    "def table(*, psb=1):\n    return psb",
    "def table(rows):\n    psb = rows\n    return psb",
    "def table(rows):\n    for psb in rows:\n        print(psb)",
    "def table(path):\n    with open(path) as psb:\n        return psb",
    "def table():\n    try:\n        pass\n"
    "    except ValueError as psb:\n        print(psb)",
    "def table(rows):\n    return [psb for r in rows if (psb := r)]",
    "def table(rows):\n    def inner():\n        return psb\n    psb = rows",
    "table = lambda psb: psb",
    "table = [psb for psb in range(3)]",
), ids=("parameter", "keyword", "assignment", "loop", "with", "except",
        "walrus", "closure", "lambda", "comprehension"))
def test_a_local_load_is_not_a_read(body):
    tree = ast.parse(f"def psb():\n    pass\n\n\n{body}\n")
    assert _unread({"synthetic.py": tree}) == ["synthetic.py: psb",
                                               "synthetic.py: table"]


@pytest.mark.parametrize("body", (
    "def table(rows):\n    return psb(rows)",
    "def table(rows, f=psb):\n    return f(rows)",
    "def table(psb=psb):\n    return psb",
    "table = [psb() for _ in range(3)]",
    "table = [x for x in psb()]",
    "table = [psb for psb in psb()]",
    "class Table:\n    psb = psb",
), ids=("call", "default", "default-shadowed", "comprehension-body",
        "comprehension-iter", "comprehension-shadowed-iter", "class-body"))
def test_a_module_load_is_a_read(body):
    tree = ast.parse(f"def psb():\n    pass\n\n\n{body}\n")
    assert "synthetic.py: psb" not in _unread({"synthetic.py": tree})
