"""Source hygiene of the package: no unused imports, no orphaned helpers,
no public name that no module reads (a re-export in __init__.py is not a
read)."""
import ast
from pathlib import Path

import eubalance

PACKAGE = Path(eubalance.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _names(tree):
    """Every identifier the tree reads, as a name, attribute or import."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx,
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
}


def test_every_public_name_is_read():
    # __init__.py is left out: re-exporting a name is not a use of it
    trees = {path: _tree(path) for path in MODULES}
    named = set().union(*map(_names, trees.values()))
    unread = [f"{path.name}: {name}"
              for path, tree in trees.items()
              for name in _top_level_names(tree)
              if not name.startswith("_") and name not in named
              and name not in UNREAD_BUT_KEPT]
    assert unread == []
    assert not UNREAD_BUT_KEPT & named  # a kept name that is read now
