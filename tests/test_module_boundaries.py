"""No module of the package reaches into another module's private names.

An underscore name belongs to the module that defines it: importing one
(``from .model import _rows``), or reading one off a module bound by
``from . import sweep`` (``sweep._track``), couples two modules through
something neither exports.  Dunder names (``__version__``) are public.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ornaments"


def _private(name):
    return name.startswith("_") and not (
        name.startswith("__") and name.endswith("__")
    )


def private_uses(source, filename="<source>"):
    """``(line, name)`` for every private name that ``source`` imports
    from another module or reads off a module it imported."""
    tree = ast.parse(source, filename=filename)
    modules = set()
    uses = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update((alias.asname or alias.name).split(".")[0]
                           for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if _private(alias.name):
                    uses.append((node.lineno, alias.name))
                elif node.module is None:
                    modules.add(alias.asname or alias.name)  # from . import x
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and _private(node.attr)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            uses.append((node.lineno, f"{node.value.id}.{node.attr}"))
    return sorted(uses)


def test_the_guard_sees_both_forms():
    source = (
        "from . import sweep\n"
        "from .model import (Ornament,\n    _rows)\n"
        "import os.path\n"
        "from .geometry import __all__\n"
        "x = sweep._track(self._cache, os._exit, sweep.detect)\n"
    )
    assert private_uses(source) == [(2, "_rows"), (6, "os._exit"),
                                    (6, "sweep._track")]


def test_no_module_uses_another_modules_private_names():
    offenders = {
        path.name: uses
        for path in sorted(PACKAGE.glob("*.py"))
        if (uses := private_uses(path.read_text(), str(path)))
    }
    assert offenders == {}


PERFBENCH = PACKAGE.parent.parent / "perfbench"


def _definitions(tree):
    """``(name, node)`` for every public name a module binds at top level
    by ``def``, ``class`` or assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    yield target.id, node


def _reads(tree, skip=None):
    """Every name ``tree`` reads, outside the subtree ``skip``: loaded
    names, attributes and imported names.  A docstring is a string, so a
    mention there is no read."""
    names = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        stack.extend(ast.iter_child_nodes(node))
    return names


def unread_public_names(modules, clients):
    """``module.name`` for every public top-level name of the package
    modules (a dict of name to source, ``__init__`` left out) that no code
    reads: not another module, not a client (source text), and not its own
    module outside the name's own definition."""
    trees = {name: ast.parse(source) for name, source in modules.items()}
    outside = set()
    for source in clients:
        outside |= _reads(ast.parse(source))
    unread = []
    for name, tree in trees.items():
        others = outside.union(*(_reads(t) for n, t in trees.items()
                                 if n != name))
        for public, node in _definitions(tree):
            if (not _private(public) and public not in others
                    and public not in _reads(tree, skip=node)):
                unread.append(f"{name}.{public}")
    return sorted(unread)


def test_the_read_guard_ignores_reexports_docstrings_and_self_reference():
    modules = {
        "a": ('"""helper is a helper."""\n'
              "LIMIT = 2\n"
              "def helper(x):\n    return helper(x - 1) if x else LIMIT\n"
              "def used():\n    pass\n"
              "def _private():\n    pass\n"),
        "b": "from .a import used\n",
    }
    clients = ["from ornaments.a import helper as h\n"]
    assert unread_public_names(modules, clients) == []
    assert unread_public_names(modules, []) == ["a.helper"]
    modules["b"] = "def reads():\n    '''See used.'''\n"
    assert unread_public_names(modules, []) == ["a.helper", "a.used",
                                                "b.reads"]


def test_every_public_name_is_read_outside_the_tests():
    """Code that only the tests use belongs in ``tests/``: every public
    top-level name of ``src/ornaments`` is read by the package, outside its
    own definition, or by ``perfbench/``.  The re-exports of
    ``__init__.py`` are no read."""
    modules = {
        path.stem: path.read_text()
        for path in sorted(PACKAGE.glob("*.py")) if path.stem != "__init__"
    }
    clients = [path.read_text() for path in sorted(PERFBENCH.glob("*.py"))]
    assert unread_public_names(modules, clients) == []
