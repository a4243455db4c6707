"""No module of the package reaches into another module's private names.

An underscore name belongs to the module that defines it: importing one
(``from .model import _rows``), or reading one off a module bound by
``from . import sweep`` (``sweep._track``), couples two modules through
something neither exports.  Dunder names (``__version__``) are public.
"""

import ast
import re
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


#: A cross-reference in a docstring; the group is its target, without a
#: leading ``~`` or trailing ``()``.
_REFERENCE = re.compile(
    r":(?:func|meth|class|attr|data|mod):`~?([\w.]+?)(?:\(\))?`"
)


def _bound_names(tree):
    """Every name a module binds at top level: definitions, assignments
    and imports."""
    names = {name for name, _ in _definitions(tree)}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((alias.asname or alias.name).split(".")[0]
                         for alias in node.names)
    return names


def _members(cls):
    """The methods, ``__slots__`` entries and annotated fields (a
    dataclass's) of a class definition."""
    members = set()
    for node in cls.body:
        if isinstance(node, ast.FunctionDef):
            members.add(node.name)
        elif (isinstance(node, ast.AnnAssign)
              and isinstance(node.target, ast.Name)):
            members.add(node.target.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(target, ast.Name)
                      and target.id == "__slots__"
                      for target in node.targets)):
            members.update(ast.literal_eval(node.value))
    return members


def _docstrings(tree):
    """``(enclosing class or None, docstring)`` for the module's docstring
    and every class's and function's."""
    stack = [(tree, None)]
    while stack:
        node, cls = stack.pop()
        if isinstance(node, ast.ClassDef):
            cls = node
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
            doc = ast.get_docstring(node, clean=False)
            if doc:
                yield cls, doc
        stack.extend((child, cls) for child in ast.iter_child_nodes(node))


def docstring_references(modules):
    """``(module, target, resolved)`` for every ``:func:``, ``:meth:``,
    ``:class:``, ``:attr:``, ``:data:`` and ``:mod:`` reference in the
    docstrings of the package modules (a dict of name to source).

    A target resolves when it names a top-level binding of its own module,
    a method, ``__slots__`` entry or annotated field of the class whose
    docstring (or method's docstring) holds it, ``Class.member`` of its own
    module, or, as ``ornaments.module`` followed by any of those but the
    enclosing class's members, a package module or a name in one."""
    trees = {name: ast.parse(source) for name, source in modules.items()}
    bound = {name: _bound_names(tree) for name, tree in trees.items()}
    classes = {
        name: {node.name: _members(node) for node in tree.body
               if isinstance(node, ast.ClassDef)}
        for name, tree in trees.items()
    }

    def resolves(module, parts, cls):
        if parts[0] == "ornaments":
            if len(parts) == 1 or parts[1] not in trees:
                return False
            if len(parts) == 2:
                return True
            module, parts, cls = parts[1], parts[2:], None
        if len(parts) == 1:
            return parts[0] in bound[module] or (
                cls is not None and parts[0] in _members(cls))
        return len(parts) == 2 and parts[1] in classes[module].get(parts[0],
                                                                   ())

    found = []
    for module, tree in trees.items():
        for cls, doc in _docstrings(tree):
            for target in _REFERENCE.findall(doc):
                found.append((module, target,
                              resolves(module, target.split("."), cls)))
    return found


def test_the_reference_guard_resolves_each_form():
    modules = {
        "a": ('"""See :func:`helper`, :mod:`ornaments.b` and\n'
              ':func:`~ornaments.b.gone`."""\n'
              "from .b import used\n"
              "def helper():\n    '''Calls :func:`used` and :func:`_old`.'''\n"
              "class Box:\n"
              "    '''Holds :attr:`size`; see :meth:`Box.grow` and\n"
              "    :meth:`shrink`.'''\n"
              "    __slots__ = ('size',)\n"
              "    def grow(self):\n"
              "        '''Grows :attr:`size`, unlike :func:`~ornaments.a.Box.grow`\n"
              "        and :class:`ornaments.c`.'''\n"
              "@dataclass(frozen=True)\n"
              "class Pair:\n"
              "    '''Holds :attr:`left` and :attr:`right`, not\n"
              "    :attr:`middle`; see :attr:`Pair.left`.'''\n"
              "    left: int\n"
              "    right: int = 0\n"
              "    middle = 1\n"),
        "b": "def used():\n    '''Like :func:`ornaments.a.helper()`.'''\n",
    }
    assert sorted(docstring_references(modules)) == [
        ("a", "Box.grow", True),
        ("a", "Pair.left", True),
        ("a", "_old", False),
        ("a", "helper", True),
        ("a", "left", True),
        ("a", "middle", False),
        ("a", "ornaments.a.Box.grow", True),
        ("a", "ornaments.b", True),
        ("a", "ornaments.b.gone", False),
        ("a", "ornaments.c", False),
        ("a", "right", True),
        ("a", "shrink", False),
        ("a", "size", True),
        ("a", "size", True),
        ("a", "used", True),
        ("b", "ornaments.a.helper", True),
    ]


def test_every_docstring_reference_resolves():
    """A docstring cross-reference names something the package defines:
    a refactor that deletes or renames a helper also mends the docstrings
    that still name it."""
    modules = {path.stem: path.read_text()
               for path in sorted(PACKAGE.glob("*.py"))}
    references = docstring_references(modules)
    assert len(references) >= 80
    assert [(module, target) for module, target, resolved in references
            if not resolved] == []
