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
