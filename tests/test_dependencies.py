"""The dependencies that pyproject.toml declares must be importable here,
so the package can be installed and run without fetching anything."""

import importlib.util
import re
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib", reason="tomllib is new in Python 3.11")

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def _distribution_name(requirement):
    """The name part of a PEP 508 requirement, before any extras, version
    specifier or marker."""
    return re.match(r"[A-Za-z0-9._-]+", requirement.strip()).group(0)


def test_declared_dependencies_are_importable():
    with PYPROJECT.open("rb") as handle:
        project = tomllib.load(handle)["project"]
    missing = [
        requirement for requirement in project.get("dependencies", [])
        if importlib.util.find_spec(
            _distribution_name(requirement).replace("-", "_")
        ) is None
    ]
    assert missing == []
