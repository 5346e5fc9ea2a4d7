"""Every name a module of the package imports is used in that module."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "beauville_lab"


def unused_imports(source: str):
    """The names source imports but never reads, with their lines."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_detector_finds_unused_names():
    source = ("from __future__ import annotations\n"
              "import os, json\nfrom a.b import c as d, e\n"
              "print(os.sep, e)\n")
    assert unused_imports(source) == [(2, "json"), (3, "d")]


def test_no_unused_imports_in_the_package():
    # __init__.py imports names to re-export them
    found = {path.name: unused_imports(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"}
    assert {name: names for name, names in found.items() if names} == {}
