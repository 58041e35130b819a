"""The package namespace: what ``localrec/__init__.py`` imports, it exports."""

import ast
from pathlib import Path

import localrec


def test_every_public_import_is_exported():
    tree = ast.parse(Path(localrec.__file__).read_text())
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    public = {name for name in imported if not name.startswith("_")}
    assert public and public <= set(localrec.__all__), public - set(localrec.__all__)
    assert all(hasattr(localrec, name) for name in localrec.__all__)
