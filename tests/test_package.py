"""The package's public namespace."""

import ast
import inspect

import matabound


def test_every_public_import_is_exported():
    tree = ast.parse(inspect.getsource(matabound))
    imported = {alias.asname or alias.name
                for node in tree.body if isinstance(node, ast.ImportFrom)
                for alias in node.names if not alias.name.startswith("_")}
    assert imported == set(matabound.__all__)
    namespace = {}
    exec("from matabound import *", namespace)
    assert imported <= namespace.keys()
