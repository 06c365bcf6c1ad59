"""Every name a module of the package imports is used in that module.

The package's __init__.py imports names only to re-export them, so it is
left out; so are __future__ imports, which change how a module compiles.
"""

import ast
import pathlib

import pytest

import qeclab

MODULES = sorted(path for path in pathlib.Path(qeclab.__file__).parent
                 .glob("*.py") if path.name != "__init__.py")


def imported_names(tree):
    """(name, line) of every name an import binds at any depth."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0],
                       node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_a_module_uses_every_name_it_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = ["%s (line %d)" % (name, line)
              for name, line in imported_names(tree) if name not in used]
    assert not unused, "%s imports names it never uses: %s" % (
        path.name, ", ".join(unused))
