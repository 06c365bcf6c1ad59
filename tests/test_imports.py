"""Every name a module of the package imports is used in that module,
every name the package exports is used by the package, a demo or the
benchmark, not by the tests alone, and every module-level private function
or class is used by the package outside its own body.

The package's __init__.py imports names only to re-export them, so it is
left out of the first check; so are __future__ imports, which change how a
module compiles.
"""

import ast
import collections
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


def exported_names():
    tree = ast.parse(pathlib.Path(qeclab.__file__).read_text())
    return [alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names]


def names_used_outside_tests():
    """Every name a module of the package other than __init__.py, a demo or
    the benchmark loads, as a name or an attribute, and every string
    constant there, which counts the names the benchmark probes by string."""
    root = pathlib.Path(__file__).resolve().parent.parent
    paths = (MODULES + sorted(root.glob("demos/*.py"))
             + sorted(root.glob("bench/*.py")))
    used = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Load)):
                used.add(node.attr)
            elif (isinstance(node, ast.Constant)
                  and isinstance(node.value, str)):
                used.add(node.value)
    return used


def test_every_exported_name_is_used_outside_the_tests():
    used = names_used_outside_tests()
    unused = [name for name in exported_names() if name not in used]
    assert not unused, ("qeclab exports names that only tests use: %s"
                        % ", ".join(unused))


def loaded_names(node):
    """Every name node loads at any depth, as a name or an attribute."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            yield sub.id
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            yield sub.attr


def test_every_private_function_or_class_is_used_in_the_package():
    paths = sorted(pathlib.Path(qeclab.__file__).parent.glob("*.py"))
    trees = [ast.parse(path.read_text(), filename=str(path))
             for path in paths]
    loads = collections.Counter(name for tree in trees
                                for name in loaded_names(tree))
    unused = ["%s.%s" % (path.stem, node.name)
              for path, tree in zip(paths, trees) for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and node.name.startswith("_")
              and not node.name.startswith("__")
              # loads inside its own body (recursion) do not count
              and loads[node.name] == sum(
                  name == node.name for name in loaded_names(node))]
    assert not unused, ("private functions or classes the package never "
                        "uses: %s" % ", ".join(unused))


@pytest.mark.parametrize("path", [path for path in MODULES
                                  if path.name != "rng.py"],
                         ids=lambda path: path.name)
def test_only_the_rng_module_touches_a_bit_generator(path):
    # rng.TrialStreams.resume re-keys the shared generator at the start of
    # a trial's stream; no other module reads or sets generator state
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)
             and node.attr == "bit_generator"]
    assert not lines, "%s names bit_generator at lines %s" % (path.name,
                                                              lines)
