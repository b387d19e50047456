"""The package's public surface is the code the package itself runs."""

import ast
import pathlib
from collections import Counter

import mskglass

SRC = pathlib.Path(mskglass.__file__).parent


def _uses(tree) -> Counter:
    """How often each name is loaded or read as an attribute under `tree`;
    imports and docstrings hold no such node."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute)))


def test_every_public_definition_is_used_by_the_package():
    """A public top-level function or class that no code in src/mskglass
    outside its own body calls, subclasses, annotates with or otherwise
    names exists only for tests: the API is what the package runs."""
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    uses = sum((_uses(tree) for tree in trees.values()), Counter())
    unused = [f"{name}: {node.name}" for name, tree in trees.items() for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
              and uses[node.name] == _uses(node)[node.name]]
    assert not unused, f"public definitions no package code uses: {unused}"
