"""Every public top-level function and class in src/mvslab is read by the
package itself: no public name exists only for the tests."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).parent.parent / "src" / "mvslab"


def test_every_public_definition_is_used_inside_the_package():
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    used = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))}
    public = [f"{module}.{node.name}" for module, tree in trees.items()
              for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_")]
    assert [name for name in public if name.split(".")[1] not in used] == []
