"""No source that nothing in the package or its scripts reaches.

Every function, method and class defined in src/bh (dunders aside) must be
referenced in the code of src/ or scripts/ outside its own body: as a name,
an attribute or an imported name.  Words in docstrings and comments do not
count, nor does a definition calling itself.  A name only tests use is an
oracle and belongs in the tests.
"""
import ast
import pathlib
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _references(tree):
    """Counter of the names a syntax tree refers to."""
    refs = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs[node.id] += 1
        elif isinstance(node, ast.Attribute):
            refs[node.attr] += 1
        elif isinstance(node, ast.alias):
            refs[node.name.split(".")[-1]] += 1
    return refs


def test_every_definition_is_used_outside_the_tests():
    trees = {path: ast.parse(path.read_text())
             for sub in ("src", "scripts")
             for path in sorted((ROOT / sub).rglob("*.py"))}
    refs = sum((_references(tree) for tree in trees.values()), Counter())
    unused = []
    for path in sorted((ROOT / "src" / "bh").glob("*.py")):
        for node in ast.walk(trees[path]):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if refs[name] - _references(node)[name] <= 0:
                unused.append(f"{path.name}:{node.lineno} {name}")
    assert not unused, unused
