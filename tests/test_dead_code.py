"""No source that nothing in the package or its scripts reaches.

Every function, method and class defined in src/bh (dunders aside) must
occur as a word in src/ or scripts/ somewhere other than its own
definition line.  A name only tests use is an oracle and belongs in the
tests.
"""
import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_every_definition_is_used_outside_the_tests():
    lines = [(path, i, line)
             for sub in ("src", "scripts")
             for path in sorted((ROOT / sub).rglob("*.py"))
             for i, line in enumerate(path.read_text().splitlines(), 1)]
    unused = []
    for path in sorted((ROOT / "src" / "bh").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            word = re.compile(rf"\b{re.escape(name)}\b")
            if not any(word.search(line) for p, i, line in lines
                       if (p, i) != (path, node.lineno)):
                unused.append(f"{path.name}:{node.lineno} {name}")
    assert not unused, unused
