"""No source that nothing in the package reaches.

Every function, method and class defined in src/bh (dunders aside) must be
referenced in the code of src/ outside its own body: as a name, an
attribute or an imported name.  Words in docstrings and comments do not
count, nor does a definition calling itself.  A name only tests use is an
oracle and belongs in the tests.

There is one solver policy: src/bh calls SuperLU's splu at one site.
There is one packed container: src/bh packs and unpacks arrays at one
site each.  Each artifact's version string ("BHTENS 1" and the like) is
spelled in formats.py only.

Every attribute assigned on self and every annotated class field in src/bh
must be read in src/: loaded as an attribute, or named by a string
constant (cli reads the cell arrays with getattr).  Every parameter default
must be overridden by some call in src/: a knob no caller turns is a
literal.  A string used as a
dict key is a value stored, not read.  Every key of a diagnostics= dict
literal must be named by a string constant in src/ outside such keys.  A
value stored and never read is a result computed and thrown away.
"""
import ast
import pathlib
import re
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _trees():
    return {path: ast.parse(path.read_text())
            for path in sorted((ROOT / "src").rglob("*.py"))}


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
    trees = _trees()
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


def _stored(tree):
    """(line, name) of the attributes assigned on self and of the annotated
    class fields in a syntax tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.AnnAssign)
                        and isinstance(item.target, ast.Name)):
                    yield item.lineno, item.target.id
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.ctx, ast.Store)
              and isinstance(node.value, ast.Name) and node.value.id == "self"):
            yield node.lineno, node.attr


def _strings(tree):
    """Counter of the string constants of a tree, dict keys aside."""
    keys = {id(key) for node in ast.walk(tree) if isinstance(node, ast.Dict)
            for key in node.keys}
    return Counter(node.value for node in ast.walk(tree)
                   if isinstance(node, ast.Constant)
                   and isinstance(node.value, str) and id(node) not in keys)


def _reads(tree):
    """Counter of the attribute loads and string constants of a tree."""
    reads = _strings(tree)
    reads.update(node.attr for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute)
                 and isinstance(node.ctx, ast.Load))
    return reads


def test_every_stored_attribute_is_read_outside_the_tests():
    trees = _trees()
    reads = sum((_reads(tree) for tree in trees.values()), Counter())
    unread = [f"{path.name}:{line} {name}"
              for path in sorted((ROOT / "src" / "bh").glob("*.py"))
              for line, name in _stored(trees[path]) if not reads[name]]
    assert not unread, unread


def _diagnostic_keys(tree):
    """(line, key) of the keys of the diagnostics= dict literals of a tree."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.keyword) and node.arg == "diagnostics"
                and isinstance(node.value, ast.Dict)):
            for key in node.value.keys:
                yield key.lineno, key.value


def test_every_diagnostic_is_read_outside_the_tests():
    trees = _trees()
    reads = sum((_strings(tree) for tree in trees.values()), Counter())
    unread = [f"{path.name}:{line} {key}"
              for path in sorted((ROOT / "src" / "bh").glob("*.py"))
              for line, key in _diagnostic_keys(trees[path])
              if not reads[key]]
    assert not unread, unread


def _defaults(tree):
    """(line, called name, parameter, position) of each parameter with a
    default in a tree: the called name of a method __init__ is its class,
    and position counts the arguments a call passes (None: keyword only)."""
    owner = {id(fn): cls.name for cls in ast.walk(tree)
             if isinstance(cls, ast.ClassDef) for fn in cls.body}
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        a, cls = fn.args, owner.get(id(fn))
        called = cls if fn.name == "__init__" else fn.name
        params = a.posonlyargs + a.args
        first = len(params) - len(a.defaults)
        for i, p in enumerate(params[first:], first):
            yield fn.lineno, called, p.arg, i - (cls is not None)
        for p, d in zip(a.kwonlyargs, a.kw_defaults):
            if d is not None:
                yield fn.lineno, called, p.arg, None


def _passes(call, param, position):
    """True when a call may pass param: by keyword, by **, at its position
    or through a * argument at or before it."""
    if any(kw.arg in (param, None) for kw in call.keywords):
        return True
    if position is None:
        return False
    return any(isinstance(arg, ast.Starred) or i >= position
               for i, arg in enumerate(call.args))


def test_every_parameter_default_is_overridden_in_src():
    trees = _trees()
    calls = [node for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, ast.Call)]
    unturned = [
        f"{path.name}:{line} {called}({param})"
        for path in sorted((ROOT / "src" / "bh").glob("*.py"))
        for line, called, param, position in _defaults(trees[path])
        if not (path.name == "cli.py" and called == "main")  # main(argv)
        and not any(_passes(call, param, position) for call in calls
                    if getattr(call.func, "attr", getattr(call.func, "id",
                                                          None)) == called)]
    assert not unturned, unturned


def _call_sites(name):
    """file:line of every call in src/ of a function or method name."""
    return [f"{path.name}:{node.lineno}"
            for path, tree in _trees().items() for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and getattr(node.func, "attr", getattr(node.func, "id", None))
            == name]


def test_one_splu_call_site():
    """Every direct factor is a fem.DirichletFactor, so that one call sets
    the ordering of all of them."""
    sites = _call_sites("splu")
    assert len(sites) == 1 and sites[0].startswith("fem.py:"), sites


def test_one_packed_container():
    """Every packed array is written by formats.write_arrays and read by
    formats.read_arrays, whichever archive holds it."""
    for name in ("_pack", "_unpack"):
        sites = _call_sites(name)
        assert len(sites) == 1 and sites[0].startswith("formats.py:"), sites


def test_version_strings_live_in_formats():
    """A module outside formats.py names a version through formats'
    constants, so that a version bump is one edit."""
    found = [f"{path.name}:{node.lineno} {node.value}"
             for path, tree in _trees().items() if path.name != "formats.py"
             for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and isinstance(node.value, str)
             and re.fullmatch(r"BH[A-Z]+ \d+", node.value)]
    assert not found, found
