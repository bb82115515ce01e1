"""Every def in the package has a caller in the package, or a stated reason.

The check parses ``src/affinehecke/*.py`` and collects every non-dunder
function, method and class name, and every name read in the package.  A
method counts as read only through an attribute (``H.mul``); a module-level
function or class also through a bare name (``solve(...)``).  A def whose
name is read nowhere outside its own body must be in ``ALLOWED`` with its
reason, and an ``ALLOWED`` entry must still exist and still be unread.
``ALLOWED`` holds only the users outside the package; code that only tests
read lives with the tests (``tests/principal_model.py``).

The check is by name, not by binding: a method is counted as used when any
object's attribute of that name is read.  So an alias that shares its name
with a used def passes unseen; ``HeckeAlgebra.zero`` (``labels.zero()`` is
read) and ``LabelSet.const`` (``LaurentPoly.const`` was read) were found by
hand.  A local variable no longer hides a method of its name: the local
``orbit`` in ``LabelSet.__init__`` kept ``AffineWeyl.orbit`` alive under a
rule that counted bare names for methods too.  Imports do not count as reads,
so a package export alone keeps nothing alive.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "affinehecke"

# name -> why it stays although nothing in the package calls it
ALLOWED = {
    "exact_divide": "the division reference of criterion 01 and the ring tests, and a span "
    "of perfbench/tracer.py",
    "obj_to_poly": "perfbench/micro.py reads its coefficient fixture with it",
    "gen_step": "perfbench/tracer.py counts its calls",
    "length": "perfbench/tracer.py counts its calls",
    "datum_to_json": "the documented writer of datum files (README)",
    "theta_plus_cleared": "perfbench/tracer.py spans it",
}


def scan():
    """(defs, names, attrs): def name -> [(node, is_method)]; bare-name reads
    and attribute reads by name."""
    defs: dict[str, list[tuple[ast.AST, bool]]] = {}
    names: Counter = Counter()
    attrs: Counter = Counter()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        methods = {
            id(sub)
            for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)
            for sub in node.body
            if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defs.setdefault(node.name, []).append((node, id(node) in methods))
            elif isinstance(node, ast.Name):
                names[node.id] += 1
            elif isinstance(node, ast.Attribute):
                attrs[node.attr] += 1
    return defs, names, attrs


def read_elsewhere(name, nodes, names, attrs) -> bool:
    """Whether ``name`` is read outside the bodies of its own defs: through
    an attribute, or, unless every def of that name is a method, through a
    bare name."""
    subs = [sub for node, _method in nodes for sub in ast.walk(node)]
    own_attrs = sum(1 for sub in subs if isinstance(sub, ast.Attribute) and sub.attr == name)
    if attrs[name] > own_attrs:
        return True
    if all(method for _node, method in nodes):
        return False
    own_names = sum(1 for sub in subs if isinstance(sub, ast.Name) and sub.id == name)
    return names[name] > own_names


def test_every_def_is_read_or_allowed():
    defs, names, attrs = scan()
    unread = sorted(n for n, nodes in defs.items() if not read_elsewhere(n, nodes, names, attrs))
    assert [n for n in unread if n not in ALLOWED] == []


def test_allowed_names_exist_and_are_unread():
    defs, names, attrs = scan()
    assert [n for n in ALLOWED if n not in defs] == []
    assert [n for n in ALLOWED if read_elsewhere(n, defs[n], names, attrs)] == []
