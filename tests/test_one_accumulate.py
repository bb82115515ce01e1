"""Every add that can cancel goes through ``coeffring.accumulate``.

A sum of coefficients that cancels must drop its key, so that a term dict
holds no zero coefficient.  That add is written once, in ``accumulate``; a
fold or a sum that deletes a dict entry itself is a second copy of it.  The
check parses ``src/affinehecke/*.py`` and collects the functions that delete
a dict entry, by ``del d[k]`` or by ``d.pop(k, default)``, and compares them
with ``ALLOWED``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "affinehecke"

# qualified function name -> why it deletes an entry itself
ALLOWED = {
    "accumulate": "the one add with cancellation",
    "LaurentPoly.__add__": "the ring that accumulate calls: a coefficient's own terms",
    "LaurentPoly.__sub__": "the ring that accumulate calls: a coefficient's own terms",
    "LaurentPoly.__mul__": "the ring that accumulate calls: a coefficient's own terms",
    "AffineWeyl.fill": "takes back the id of an element refused past the length bound; "
    "no coefficient is added",
}


def deleting_functions():
    """The qualified names of the functions whose own body deletes a dict
    entry."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            deletes = isinstance(child, ast.Delete) and any(
                isinstance(t, ast.Subscript) for t in child.targets
            )
            pops = (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and child.func.attr == "pop"
                and len(child.args) == 2
            )
            if deletes or pops:
                found.add(".".join(scope))
            visit(child, scope)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), ())
    return found


def test_only_accumulate_and_the_ring_delete_dict_entries():
    assert deleting_functions() == set(ALLOWED)
