"""Every def in the package has a caller in the package, or a stated reason.

The check parses ``src/affinehecke/*.py`` and collects every non-dunder
function, method and class name, and every name read in the package: a
bare name (``solve(...)``) or an attribute (``H.mul``).  A def whose name is
read nowhere outside its own body must be in ``ALLOWED`` with its reason,
and an ``ALLOWED`` entry must still exist and still be unread.

The check is by name, not by binding: a method is counted as used when any
object's attribute of that name is read.  So an alias that shares its name
with a used def passes unseen; ``HeckeAlgebra.zero`` (``labels.zero()`` is
read) and ``LabelSet.const`` (``LaurentPoly.const`` is read) were found by
hand.  Imports do not count as reads, so a package export alone keeps
nothing alive.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "affinehecke"

# name -> why it stays although nothing in the package calls it
ALLOWED = {
    # paper-level API run by the acceptance criteria
    "evaluate_split_sqrt": "criterion 04: trace values at v = sqrt(2), exactly",
    "radical_sign": "criterion 04: the sign of a + b sqrt(2)",
    "inner_plus": "criterion 09: plus-basis orthogonality",
    "inner_plus_target": "criterion 09: the predicted plus-basis pairing",
    "eisenstein_check": "criterion 10: the truncated series identity",
    "generating_check": "criterion 11: the numeric generating identity",
    # module identities, run by tests/test_principal.py
    "h0_product": "the intertwining-vector cocycle and the plus idempotent",
    "r0_vector": "the normalised intertwining vectors and their cocycle",
    "intertwiner_operator": "homogeneity of matrix elements under intertwiners",
    "matrix_element_shift": "the index-shift identity of matrix elements",
    "t0_plus_vector": "the plus idempotent fixed by the normalised intertwiners",
    "spherical": "the spherical functional against the distinguished element",
    "theta_plus": "the spherical functional on the spherical Bernstein element",
    "theta_plus_lines": "the three expressions of the spherical Bernstein element",
    # Bernstein-basis identities, run by tests/test_bernstein.py
    "embed": "the group algebra embeds as an algebra map",
    "center_element": "orbit sums are central",
    "reassemble": "the Bernstein expansion round trip",
    # outside users
    "obj_to_poly": "perfbench/micro.py reads its coefficient fixture with it",
    "gen_step": "perfbench/tracer.py counts its calls",
    "datum_to_json": "the documented writer of datum files (README)",
}


def scan():
    """(defs, reads): def name -> its nodes; name -> number of reads."""
    defs: dict[str, list[ast.AST]] = {}
    reads: Counter = Counter()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defs.setdefault(node.name, []).append(node)
            elif isinstance(node, ast.Name):
                reads[node.id] += 1
            elif isinstance(node, ast.Attribute):
                reads[node.attr] += 1
    return defs, reads


def read_elsewhere(name, nodes, reads) -> bool:
    """Whether ``name`` is read outside the bodies of its own defs."""
    own = sum(
        1
        for node in nodes
        for sub in ast.walk(node)
        if (isinstance(sub, ast.Name) and sub.id == name)
        or (isinstance(sub, ast.Attribute) and sub.attr == name)
    )
    return reads[name] > own


def test_every_def_is_read_or_allowed():
    defs, reads = scan()
    unread = sorted(n for n, nodes in defs.items() if not read_elsewhere(n, nodes, reads))
    assert [n for n in unread if n not in ALLOWED] == []


def test_allowed_names_exist_and_are_unread():
    defs, reads = scan()
    assert [n for n in ALLOWED if n not in defs] == []
    assert [n for n in ALLOWED if read_elsewhere(n, defs[n], reads)] == []
