"""The field layout of the Weyl group's ids stays in ``weyl``.

``AffineWeyl`` keeps its tables and the packed layout of its ids (the key
``w + 2^wb T``, its masks and struct codecs) in private attributes.  A module
that reads one of them decodes that layout itself, and a change to the layout
breaks it unseen; it reads an id through ``AffineWeyl``'s accessors
(``trans``, ``fin_part``, ``lens``, ``nxt``) instead.  The check parses
``src/affinehecke/*.py``, collects the private attributes that ``AffineWeyl``
assigns on ``self``, and asserts that no other module reads one of them
through any object but its own ``self``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "affinehecke"


def weyl_private_attributes() -> set[str]:
    """The ``self._name`` attributes that ``AffineWeyl``'s methods assign."""
    tree = ast.parse((SRC / "weyl.py").read_text(encoding="utf-8"))
    cls = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "AffineWeyl")
    found = set()
    for node in ast.walk(cls):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for sub in ast.walk(target):
                if (
                    isinstance(sub, ast.Attribute)
                    and isinstance(sub.value, ast.Name)
                    and sub.value.id == "self"
                    and sub.attr.startswith("_")
                    and not sub.attr.startswith("__")
                ):
                    found.add(sub.attr)
    return found


def foreign_reads(private: set[str]) -> list[str]:
    """``module:line attribute`` for each read of one of ``private`` outside
    ``weyl.py`` through an object other than a bare ``self``."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "weyl.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Attribute)
                and node.attr in private
                and not (isinstance(node.value, ast.Name) and node.value.id == "self")
            ):
                out.append(f"{path.name}:{node.lineno} {node.attr}")
    return out


def test_the_collected_attributes_hold_the_packed_layout():
    assert {"_ids", "_keys", "_levels", "_wbits", "_wmask", "_tunpack", "_factor_cache"} <= (
        weyl_private_attributes()
    )


def test_no_other_module_reads_the_weyl_groups_private_attributes():
    assert foreign_reads(weyl_private_attributes()) == []


# The id is the group's only element form: the element class and its
# conversions live with the tests (``tests/principal_model.py``).
ELEMENT_FORM = {"AffineWeylElem", "gid", "elem"}


def identifiers(tree) -> list[tuple[int, str]]:
    """``(line, name)`` for every name a module defines, binds, reads or
    imports: defs, classes, arguments, bare names, attributes, keywords and
    import aliases."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append((node.lineno, node.name))
        elif isinstance(node, ast.arg):
            out.append((node.lineno, node.arg))
        elif isinstance(node, ast.Name):
            out.append((node.lineno, node.id))
        elif isinstance(node, ast.Attribute):
            out.append((node.lineno, node.attr))
        elif isinstance(node, ast.keyword) and node.arg:
            out.append((node.value.lineno, node.arg))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                out.extend((node.lineno, n) for n in (alias.name, alias.asname) if n)
    return out


def test_no_module_names_an_element_form_besides_the_id():
    found = [
        f"{path.name}:{line} {name}"
        for path in sorted(SRC.glob("*.py"))
        for line, name in identifiers(ast.parse(path.read_text(encoding="utf-8")))
        if name in ELEMENT_FORM
    ]
    assert found == []
