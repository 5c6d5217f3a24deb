"""HVal's "root" and "bracket" kinds are built only by its constructors.

HVal.root turns a rational root sum into an exact cell, and HVal.bracket an
exact bracket, so a root or bracket cell is never zero and never exactly
rational: HVal.is_zero and HVal.exact_rational read only the exact and sqrt
kinds on that ground.  A direct HVal("root", ...) or HVal("bracket", ...)
anywhere else in the library could break it, and so could an HVal call whose
kind is not a literal.
"""

import ast
from pathlib import Path

LIBRARY = Path(__file__).resolve().parent.parent / "src" / "exactstar"
# the HVal static methods that may build the guarded kinds
CONSTRUCTORS = {"root", "bracket", "infinite"}
FREE_KINDS = {"exact", "sqrt"}


def _kind(call: ast.Call):
    """The literal kind of an HVal(...) call, or None when it is not one."""
    given = call.args[:1] + [k.value for k in call.keywords if k.arg == "kind"]
    if len(given) == 1 and isinstance(given[0], ast.Constant):
        return given[0].value
    return None


def _is_hval(func) -> bool:
    return (isinstance(func, ast.Name) and func.id == "HVal") or (
        isinstance(func, ast.Attribute) and func.attr == "HVal")


def stray_constructions(sources: dict) -> list:
    """(file, line) of each HVal(...) call outside HVal's constructors whose
    kind is not a literal "exact" or "sqrt", for sources {file: text}."""
    out = []
    for name, text in sources.items():
        tree = ast.parse(text)
        inside = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name == "HVal":
                for member in node.body:
                    if isinstance(member, ast.FunctionDef) and member.name in CONSTRUCTORS:
                        inside.update(id(n) for n in ast.walk(member))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and _is_hval(node.func) and id(node) not in inside
                    and _kind(node) not in FREE_KINDS):
                out.append((name, node.lineno))
    return sorted(out)


def test_root_and_bracket_cells_come_only_from_their_constructors():
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(LIBRARY.glob("*.py"))}
    assert stray_constructions(sources) == []


def test_the_check_sees_each_stray_construction():
    source = (
        "class HVal:\n"
        "    def __init__(self, kind, q=None, rs=None, br=None):\n"
        "        self.kind = kind\n\n"
        "    @staticmethod\n"
        "    def root(rs):\n"
        "        return HVal('root', rs=rs)\n\n"
        "    def squared(self):\n"
        "        return HVal('bracket', br=self.br)\n\n"
        "def exact(q):\n"
        "    return HVal('exact', q=q)\n\n"
        "def widen(x, kind):\n"
        "    return seminorms.HVal(kind=kind, br=x), HVal(kind='root', rs=x), HVal('sqrt', sq=x)\n"
    )
    assert stray_constructions({"m.py": source}) == [("m.py", 10), ("m.py", 16), ("m.py", 16)]
