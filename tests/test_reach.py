"""Test-only code stays out of the library.

Every public top-level definition in src/exactstar must be named by other
code in the package or in the benchmark harness (perfbench/), or be listed
in KEPT_API with the reason it stays.  A predicate or reference route that
only tests call belongs beside them: in the test module, in tests/laws.py
when several modules share it, or in tests/oracles.py for a second route.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = ROOT / "src" / "exactstar"
CALLERS = (LIBRARY, ROOT / "perfbench")

# (module.name, why it stays although only tests call it)
KEPT_API = (
    ("cone.eval_pair", "two-point extension of cone evaluation, sesquilinear in (u, v)"),
    ("cone.ideal_level_dimension", "exact dimension of the y = 1 ideal up to a level"),
    ("cone.disk_lift", "the cone lift of a disk element, inverse of disk_reduce on classes"),
    ("gns.inner_weight", "the vacuum pairing's weight at one index"),
    ("su1n.lie_element_violations", "membership test of su(1, n), as group_element_violations is of SU(1, n)"),
    ("su1n.pullback_matrix", "the pullback of U on one level slice, as a matrix"),
    ("su1n.infinitesimal_pullback", "first-order pullback along a generator, as a matrix"),
    ("su1n.pullback_entry_bound_holds", "entry bound that a continuity-of-action suite starts from"),
)


def _names(node) -> set:
    """Every identifier a statement names: variables, attributes, imports,
    and string constants that are identifiers (patch targets, __all__)."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name.rsplit(".", 1)[-1])
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) and sub.value.isidentifier():
            out.add(sub.value)
    return out


def _defined(stmt) -> list:
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
    return [t.id for t in targets if isinstance(t, ast.Name)]


def test_every_public_definition_is_reached_or_kept():
    statements = [(path, stmt) for folder in CALLERS for path in sorted(folder.glob("*.py"))
                  for stmt in ast.parse(path.read_text(encoding="utf-8")).body]
    named = [(stmt, _names(stmt)) for _, stmt in statements]
    public = {f"{path.stem}.{name}": stmt for path, stmt in statements if path.parent == LIBRARY
              for name in _defined(stmt) if not name.startswith("_")}
    unreached = {key for key, stmt in public.items()
                 if not any(key.split(".")[1] in names for other, names in named if other is not stmt)}
    kept = {key for key, _ in KEPT_API}
    assert not unreached - kept, (
        f"only tests reach {sorted(unreached - kept)}: move them beside their tests, "
        "or add them to KEPT_API with a reason")
    assert not kept - unreached, f"KEPT_API entries no longer needed: {sorted(kept - unreached)}"
