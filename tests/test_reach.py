"""Test-only code stays out of the library.

Every public top-level definition in src/exactstar, and every public member
of its classes (a method, a class-level binding or a dataclass field), must
be reached by code in the package or in the benchmark harness (perfbench/),
or be listed in KEPT_API with the reason it stays.  A predicate or
reference route that only tests call belongs beside them: in the test
module, in tests/laws.py when several modules share it, or in
tests/oracles.py for a second route.

What counts as reaching a definition:
  - a top-level M.X is matched by module: a use counts in M itself, in a file
    that imports X from M, or in a file that imports M and reads M.X or names
    the string "X" beside M, as getattr(M, "X") and perfbench's patch list
    entries (M, "X", span) do;
  - a member C.m is reached by an attribute read x.m or the string "m";
  - a use inside a public definition counts only once that definition is
    reached itself (or kept), and never inside the definition it names.
A perfbench file that imports nothing from exactstar reaches nothing.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = ROOT / "src" / "exactstar"
BENCH = ROOT / "perfbench"

# (module.name or module.Class.member, why it stays although only tests call it)
KEPT_API = (
    ("cone.ideal_level_dimension", "exact dimension of the y = 1 ideal up to a level"),
    ("gns.inner_weight", "the vacuum pairing's weight at one index"),
    ("su1n.lie_element_violations", "membership test of su(1, n), as group_element_violations is of SU(1, n)"),
    ("su1n.pullback_matrix", "the pullback of U on one level slice, as a matrix"),
    ("su1n.infinitesimal_pullback", "first-order pullback along a generator, as a matrix"),
    ("su1n.pullback_entry_bound_holds", "entry bound that a continuity-of-action suite starts from"),
    ("algebra.BaseModel.involution", "the *-involution of each model's algebra"),
    ("models.GroupModel.character", "evaluation of a group element at a character (README)"),
)


def _defined(stmt) -> list:
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
    return [t.id for t in targets if isinstance(t, ast.Name)]


def _public(name: str) -> bool:
    return not name.startswith("_")


def _contexts(module: str, tree):
    """(context, node) pairs covering a library module.  The context is the
    key of the public definition whose body holds the node, which runs only
    once that definition is reached; None for code that runs on import."""
    for stmt in tree.body:
        names = [name for name in _defined(stmt) if _public(name)]
        key = f"{module}.{names[0]}" if len(names) == 1 else None
        if key and isinstance(stmt, ast.ClassDef):
            for part in stmt.bases + stmt.keywords + stmt.decorator_list:
                yield key, part
            for sub in stmt.body:
                members = [name for name in _defined(sub) if _public(name)]
                yield (f"{key}.{members[0]}" if len(members) == 1 else key), sub
        else:
            yield key, stmt


def _source(node) -> str | None:
    """The exactstar module an ImportFrom reads ("__init__" for the package
    itself), or None outside the package."""
    parts = [p for p in (node.module or "").split(".") if p]
    if node.level:
        parts = ["exactstar"] + parts
    if parts[:1] != ["exactstar"]:
        return None
    return parts[1] if len(parts) > 1 else "__init__"


def _imports(tree, library: set) -> tuple[dict, dict, bool]:
    """({name: modules it is imported from}, {local name: module}, whether
    anything comes from exactstar) for one file."""
    names: dict = {}
    modules: dict = {}
    package = False
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            package |= any(alias.name.split(".")[0] == "exactstar" for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and (source := _source(node)):
            package = True
            for alias in node.names:
                if source == "__init__" and alias.name in library:
                    modules[alias.asname or alias.name] = alias.name
                else:
                    names.setdefault(alias.name, set()).add(source)
    return names, modules, package


def reach(library: dict, bench: dict, kept=()) -> tuple[set, set]:
    """(public, reached) for library sources {module: text} and benchmark
    sources {file name: text}: the keys module.name and module.Class.method
    of the public definitions, and those that the code reaches."""
    trees = {module: ast.parse(text) for module, text in library.items()}
    files = [(module, tree, list(_contexts(module, tree))) for module, tree in trees.items()]
    for name, text in bench.items():
        tree = ast.parse(text)
        files.append((None, tree, [(None, tree)]))
    top = {f"{module}.{name}" for module, tree in trees.items() for stmt in tree.body
           for name in _defined(stmt) if _public(name)}
    public = top | {ctx for _, _, contexts in files for ctx, _ in contexts if ctx}
    methods: dict = {}
    for key in public - top:
        methods.setdefault(key.rsplit(".", 1)[1], set()).add(key)

    uses = set()  # (key, context)
    for module, tree, contexts in files:
        imported, aliases, package = _imports(tree, set(trees))
        if module is None and not package:
            continue

        def top_keys(name):
            sources = set(imported.get(name, ()))
            if module is not None:
                sources.add(module)
            return {f"{m}.{name}" for m in sources} & top

        for ctx, part in contexts:
            for node in ast.walk(part):
                keys = set()
                if isinstance(node, ast.Name):
                    keys = top_keys(node.id)
                elif isinstance(node, ast.Attribute):
                    keys = set(methods.get(node.attr, ())) if isinstance(node.ctx, ast.Load) else set()
                    if isinstance(node.value, ast.Name) and node.value.id in aliases:
                        keys.add(f"{aliases[node.value.id]}.{node.attr}")
                elif isinstance(node, ast.ImportFrom):
                    keys = {f"{_source(node)}.{alias.name}" for alias in node.names} & top
                elif isinstance(node, (ast.Tuple, ast.List, ast.Call)):
                    items = node.args if isinstance(node, ast.Call) else node.elts
                    beside = {aliases[i.id] for i in items if isinstance(i, ast.Name) and i.id in aliases}
                    keys = {f"{m}.{i.value}" for i in items if isinstance(i, ast.Constant)
                            and isinstance(i.value, str) for m in beside} & top
                elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
                    keys = top_keys(node.value) | set(methods.get(node.value, ()))
                uses.update((key, ctx) for key in keys if key != ctx)

    reached: set = set()
    live = {None, *kept}
    while True:
        new = {key for key, ctx in uses if ctx in live} - reached
        if not new:
            return public, reached
        reached |= new
        live |= new


def _sources(folder: Path, key) -> dict:
    return {key(path): path.read_text(encoding="utf-8") for path in sorted(folder.glob("*.py"))}


def test_every_public_definition_is_reached_or_kept():
    kept = {key for key, _ in KEPT_API}
    public, reached = reach(_sources(LIBRARY, lambda p: p.stem), _sources(BENCH, lambda p: p.name), kept)
    unreached = public - reached
    assert kept <= public, f"KEPT_API names no definition: {sorted(kept - public)}"
    assert not unreached - kept, (
        f"only tests reach {sorted(unreached - kept)}: move them beside their tests, "
        "or add them to KEPT_API with a reason")
    assert not kept & reached, f"KEPT_API entries no longer needed: {sorted(kept & reached)}"


def test_a_name_clash_across_modules_hides_nothing():
    """A cli command named seminorm, and a benchmark that runs it, do not
    reach seminorms.seminorm; a patch list entry beside the module does reach
    the name it patches."""
    library = {
        "seminorms": "def seminorm(table, m):\n    return table.h(m)\n\n"
                     "def omega_h(table):\n    return table\n\n"
                     "class HTable:\n    def h(self, m):\n        return m\n",
        "cli": "from .seminorms import HTable\n\n"
               "def seminorm(args):\n    return HTable().h(args.m)\n\n"
               "COMMANDS = {'seminorm': seminorm}\n\n"
               "if __name__ == '__main__':\n    COMMANDS['seminorm'](None)\n",
    }
    workloads = ("from exactstar import seminorms\n\n"
                 "COMMANDS = [['seminorm', '--m-max', '1']]\n"
                 "SPANS = [(seminorms, 'omega_h', 'seminorms.omega')]\n")
    public, reached = reach(library, {"workloads.py": workloads})
    assert public - reached == {"seminorms.seminorm"}


def test_a_bare_variable_reaches_no_method():
    """A method named trace stays unreached by a variable called trace, and by
    an attribute read in a benchmark file that does not import the package."""
    library = {
        "models": "class MatrixModel:\n"
                  "    def trace(self, a):\n        return self.trace_weight(a)\n\n"
                  "    def trace_weight(self, i):\n        return i\n",
        "cli": "from .models import MatrixModel\n\n"
               "def run(trace):\n    return MatrixModel(), trace + 1\n\n"
               "if __name__ == '__main__':\n    run(1)\n",
    }
    report = "import run\n\ndef main(args):\n    return run.measure(args.trace)\n"
    public, reached = reach(library, {"report.py": report})
    assert public - reached == {"models.MatrixModel.trace", "models.MatrixModel.trace_weight"}
    worker = "from exactstar.models import MatrixModel\n\nprint(MatrixModel().trace(1))\n"
    public, reached = reach(library, {"worker.py": worker})
    assert public == reached


def test_class_bindings_and_fields_are_members():
    """A class-level binding and a dataclass field are walked as members: each
    is flagged until something reads it, and its right-hand side runs only
    once it is reached."""
    library = {
        "seminorms": "from dataclasses import dataclass\n\n"
                     "def root(x):\n    return x\n\n"
                     "@dataclass\nclass Result:\n    lo: int\n    hi: int\n\n"
                     "class Model:\n    involution = staticmethod(root)\n",
        "cli": "from .seminorms import Model, Result\n\n"
               "if __name__ == '__main__':\n    print(Model(), Result(1, 2).lo)\n",
    }
    public, reached = reach(library, {})
    assert public - reached == {"seminorms.Result.hi", "seminorms.Model.involution", "seminorms.root"}


def test_the_tracer_puts_back_what_it_patches(monkeypatch):
    """perfbench's traced run binds library names by string; installing the
    tracer fails if one has moved, and uninstalling restores every original."""
    monkeypatch.syspath_prepend(str(BENCH))
    from tracer import Tracer

    tracer = Tracer()
    try:
        tracer.install()
        patched = list(tracer._patches)
        assert patched
        assert all(getattr(owner, attr) is not orig for owner, attr, orig in patched)
    finally:
        tracer.uninstall()
    assert all(getattr(owner, attr) is orig for owner, attr, orig in patched)
