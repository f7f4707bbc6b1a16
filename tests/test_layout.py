"""The installed package holds only what the program runs.

A public module-level function or class in ``src/drmin`` counts as used
when its name appears (as a name, an attribute or an import alias) in
another used public def of the package, in the package's other code, or in
``scripts/`` or ``perfbench/``.  Defs used by nothing else are dropped
until none is left to drop; what remains unused belongs in
``tests/oracles.py``, not in the package.  The sources are parsed, never
imported.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "drmin"
# cli.entrypoint is the console script pyproject.toml names
ENTRY_POINTS = {"entrypoint"}


def _appearances(node) -> set[str]:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.update(filter(None, [sub.name.split(".")[-1], sub.asname]))
    return names


def _exported() -> set[str]:
    for node in ast.parse((PACKAGE / "__init__.py").read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def unused_public_defs() -> list[str]:
    """Public defs of src/drmin that nothing outside the tests reaches, sorted."""
    defs = {}  # name -> names appearing in its body
    used = set()  # names appearing outside the public defs
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            public = isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ) and not node.name.startswith("_")
            if public:
                defs[node.name] = _appearances(node) - {node.name}
            else:
                used |= _appearances(node)
    for pattern in ("scripts/*.py", "perfbench/*.py"):
        for path in sorted(ROOT.glob(pattern)):
            used |= _appearances(ast.parse(path.read_text()))
    live = set(defs)
    while True:
        reached = used | _exported() | ENTRY_POINTS
        reached |= set().union(*(defs[name] for name in live))
        dead = {name for name in live if name not in reached}
        if not dead:
            return sorted(set(defs) - live)
        live -= dead


def test_every_public_def_is_used_outside_the_tests():
    unused = unused_public_defs()
    assert not unused, f"only the tests reach these, move them to tests/oracles.py: {unused}"
