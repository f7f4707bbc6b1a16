"""The installed package holds only what the program runs.

A public module-level function or class in ``src/drmin`` counts as used
when its name appears (as a name, an import alias, or an attribute read
off drmin or one of its modules, such as ``expr.parse`` or
``drmin.expr.parse``) in another used public def of the package, in the
package's other code, or in ``perfbench/``.  Defs used by nothing else
are dropped until none is left to drop; what remains unused belongs in
``tests/oracles.py``, not in the package.

verify is the independent check of the pipeline, so the modules it
imports, directly or through one another, define none of the routes it
must stay independent of: the symbolic derivatives, the L-table and the
frame.

A def of the package that lives as long as the process (at module level,
or a method of a module-level class) caches through ``functools.cache``
or ``functools.lru_cache`` only when it takes no parameters: a cache keyed
on its arguments keeps every argument and result alive for the life of
the process.  Data-derived state belongs to the object it derives from.

The sources are parsed, never imported.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "drmin"
# cli.entrypoint is the console script pyproject.toml names
ENTRY_POINTS = {"entrypoint"}
MODULES = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}


def _is_module(node) -> bool:
    """Whether node names drmin or one of its modules: drmin, expr, drmin.expr."""
    if isinstance(node, ast.Attribute):  # drmin.expr
        parent = node.value if node.attr in MODULES else None
        return isinstance(parent, ast.Name) and parent.id == "drmin"
    return isinstance(node, ast.Name) and node.id in MODULES | {"drmin"}


def _appearances(node) -> set[str]:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute) and _is_module(sub.value):
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
    for path in sorted(ROOT.glob("perfbench/*.py")):
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


def _cached(node) -> bool:
    """Whether a def carries functools.cache or functools.lru_cache, called or not."""
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
        if name in ("cache", "lru_cache"):
            return True
    return False


def argument_keyed_caches() -> list[str]:
    """module.name of each long-lived def of src/drmin that caches on its parameters."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            members = node.body if isinstance(node, ast.ClassDef) else [node]
            for d in members:
                if isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef)) and _cached(d):
                    a = d.args
                    if a.posonlyargs or a.args or a.kwonlyargs or a.vararg or a.kwarg:
                        out.append(f"{path.stem}.{d.name}")
    return out


def test_no_process_wide_cache_is_keyed_on_data():
    keyed = argument_keyed_caches()
    assert not keyed, f"these caches hold every argument for the life of the process: {keyed}"


# verify must not reach these; each is defined in a stage module verify does not import
NOT_IN_VERIFY = {"l_table", "frame_matrix", "wirtinger_bar", "_Derivatives"}


def _imported_modules(tree) -> set[str]:
    """The modules of src/drmin that the import statements anywhere in tree name.

    drmin/__init__.py runs for any submodule and imports them all, so it
    is not followed: ``from drmin import expr`` names expr, not the package.
    """
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            # the absolute name: from . import x -> drmin, from .x import y -> drmin.x
            module = ".".join(filter(None, ["drmin" if node.level else "", node.module]))
            if module == "drmin":
                out.update(a.name for a in node.names)
            elif module.startswith("drmin."):
                out.add(module.split(".")[1])
        elif isinstance(node, ast.Import):
            out.update(a.name.split(".")[1] for a in node.names if a.name.startswith("drmin."))
    return out & MODULES


def import_closure(start: str) -> set[str]:
    """start and every module of src/drmin it imports, directly or through others."""
    closure, todo = set(), [start]
    while todo:
        name = todo.pop()
        if name not in closure:
            closure.add(name)
            todo.extend(_imported_modules(ast.parse((PACKAGE / f"{name}.py").read_text())))
    return closure


def reached_routes(start: str) -> dict[str, set[str]]:
    """module -> the NOT_IN_VERIFY names it defines, over the import closure of start."""
    out = {}
    for name in sorted(import_closure(start)):
        body = ast.parse((PACKAGE / f"{name}.py").read_text()).body
        defined = {n.name for n in body if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
        defined |= {t.id for n in body if isinstance(n, ast.Assign) for t in n.targets
                    if isinstance(t, ast.Name)}
        if defined & NOT_IN_VERIFY:
            out[name] = defined & NOT_IN_VERIFY
    return out


def test_verify_imports_only_the_mesh_and_the_metric():
    assert reached_routes("verify") == {}
    assert import_closure("verify") == {"verify", "mesh", "spaces", "algebra"}


def test_the_stage_modules_reach_what_verify_must_not():
    # the check can fail: each stage module reaches the description it reads
    assert reached_routes("weierstrass") == {
        "weierstrass": {"l_table"}, "expr": {"wirtinger_bar", "_Derivatives"}
    }
    assert reached_routes("synthesis") == {
        "synthesis": {"frame_matrix"},
        "weierstrass": {"l_table"},
        "expr": {"wirtinger_bar", "_Derivatives"},
    }
