"""Package-level guards: no dead library code (module-level defs, methods,
properties, dataclass fields and parameter defaults), a top-level API that
resolves, and every name the benchmark's tracer wraps."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import capcmk

PKG = Path(capcmk.__file__).parent
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _module_defs():
    """Module-level defs and the identifiers each reads, over the submodules.

    Returns ({(module, name): identifiers}, identifiers of the module-level
    statements that are not defs).  Identifiers are plain names and attribute
    names alike, so a method call `g.integrate(...)` also reaches a def named
    `integrate`: the walk errs toward calling code live.
    """
    defs, roots = {}, set()
    for path in sorted(PKG.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            names = {
                n.id if isinstance(n, ast.Name) else n.attr
                for n in ast.walk(node)
                if isinstance(n, (ast.Name, ast.Attribute))
            }
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs[(path.stem, node.name)] = names
            else:
                roots |= names
    return defs, roots


def unreachable_defs():
    """Module-level defs that no chain of identifiers from `cli.main` reaches."""
    defs, roots = _module_defs()
    by_name = {}
    for key in defs:
        by_name.setdefault(key[1], []).append(key)
    reached = set()
    todo = [("cli", "main")] + [key for name in roots for key in by_name.get(name, [])]
    while todo:
        key = todo.pop()
        if key in reached:
            continue
        reached.add(key)
        todo.extend(k for name in defs[key] for k in by_name.get(name, []))
    return sorted(f"{m}.{name}" for m, name in set(defs) - reached)


def unread_members():
    """Methods and properties whose name the package never reads as an
    attribute outside their own def; dunder methods are called by Python."""
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(PKG.glob("*.py"))}
    members = [
        (f"{module}.{cls.name}.{node.name}", node)
        for module, tree in trees.items()
        for cls in tree.body if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
    ]
    reads = [
        n for tree in trees.values() for n in ast.walk(tree)
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
    ]
    unread = []
    for name, node in members:
        own = {id(n) for n in ast.walk(node)}
        if not any(n.attr == node.name and id(n) not in own for n in reads):
            unread.append(name)
    return sorted(unread)


# dataclasses the package writes whole through `asdict`, so every field is output
WRITTEN_WHOLE = {"geometry.CapParams", "solver.SolveReport"}


def unread_fields():
    """Dataclass fields whose name the package never reads as an attribute
    outside the class's own `__post_init__`.  An `InitVar` is an argument
    of `__init__`, not a field, so it is not counted."""
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(PKG.glob("*.py"))}
    reads = [
        n for tree in trees.values() for n in ast.walk(tree)
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
    ]
    unread = []
    for module, tree in trees.items():
        for cls in tree.body:
            if not (isinstance(cls, ast.ClassDef)
                    and any("dataclass" in ast.unparse(d) for d in cls.decorator_list)
                    and f"{module}.{cls.name}" not in WRITTEN_WHOLE):
                continue
            own = {id(n) for node in cls.body if isinstance(node, ast.FunctionDef)
                   and node.name == "__post_init__" for n in ast.walk(node)}
            for node in cls.body:
                if not isinstance(node, ast.AnnAssign):
                    continue
                name = node.target.id
                if "InitVar" not in ast.unparse(node.annotation) and not any(
                        n.attr == name and id(n) not in own for n in reads):
                    unread.append(f"{module}.{cls.name}.{name}")
    return sorted(unread)


def unomitted_defaults():
    """Parameter defaults that every package call of their def's name
    passes, so that only tests run them.

    Scope: module-level defs and methods that are neither in `capcmk.__all__`
    nor members of a class in it (exported signatures keep their defaults
    for library users).  A call passes a parameter by keyword, or by
    position before any `*args`; a method's first parameter is bound,
    unless it is a staticmethod.  Calls are matched by name alone, and defs
    that no package call names are skipped, so the walk errs toward calling
    code live.
    """
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(PKG.glob("*.py"))}
    calls = {}
    for tree in trees.values():
        for n in ast.walk(tree):
            if isinstance(n, ast.Call) and isinstance(n.func, (ast.Name, ast.Attribute)):
                calls.setdefault(getattr(n.func, "id", None) or n.func.attr, []).append(n)
    exported = set(capcmk.__all__)
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef)
    defs = [(f"{module}.{node.name}", node, 0)
            for module, tree in trees.items()
            for node in tree.body if isinstance(node, funcs) and node.name not in exported]
    defs += [(f"{module}.{cls.name}.{node.name}", node,
              0 if any("staticmethod" in ast.unparse(d) for d in node.decorator_list) else 1)
             for module, tree in trees.items()
             for cls in tree.body if isinstance(cls, ast.ClassDef) and cls.name not in exported
             for node in cls.body if isinstance(node, funcs)]

    def passes(call, arg, index):
        given = next((i for i, a in enumerate(call.args) if isinstance(a, ast.Starred)),
                     len(call.args))
        return any(k.arg == arg for k in call.keywords) or (index is not None and index < given)

    unomitted = []
    for name, node, bound in defs:
        a = node.args
        positional = (a.posonlyargs + a.args)[bound:]
        first = len(positional) - len(a.defaults)
        defaulted = [(p.arg, i) for i, p in enumerate(positional) if i >= first]
        defaulted += [(p.arg, None) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
        sites = calls.get(node.name, [])
        unomitted += [f"{name}({arg})" for arg, index in defaulted
                      if sites and all(passes(call, arg, index) for call in sites)]
    return sorted(unomitted)


def test_every_library_def_is_reachable_from_the_cli():
    assert unreachable_defs() == []


def test_every_method_and_property_is_read_by_the_package():
    assert unread_members() == []


def test_every_dataclass_field_is_read_by_the_package():
    assert unread_fields() == []


def test_every_parameter_default_is_left_out_by_a_package_call():
    assert unomitted_defaults() == []


def test_no_module_reads_strides():
    """Ring-constancy is carried by array shapes ((Nbeta, 1) columns that
    broadcast), not detected from memory layout: no module reads `.strides`."""
    readers = sorted(path.name for path in PKG.glob("*.py")
                     if any(isinstance(n, ast.Attribute) and n.attr == "strides"
                            for n in ast.walk(ast.parse(path.read_text()))))
    assert readers == []


def test_no_module_imports_scipy_sparse():
    """Every operator the package applies or factorizes is held as its
    band (`fields.BandMatrix`, `fields.band_lu`): no module imports any
    scipy.sparse module, and importing every module, in a fresh process,
    does not load scipy.sparse."""
    importers = []
    for path in PKG.glob("*.py"):
        for n in ast.walk(ast.parse(path.read_text())):
            names = ([a.name for a in n.names] if isinstance(n, ast.Import)
                     else [n.module or ""] + [f"{n.module}.{a.name}" for a in n.names]
                     if isinstance(n, ast.ImportFrom) else [])
            if any(name == "scipy.sparse" or name.startswith("scipy.sparse.") for name in names):
                importers.append(path.name)
    assert importers == []
    code = ("import sys, capcmk.audit, capcmk.cli, capcmk.rotsym; "
            "sys.exit(any(m == 'scipy.sparse' or m.startswith('scipy.sparse.') "
            "for m in sys.modules))")
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join([str(PKG.parent), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr


def test_no_module_reads_even():
    """Evenness is read from a field's values (`is_even`, `repeat_unit`), not
    from a stored label: no module reads an `.even` attribute."""
    readers = sorted(path.name for path in PKG.glob("*.py")
                     if any(isinstance(n, ast.Attribute) and n.attr == "even"
                            and isinstance(n.ctx, ast.Load)
                            for n in ast.walk(ast.parse(path.read_text()))))
    assert readers == []


def test_every_exported_name_resolves():
    missing = [name for name in capcmk.__all__ if not hasattr(capcmk, name)]
    assert missing == []
    assert len(set(capcmk.__all__)) == len(capcmk.__all__)


def test_the_benchmark_tracer_finds_every_name_it_wraps():
    """perfbench/tracing.py looks up the capcmk functions and the CapGrid
    method it wraps by name (`solver.linearize`, `CapGrid.ops`, ...), so a
    rename would break only a traced benchmark run.  Its install() patches
    the modules, so it runs in a fresh process, which must exit 0."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join([str(PERFBENCH), str(PKG.parent)]))
    done = subprocess.run([sys.executable, "-c", "import tracing; tracing.Recorder(0).install()"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
