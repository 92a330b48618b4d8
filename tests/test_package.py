"""Package-level guards: no dead library code (module-level defs, methods,
properties and dataclass fields), and a top-level API that resolves."""

import ast
from pathlib import Path

import capcmk

PKG = Path(capcmk.__file__).parent


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
    outside the class's own `__post_init__`."""
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
                if isinstance(node, ast.AnnAssign) and not any(
                        n.attr == node.target.id and id(n) not in own for n in reads):
                    unread.append(f"{module}.{cls.name}.{node.target.id}")
    return sorted(unread)


def test_every_library_def_is_reachable_from_the_cli():
    assert unreachable_defs() == []


def test_every_method_and_property_is_read_by_the_package():
    assert unread_members() == []


def test_every_dataclass_field_is_read_by_the_package():
    assert unread_fields() == []


def test_every_exported_name_resolves():
    missing = [name for name in capcmk.__all__ if not hasattr(capcmk, name)]
    assert missing == []
    assert len(set(capcmk.__all__)) == len(capcmk.__all__)
