"""Properties of the package source itself."""

import ast
from pathlib import Path

import cl8

SRC = Path(cl8.__file__).resolve().parent


def test_no_check_rests_on_assert():
    # python -O strips assert statements, so a check written as one would
    # silently stop checking; every check raises instead
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def _imported_names(tree):
    """(bound name, line) for every import in the module, at any depth."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((a.asname or a.name.partition(".")[0], node.lineno) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from ((a.asname or a.name, node.lineno) for a in node.names)


def test_no_module_imports_numpy():
    # every check is exact and the float helpers run on Python complex, so
    # the package needs nothing outside the standard library
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {m}" for m in modules
                      if m.partition(".")[0] == "numpy"]
    assert found == []


def test_no_module_imports_a_name_it_never_uses():
    # an unused import is still loaded on every cold start that loads the
    # module, and it outlives the code it served
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        found += [f"{path.name}:{line} {name}" for name, line in _imported_names(tree)
                  if name not in used]
    assert found == []


def test_every_private_helper_has_a_caller_in_the_package():
    # a private top-level function or class that nothing in src/cl8 names
    # is dead code, even when a test still imports it
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for path in sorted(SRC.glob("*.py"))}
    named = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
    found = [f"{name}:{node.lineno} {node.name}" for name, tree in trees.items()
             for node in tree.body
             if isinstance(node, (ast.FunctionDef, ast.ClassDef))
             and node.name.startswith("_") and not node.name.startswith("__")
             and node.name not in named]
    assert found == []


def test_only_linalg_names_the_rational_eliminator():
    # every certificate ranks by disjoint supports: SpanBasis is the tests'
    # rank oracle and the benchmark's hook, and no other module of the
    # package names it, called, bound or imported
    eliminator = {"SpanBasis"}
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "linalg.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{getattr(node, 'lineno', '')} {name}"
                  for node in ast.walk(tree)
                  for name in (getattr(node, "id", None), getattr(node, "attr", None),
                               node.name if isinstance(node, ast.alias) else None)
                  if name in eliminator]
    assert found == []


def _names_with_scope(node, scope=()):
    """(dotted name of the enclosing class and function defs, node) for every
    name and attribute reference."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = scope + (child.name,)
        if isinstance(child, ast.Name):
            yield ".".join(inner), child.id, child
        elif isinstance(child, ast.Attribute):
            yield ".".join(inner), child.attr, child
        yield from _names_with_scope(child, inner)


def test_trusted_constructors_are_used_only_where_listed():
    # MV._made and algebra._gaussian store their parts without validation;
    # outside the algebra module only the block form's one-pass matrix may
    # name them, called or bound
    allowed = {"tensoriso.py": {"BlockForm.matrix_of"}}
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "algebra.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno} {scope}" for scope, name, node in _names_with_scope(tree)
                  if name in ("_made", "_gaussian") and scope not in allowed.get(path.name, ())]
    assert found == []
