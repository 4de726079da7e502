"""Properties of the package source itself."""

import ast
import re
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
    # every check is exact and the one float path, the printed twistor, runs
    # on Python complex, so the package needs nothing outside the standard
    # library
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


def _exported_names(tree):
    """The strings of a module-level `__all__ = [...]`, as pyflakes reads it."""
    return {elt.value for node in tree.body if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            for elt in getattr(node.value, "elts", ()) if isinstance(elt, ast.Constant)}


def _unused_imports(tree):
    """(name, line) of every import the module neither names nor lists in `__all__`."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= _exported_names(tree)
    return [(name, line) for name, line in _imported_names(tree) if name not in used]


def test_no_module_imports_a_name_it_never_uses():
    # an unused import is still loaded on every cold start that loads the
    # module, and it outlives the code it served; a re-export is used, by
    # being listed in the module's __all__
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{line} {name}" for name, line in _unused_imports(tree)]
    assert found == []


def test_unused_import_lint_counts_only_the_modules_own_all():
    source = ("from .table import algebra_type, radon_hurwitz\n"
              "__all__ = ['algebra_type']\n")
    assert _unused_imports(ast.parse(source)) == [("radon_hurwitz", 1)]
    assert _unused_imports(ast.parse(source.replace("'algebra_type'", "'radon_hurwitz'"))) == [
        ("algebra_type", 1)]
    assert _unused_imports(ast.parse("import json\n__all__ = ['math']\n")) == [("json", 1)]


def _referenced_names(tree):
    """Every name, attribute and imported name the module refers to."""
    named = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
        elif isinstance(node, ast.alias):
            named.add(node.name)
    return named


def test_every_private_helper_has_a_caller_in_the_package():
    # a private top-level function or class that nothing in src/cl8 names
    # is dead code, even when a test still imports it
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for path in sorted(SRC.glob("*.py"))}
    named = set().union(*map(_referenced_names, trees.values()))
    found = [f"{name}:{node.lineno} {node.name}" for name, tree in trees.items()
             for node in tree.body
             if isinstance(node, (ast.FunctionDef, ast.ClassDef))
             and node.name.startswith("_") and not node.name.startswith("__")
             and node.name not in named]
    assert found == []


def _bound_names(node):
    """The names a top-level statement binds: a def or class, the Name targets of
    an assignment (unpacked tuples included), or an import."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return [name for name, _ in _imported_names(node)]
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target] if isinstance(node, ast.AnnAssign) else [])
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def _api_defects(module_trees, caller_trees, allowed=()):
    """What breaks the declared API of each module, as "module: defect" strings.

    module_trees maps a module name to its tree, and caller_trees maps a file
    name to the tree of each file whose references count as callers; the
    modules themselves are among them. A module must have a top-level `__all__`
    that lists only names it binds and every public def, class and assignment it
    makes, and each function or class in that `__all__` must be named by a
    top-level statement other than its own def, in some caller (a string in an
    `__all__` is no reference), unless it is in allowed."""
    named = [(node, _referenced_names(node))
             for tree in caller_trees.values() for node in tree.body]
    found = []
    for module, tree in module_trees.items():
        if not any("__all__" in _bound_names(node) for node in tree.body):
            found.append(f"{module}: no __all__")
            continue
        exported = _exported_names(tree)
        bound = {name: node for node in tree.body for name in _bound_names(node)}
        found += [f"{module}: {name} listed but not bound" for name in sorted(exported - set(bound))]
        found += [f"{module}: {name} public but not listed" for name, node in bound.items()
                  if not name.startswith("_") and name not in exported
                  and not isinstance(node, (ast.Import, ast.ImportFrom))]
        defs = [node for node in tree.body if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and node.name in exported]
        found += [f"{module}: {node.name} has no caller" for node in defs
                  if node.name not in allowed
                  and not any(node.name in refs for other, refs in named if other is not node)]
    return found


def _parsed(paths, root):
    """Each file's tree, keyed by its path below root."""
    return {str(path.relative_to(root)): ast.parse(path.read_text(encoding="utf-8"))
            for path in paths}


# generator_map_json is the audit format of the planned `cl8 certify`/`cl8 audit`
# commands, and tests/test_tensoriso.py pins its digest; nothing calls it yet
_API_WITHOUT_CALLER = {"generator_map_json"}


def test_every_module_declares_its_api_and_every_exported_function_has_a_caller():
    # the public surface of each module is its __all__: nothing public is left out
    # of it, and no function or class stays in it that only the tests call
    root = SRC.parents[1]
    modules = _parsed([SRC / f"{name}.py" for name in cl8.__all__], SRC)
    callers = _parsed([*sorted(SRC.glob("*.py")), *sorted((root / "scripts").glob("*.py")),
                       *sorted((root / "perfbench").glob("*.py"))], root)
    assert {path.name for path in SRC.glob("*.py")} == {"__init__.py", *modules}
    assert _api_defects(modules, callers, _API_WITHOUT_CALLER) == []


def test_api_lint_reports_a_function_only_a_test_names():
    module = ast.parse("import json\n__all__ = ['load', 'Used', 'LIMIT']\nLIMIT = 3\n"
                       "def load(): return json\nclass Used: pass\n")
    caller = ast.parse("from m import Used\nUsed()\n")
    test = ast.parse("from m import load\nassert load()\n")
    assert _api_defects({"m": module}, {"m": module, "c": caller}) == ["m: load has no caller"]
    assert _api_defects({"m": module}, {"m": module, "c": caller, "test": test}) == []
    assert _api_defects({"m": module}, {"m": module, "c": caller}, {"load"}) == []
    # a reference inside the function's own def is no caller either
    recursive = ast.parse("__all__ = ['f']\ndef f(n): return f(n - 1) if n else 0\n")
    assert _api_defects({"r": recursive}, {"r": recursive}) == ["r: f has no caller"]


def test_api_lint_reports_a_missing_unbound_or_unlisted_name():
    assert _api_defects({"m": ast.parse("def f(): pass\n")}, {}) == ["m: no __all__"]
    source = "__all__ = ['gone', 'LIMIT']\nLIMIT = 1\nPUBLIC, _private = 2, 3\n"
    assert _api_defects({"m": ast.parse(source)}, {}) == [
        "m: gone listed but not bound", "m: PUBLIC public but not listed"]


def _readme_api_lists(text):
    """module name -> the backticked names of its bullet, from the first bullet
    list of README's "## API" section."""
    section = text.split("\n## API\n", 1)[1].split("\n## ", 1)[0]
    bullets = section[section.index("\n- "):].split("\n\n", 1)[0]
    lists = {}
    for bullet in bullets.split("\n- ")[1:]:
        head, _, names = bullet.partition(":")
        lists[head.strip("`")] = set(re.findall(r"`([^`]+)`", names))
    return lists


def test_readme_names_every_modules_api():
    # README's API section lists each module's __all__, no more and no less
    root = SRC.parents[1]
    lists = _readme_api_lists((root / "README.md").read_text(encoding="utf-8"))
    assert set(lists) == {f"cl8.{name}" for name in cl8.__all__}
    for name in cl8.__all__:
        tree = ast.parse((SRC / f"{name}.py").read_text(encoding="utf-8"))
        assert lists[f"cl8.{name}"] == _exported_names(tree), name


def test_readme_quick_start_runs_on_the_standard_library():
    # the usage block is run as written, and it imports only cl8 modules
    root = SRC.parents[1]
    text = (root / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Library quick start\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    tree = ast.parse(block)
    modules = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert not any(isinstance(node, ast.Import) for node in ast.walk(tree))
    assert modules and all(m.partition(".")[0] == "cl8" for m in modules)
    exec(compile(tree, "README.md", "exec"), {})


def test_every_public_pauli_function_is_called_by_the_cli_or_a_suite():
    # the numeric layer keeps no public function that only tests call: each
    # one defined in pauli.py is named in cli.py or in suites.py
    trees = {name: ast.parse((SRC / name).read_text(encoding="utf-8"), filename=name)
             for name in ("pauli.py", "cli.py", "suites.py")}
    public = [node.name for node in trees["pauli.py"].body
              if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")]
    called = _referenced_names(trees["cli.py"]) | _referenced_names(trees["suites.py"])
    assert public and [name for name in public if name not in called] == []


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
    # MV._made and algebra._gaussian store their parts without validation, and
    # no module outside cl8.algebra names them, called or bound
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "algebra.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno} {scope}" for scope, name, node in _names_with_scope(tree)
                  if name in ("_made", "_gaussian")]
    assert found == []


def _fraction_class_refs(tree):
    """(scope, name) of each import of, and each name or attribute reference to,
    MV or GaussianRational; an import's scope is "import"."""
    refs = [(scope, name) for scope, name, _ in _names_with_scope(tree)]
    refs += [("import", alias.name) for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) for alias in node.names]
    return sorted(ref for ref in refs if ref[1] in ("MV", "GaussianRational"))


def test_only_algebra_names_the_fraction_classes():
    # the package computes in ints: MV and GaussianRational stay in cl8.algebra
    # for the tests' oracles and the benchmark's hooks, and the one other module
    # that names either is tensoriso, to subclass MV as TensorMV
    found = {}
    for path in sorted(SRC.glob("*.py")):
        if path.name != "algebra.py":
            refs = _fraction_class_refs(ast.parse(path.read_text(encoding="utf-8")))
            if refs:
                found[path.name] = refs
    assert found == {"tensoriso.py": [("TensorMV", "MV"), ("import", "MV")]}


def test_fraction_class_lint_sees_calls_imports_and_attributes():
    source = ("from .algebra import MV, Signature\n"
              "def f(sig):\n    return MV.blade(sig, 1), algebra.GaussianRational(0, 1)\n")
    assert _fraction_class_refs(ast.parse(source)) == [
        ("f", "GaussianRational"), ("f", "MV"), ("import", "MV")]
