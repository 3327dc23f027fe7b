"""Dead-code guard: every top-level def, class and alias in ``src/ffl`` is
reached by name from ``cli.main`` or from a name kept on purpose, and so is
every method and property of a class in ``src/ffl``.

The walk is by name, not by binding: a reached definition reaches every
top-level definition whose name appears anywhere in it (its body,
decorators, defaults and annotations), in any module. Module statements
that run on import (anything but a def, a class, an assignment or an
import) are reached too. This over-approximates what runs, so a name it
reports is one that nothing in the package can call. A name walk cannot
tell same-named definitions apart: reaching one reaches every definition
of that name, in every module.

A member (a method or property, dunders excepted) is reached when its name
appears in the package outside its own body as an attribute, ``obj.name``,
or when it is kept on purpose in ``MEMBER_KEEP``: a local variable, a
field or a keyword of the same name does not reach it.
"""

import ast
import collections
import pathlib

import ffl

SRC = pathlib.Path(ffl.__file__).parent

# Names no command reaches that are kept on purpose, with the reason.
KEEP = {
    "fourier_exact": "perfbench's biased-evaluator test patches it by name",
}
# Members no attribute use in the package reaches that are kept on purpose, with the reason.
MEMBER_KEEP = {
    "GridPoint.fraction": "perfbench's tracer wraps it by name",
    "Parser.error": "argparse calls it on a usage error",
}


def _uses(node):
    return [n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))]


def _names(node):
    return set(_uses(node))


def _definitions():
    """(module, name) -> the nodes that define it, and the nodes run on import."""
    defs, on_import = {}, []
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                targets = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                lhs = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                targets = [n.id for t in lhs for n in ast.walk(t) if isinstance(n, ast.Name)]
            elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
                continue
            else:
                on_import.append(stmt)
                continue
            for name in targets:
                if not (name.startswith("__") and name.endswith("__")):
                    defs.setdefault((path.stem, name), []).append(stmt)
    return defs, on_import


def unreached(keep=KEEP):
    defs, on_import = _definitions()
    by_name = {}
    for module, name in defs:
        by_name.setdefault(name, []).append((module, name))
    seen = {("cli", "main")} | {key for name in keep for key in by_name.get(name, [])}
    todo = [stmt for key in seen for stmt in defs[key]] + on_import
    while todo:
        for name in _names(todo.pop()):
            for key in by_name.get(name, []):
                if key not in seen:
                    seen.add(key)
                    todo += defs[key]
    return sorted(f"{module}.{name}" for module, name in set(defs) - seen)


def _attributes(node):
    return [n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)]


def unreached_members(keep=MEMBER_KEEP):
    modules = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]
    uses = collections.Counter(name for tree in modules for name in _attributes(tree))
    members = [(f"{cls.name}.{fn.name}", fn) for tree in modules for cls in ast.walk(tree)
               if isinstance(cls, ast.ClassDef) for fn in cls.body
               if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
               and not (fn.name.startswith("__") and fn.name.endswith("__"))]
    return sorted(name for name, fn in members if name not in keep
                  and uses[fn.name] == _attributes(fn).count(fn.name))


def test_every_definition_is_reached():
    assert unreached() == []


def test_every_member_is_reached():
    assert unreached_members() == []


def test_every_kept_name_needs_keeping():
    # a kept name that a command reaches, or that is gone, is a stale entry
    assert set(KEEP) <= {name.split(".")[1] for name in unreached(keep={})}
    assert set(MEMBER_KEEP) <= set(unreached_members(keep={}))
