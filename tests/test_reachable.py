"""Every function, class and method in `src/vprkit` is reached from outside its definition.

A name counts as reached when the code of `src/vprkit` (its re-exports in
`__init__.py` aside), the acceptance suite, the oracles or the benchmark
refers to it: as a name, an attribute, a keyword, an import or a string that
is a dotted name (the benchmark's tracer names its targets in strings). The
unit tests do not count, so a function only they call fails here, unless it
is a test reference listed in KEPT.

A module-level constant of the package counts as reached only when one of
those sources loads it, as a name or an attribute: its own assignment, or
an import that nothing reads, does not keep it.

A default is declared once: no two declarations of the package (dataclass
fields or function parameters) give the same name the same literal default,
None, booleans, 0 and "" aside. The second one reads the first instead.
"""

from __future__ import annotations

import ast
import re
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "vprkit"

# names that only the unit tests reach, each kept on purpose: a reference the tests
# compare a batched form against. Any other name only unit tests reach is deleted.
KEPT = {
    "conv1x1_forward": "the project-first reference the Conv-AP tests compare the head with",
    "l2_normalize": "the single-vector reference the Conv-AP and AVG tests compare with",
}


def _sources() -> list[Path]:
    return ([p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
            + [ROOT / "tests" / "test_acceptance.py", ROOT / "tests" / "oracles.py"]
            + list((ROOT / "bench").glob("*.py")))


def referenced_names(path: Path) -> set[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.keyword) and node.arg:
            names.add(node.arg)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and re.fullmatch(r"[\w.]+", node.value)):
            names.update(node.value.split("."))
    return names


def reached_names() -> set[str]:
    return set().union(*(referenced_names(p) for p in _sources()))


def defined_names() -> dict[str, str]:
    """Each function, class and method of the package, with where it is defined."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    out.setdefault(node.name, f"{path.name}:{node.lineno}")
    return out


def loaded_names(path: Path) -> set[str]:
    """The names a source loads, as a name or an attribute (not as an assignment's target)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {node.id if isinstance(node, ast.Name) else node.attr for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}


def defined_constants(paths) -> dict[str, str]:
    """Each name that a module's top-level assignments bind, dunder names aside, with where."""
    out = {}
    for path in sorted(paths):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                for node in (n for target in targets for n in ast.walk(target)):
                    if isinstance(node, ast.Name) and not node.id.startswith("__"):
                        out.setdefault(node.id, f"{path.name}:{stmt.lineno}")
    return out


def unloaded_constants(package: list[Path], sources: list[Path]) -> dict[str, str]:
    loaded = set().union(*(loaded_names(p) for p in sources))
    return {name: where for name, where in defined_constants(package).items()
            if name not in loaded}


def test_every_definition_is_reached():
    reached = reached_names()
    unreached = {name: where for name, where in defined_names().items()
                 if name not in reached and name not in KEPT}
    assert unreached == {}


def test_every_kept_name_is_defined_and_otherwise_unreached():
    reached, defined = reached_names(), defined_names()
    assert [name for name in KEPT if name not in defined or name in reached] == []


def test_every_constant_is_loaded():
    assert unloaded_constants(list(PACKAGE.glob("*.py")), _sources()) == {}


def test_a_constant_only_assigned_or_imported_is_flagged(tmp_path):
    module = tmp_path / "module.py"
    module.write_text('import re\n_USED, _UNUSED = 1, re.compile("x")\n'
                      "_ANNOTATED: int = _USED\n__all__ = []\n", encoding="utf-8")
    user = tmp_path / "user.py"
    user.write_text("from module import _ANNOTATED\n_USED = 2\n", encoding="utf-8")
    assert unloaded_constants([module], [module, user]) == {
        "_UNUSED": "module.py:2", "_ANNOTATED": "module.py:3"}


# defaults too common to mean one decision
TRIVIAL_DEFAULTS = (None, True, False, 0, "")


def literal_defaults(path: Path):
    """(name, repr of the value, where) for each class field and parameter with a literal default."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ClassDef):
            pairs = [(stmt.target.id, stmt.value) for stmt in node.body
                     if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                     and stmt.value is not None]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            positional = [*args.posonlyargs, *args.args]
            pairs = list(zip((a.arg for a in positional[len(positional) - len(args.defaults):]),
                             args.defaults))
            pairs += [(a.arg, d) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
        else:
            continue
        for name, default in pairs:
            try:
                value = ast.literal_eval(default)
            except ValueError:  # a name or an expression: read from where it is declared
                continue
            if not any(type(value) is type(t) and value == t for t in TRIVIAL_DEFAULTS):
                yield name, repr(value), f"{path.name}:{default.lineno}"


def repeated_defaults(paths) -> dict[tuple[str, str], list[str]]:
    where = defaultdict(list)
    for path in sorted(paths):
        for name, value, at in literal_defaults(path):
            where[name, value].append(at)
    return {key: ats for key, ats in where.items() if len(ats) > 1}


def test_every_default_is_declared_once():
    assert repeated_defaults(PACKAGE.glob("*.py")) == {}


def test_a_repeated_literal_default_is_flagged(tmp_path):
    module = tmp_path / "module.py"
    module.write_text("from dataclasses import dataclass\n\n@dataclass\nclass A:\n"
                      "    grid: tuple = (2, 2)\n    seed: int = 0\n    name: str = ''\n\n"
                      "def f(grid=(2, 2), *, seed=0, name='', rate=A.grid, flag=True):\n"
                      "    pass\n\ndef g(flag=True, rate=0.5):\n    pass\n", encoding="utf-8")
    assert repeated_defaults([module]) == {("grid", "(2, 2)"): ["module.py:5", "module.py:9"]}
