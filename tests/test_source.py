"""Static checks over the package source (no linter is a dependency)."""

import ast
import importlib
import importlib.util
import re
import sys
from pathlib import Path

import pytest

import eacomp
from eacomp.ensemble import make_blind, reduced
from eacomp.states import von_neumann_entropy

SRC = Path(__file__).resolve().parent.parent / "src" / "eacomp"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")  # __init__ re-exports
README = SRC.parent.parent / "README.md"


def unused_imports(tree: ast.Module) -> list[str]:
    """Names an import binds that no expression of the module reads."""
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
    return sorted(bound - {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)})


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def private_imports(tree: ast.Module) -> list[str]:
    """Underscore names, dunders aside, imported from a module of the package."""
    return sorted(
        f"from {'.' * node.level}{node.module or ''} import {a.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("eacomp"))
        for a in node.names
        if a.name.startswith("_") and not a.name.endswith("__")
    )


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_imports(path):
    assert private_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def private_definitions(tree: ast.Module):
    """(name, first line, last line) of each underscore name, dunders
    aside, that a module defines at top level (function, class or
    assignment) or as a method of a top-level class."""
    nodes = list(tree.body)
    nodes += [n for c in tree.body if isinstance(c, ast.ClassDef) for n in c.body
              if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    for node in nodes:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.endswith("__"):
                yield name, node.lineno, node.end_lineno


def reads(tree: ast.Module):
    """(name, line, attribute) of each name or attribute the module reads."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno, False
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, node.lineno, True


def package_reads() -> tuple[dict[str, ast.Module], dict[str, list[tuple[str, int, bool]]]]:
    """Each module's tree by file name, and for each name the package
    reads, the (module, line, attribute) of every read."""
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}
    seen: dict[str, list[tuple[str, int, bool]]] = {}
    for module, tree in trees.items():
        for name, line, attribute in reads(tree):
            seen.setdefault(name, []).append((module, line, attribute))
    return trees, seen


def test_every_private_definition_is_read():
    """An underscore function, class, constant or method that nothing in
    the package reads outside its own definition is dead code."""
    trees, seen = package_reads()
    unread = [
        f"{module}:{first} {name}"
        for module, tree in trees.items()
        for name, first, last in private_definitions(tree)
        if not any(m != module or not first <= line <= last for m, line, _ in seen.get(name, []))
    ]
    assert unread == []


# Public definitions nothing in the package reads, kept on purpose:
# make_blind, make_visible and save_ensemble are the library constructors
# and file writer that README documents; build_code_space and
# estimate_i_epsilon are what perfbench/spans.py wraps, until the
# benchmark reads a stage trace instead (ROADMAP item 1).
UNREAD_PUBLIC = {"make_blind", "make_visible", "save_ensemble", "build_code_space", "estimate_i_epsilon"}


def public_definitions(tree: ast.Module):
    """(name, first line, last line, member) of each public function or
    class a module defines at top level, and of each public method or
    property of a top-level class (member true)."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs) and not node.name.startswith("_"):
            yield node.name, node.lineno, node.end_lineno, False
        if isinstance(node, ast.ClassDef):
            for m in node.body:
                if isinstance(m, defs[:2]) and not m.name.startswith("_"):
                    yield m.name, m.lineno, m.end_lineno, True


def test_every_public_definition_is_read():
    """A public function, class, method or property that nothing in the
    package reads outside its own definition is dead code, unless
    UNREAD_PUBLIC names it. A member counts as read only through an
    attribute, so a local variable of the same name does not keep it."""
    trees, seen = package_reads()
    unread = [
        f"{module}:{first} {name}"
        for module, tree in trees.items()
        for name, first, last, member in public_definitions(tree)
        if name not in UNREAD_PUBLIC
        and not any((attribute or not member) and (m != module or not first <= line <= last)
                    for m, line, attribute in seen.get(name, []))
    ]
    assert unread == []


def backticked(markdown: str) -> set[str]:
    """The inline code spans of a markdown text, fenced blocks left out,
    each without a trailing "()"."""
    markdown = re.sub(r"```.*?```", "", markdown, flags=re.S)
    return {span.removesuffix("()") for span in re.findall(r"`([^`\n]+)`", markdown)}


def package_exports() -> set[str]:
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    return {a.asname or a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names}


def test_readme_library_lists_the_exports():
    """README's Library section names every export but the exceptions,
    which it lists as a group, and its export list names only exports."""
    library = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    errors = {n.name for n in ast.parse((SRC / "errors.py").read_text(encoding="utf-8")).body
              if isinstance(n, ast.ClassDef)}
    assert sorted(package_exports() - errors - backticked(library)) == []
    listed = backticked(library.split("The package root exports:", 1)[1])
    assert sorted(n for n in listed if n.isidentifier() and n not in package_exports()) == []


def load_spans(monkeypatch):
    """perfbench/spans.py, the benchmark's tracer, loaded by path and
    left unchanged; registered while the test runs, as its dataclasses
    need."""
    path = SRC.parent.parent / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_benchmark_reads_a_present_surface(monkeypatch):
    """The names perfbench's per-layer metrics and its run header read
    exist, so the benchmark cannot lose a layer by reporting it absent."""
    spans = load_spans(monkeypatch)
    for module, funcs in spans.WRAPPED.items():
        home = importlib.import_module(f"eacomp.{module}")
        for name in funcs:
            assert callable(getattr(home, name, None)), f"eacomp.{module}.{name}"
    e = make_blind([[1, 0], [2**-0.5, 2**-0.5]], [0.5, 0.5])
    rho = reduced(e, {"A"})
    assert spans._eig_side((rho,), {}, von_neumann_entropy(rho)) == {"side": 2}
    assert isinstance(eacomp.NUMBA_AVAILABLE, bool)
    assert eacomp.active_backend() == "numpy"
