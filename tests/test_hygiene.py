"""Every name a module of the package imports is used in that module, every
function, class and method it defines is named by the program, no nested
function names itself, importing the CLI loads none of the standard modules
it has no use for, and README lists every diagnostic code."""

import ast
import os
import pathlib
import re
import subprocess
import sys

import pytest

import orbi_forge

_SRC = pathlib.Path(orbi_forge.__file__).parent


def _imported(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


@pytest.mark.parametrize(
    "path",
    sorted(p for p in _SRC.glob("*.py") if p.name != "__init__.py"),
    ids=lambda p: p.name,
)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = _imported(tree) - used
    assert not unused, sorted(unused)


# defined in the package for the tests alone
_TEST_HELPERS = {"erase_clause", "parse_term_str", "parse_tpkind_str"}


def _definitions(tree: ast.Module):
    """Names of a module's top-level functions and classes and of their
    methods, but not the dunder methods Python calls itself."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                    yield item.name


def test_every_definition_is_named_by_the_program():
    # a name counts wherever src/ or perfbench/ spells it: as a name, an
    # attribute, an import alias or a string (perfbench wraps functions by
    # their names)
    named = set()
    root = _SRC.parents[1]
    for path in [*_SRC.glob("*.py"), *(root / "perfbench").rglob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.asname or node.name)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                named.add(node.value)
    unnamed = {
        f"{path.name}:{name}"
        for path in _SRC.glob("*.py")
        for name in _definitions(ast.parse(path.read_text(encoding="utf-8")))
        if name not in named and name not in orbi_forge.__all__ and name not in _TEST_HELPERS
    }
    assert not unnamed, sorted(unnamed)


def test_no_nested_function_names_itself():
    # a nested function that calls itself holds itself in its closure cell:
    # a reference cycle that keeps everything its cells hold, the AST among
    # it, until the cyclic collector runs (tests/test_cycles.py)
    selfish = set()
    for path in _SRC.glob("*.py"):
        for outer in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(outer, (ast.FunctionDef, ast.Lambda)):
                continue
            for node in ast.walk(outer):
                if node is not outer and isinstance(node, ast.FunctionDef):
                    if any(isinstance(n, ast.Name) and n.id == node.name for n in ast.walk(node)):
                        selfish.add(f"{path.name}:{node.lineno} {node.name}")
    assert not selfish, sorted(selfish)


def test_cli_import_loads_no_unused_stdlib_module():
    # compared with the modules loaded before, since ``site`` may load some
    probe = (
        "import sys; before = set(sys.modules); import orbi_forge.cli; "
        "print(*sorted(set(sys.modules) - before))"
    )
    env = dict(os.environ, PYTHONPATH=str(_SRC.parent))
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    loaded = set(out.stdout.split())
    assert "orbi_forge.translate" in loaded
    # cli reads argv with a loop of its own, not argparse (nor its gettext)
    unused = {"dataclasses", "inspect", "typing", "importlib.resources", "argparse", "gettext"}
    assert not loaded & unused


def test_readme_lists_every_diagnostic_code():
    # codes are string literals at their raise sites, so only this keeps the
    # README's table and the code in step
    codes = set()
    for path in _SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                if re.fullmatch(r"[EW]-[A-Z]+(-[A-Z]+)*", node.value):
                    codes.add(node.value)
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    listed = set(re.findall(r"^\| `([EW]-[A-Z-]+)` \|", readme, re.M))
    assert codes == listed
    assert len(codes) == 23  # 22 errors and one warning
