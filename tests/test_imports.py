"""Every module under src/rigchar uses each name it imports, and every name
the bench tracer looks up in rigchar exists."""

import ast
import importlib
import importlib.util
from operator import attrgetter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "rigchar"


def imported_names(tree: ast.Module):
    """(name, line) for each binding made by an import statement."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                yield name, node.lineno


def used_names(tree: ast.Module) -> set[str]:
    """Names read anywhere in the module, plus the strings listed in __all__."""
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return used


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = used_names(tree)
    unused = [f"{name} (line {line})" for name, line in imported_names(tree) if name not in used]
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"



def test_tracer_names_exist():
    """Each name bench/traced.py patches or reads is defined in rigchar.

    The tracer is loaded by path and inspected; install() is not called,
    so nothing is patched.
    """
    path = SRC.parent.parent / "bench" / "traced.py"
    spec = importlib.util.spec_from_file_location("traced", path)
    traced = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced)
    names = [(owner, name) for owner, name, _ in traced.PATCHES] + [
        ("riggedsets", "_R_CACHE"),
        ("characters", "_GAUSS_CACHE"),
        ("characters", "LaurentPoly.__mul__"),
    ]
    missing = []
    for owner, name in names:
        try:
            attrgetter(name)(importlib.import_module(f"rigchar.{owner}"))
        except AttributeError:
            missing.append(f"{owner}.{name}")
    assert not missing, f"bench/traced.py needs names rigchar lacks: {', '.join(missing)}"
