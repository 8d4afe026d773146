"""Every module under src/rigchar uses each name it imports, every name it
defines at module level or as a method is read by the program, the CLI
does not import dataclasses or contextvars, and every name the bench
tracer looks up in rigchar exists."""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
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


# Definitions no program code reads, each kept on purpose.
READ_BY_TESTS_ONLY = {
    "core.tau_min_form": "the eight-term form of tau, compared with tau()",
    "core.boundary_ok": "the weight inequalities, compared with vacancy non-negativity",
    "characters.gauss_binomial_product": "the product form, compared with q-Pascal",
    "characters.LaurentPoly.monomial": "one term, the building block of the "
    "reference products that mapped is compared with",
    "riggedsets.satisfies_tau": "the per-element tau predicate, the reference "
    "that enumerate_R's bounded rows are checked against",
    "cli.parse_enum_document": "the reader of the enum format, for its round trip",
}

# Definitions no code in src/rigchar reads, only bench/traced.py (its
# PATCHES name them).  Each goes once the benchmark stops naming it.
READ_BY_BENCH_ONLY = {
    "characters.rig_degree": "the degree of one element; char_R reads "
    "piece_degrees instead, and the tracer still wraps it",
    "cli._json_text": "one document's JSON as a string; the CLI streams "
    "_json_chunks instead, and the tracer still wraps it",
}


def program_reads(paths) -> set[str]:
    """Names read by a Name or Attribute node, and the dot-separated parts
    of string constants outside __all__ (the tracer patches by name)."""
    read = set()
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        exported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                exported.update(map(id, ast.walk(node.value)))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and id(node) not in exported
            ):
                read.update(node.value.split("."))
    return read


def is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def definitions(path):
    """Dotted names of the non-dunder module-level defs and the classes of
    a module, and of the non-dunder defs in its class bodies (methods,
    classmethods, staticmethods and properties), each with its bare name.
    A dunder, such as a module's __getattr__, is called by the interpreter."""
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not is_dunder(node.name):
            yield f"{path.stem}.{node.name}", node.name
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, ast.FunctionDef) and not is_dunder(member.name):
                    yield f"{path.stem}.{node.name}.{member.name}", member.name


def test_every_definition_is_read():
    """Each non-dunder module-level def, each class in src/rigchar, and each
    non-dunder def in a class body, is read by src/rigchar, or else is listed with its
    reason in READ_BY_BENCH_ONLY if bench/ reads it and in
    READ_BY_TESTS_ONLY if not.  Both lists are exact: a listed name that
    is gone or read elsewhere fails too."""
    src_read = program_reads(SRC.glob("*.py"))
    bench_read = program_reads((SRC.parent.parent / "bench").glob("*.py"))
    unread = {
        dotted: name
        for path in sorted(SRC.glob("*.py"))
        for dotted, name in definitions(path)
        if name not in src_read
    }
    bench_only = {dotted for dotted, name in unread.items() if name in bench_read}
    for found, listed, what in (
        (bench_only, READ_BY_BENCH_ONLY, "read by bench/ only"),
        (set(unread) - bench_only, READ_BY_TESTS_ONLY, "read by tests only"),
    ):
        extra = sorted(found - set(listed))
        assert not extra, f"{what}, but not listed as such: {', '.join(extra)}"
        stale = sorted(set(listed) - found)
        assert not stale, f"listed as {what}, but read elsewhere or gone: {', '.join(stale)}"


def test_cli_does_not_import_dataclasses():
    """Every command pays for its imports before it does any work, and
    dataclasses pulls in inspect, dis, ast and tokenize.  No module reads
    per-run state from a context variable either: tau is pure, and a
    fault is tested as a source mutant (tests/mutants.py).  -S keeps site
    packages, which may import either module themselves, out of the check."""
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    code = (
        "import sys, rigchar.cli; "
        "print([m for m in ('dataclasses', 'contextvars') if m in sys.modules])"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


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
        # Read by the hooks on the results of the wrapped calls.
        ("core", "KVector.is_nonneg"),
        ("bijection", "Report.detail"),
    ]
    missing = []
    for owner, name in names:
        try:
            attrgetter(name)(importlib.import_module(f"rigchar.{owner}"))
        except AttributeError:
            missing.append(f"{owner}.{name}")
    assert not missing, f"bench/traced.py needs names rigchar lacks: {', '.join(missing)}"


def test_report_lives_in_core():
    """Report is defined once, in core: characters builds its reports
    without importing bijection, and bijection and the package export the
    same type."""
    import rigchar
    from rigchar import bijection, core

    tree = ast.parse((SRC / "characters.py").read_text())
    imported = {n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)}
    assert "bijection" not in imported
    assert rigchar.Report is bijection.Report is core.Report


def test_the_package_loads_its_submodules_on_first_use():
    """import rigchar loads no submodule.  A name of __all__ loads the
    submodule that defines it, and the ones that imports, when it is first
    read: a characters name does not load bijection.  Every name of
    __all__ resolves, and is then bound in the package; any other name
    raises AttributeError."""
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    code = (
        "import sys, rigchar\n"
        "def loaded():\n"
        "    return sorted(m for m in sys.modules if m.startswith('rigchar.'))\n"
        "print(loaded())\n"
        "print(rigchar.sl2_char.__module__, loaded())\n"
        "for name in rigchar.__all__:\n"
        "    getattr(rigchar, name)\n"
        "print(sorted(set(rigchar.__all__) - set(vars(rigchar))), hasattr(rigchar, 'nope'))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "[]",
        "rigchar.characters ['rigchar.admissible', 'rigchar.characters', "
        "'rigchar.core', 'rigchar.riggedsets']",
        "[] False",
    ]
