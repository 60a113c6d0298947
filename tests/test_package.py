"""The package surface: what `import glauberlab` loads, what it exports, and the README example."""

import ast
import importlib
import re
import subprocess
import sys
from pathlib import Path

import pytest

import glauberlab

from helpers import child_env

README = Path(__file__).resolve().parent.parent / "README.md"
PACKAGE = README.parent / "src" / "glauberlab"
BENCH = README.parent / "bench"


def test_import_does_not_load_scipy():
    # scipy is a test dependency only; the package must start on numpy alone
    code = "import sys, glauberlab; print('scipy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=child_env(),
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "False"


def test_readme_library_example_runs(capsys):
    text = README.read_text()
    section = text[text.index("## Library use"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, str(README), "exec"), {})
    printed = capsys.readouterr().out.split("\n")
    margin, restarts = printed[0].split()
    assert float(margin) <= 1.0 + 1e-3 and int(restarts) >= 1
    assert 0.0 <= float(printed[1]) < 0.1  # relaxing towards the fixed point


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")  # new in Python 3.11
    with open(README.parent / "pyproject.toml", "rb") as fh:
        assert glauberlab.__version__ == tomllib.load(fh)["project"]["version"]


BENCH_MARKER = "kept importable for bench/"


def unnamed(candidates, module_sources, readme):
    """Candidates that no module source names and README never mentions.

    A module names one as an ast.Name id or an ast.Attribute attr, so import
    statements and def lines do not count; README mentions it as a whole word.
    """
    named = set()
    for source in module_sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    return {
        name for name in candidates
        if name not in named and not re.search(r"\b%s\b" % re.escape(name), readme)
    }


def unreferenced_exports(init_source, module_sources, readme):
    """Names imported by init_source that no module source names and README never mentions."""
    exported = {
        alias.asname or alias.name
        for node in ast.walk(ast.parse(init_source))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    return unnamed(exported, module_sources, readme)


def unreferenced_defs(module_sources, readme):
    """Top-level defs and classes that no module source names, public ones unless README mentions them.

    A def whose def line carries BENCH_MARKER is exempt: bench/ imports it,
    and bench/ is not scanned.  README is no caller of a private def.
    """
    public, private = set(), set()
    for source in module_sources:
        lines = source.splitlines()
        for node in ast.parse(source).body:
            if (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and BENCH_MARKER not in lines[node.lineno - 1]
            ):
                (private if node.name.startswith("_") else public).add(node.name)
    return unnamed(public, module_sources, readme) | unnamed(private, module_sources, "")


def test_export_scan_flags_each_form():
    init = "from .a import called, attr, documented, imported_only\nfrom .b import x as aliased"
    modules = ["from .a import imported_only\ny = called(1)", "z = a.attr\nw = aliased"]
    assert unreferenced_exports(init, modules, "") == {"documented", "imported_only"}
    assert unreferenced_exports(init, modules, "`documented` is public") == {"imported_only"}
    # a whole word only: a longer name that contains it is no mention
    assert unreferenced_exports(init, modules, "documented_rows, imported_only_x") == {
        "documented", "imported_only"
    }


def test_every_export_has_a_caller_or_a_readme_line():
    # bench/ is left out on purpose: a benchmark change that drops an import
    # must not fail this test unless it also edits src/
    modules = [p.read_text() for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    init = (PACKAGE / "__init__.py").read_text()
    assert unreferenced_exports(init, modules, README.read_text()) == set()


def test_def_scan_flags_each_form():
    modules = [
        "def called():\n    def nested():\n        pass\n\n\nclass Documented:\n    pass",
        "def orphan():\n    return called(_named)\n\n\ndef _private():\n    pass\n\n\ndef _named():\n    pass",
        "def benched(x):  # %s spans.py\n    return x" % BENCH_MARKER,
    ]
    # an unreferenced def is flagged, a private one too; a nested or marked one is not
    assert unreferenced_defs(modules, "") == {"orphan", "Documented", "_private"}
    # README mentions rescue public defs only
    assert unreferenced_defs(modules, "`Documented` and `_private`") == {"orphan", "_private"}
    assert unreferenced_defs([modules[2].replace(BENCH_MARKER, "kept")], "") == {"benched"}


def test_every_public_def_has_a_caller_a_readme_line_or_a_bench_marker():
    # no test-only function in src/ (tests/helpers.py is where oracles live), and no dead private helper
    modules = [p.read_text() for p in sorted(PACKAGE.glob("*.py"))]
    assert unreferenced_defs(modules, README.read_text()) == set()


def bench_names(source):
    """The (module, name) pairs a bench/ source takes from glauberlab, read with ast.

    Each `from glauberlab[.x] import a` gives (glauberlab[.x], a).  Each
    (module, "attr", ...) entry of a module-level PATCHES tuple gives the
    module its first item names, as the source imported it, and attr: a
    traced run patches that attribute with getattr and setattr.
    """
    pairs, modules = [], {}
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "glauberlab":
            for alias in node.names:
                pairs.append((node.module, alias.name))
                modules[alias.asname or alias.name] = node.module + "." + alias.name
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["PATCHES"]:
            pairs += [(modules[entry.elts[0].id], entry.elts[1].value) for entry in node.value.elts]
    return pairs


def has_name(module, name) -> bool:
    """Whether `from module import name` finds an attribute or a submodule."""
    if hasattr(importlib.import_module(module), name):
        return True
    try:
        importlib.import_module(module + "." + name)
    except ModuleNotFoundError:
        return False
    return True


def test_every_name_bench_takes_from_the_package_exists():
    # bench/ is not imported here: a traced run would find a renamed name
    # only when it patches it
    pairs = [pair for path in sorted(BENCH.glob("*.py")) for pair in bench_names(path.read_text())]
    assert ("glauberlab.harness", "birth_gf_term") in pairs  # a PATCHES entry was read
    assert [pair for pair in pairs if not has_name(*pair)] == []
