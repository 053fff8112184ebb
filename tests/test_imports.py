"""Every name a package module imports is used in that module and imported
there once, and no package module imports dataclasses.  Every name a
package module defines at top level and every method of its top-level
classes is read somewhere in the source tree, and no module or class body
under src/ or tests/ binds a name twice.  RecursionError is caught only
where the package states its depth rule, the benchmark's entry points into
the package resolve, and the benchmark's oracle imports nothing of the
package."""
import ast
import importlib.util
import pathlib
import sys

import pytest

from finarith import interp

ROOT = pathlib.Path(__file__).parent.parent
PACKAGE = ROOT / "src" / "finarith"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
SEARCHED = sorted(p for d in ("src", "tests", "bench") for p in (ROOT / d).rglob("*.py"))


def _imported_names(tree):
    """(line, name) for each name an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, (alias.asname or alias.name).split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name


def unused_imports(source):
    tree = ast.parse(source)
    imported = {name: line for line, name in _imported_names(tree)}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def repeated_imports(source):
    """(line, name) for each import of a name the module imported on an
    earlier line."""
    seen = set()
    repeats = []
    for line, name in sorted(_imported_names(ast.parse(source))):
        if name in seen:
            repeats.append((line, name))
        seen.add(name)
    return repeats


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_repeated_imports(path):
    assert repeated_imports(path.read_text()) == []


def test_scan_flags_an_unused_import():
    source = "import math\nfrom os import path, sep\n\ndef f():\n    return sep\n"
    assert unused_imports(source) == [(1, "math"), (2, "path")]


def test_scan_flags_a_repeated_import():
    source = (
        "import math\nfrom os import sep\n\n"
        "def f():\n    from os import sep\n    import math as m\n    return sep, m\n\n"
        "def g():\n    from os.path import sep\n    return sep\n"
    )
    assert repeated_imports(source) == [(5, "sep"), (10, "sep")]


def _bindings(body):
    """(line, name) for each def, class and plain assignment in one body."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.lineno, node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    yield node.lineno, target.id


def repeated_definitions(source):
    """(line, name) for each name bound again at the top level of a module
    or in one class body, where the later binding hides the earlier one; a
    test defined twice, for one, is collected once."""
    tree = ast.parse(source)
    bodies = [tree.body] + [n.body for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]
    repeats = []
    for body in bodies:
        seen = set()
        for line, name in _bindings(body):
            if name in seen:
                repeats.append((line, name))
            seen.add(name)
    return sorted(repeats)


@pytest.mark.parametrize(
    "path", [p for p in SEARCHED if not p.is_relative_to(ROOT / "bench")],
    ids=lambda p: str(p.relative_to(ROOT)),
)
def test_no_repeated_definitions(path):
    assert repeated_definitions(path.read_text()) == []


def test_scan_flags_a_repeated_definition():
    source = (
        "LIMIT = 1\n\n"
        "def f():\n    g = 1\n    g = 2\n    return g\n\n"
        "class C:\n"
        "    def f(self):\n        return 1\n\n"
        "    def f(self):\n        return 2\n\n"
        "class f:\n    pass\n\n"
        "LIMIT = 2\n"
    )
    assert repeated_definitions(source) == [(12, "f"), (15, "f"), (18, "LIMIT")]


def test_no_module_imports_dataclasses():
    # Nodes and reports name their fields themselves: interned slotted
    # classes in logic, NamedTuples elsewhere.
    for path in PACKAGE.glob("*.py"):
        assert "dataclasses" not in imported_modules(path.read_text()), path.name


def _definitions(tree):
    """(name, defining statement) for each top-level function, class and
    assigned name, and each method of a top-level class but the dunders,
    which Python calls by protocol."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield item.name, item
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for n in ast.walk(target):
                    if isinstance(n, ast.Name):
                        yield n.id, node


def _reads(tree):
    """(name, line) for each loaded name, attribute, imported name and name
    in a string annotation."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node.lineno
        elif isinstance(getattr(node, "annotation", None), ast.Constant):
            for n in ast.walk(ast.parse(node.annotation.value, mode="eval")):
                if isinstance(n, ast.Name):
                    yield n.id, node.lineno


def dead_definitions(modules, sources):
    """(module, line, name) for each definition of the modules (see
    _definitions) that no source reads outside the definition itself.
    Both arguments map a file name to its text; modules are among the
    sources."""
    reads = {}
    for file, source in sources.items():
        for name, line in _reads(ast.parse(source)):
            reads.setdefault(name, []).append((file, line))
    dead = []
    for module, source in modules.items():
        for name, node in _definitions(ast.parse(source)):
            if all(
                file == module and node.lineno <= line <= node.end_lineno
                for file, line in reads.get(name, ())
            ):
                dead.append((module, node.lineno, name))
    return dead


def test_every_definition_is_read():
    sources = {str(p.relative_to(ROOT)): p.read_text() for p in SEARCHED}
    modules = {str(p.relative_to(ROOT)): p.read_text() for p in MODULES}
    assert dead_definitions(modules, sources) == []


def test_scan_flags_a_dead_definition():
    module = (
        "def used():\n    return 1\n\n"
        "def recursive():\n    return recursive()\n\n"
        "LIMIT = 1\n"
        "Alias = used\n"
        "value: 'Alias' = 0\n\n"
        "class Box:\n"
        "    def __init__(self):\n        self.get()\n\n"
        "    def get(self):\n        return 1\n\n"
        "    def _adapter(self):\n        return self._adapter\n"
    )
    sources = {"m.py": module, "test_m.py": "from m import used, Box\n"}
    assert dead_definitions({"m.py": module}, sources) == [
        ("m.py", 4, "recursive"), ("m.py", 7, "LIMIT"), ("m.py", 9, "value"),
        ("m.py", 18, "_adapter"),
    ]


def recursion_catches(source):
    """(line, top-level definition) for each except clause that names
    RecursionError, in source order."""
    found = []
    for top in ast.parse(source).body:
        for node in ast.walk(top):
            if isinstance(node, ast.ExceptHandler) and node.type is not None and any(
                isinstance(n, ast.Name) and n.id == "RecursionError" for n in ast.walk(node.type)
            ):
                found.append((node.lineno, getattr(top, "name", "<module>")))
    return sorted(found)


def test_recursion_error_is_caught_in_three_places():
    # errors._too_deep is the one rule for input nested too deeply; the
    # parser's catch alone knows the ParseError position, and cli.main's is
    # the backstop of the exit-code contract.
    catches = [(p.name, name) for p in MODULES for _, name in recursion_catches(p.read_text())]
    assert catches == [("cli.py", "main"), ("errors.py", "_too_deep"), ("logic.py", "_parse")]


def test_scan_flags_a_recursion_catch():
    source = (
        "def f():\n    try:\n        pass\n    except RecursionError:\n        pass\n\n"
        "class C:\n    def m(self):\n        try:\n            pass\n"
        "        except (ValueError, RecursionError) as exc:\n            pass\n\n"
        "try:\n    pass\nexcept KeyError:\n    pass\nexcept RecursionError:\n    pass\n"
    )
    assert recursion_catches(source) == [(4, "f"), (11, "C"), (18, "<module>")]


def test_benchmark_entry_points_resolve():
    # Loads bench/tracing.py as it is, so a removed or renamed public name
    # the benchmark calls fails here without running the benchmark suite.
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.LIBRARY_CALLS
    for name, (_span, fn) in tracing.LIBRARY_CALLS.items():
        assert callable(fn), name
    assert isinstance(interp.InstrumentedStructure, type)


def imported_modules(source):
    """The top-level module each import statement names; "." for a relative
    import."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield "." if node.level else node.module.split(".")[0]


def test_oracle_imports_standard_modules_only():
    # tests/test_modal_differential.py judges the library by bench/oracles.py,
    # which is independent only while it shares no code with the package.
    modules = set(imported_modules((ROOT / "bench" / "oracles.py").read_text()))
    assert modules and modules <= sys.stdlib_module_names, modules - sys.stdlib_module_names


def test_scan_names_every_imported_module():
    source = "import finarith.logic\nfrom finarith import modal\nfrom . import tracing\nimport re\n"
    assert sorted(imported_modules(source)) == [".", "finarith", "finarith", "re"]
