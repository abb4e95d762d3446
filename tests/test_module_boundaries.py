"""Checks on the package layout: no module imports another's private
helpers, every `__all__` entry is defined where it is exported, every one
has a caller in the package or the benchmark, only `selfcheck` reaches the
dense oracle, the runtime needs numpy and the standard library only, and
the package stays within its line budget."""

import ast
import os
import pathlib
import subprocess
import sys

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "hybridcat"
BENCH = PACKAGE.parents[1] / "bench"


def _trees():
    for path in sorted(PACKAGE.glob("*.py")):
        yield path.name, ast.parse(path.read_text(encoding="utf-8"))


def _is_package_import(node: ast.ImportFrom) -> bool:
    return node.level > 0 or (node.module or "").split(".")[0] == "hybridcat"


def _defined_names(tree):
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def _exported_names(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    return []


def test_no_module_imports_private_names_of_another():
    private = [
        f"{name}:{node.lineno} imports {alias.name}"
        for name, tree in _trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and _is_package_import(node)
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


def test_all_lists_only_defined_names():
    stale = [
        f"{name}: {export}"
        for name, tree in _trees()
        for export in sorted(set(_exported_names(tree)) - _defined_names(tree))
    ]
    assert stale == []


def _definition(tree, name):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name:
            return node
        targets = getattr(node, "targets", None) or [getattr(node, "target", None)]
        if any(isinstance(t, ast.Name) and t.id == name for t in targets):
            return node
    return None


def _uses_own(tree, name):
    """Whether the defining module uses `name` outside its definition."""
    skip = _definition(tree, name)
    return any(
        isinstance(node, ast.Name) and node.id == name
        for top in tree.body
        if top is not skip
        for node in ast.walk(top)
    )


def _imports(tree, module):
    """Names another module takes from `module`: `from .module import x`
    or `module.x`."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _is_package_import(node):
            if (node.module or "").split(".")[-1] == module:
                names.update(alias.name for alias in node.names)
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == module
        ):
            names.add(node.attr)
    return names


def _bench_names():
    """Names the benchmark imports from the package, and its string
    constants, which is how its tracer names the functions it wraps."""
    names = set()
    for path in BENCH.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and _is_package_import(node):
                names.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
    return names


def test_every_export_has_a_caller():
    # The package's own re-exports in __init__ and the tests keep no name
    # alive; a caller is another module, the defining module outside the
    # definition, or the benchmark.
    trees = dict(_trees())
    del trees["__init__.py"]
    bench = _bench_names()
    dead = []
    for name, tree in trees.items():
        module = name[: -len(".py")]
        taken = bench.union(
            *(_imports(other, module) for other in trees.values() if other is not tree)
        )
        dead += [
            f"{name}: {export}"
            for export in _exported_names(tree)
            if export not in taken and not _uses_own(tree, export)
        ]
    assert dead == []


def test_package_stays_within_its_line_budget():
    # every module counts, the oracle and `selfcheck` included
    lines = sum(
        len(path.read_text(encoding="utf-8").splitlines())
        for path in PACKAGE.glob("*.py")
    )
    assert lines <= 3300


def test_only_selfcheck_imports_the_oracle():
    # `oracle` is the dense second implementation; the run path's modules
    # import neither it nor `selfcheck`, which compares against it, and the
    # package root re-exports neither
    trees = dict(_trees())
    users = sorted(name for name, tree in trees.items() if _imports(tree, "oracle"))
    assert users == ["selfcheck.py"]
    run_path = (
        "analytic",
        "detection",
        "fock_core",
        "metrics",
        "optics",
        "pipeline",
        "resource_states",
    )
    assert [
        module
        for module in run_path
        for other in ("oracle", "selfcheck")
        if _imports(trees[f"{module}.py"], other)
    ] == []


def test_package_imports_only_stdlib_and_numpy():
    # every import at any depth, so a lazy import inside a function counts
    foreign = [
        f"{name}:{node.lineno} imports {module}"
        for name, tree in _trees()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and not (isinstance(node, ast.ImportFrom) and _is_package_import(node))
        for module in (
            [alias.name for alias in node.names]
            if isinstance(node, ast.Import)
            else [node.module]
        )
        if module.split(".")[0] not in sys.stdlib_module_names | {"numpy", "hybridcat"}
    ]
    assert foreign == []


def _modules_after_cli_import():
    """Every module a fresh interpreter holds after `import hybridcat.cli`."""
    out = subprocess.run(
        [sys.executable, "-c", "import sys, hybridcat.cli; print(*sys.modules)"],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
        timeout=60,
    )
    return out.stdout.split()


def test_cli_import_loads_no_scipy():
    loaded = _modules_after_cli_import()
    assert [m for m in loaded if m.split(".")[0] == "scipy"] == []


def test_cli_import_loads_no_oracle():
    # `cli` imports `selfcheck` only inside `cmd_selfcheck`
    loaded = _modules_after_cli_import()
    assert [m for m in loaded if m in ("hybridcat.oracle", "hybridcat.selfcheck")] == []
