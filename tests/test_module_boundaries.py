"""Static checks on the package layout: no module imports another's private
helpers, and every `__all__` entry is defined where it is exported."""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "hybridcat"


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
