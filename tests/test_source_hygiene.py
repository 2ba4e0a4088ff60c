"""Static checks of the library source with the standard ast module: no
module imports a name it never uses (the package __init__ re-exports its
imports), and every private module-level function or method is referenced
somewhere in the package."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "parahiggs"


def parsed_modules():
    return {path.name: ast.parse(path.read_text(), str(path))
            for path in sorted(PACKAGE.glob("*.py"))}


def names_read(tree):
    """Every bare name and every attribute name that occurs in tree."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def private_definitions(tree):
    """Module-level functions and methods whose names start with one
    underscore and are not dunders."""
    scopes = [tree.body] + [node.body for node in tree.body if isinstance(node, ast.ClassDef)]
    for body in scopes:
        for node in body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and node.name.startswith("_") and not node.name.endswith("__")):
                yield node.name


def test_library_modules_use_every_import():
    unused = []
    for name, tree in parsed_modules().items():
        if name == "__init__.py":
            continue
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in read:
                        unused.append(f"{name}:{node.lineno} {bound}")
    assert not unused


def test_private_functions_are_referenced():
    modules = parsed_modules()
    read = set().union(*map(names_read, modules.values()))
    unreferenced = [f"{name} {fn}" for name, tree in modules.items()
                    for fn in private_definitions(tree) if fn not in read]
    assert not unreferenced
