"""Every name a module in src/ or tests/ imports is used by that module,
and every private module-level function in src/ is referenced by its module.

Package `__init__.py` files are skipped: their imports are re-exports.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's imports that it never reads."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_unused_import_is_found():
    assert unused_imports("import os\nfrom a import b as c, d\nd()\n") == [
        "os (line 1)",
        "c (line 2)",
    ]


def test_no_unused_imports():
    files = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))
    found = {
        str(path.relative_to(ROOT)): unused
        for path in files
        if path.name != "__init__.py"
        and (unused := unused_imports(path.read_text(encoding="utf-8")))
    }
    assert found == {}


def unreferenced_private_functions(source: str) -> list[str]:
    """Module-level `_name` functions that the module never refers to."""
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [
        f"{node.name} (line {node.lineno})"
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and node.name.startswith("_")
        and not node.name.endswith("__")
        and node.name not in used
    ]


def test_unreferenced_private_function_is_found():
    source = "def _kept():\n    pass\n\ndef _planted():\n    pass\n\nx = _kept\n"
    assert unreferenced_private_functions(source) == ["_planted (line 4)"]


def test_no_unreferenced_private_functions():
    found = {
        str(path.relative_to(ROOT)): unused
        for path in sorted((ROOT / "src").rglob("*.py"))
        if (unused := unreferenced_private_functions(path.read_text(encoding="utf-8")))
    }
    assert found == {}
