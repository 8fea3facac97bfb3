"""Every name a module in src/ or tests/ imports is used by that module,
every private module-level function in src/ is referenced by its module,
and every function, method and class defined in src/ is referenced
somewhere in src/, tests/ or perfbench/.

Package `__init__.py` files are skipped by the import check: their imports
are re-exports.
"""

import ast
import re
from collections import Counter
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


DOTTED_NAME = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")


def name_uses(tree: ast.AST) -> Counter:
    """Identifiers a tree refers to: names, attributes, imported names, and
    strings that are dotted names (wrap points such as "step.callback")."""
    uses: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            uses[node.id] += 1
        elif isinstance(node, ast.Attribute):
            uses[node.attr] += 1
        elif isinstance(node, ast.alias):
            uses.update(node.name.split("."))
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and DOTTED_NAME.fullmatch(node.value)
        ):
            uses.update(node.value.split("."))
    return uses


def definitions(body: list[ast.stmt], prefix: str = ""):
    """(qualified name, node) of every def and class, nested ones included."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield prefix + node.name, node
            yield from definitions(node.body, f"{prefix}{node.name}.")


def is_click_command(node: ast.AST) -> bool:
    return any(
        isinstance(d, ast.Call)
        and isinstance(d.func, ast.Attribute)
        and d.func.attr in ("command", "group")
        for d in node.decorator_list
    )


def unreferenced_definitions(sources: dict[str, str], readers: list[str]) -> list[str]:
    """Definitions in `sources` whose name occurs in no source or reader
    outside the definition itself. Dunders and click commands are exempt."""
    trees = {path: ast.parse(text) for path, text in sources.items()}
    uses: Counter = Counter()
    for tree in [*trees.values(), *map(ast.parse, readers)]:
        uses += name_uses(tree)
    return [
        f"{path}: {qualname} (line {node.lineno})"
        for path, tree in trees.items()
        for qualname, node in definitions(tree.body)
        if not (node.name.startswith("__") and node.name.endswith("__"))
        and not is_click_command(node)
        and uses[node.name] == name_uses(node)[node.name]
    ]


def test_unreferenced_definition_is_found():
    src = (
        "class Kept:\n"
        "    def __init__(self):\n"
        "        pass\n"
        "    def recurse(self):\n"
        "        return self.recurse()\n"
        "\n"
        "def planted():\n"
        "    pass\n"
        "\n"
        "@main.command()\n"
        "def cmd():\n"
        "    pass\n"
        "\n"
        "def wrapped():\n"
        "    pass\n"
    )
    readers = ["from a import Kept\n", "POINTS = [('a', 'wrapped.callback')]\n"]
    assert unreferenced_definitions({"a.py": src}, readers) == [
        "a.py: Kept.recurse (line 4)",
        "a.py: planted (line 7)",
    ]


def test_no_unreferenced_definitions():
    text = lambda path: path.read_text(encoding="utf-8")
    sources = {str(p.relative_to(ROOT)): text(p) for p in sorted((ROOT / "src").rglob("*.py"))}
    readers = [text(p) for d in ("tests", "perfbench") for p in sorted((ROOT / d).rglob("*.py"))]
    assert unreferenced_definitions(sources, readers) == []
