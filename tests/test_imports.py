"""Every name a module of src/ or tests/ imports is referenced in it."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(path: Path) -> list[str]:
    """"file:line name" for each name an import in `path` binds and no code
    reads.  A package's __init__.py re-exports what it imports, and
    `from __future__` imports bind nothing, so both are exempt."""
    if path.name == "__init__.py":
        return []
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    rel = path.relative_to(ROOT)
    return [f"{rel}:{line} {name}" for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    paths = sorted(p for d in ("src", "tests") for p in (ROOT / d).rglob("*.py"))
    assert [u for p in paths for u in unused_imports(p)] == []
