"""Every name a module of src/ or tests/ imports is referenced in it, every
private module-level name of src/ is read somewhere in src/, and every one
of tests/ somewhere in src/ or tests/; no module of src/ squares with ** 2
or uses pow or np.linalg.norm, only its unit guards raise NotUnit, none
imports hopfrot.verify, or names from it, at module level, and each
standard stream has one writer."""

import ast
from collections import Counter
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


UNPORTABLE = {"pow", "math.pow", "np.linalg.norm", "numpy.linalg.norm"}


def unportable(path: Path) -> list[str]:
    """"file:line code" for each square `x ** 2` and each use of libm's pow
    or of np.linalg.norm in `path`.  README's portability claims rest on
    their absence: x ** 2 is libm's pow(x, 2.0), np.linalg.norm rounds as
    the CPU's BLAS kernel does, and every norm is vector_norm."""
    tree = ast.parse(path.read_text(), filename=str(path))
    rel = path.relative_to(ROOT)
    return [
        f"{rel}:{node.lineno} {ast.unparse(node)}"
        for node in ast.walk(tree)
        if (isinstance(node, (ast.Name, ast.Attribute)) and ast.unparse(node) in UNPORTABLE)
        or (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
            and isinstance(node.right, ast.Constant) and node.right.value == 2)
    ]


def test_library_has_no_pow_and_no_blas_norm():
    paths = sorted((ROOT / "src" / "hopfrot").glob("*.py"))
    assert [u for p in paths for u in unportable(p)] == []


UNIT_GUARDS = {"src/hopfrot/quat.py unit_norm", "src/hopfrot/sphere.py require_sphere"}


def not_unit_raises(path: Path) -> set[str]:
    """"file scope" for each scope of `path` that raises NotUnit itself: a
    function or class by its dotted name, or <module>."""
    rel = path.relative_to(ROOT)
    found = set()

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Raise) and child.exc is not None:
                exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                if ast.unparse(exc).rpartition(".")[2] == "NotUnit":
                    found.add(f"{rel} {scope}")
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, child.name if scope == "<module>" else f"{scope}.{child.name}")
            else:
                visit(child, scope)

    visit(ast.parse(path.read_text(), filename=str(path)), "<module>")
    return found


def test_one_unit_guard():
    # every unit check calls quat.unit_norm, which decides for numbers and
    # columns alike; require_sphere keeps its own message, which names the point
    paths = sorted((ROOT / "src" / "hopfrot").glob("*.py"))
    assert set().union(*map(not_unit_raises, paths)) - UNIT_GUARDS == set()


def reads(tree: ast.AST) -> Counter:
    """How often each name is read in `tree`, as a name or an attribute."""
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load))
        or isinstance(node, ast.Attribute)
    )


def defined(node: ast.stmt) -> list[str]:
    """The names a module-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def unread_privates(paths: list[Path]) -> list[str]:
    """"file:line name" for each module-level function, class or constant
    whose name starts with one underscore and that no code in `paths`
    reads outside its own definition."""
    trees = {p: ast.parse(p.read_text(), filename=str(p)) for p in paths}
    everywhere = sum((reads(t) for t in trees.values()), Counter())
    return [
        f"{p.relative_to(ROOT)}:{node.lineno} {name}"
        for p, tree in trees.items()
        for node in tree.body
        for name in defined(node)
        if name.startswith("_") and not name.startswith("__")
        and everywhere[name] == reads(node)[name]
    ]


def test_no_unread_private_names():
    src = sorted((ROOT / "src" / "hopfrot").glob("*.py"))
    tests = sorted((ROOT / "tests").glob("*.py"))
    assert unread_privates(src) == []
    assert [u for u in unread_privates(src + tests) if u.startswith("tests/")] == []


def module_level(node: ast.AST):
    """The nodes under `node` that run when its module is imported: all but
    those in function bodies."""
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield child
            yield from module_level(child)


def verify_imports(path: Path) -> list[str]:
    """"file:line code" for each import at module level of `path` that runs
    the lazily loaded hopfrot.verify: of names from it, or of the module by
    its dotted name, which reads its __spec__."""
    rel = path.relative_to(ROOT)
    return [
        f"{rel}:{node.lineno} {ast.unparse(node)}"
        for node in module_level(ast.parse(path.read_text(), filename=str(path)))
        if (isinstance(node, ast.ImportFrom) and node.module in ("verify", "hopfrot.verify"))
        or (isinstance(node, ast.Import) and "hopfrot.verify" in [alias.name for alias in node.names])
    ]


# the functions that may write each standard stream: cli.main ends a failed
# write to stdout, and cli._say one to stderr, by that stream's one rule
WRITERS = {"sys.stdout": {"_emit", "_emit_rows", "_print_message"}, "sys.stderr": {"_say"}}


def stream_writers(path: Path) -> list[str]:
    """"file:line function code" for each print call in `path`, each
    reference to sys.stderr, and each write to sys.stdout (by a write
    method or through its byte layer) outside the functions WRITERS names."""
    rel = path.relative_to(ROOT)
    found = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            code = ast.unparse(child)
            if isinstance(child, ast.Call) and ast.unparse(child.func) == "print":
                found.append(f"{rel}:{child.lineno} {scope} {code}")
            elif isinstance(child, ast.Attribute) and (
                (code == "sys.stderr" and scope not in WRITERS["sys.stderr"])
                or (ast.unparse(child.value) == "sys.stdout" and child.attr in ("write", "writelines", "buffer")
                    and scope not in WRITERS["sys.stdout"])
            ):
                found.append(f"{rel}:{child.lineno} {scope} {code}")
            visit(child, scope)

    visit(ast.parse(path.read_text(), filename=str(path)), "<module>")
    return found


def test_each_standard_stream_has_one_writer():
    paths = sorted((ROOT / "src" / "hopfrot").glob("*.py"))
    assert [u for p in paths for u in stream_writers(p)] == []


def test_verify_is_not_imported_at_module_level():
    # __init__ registers the lazy module and cli holds the module object
    # (from . import verify), so only convert and verify compile and run it
    paths = sorted((ROOT / "src" / "hopfrot").glob("*.py"))
    assert [u for p in paths for u in verify_imports(p)] == []
