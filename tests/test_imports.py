"""No module imports a name it never reads.

No linter ships with the project, so this walks the syntax tree of every
module of the package, the tests and the scripts.  The package's
`__init__.py` is a re-export module and is skipped; elsewhere an import whose
line carries the comment `re-exported` is exempt.
"""
import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
INIT = ROOT / "src" / "rateaudit" / "__init__.py"


def unused_imports(path: pathlib.Path) -> list[str]:
    """`file:line: name` for each imported name that no `ast.Name` reads."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in read and "re-exported" not in lines[alias.lineno - 1]:
                unused.append(f"{path.relative_to(ROOT)}:{alias.lineno}: {name}")
    return unused


def test_every_import_is_read():
    files = [path for folder in ("src/rateaudit", "tests", "scripts")
             for path in sorted((ROOT / folder).glob("*.py")) if path != INIT]
    assert len(files) > 20
    assert [line for path in files for line in unused_imports(path)] == []
