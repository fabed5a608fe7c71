"""Every name a library module imports is used in that module.

Plain ``ast`` scan, no dependency: a name counts as used when it occurs as
an identifier anywhere in the module, annotations included.  The package
``__init__`` is exempt because its imports are the public re-exports.
"""

import ast
from pathlib import Path

SRC = Path(__file__).parent.parent / "src" / "lotva"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items()
            if name not in used]


def test_scanner_flags_an_unused_import():
    assert unused_imports("import os\nfrom re import compile, match\n"
                          "match\n") == ["os (line 1)", "compile (line 2)"]


def test_no_unused_imports_in_library():
    found = {}
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        bad = unused_imports(path.read_text(encoding="utf-8"))
        if bad:
            found[path.name] = bad
    assert found == {}
