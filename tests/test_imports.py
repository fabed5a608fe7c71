"""Every name a library module imports is used in that module, and every
function, class and method the library defines is used somewhere.

Plain ``ast`` scans, no dependency: a name counts as used when it occurs as
an identifier, annotations included.  The package ``__init__`` is exempt
because its imports are the public re-exports, and those do not count as
uses of a definition either.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).parent.parent
SRC = ROOT / "src" / "lotva"
SCANNED = ("src", "tests", "demos", "perfbench")


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


def _uses(tree: ast.AST) -> Counter:
    """Identifiers a subtree uses: ``name`` for a name or an imported name,
    ``.name`` for an attribute."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out["." + node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def dead_definitions(library: dict[str, str], others: list[str]) -> list[str]:
    """Top-level functions and classes of the library modules (module name
    -> source) whose name occurs nowhere outside their own definition, as a
    name or an attribute, and non-dunder methods that nothing outside their
    own body uses as an attribute.  ``others`` are the other sources whose
    uses count."""
    trees = {module: ast.parse(source) for module, source in library.items()}
    total = Counter()
    for tree in [*trees.values(), *map(ast.parse, others)]:
        total += _uses(tree)
    dead = []
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, defs):
                continue
            own = _uses(node)
            keys = (node.name, "." + node.name)
            if all(total[k] == own[k] for k in keys):
                dead.append(f"{module}.{node.name}")
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                if isinstance(item, defs) and not item.name.startswith("__"):
                    key = "." + item.name
                    if total[key] == _uses(item)[key]:
                        dead.append(f"{module}.{node.name}.{item.name}")
    return dead


def test_scanner_flags_a_dead_definition():
    library = {"m": "def used():\n    return helper()\n"
                    "def helper():\n    return 1\n"
                    "def dead():\n    return dead()\n"
                    "class C:\n"
                    "    def __len__(self):\n        return 0\n"
                    "    def run(self):\n        return self.run()\n"
                    "    def go(self):\n        return 1\n"}
    others = ["from m import used, C\nC().go()\n"]
    assert dead_definitions(library, others) == ["m.dead", "m.C.run"]


def test_no_dead_definitions_in_library():
    library, others = {}, []
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            source = path.read_text(encoding="utf-8")
            if path.parent == SRC and path.name != "__init__.py":
                library[path.stem] = source
            elif path != SRC / "__init__.py":
                others.append(source)
    assert dead_definitions(library, others) == []
