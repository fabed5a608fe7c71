"""Every name a library module imports is used in that module, every
function, class and method the library defines is used somewhere, and the
names the package re-exports are the ones the README's "Public API" section
lists.

Plain ``ast`` scans, no dependency: a name counts as used when it occurs as
an identifier, annotations included.  The package ``__init__`` is exempt
because its imports are the public re-exports, and those do not count as
uses of a definition either.  A fresh interpreter checks that the core
loads none of the paper layer, which loads on first use.
"""

import ast
import importlib
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import lotva

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


def readme_public_api(text: str) -> dict[str, list[str]]:
    """Per module, sorted, the names the "Public API" section of the README
    text lists: a bullet ``- `lotva.MODULE`: `name`, ...`` and its indented
    continuation lines."""
    section = text.split("\n## Public API\n", 1)[1].split("\n## ", 1)[0]
    api: dict[str, list[str]] = {}
    module = None
    for line in section.splitlines():
        if line.startswith("- `lotva."):
            module, line = line[len("- `lotva."):].split("`:", 1)
            api[module] = []
        elif not line.startswith("  "):
            module = None
        if module:
            api[module] += re.findall(r"`(\w+)`", line)
    return {module: sorted(names) for module, names in api.items()}


def package_reexports(source: str) -> dict[str, list[str]]:
    """Per module, sorted, the names the package ``__init__`` source
    imports from it, and those its lazy name table ``_PAPER`` (module ->
    names, space-separated) loads on first use."""
    out: dict[str, list[str]] = {}
    for node in ast.parse(source).body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            out.setdefault(node.module, []).extend(a.name for a in node.names)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "_PAPER" for t in node.targets):
            for module, names in ast.literal_eval(node.value).items():
                out.setdefault(module, []).extend(names.split())
    return {module: sorted(names) for module, names in out.items()}


def test_reexport_scanner_reads_the_lazy_table():
    source = ("from .a import f, G\n_PAPER = {\"b\": \"k h\",\n"
              "          \"a\": \"z\"}\nOTHER = {\"c\": \"q\"}\n")
    assert package_reexports(source) == {"a": ["G", "f", "z"], "b": ["h", "k"]}


def test_readme_scanner_reads_bullets():
    text = ("# t\n## Public API\n\nIntro `x`.\n\n- `lotva.a`: `f`, `G`,\n  `h`\n"
            "- `lotva.b`: `k`\n\nProse `z`.\n\n## Next\n- `lotva.c`: `q`\n")
    assert readme_public_api(text) == {"a": ["G", "f", "h"], "b": ["k"]}


def test_public_api_matches_readme():
    listed = readme_public_api((ROOT / "README.md").read_text(encoding="utf-8"))
    exported = package_reexports((SRC / "__init__.py").read_text(encoding="utf-8"))
    assert listed == exported


def test_lazy_names_resolve_to_their_modules():
    """Each name of the lazy table is, through ``getattr(lotva, name)``,
    the object its module defines, and ``dir(lotva)`` lists it; so does
    each lazy module, as an attribute of the package."""
    for module, names in lotva._PAPER.items():
        mod = importlib.import_module(f"lotva.{module}")
        assert getattr(lotva, module) is mod
        for name in names.split():
            assert getattr(lotva, name) is getattr(mod, name), name
            assert name in dir(lotva), name
        assert module in dir(lotva)
    assert set(lotva._LAZY) <= set(lotva.__all__)
    assert set(lotva._PAPER) <= set(lotva.__all__)


PAPER_LAYER = ("lotva.complexes", "lotva.linkage", "lotva.weights",
               "lotva.diagrams")


@pytest.mark.parametrize("module", ["lotva", "lotva.certify", "lotva.cli"])
def test_core_imports_leave_the_paper_layer_unloaded(module):
    """A fresh interpreter that imports the package, the certify core or
    the command line loads none of the paper layer; one that then reads a
    paper-layer name, or a paper module as a package attribute, loads
    that module and what it imports."""
    code = (f"import sys, {module}, lotva\n"
            "loaded = lambda: sorted(m for m in sys.modules if m in PAPER)\n"
            f"PAPER = {PAPER_LAYER!r}\n"
            "print(loaded())\n"
            "lotva.build_link\n"
            "print(loaded())\n"
            "lotva.weights.weight_test\n"
            "print(loaded())\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC.parent)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "[]", "['lotva.complexes', 'lotva.linkage']",
        "['lotva.complexes', 'lotva.linkage', 'lotva.weights']"]
