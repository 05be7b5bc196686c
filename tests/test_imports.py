"""Import hygiene of `src` and `tests`, checked by an AST scan so that no
linter needs to be installed."""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TREES = (ROOT / "src", ROOT / "tests")


def _modules():
    return sorted(p for tree in TREES for p in tree.rglob("*.py"))


def unused_imports(source: str) -> list:
    """Names bound by module-level imports that the module never reads; a
    name listed in a module-level `__all__` counts as read."""
    tree = ast.parse(source)
    bound = []
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names if a.name != "*"]
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= {e.value for e in node.value.elts}
    return sorted(set(bound) - used)


def test_scan_finds_an_unused_import():
    source = ("import math\nimport random\nfrom os import path, sep\n"
              "__all__ = ['sep']\nprint(math.pi)\n")
    assert unused_imports(source) == ["path", "random"]


def test_no_unused_module_level_imports():
    found = {str(p.relative_to(ROOT)):
             unused_imports(p.read_text(encoding="utf-8")) for p in _modules()}
    assert {path: names for path, names in found.items() if names} == {}


def test_src_imports_only_the_standard_library():
    outside = set()
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside |= {(path.name, name) for name in names
                        if name.split(".")[0] not in sys.stdlib_module_names
                        and name.split(".")[0] != "esacert"}
    assert outside == set()
