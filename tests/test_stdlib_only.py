import ast
import sys
from pathlib import Path

import metric_cluster

PACKAGE_DIR = Path(metric_cluster.__file__).parent


def imported_modules(path: Path):
    """Top-level names of the absolute imports in one module."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_library_imports_only_the_standard_library():
    modules = sorted(PACKAGE_DIR.glob("*.py"))
    assert modules
    foreign = {
        f"{path.name}: {name}"
        for path in modules
        for name in imported_modules(path)
        if name not in sys.stdlib_module_names
    }
    assert not foreign, f"imports outside the standard library: {sorted(foreign)}"
