"""The package imports nothing outside the standard library."""

import ast
import sys
from pathlib import Path

import ne_translit

PACKAGE_DIR = Path(ne_translit.__file__).parent


def _absolute_imports(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module


def test_every_module_imports_only_the_package_and_the_standard_library():
    modules = sorted(PACKAGE_DIR.rglob("*.py"))
    assert len(modules) > 10
    outside = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for lineno, name in _absolute_imports(tree):
            top = name.partition(".")[0]
            if top != "ne_translit" and top not in sys.stdlib_module_names:
                outside.append(f"{path.name}:{lineno}: {name}")
    assert outside == []


def test_the_check_sees_a_third_party_import():
    tree = ast.parse("import os\nimport numpy as np\nfrom scipy import stats\nfrom . import kb\n")
    names = [name for _, name in _absolute_imports(tree)]
    assert names == ["os", "numpy", "scipy"]
    assert [n for n in names if n not in sys.stdlib_module_names] == ["numpy", "scipy"]
