import ast
import re
from pathlib import Path

import ne_translit

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"

# Imported only so that the benchmark's tracer can patch the name on that
# module; ROADMAP item 1 drops these tracer places, and then the imports.
TRACER_ONLY_IMPORTS = {("cli", "viterbi"), ("pipeline", "viterbi"), ("pipeline", "phonify_latin")}


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), flags=re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def test_all_is_sorted_unique_and_resolves():
    names = ne_translit.__all__
    assert names == sorted(set(names))
    assert [name for name in names if not hasattr(ne_translit, name)] == []


def test_src_has_no_unused_imports():
    unused = []
    for path in sorted((ROOT / "src" / "ne_translit").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = []
        for node in tree.body:
            if isinstance(node, ast.Import):
                imported += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported += [alias.asname or alias.name for alias in node.names]
        # a name, or the base of an attribute, which is a name too
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
                used.update(ast.literal_eval(node.value))
        unused += [
            f"{path.stem}.{name}"
            for name in imported
            if name not in used and (path.stem, name) not in TRACER_ONLY_IMPORTS
        ]
    assert unused == []
