import re
from pathlib import Path

import ne_translit

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), flags=re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def test_all_is_sorted_unique_and_resolves():
    names = ne_translit.__all__
    assert names == sorted(set(names))
    assert [name for name in names if not hasattr(ne_translit, name)] == []
