"""The README's library quick start runs as written."""

import re
from pathlib import Path

from gsets import Interval

ROOT = Path(__file__).resolve().parent.parent


def quick_start_block() -> str:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_readme_quick_start_runs(monkeypatch):
    monkeypatch.chdir(ROOT)  # the block reads the fixtures by relative path
    namespace: dict = {}
    exec(compile(quick_start_block(), "README.md", "exec"), namespace)
    assert namespace["fuse"](namespace["measurements"], 1) == Interval(2, 10)
    assert len(namespace["tower"].levels) == 5
    pair = namespace["pair"]
    assert pair.lower == {"O1", "O2"}
    assert pair.upper == {"O1", "O2", "O3", "O7", "O10"}
