"""The documentation runs against the library it documents: README's
library example executes, and every name fracfield exports resolves."""

import re
from pathlib import Path

import fracfield as ff

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs():
    section = README.read_text().split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, f"{README}:Library example", "exec"), {})


def test_every_exported_name_resolves():
    missing = [name for name in ff.__all__ if not hasattr(ff, name)]
    assert missing == []
    assert len(set(ff.__all__)) == len(ff.__all__)
