"""The code the README shows runs as written."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_library_use_example_runs():
    section = README.read_text().split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    (code,) = re.findall(r"```python\n(.*?)```", section, re.DOTALL)
    exec(compile(code, f"{README.name} (Library use)", "exec"), {})
