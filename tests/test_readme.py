"""The README's Python examples run against the library as it stands, so the
documented API cannot drift from ``src/``."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_examples_run():
    examples = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert examples
    for code in examples:
        exec(compile(code, str(README), "exec"), {})
