"""The README's Python examples run against the library as it stands, and its
command-line synopsis names only options the parser accepts, so the documented
API cannot drift from ``src/``."""

import argparse
import pathlib
import re

from ternlab import cli

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_examples_run():
    examples = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert examples
    for code in examples:
        exec(compile(code, str(README), "exec"), {})


def test_readme_synopsis_options_exist():
    """Every option in the "Command line" synopsis is one its command accepts."""
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    lines = re.search(r"```sh\n(.*?)```", section, re.S).group(1).strip().splitlines()
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert sorted(line.split()[1] for line in lines) == sorted(sub.choices)
    for line in lines:
        options = sub.choices[line.split()[1]]._option_string_actions
        for option in re.findall(r"--[a-z-]+", line):
            assert option in options, (line, option)
