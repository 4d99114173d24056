"""README.md's examples, run as written."""
import re
import shlex
from pathlib import Path

from stagegrow.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_block(start: str) -> str:
    """The fenced block of README.md whose first line starts with `start`."""
    for block in re.findall(r"```\w*\n(.*?)```", README.read_text(), re.S):
        if block.startswith(start):
            return block
    raise AssertionError(f"README.md has no block starting {start!r}")


def test_plan_example_prints_what_readme_shows(capsys, tmp_path, monkeypatch):
    command, *expected = readme_block("$ stagegrow plan").splitlines()
    monkeypatch.chdir(tmp_path)
    assert main(shlex.split(command)[2:]) == 0
    assert capsys.readouterr().out.splitlines() == expected


def test_library_snippet_value():
    *setup, last = readme_block("from stagegrow import").splitlines()
    namespace: dict = {}
    exec("\n".join(setup), namespace)
    expression, _, value = last.partition("#")
    assert eval(expression, namespace) == int(value) == 6_342_475_776
