"""README.md's examples, run as written, and its module table checked."""
import importlib
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


def test_module_table_names_what_each_module_has():
    # Each backticked name in a row of the module table, dotted or not,
    # must exist in that row's module, so a removal cannot leave it stale.
    table = re.search(r"\| module \| what it holds \|\n\| --- \| --- \|\n"
                      r"((?:\|.*\n)+)", README.read_text())
    assert table, "README.md has no module table"
    checked = 0
    for row in table.group(1).splitlines():
        module, held = row.strip("|").split("|", 1)
        obj = importlib.import_module(f"stagegrow.{module.strip().strip('`')}")
        for name in re.findall(r"`([A-Za-z_]\w*(?:\.\w+)*)`", held):
            target = obj
            for part in name.split("."):
                assert hasattr(target, part), f"{module.strip()} row: {name}"
                target = getattr(target, part)
            checked += 1
    assert checked, "the module table names nothing"
