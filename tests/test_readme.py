"""README.md's examples, run as written, and its module, schema and flag
tables checked."""
import argparse
import importlib
import json
import re
import shlex
from dataclasses import MISSING, fields
from pathlib import Path

from stagegrow.cli import build_parser, load_run_config, main

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


def test_run_config_example_loads(tmp_path):
    cfg = json.loads(readme_block('{\n  "version"'))
    corpus = tmp_path / "corpus.bin"
    corpus.write_bytes(bytes(range(256)))
    cfg["corpus"] = [str(corpus)]
    (tmp_path / "run.json").write_text(json.dumps(cfg))
    _, plan, *_ = load_run_config(tmp_path / "run.json")
    assert plan.increments == (5, 3)


def test_schema_table_required_column_matches_the_dataclasses():
    table = re.search(r"\| section \| dataclass \| required \|\n\| --- \| --- \| --- \|\n"
                      r"((?:\|.*\n)+)", README.read_text())
    assert table, "README.md has no schema table"
    for row in table.group(1).splitlines():
        section, record, required = row.strip("|").split("|")
        module, _, name = re.search(r"`([\w.]+)`", record).group(1).rpartition(".")
        cls = getattr(importlib.import_module(module), name)
        assert set(re.findall(r"`(\w+)`", required)) == {
            f.name for f in fields(cls)
            if f.default is MISSING and f.default_factory is MISSING}, section


def test_flag_table_names_every_long_option():
    # Each subcommand's row of the CLI section's flag table names exactly
    # the long options its parser takes, so a new flag cannot go unstated.
    table = re.search(r"\| command \| flags \|\n\| --- \| --- \|\n((?:\|.*\n)+)",
                      README.read_text())
    assert table, "README.md has no flag table"
    documented = {}
    for row in table.group(1).splitlines():
        command, flags = row.strip("|").split("|", 1)
        documented[command.strip().strip("`")] = set(re.findall(r"`(--[\w-]+)`", flags))
    commands, = (a.choices for a in build_parser()._actions
                 if isinstance(a, argparse._SubParsersAction))
    assert documented == {
        name: {option for action in parser._actions
               for option in action.option_strings
               if option.startswith("--") and option != "--help"}
        for name, parser in commands.items()}
