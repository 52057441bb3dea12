"""The README's examples run as written, and its Library section names
only real API."""

import dataclasses
import importlib
import re
import shlex
from pathlib import Path

import exclusion
from exclusion import decision
from exclusion.cli import main
from exclusion.errors import EXIT_OK

README = Path(__file__).resolve().parent.parent / "README.md"


def library_section() -> str:
    text = README.read_text()
    start = text.index("\n## Library\n")
    end = text.index("\n## ", start + 1)
    return text[start:end]


def python_block(section: str) -> str:
    match = re.search(r"```python\n(.*?)```", section, re.S)
    assert match, "the Library section has no python block"
    return match.group(1)


def witness_fields() -> set[str]:
    names = {"kind"}
    for name in decision.__all__:
        obj = getattr(decision, name)
        if dataclasses.is_dataclass(obj):
            names.update(f.name for f in dataclasses.fields(obj))
    return names


class TestLibrarySection:
    def test_example_runs_verbatim(self):
        exec(compile(python_block(library_section()), str(README), "exec"), {})

    def test_example_imports_are_exported(self):
        block = python_block(library_section())
        imported = re.findall(r"^from exclusion import (.+)$", block, re.M)
        names = {n.strip() for line in imported for n in line.split(",")}
        assert names
        assert names <= set(exclusion.__all__)

    def test_prose_names_resolve(self):
        prose = re.sub(r"```.*?```", "", library_section(), flags=re.S)
        tokens = re.findall(r"`([^`\s]+)`", prose)
        assert tokens
        fields = witness_fields()
        for token in tokens:
            if token.startswith("exclusion."):
                # a module, or an attribute of one; either lookup raises
                module, _, attr = token.rpartition(".")
                try:
                    importlib.import_module(token)
                except ModuleNotFoundError:
                    getattr(importlib.import_module(module), attr)
            else:
                assert (
                    token in exclusion.__all__
                    or token in decision.__all__
                    or token in fields
                ), token


def command_line_sessions() -> list[tuple[str, str]]:
    """Each `$ ` line of the Command line section's blocks, with the lines
    printed after it."""
    text = README.read_text()
    start = text.index("\n## Command line\n")
    section = text[start : text.index("\n## ", start + 1)]
    sessions = []
    for block in re.findall(r"```\n(.*?)```", section, re.S):
        for chunk in re.split(r"^\$ ", block, flags=re.M)[1:]:
            command, _, output = chunk.partition("\n")
            sessions.append((command, output))
    return sessions


def masked(output: str) -> str:
    return re.sub(r"^time: .*$", "time: <masked>", output, flags=re.M)


class TestCommandLineSection:
    def test_examples_print_what_the_readme_shows(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        sessions = command_line_sessions()
        assert sum(command.startswith("excl ") for command, _ in sessions) >= 5
        for command, output in sessions:
            argv = shlex.split(command)
            if argv[0] == "cat":
                (tmp_path / argv[1]).write_text(output)
                continue
            assert argv[0] == "excl", command
            assert main(argv[1:]) == EXIT_OK, command
            assert masked(capsys.readouterr().out) == masked(output), command
