"""The README's "Library" section runs as written and names only real API."""

import dataclasses
import importlib
import re
from pathlib import Path

import exclusion
from exclusion import decision

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
