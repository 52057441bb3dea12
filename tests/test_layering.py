"""Which package modules each module imports, read from the source.

The certificate checker and the oracle are the package's trusted base:
they must not import the code whose answers they check.  The pins are
read with ``ast``, so function-level imports count too.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "exclusion"


def package_imports(module: str, package: Path = PACKAGE) -> set[str]:
    """The package modules that ``module`` imports anywhere in its body."""
    tree = ast.parse((package / f"{module}.py").read_text(encoding="utf-8"))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:  # from . import x
                found.update(alias.name for alias in node.names)
            else:
                found.add(node.module.split(".")[0])
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("exclusion."):
            found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            found.update(
                alias.name.split(".")[1]
                for alias in node.names
                if alias.name.startswith("exclusion.")
            )
    return found


@pytest.mark.parametrize(
    "module, allowed",
    [
        ("errors", set()),
        ("model", {"errors"}),
        ("certificate", {"errors", "model"}),
        ("oracle", {"errors", "model", "semantics"}),
        ("semantics", {"errors", "model"}),
        ("parsing", {"errors", "model"}),
        ("kernel", {"errors"}),  # the gate's packed-team kernel, not the oracle
    ],
)
def test_trusted_modules_import_only_their_base(module, allowed):
    assert package_imports(module) <= allowed


def test_the_planner_imports_no_decision_or_refutation():
    # nor any I/O: the CLI writes the certificates the planner builds
    assert package_imports("calculus") == {"certificate", "errors", "model"}


def test_the_reader_sees_every_kind_of_package_import(tmp_path):
    source = (
        "from . import counterexample as cx\n"
        "from .model import Atom\n"
        "import exclusion.semantics\n"
        "def f():\n"
        "    from exclusion.parsing import parse_atom\n"
    )
    (tmp_path / "probe.py").write_text(source, encoding="utf-8")
    expected = {"counterexample", "model", "semantics", "parsing"}
    assert package_imports("probe", tmp_path) == expected
