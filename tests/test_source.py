"""Checks on the library's source that catch what a deletion leaves behind:
an import nothing reads any more, and a CLI flag no mode reads."""

import ast
from pathlib import Path

import pytest

from markov_paging import cli

SRC = Path(__file__).resolve().parent.parent / "src" / "markov_paging"
# Names a module imports only to re-export them
REEXPORTS = {"audit.py": {"SequenceTooShort"}}


def unused_imports(source: str) -> list[str]:
    """The names ``source`` imports and never reads, in import order; a name
    listed in ``__all__`` counts as read."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            read |= {elt.value for elt in node.value.elts}
    return [name for name in imported if name not in read]


def test_unused_import_check_finds_one():
    assert unused_imports("import math\nimport numpy as np\nfrom os import path, sep\nnp.zeros(sep)\n") == ["math", "path"]
    assert unused_imports("from .chain import derived\n__all__ = ['derived']\n") == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_reads_every_name_it_imports(path):
    unused = set(unused_imports(path.read_text())) - REEXPORTS.get(path.name, set())
    assert not unused, f"{path.name} imports {sorted(unused)} and never reads them"


def test_every_flag_is_read_by_some_mode():
    # an orphan flag would still pass --config's key check
    read = {flag for required, optional in cli.READS.values() for flag in required + optional}
    assert [flag for flag in cli.FLAGS if flag not in read] == []
