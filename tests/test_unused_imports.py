"""Every module of the package and of the test suite uses each name it imports.

The check parses each module with ast. An import whose line carries
"# noqa" is exempt, for a name that is imported to be re-exported.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    path.relative_to(ROOT).as_posix()
    for directory in ("src/corpus_forge", "tests")
    for path in (ROOT / directory).glob("*.py")
)


def unused_imports(source):
    """(line, name) of each imported name that the module never uses."""
    lines = source.splitlines()
    imported = {}
    used = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                lineno = getattr(alias, "lineno", node.lineno)
                if "# noqa" in lines[lineno - 1] or alias.name == "*":
                    continue
                imported[alias.asname or alias.name.split(".")[0]] = lineno
    return sorted((lineno, name) for name, lineno in imported.items()
                  if name not in used)


def test_finds_unused_names_and_honours_noqa():
    source = (
        "import os\n"
        "import re  # noqa: F401\n"
        "import xml.dom\n"
        "from json import dumps, loads as parse\n"
        "from typing import (\n"
        "    Any,\n"
        "    List,  # noqa\n"
        ")\n"
        "print(dumps, xml.dom)\n"
    )
    assert unused_imports(source) == [(1, "os"), (4, "parse"), (6, "Any")]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    source = (ROOT / module).read_text(encoding="utf-8")
    assert unused_imports(source) == []
