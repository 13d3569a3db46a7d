"""Every name a tsakit module imports is read somewhere in that module.

No linter ships with the toolchain, so this is the unused-import check
(pyflakes' F401) written against the standard library's `ast`.  A name
imported only for others to reach through the module is marked
`# noqa: F401` on its import line, as flake8 would honour it.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "tsakit"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """(line, name) of each import in `source` that nothing in it reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "noqa: F401" not in lines[alias.lineno - 1]:
                    bound = alias.asname or alias.name.split(".")[0]
                    imported.append((alias.lineno, bound))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [(line, name) for line, name in imported if name not in used]


def test_checker_flags_only_unread_imports():
    source = (
        "from __future__ import annotations\n"
        "import math\n"
        "import os.path\n"
        "import numpy as np\n"
        "from json import dumps, loads  # noqa: F401\n"
        "from .errors import (\n"
        "    FormatError,\n"
        "    read_text,\n"
        ")\n"
        "x = np.zeros(os.path.sep.count('/'))\n"
        "def f(a: FormatError): pass\n"
    )
    assert unused_imports(source) == [(2, "math"), (8, "read_text")]


@pytest.mark.parametrize("module", MODULES)
def test_module_reads_every_name_it_imports(module):
    source = (PACKAGE / module).read_text(encoding="utf-8")
    assert unused_imports(source) == []
