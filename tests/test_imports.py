"""Every name a package module imports is read in that module.

An import kept only for others to patch carries `# noqa: F401` on its
line, as `harness`'s `rebuf_loss` does for `bench/layers.py`.
"""

import ast
import os

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "coopstream")
MODULES = sorted(name for name in os.listdir(SRC) if name.endswith(".py") and name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names `source` imports, neither read in it nor marked `# noqa: F401`."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = {}  # name -> line of its import
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = alias.lineno
    read = {
        node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted(
        name for name, line in bound.items()
        if name not in read and "# noqa: F401" not in lines[line - 1]
    )


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_read(module):
    with open(os.path.join(SRC, module)) as fh:
        assert unused_imports(fh.read()) == []


def test_the_check_sees_unread_and_marked_imports():
    source = "import json\nimport os  # noqa: F401\nfrom a import (\n    b,\n    c,\n)\nprint(b)\n"
    assert unused_imports(source) == ["c", "json"]
