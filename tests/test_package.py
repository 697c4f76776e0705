"""Package-level guards: the public names resolve, and no runtime check
relies on ``assert``, which ``python -O`` strips."""

import ast
from pathlib import Path

import cvlearn as cv

PACKAGE = Path(cv.__file__).resolve().parent


def test_every_public_name_resolves():
    missing = [name for name in cv.__all__ if not hasattr(cv, name)]
    assert missing == []
    assert len(set(cv.__all__)) == len(cv.__all__)


def test_package_has_no_assert_statements():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert sorted(PACKAGE.glob("*.py")), PACKAGE
    assert found == []
