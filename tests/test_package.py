"""Package-level guards: the public names resolve, no runtime check
relies on ``assert``, which ``python -O`` strips, and no module keeps an
import it does not use."""

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


def _unused_imports(source: str) -> list[str]:
    """Names bound by module-level imports that the module never reads.
    ``__future__`` imports and statements marked ``# noqa: F401`` are
    exempt."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for stmt in tree.body:
        if not isinstance(stmt, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[stmt.lineno - 1:stmt.end_lineno]):
            continue
        for alias in stmt.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used:
                unused.append(f"{name} (line {stmt.lineno})")
    return unused


def test_modules_use_every_import():
    found = {path.name: _unused_imports(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"}
    assert {name: names for name, names in found.items() if names} == {}


def test_unused_import_check_flags_a_planted_import():
    source = (PACKAGE / "rng.py").read_text(encoding="utf-8")
    assert _unused_imports(source) == []
    assert _unused_imports("import os\n" + source) == ["os (line 1)"]
