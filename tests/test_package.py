"""Package-level guards: the public names resolve, no runtime check
relies on ``assert``, which ``python -O`` strips, no module keeps an
import it does not use or imports a package beyond the standard library
and numpy, no module reads an environment variable, no function, class
or method goes unused, every public ``autodiff`` name is reached from
another package module, and every file is written through
``data.staged`` into a directory made by ``data.output_dir``."""

import ast
import sys
from collections import Counter
from pathlib import Path

import cvlearn as cv

PACKAGE = Path(cv.__file__).resolve().parent
PERFBENCH = PACKAGE.parents[1] / "perfbench"


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


_ALLOWED_IMPORTS = sys.stdlib_module_names | {"numpy", "cvlearn"}


def _foreign_imports(source: str) -> list[str]:
    """Top-level packages imported anywhere in ``source`` that are neither
    the standard library, numpy nor cvlearn (relative imports are
    cvlearn). numpy is the package's only dependency, so any other import
    would fail on an install that has just that."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [f"{name} (line {node.lineno})" for name in names
                  if name.split(".")[0] not in _ALLOWED_IMPORTS]
    return found


def test_modules_import_only_the_standard_library_and_numpy():
    found = {name: _foreign_imports(src) for name, src in _package_sources().items()}
    assert {name: names for name, names in found.items() if names} == {}


def test_foreign_import_check_flags_planted_imports():
    source = (PACKAGE / "rng.py").read_text(encoding="utf-8")
    assert _foreign_imports(source) == []
    planted = ("import scipy\nfrom scipy.signal import hilbert\n" + source
               + "\n\ndef planted():\n    import torch.nn as nn\n    return nn\n")
    lines = planted.count("\n")
    assert _foreign_imports(planted) == [
        "scipy (line 1)", "scipy.signal (line 2)", f"torch.nn (line {lines - 1})"]


_ENVIRONMENT = {"environ", "environb", "getenv", "putenv"}


def _environment_reads(source: str) -> list[str]:
    """Uses of ``os``'s environment access in ``source``: an attribute of
    that name on any object (``os.environ``, an alias's ``getenv``), or an
    import of one from ``os``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in _ENVIRONMENT:
            found.append(f"{node.attr} (line {node.lineno})")
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found += [f"{alias.name} (line {node.lineno})" for alias in node.names
                      if alias.name in _ENVIRONMENT]
    return found


def test_modules_read_no_environment_variables():
    # the README: "cvlearn reads no environment variables"
    found = {name: _environment_reads(src) for name, src in _package_sources().items()}
    assert {name: uses for name, uses in found.items() if uses} == {}


def test_environment_check_flags_planted_reads():
    source = (PACKAGE / "rng.py").read_text(encoding="utf-8")
    assert _environment_reads(source) == []
    planted = ("from os import getenv, path\nimport os as system\n" + source
               + "\n\ndef planted():\n    return os.environ, system.putenv, os.environb\n")
    lines = planted.count("\n")
    assert _environment_reads(planted) == [
        "getenv (line 1)", f"environ (line {lines})", f"putenv (line {lines})",
        f"environb (line {lines})"]


def _name_reads(tree: ast.AST) -> Counter:
    """How often each name is read in ``tree`` as a Name or an Attribute."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree)
                   if isinstance(node, (ast.Name, ast.Attribute)))


def _definitions(tree: ast.Module) -> list[tuple[str, ast.AST]]:
    """(qualified name, node) of each module-level function and class and
    each method of a module-level class; dunder methods are exempt."""
    defs = []
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            defs.append((stmt.name, stmt))
        if isinstance(stmt, ast.ClassDef):
            defs += [(f"{stmt.name}.{node.name}", node) for node in stmt.body
                     if isinstance(node, ast.FunctionDef)
                     and not (node.name.startswith("__") and node.name.endswith("__"))]
    return defs


def _exported(tree: ast.Module) -> set[str]:
    return {elt.value for stmt in tree.body if isinstance(stmt, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets)
            for elt in stmt.value.elts}


def _unused_definitions(sources: dict[str, str], bench_sources: list[str]) -> list[str]:
    """Functions, classes and methods of the package modules in ``sources``
    that nothing reads. A definition counts as used when its name is read
    by a Name or Attribute in the package outside its own body, is in an
    ``__all__``, or is read by the benchmark scripts ``bench_sources``
    (which also look attributes up by string, so their string constants
    count).

    The match is by name only: any read of an equal name anywhere counts,
    so a definition whose name a local variable or an unrelated attribute
    shares (``Tape.grad`` beside local ``grad`` variables, say) passes
    unseen.
    """
    trees = {name: ast.parse(src) for name, src in sources.items()}
    exported = set().union(*(_exported(t) for t in trees.values()))
    reads = sum((_name_reads(t) for t in trees.values()), Counter())
    bench = set()
    for src in bench_sources:
        tree = ast.parse(src)
        bench |= set(_name_reads(tree))
        bench |= {node.value for node in ast.walk(tree)
                  if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    return [f"{module}:{qualname}" for module, tree in trees.items()
            for qualname, node in _definitions(tree)
            if node.name not in exported and node.name not in bench
            and reads[node.name] == _name_reads(node)[node.name]]


def _package_sources() -> dict[str, str]:
    return {path.name: path.read_text(encoding="utf-8")
            for path in sorted(PACKAGE.glob("*.py"))}


def _bench_sources() -> list[str]:
    return [path.read_text(encoding="utf-8") for path in sorted(PERFBENCH.glob("*.py"))]


def test_every_definition_is_used():
    assert sorted(PERFBENCH.glob("*.py")), PERFBENCH
    assert _unused_definitions(_package_sources(), _bench_sources()) == []


def test_unused_definition_check_flags_planted_defs():
    sources = _package_sources()
    sources["rng.py"] += (
        "\n\ndef planted(n):\n    return planted(n - 1) if n else 0\n"
        "\n\nclass Planted:\n    def __init__(self):\n        pass\n\n"
        "    def planted_method(self):\n        return self.planted_method\n")
    assert _unused_definitions(sources, _bench_sources()) == [
        "rng.py:planted", "rng.py:Planted", "rng.py:Planted.planted_method"]


def _unreached_tape_names(sources: dict[str, str]) -> list[str]:
    """Public functions and classes of ``autodiff.py`` in ``sources`` that
    no other package module reaches, as ``<alias>.<name>`` of an imported
    ``autodiff`` module or through ``from .autodiff import <name>``. A
    tape op that only the tests call is one the package does not need."""
    public = [stmt.name for stmt in ast.parse(sources["autodiff.py"]).body
              if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
              and not stmt.name.startswith("_")]
    reached = set()
    for module, source in sources.items():
        if module == "autodiff.py":
            continue
        tree = ast.parse(source)
        aliases = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "autodiff":
                reached |= {alias.name for alias in node.names}
            elif isinstance(node, ast.ImportFrom):
                aliases |= {alias.asname or alias.name for alias in node.names
                            if alias.name == "autodiff"}
        reached |= {node.attr for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in aliases}
    return [name for name in public if name not in reached]


def test_every_tape_name_is_reached_from_the_package():
    assert _unreached_tape_names(_package_sources()) == []


def test_unreached_tape_name_check_flags_planted_ops():
    sources = _package_sources()
    sources["autodiff.py"] += (
        "\n\ndef planted_op(x):\n    return x\n"
        "\n\nclass PlantedTape:\n    pass\n"
        "\n\ndef _private_helper(x):\n    return x\n")
    assert _unreached_tape_names(sources) == ["planted_op", "PlantedTape"]
    # a read elsewhere in the package reaches a name, whichever way it is imported
    sources["rng.py"] += "\n\nfrom . import autodiff as tape_ops\nOP = tape_ops.planted_op\n"
    sources["data.py"] += "\n\nfrom .autodiff import PlantedTape  # noqa: F401\n"
    assert _unreached_tape_names(sources) == []


_WRITES = ("write_text", "write_bytes")


def _unstaged_writes(sources: dict[str, str]) -> list[str]:
    """Calls that could leave a half-written output: ``mkdir`` anywhere but
    in ``data.output_dir``, and ``write_text`` or ``write_bytes`` outside
    the body of a ``with staged(...)`` block."""
    found = []

    def is_staged(item: ast.withitem) -> bool:
        call = item.context_expr
        return isinstance(call, ast.Call) and "staged" in (
            getattr(call.func, "id", None), getattr(call.func, "attr", None))

    def visit(node, module, function, staged):
        if isinstance(node, ast.FunctionDef):
            function = node.name
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            name = node.func.attr
            if ((name == "mkdir" and (module, function) != ("data.py", "output_dir"))
                    or (name in _WRITES and not staged)):
                found.append(f"{module}:{node.lineno} {name}")
        for child in ast.iter_child_nodes(node):
            in_body = isinstance(node, ast.With) and child in node.body
            visit(child, module, function,
                  staged or (in_body and any(is_staged(item) for item in node.items)))

    for module, source in sources.items():
        visit(ast.parse(source), module, None, False)
    return found


def test_every_write_is_staged():
    assert _unstaged_writes(_package_sources()) == []


def test_unstaged_write_check_flags_planted_writes():
    sources = _package_sources()
    lines = sources["rng.py"].count("\n")
    sources["rng.py"] += (
        "\n\ndef planted(path, data):\n"
        "    path.parent.mkdir()\n"
        "    path.write_bytes(data)\n"
        "    with staged(path) as (tmp,), open(path) as f:\n"
        "        tmp.write_text(f.read())\n"
        "    with open(path) as f, staged(path) as (tmp,):\n"
        "        tmp.write_bytes(data)\n"
        "    with open(path) as f:\n"
        "        f.write_text(data)\n"
        "\n\ndef output_dir(path):\n"
        "    path.mkdir()\n")
    assert _unstaged_writes(sources) == [
        f"rng.py:{lines + 4} mkdir", f"rng.py:{lines + 5} write_bytes",
        f"rng.py:{lines + 11} write_text", f"rng.py:{lines + 15} mkdir"]
