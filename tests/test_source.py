"""Source hygiene of the package modules, read with ``ast``."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "schatlab"


def _exported(tree) -> set[str]:
    """The names a module lists in ``__all__``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")
                                          if p.name != "__init__.py"))
def test_module_uses_every_top_level_import(module):
    tree = ast.parse((SRC / module).read_text(encoding="utf-8"))
    imported = {(alias.asname or alias.name).split(".")[0]
                for node in tree.body
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = imported - used - _exported(tree)
    assert not unused, sorted(unused)


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_module_defines_every_export(module):
    # a removed definition must not leave a dangling name in __all__
    tree = ast.parse((SRC / module).read_text(encoding="utf-8"))
    defined = {node.name for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
    defined |= {target.id for node in tree.body
                if isinstance(node, (ast.Assign, ast.AnnAssign))
                for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
                if isinstance(target, ast.Name)}
    defined |= {(alias.asname or alias.name).split(".")[0] for node in tree.body
                if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    missing = _exported(tree) - defined
    assert not missing, sorted(missing)


def test_every_tolerance_is_read():
    # a tolerance nothing reads is a setting a configuration accepts in vain
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in SRC.glob("*.py")}
    tolerances = next(node for node in trees["matcore.py"].body
                      if isinstance(node, ast.ClassDef) and node.name == "Tolerances")
    names = {node.target.id for node in tolerances.body if isinstance(node, ast.AnnAssign)}
    read = {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    assert names and not names - read, sorted(names - read)


ROOT = SRC.parents[1]
PY_FILES = sorted(str(p.relative_to(ROOT)) for top in ("src", "tests", "scripts")
                  for p in (ROOT / top).rglob("*.py"))


@pytest.mark.parametrize("path", PY_FILES)
def test_file_parses_under_python_3_10_grammar(path):
    # pyproject.toml declares Python >= 3.10; newer syntax would fail to import there
    ast.parse((ROOT / path).read_text(encoding="utf-8"), filename=path, feature_version=(3, 10))
