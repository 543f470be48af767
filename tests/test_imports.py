"""Every top-level import of the package and of the tests is used."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# the acceptance criteria are kept as they were written, imports and all
EXEMPT = {"test_acceptance.py"}


def _unused_imports(path: Path) -> list:
    """The names that path's top-level imports bind and that nothing in it
    reads, a name in its __all__ counting as read."""
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign) and isinstance(node.value, (ast.List, ast.Tuple))
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return sorted(f"{path.relative_to(ROOT)}:{line} {name}"
                  for name, line in bound.items() if name not in used)


def test_no_unused_top_level_imports():
    paths = [p for p in sorted((ROOT / "src" / "haartest").glob("*.py"))
             if p.name != "__init__.py"]
    paths += [p for p in sorted((ROOT / "tests").glob("*.py")) if p.name not in EXEMPT]
    assert len(paths) > 10
    assert [entry for path in paths for entry in _unused_imports(path)] == []
