import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _unused_imports(path):
    """`path:line: name` for each name that path imports and never uses."""
    tree = ast.parse(path.read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names = [a.asname or a.name for a in node.names]
        else:
            continue
        imported += [(node.lineno, name) for name in names]
    # an attribute chain such as mp.mpf starts with the Name mp
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{path.relative_to(ROOT)}:{line}: {name}"
            for line, name in sorted(imported) if name not in used]


def test_no_unused_imports():
    # __init__.py imports only to re-export
    paths = [p for p in sorted((ROOT / "src" / "g2heights").glob("*.py"))
             if p.name != "__init__.py"] + sorted((ROOT / "tests").glob("*.py"))
    unused = [hit for p in paths for hit in _unused_imports(p)]
    assert unused == []
