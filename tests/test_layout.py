"""Module layout: no module of the package imports another's private names."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "xyep"


def private_imports(path: Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and not (node.module or "").startswith("xyep"):
            continue
        for alias in node.names:
            name = alias.name
            if name.startswith("_") and not name.endswith("__"):
                found.append(f"{path.name}:{node.lineno} "
                             f"from {'.' * node.level}{node.module or ''} "
                             f"import {name}")
    return found


def test_no_module_imports_private_helpers():
    files = sorted(SRC.glob("*.py"))
    assert files
    found = [hit for path in files for hit in private_imports(path)]
    assert found == []
