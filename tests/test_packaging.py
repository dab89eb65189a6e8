"""The package's declared runtime dependencies cover what its modules import."""
import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def imported_top_levels(path):
    """Top-level names of a module's absolute imports, at any depth."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.partition(".")[0])
    return names


def test_runtime_imports_are_declared():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    declared = {
        re.match(r"[A-Za-z0-9_.-]+", req).group().lower().replace("-", "_")
        for req in project["dependencies"]
    }
    undeclared, imported = {}, set()
    for path in sorted((ROOT / "src" / "hra_forge").glob("*.py")):
        for name in imported_top_levels(path):
            if name in sys.stdlib_module_names or name == "hra_forge":
                continue
            imported.add(name.lower())
            if name.lower() not in declared:
                undeclared.setdefault(name, []).append(path.name)
    assert not undeclared, f"imported but not in [project].dependencies: {undeclared}"
    assert declared <= imported, f"declared but never imported: {declared - imported}"
