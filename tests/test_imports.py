"""Each module owns its private names: no module imports another's."""

import ast
from pathlib import Path

import euleralign


def test_no_module_imports_a_private_name():
    hits = []
    for path in sorted(Path(euleralign.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                hits += [f"{path.name}: {a.name}" for a in node.names if a.name.startswith("_")]
    assert hits == []
