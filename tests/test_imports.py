"""Each module owns its private names: no module imports another's.  ``Grid``
owns the transforms: no other module refers to ``numpy.fft``, which includes
NumPy's private ``numpy.fft._pocketfft_umath`` that ``Grid`` calls directly."""

import ast
from pathlib import Path

import euleralign

MODULES = sorted(Path(euleralign.__file__).parent.glob("*.py"))


def test_no_module_imports_a_private_name():
    hits = []
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                hits += [f"{path.name}: {a.name}" for a in node.names if a.name.startswith("_")]
    assert hits == []


def _refers_to_numpy_fft(node) -> bool:
    if isinstance(node, ast.Attribute):  # np.fft, numpy.fft
        name = node.value.id if isinstance(node.value, ast.Name) else None
        return node.attr == "fft" and name in ("np", "numpy")
    if isinstance(node, ast.Import):  # import numpy.fft
        return any(a.name.startswith("numpy.fft") for a in node.names)
    if isinstance(node, ast.ImportFrom) and node.module:  # from numpy[.fft] import ...
        return node.module.startswith("numpy.fft") or (
            node.module == "numpy" and any(a.name == "fft" for a in node.names)
        )
    return False


def test_only_the_grid_calls_numpy_fft():
    users = [
        path.name
        for path in MODULES
        if any(map(_refers_to_numpy_fft, ast.walk(ast.parse(path.read_text(encoding="utf-8")))))
    ]
    assert users == ["grid.py"]
