"""Each public name is declared once, by its module: a leading underscore marks
a private one, no module imports another's private names, no module lists its
names in ``__all__``, and the package's ``__init__`` imports the modules and
re-exports no name.  ``Grid`` owns the transforms: no other module refers to
``numpy.fft``, which includes NumPy's private ``numpy.fft._pocketfft_umath``
that ``Grid`` calls directly.  NumPy is the only run-time dependency: no
module imports SciPy, not even in a function body."""

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


def test_no_module_imports_scipy():
    hits = []
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            hits += [f"{path.name}:{node.lineno}" for name in names if name.split(".")[0] == "scipy"]
    assert hits == []


def test_no_module_assigns_all():
    hits = [
        path.name
        for path in MODULES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Name) and node.id == "__all__" and isinstance(node.ctx, ast.Store)
    ]
    assert hits == []


def test_package_imports_only_its_modules():
    init = Path(euleralign.__file__)
    modules = {path.stem for path in MODULES} - {"__init__"}
    docstring, *body = ast.parse(init.read_text(encoding="utf-8")).body
    assert isinstance(docstring, ast.Expr) and isinstance(docstring.value, ast.Constant)
    bound = []
    for node in body:
        if isinstance(node, ast.ImportFrom):
            assert (node.level, node.module) == (1, None), ast.unparse(node)
            assert all(a.asname is None for a in node.names), ast.unparse(node)
            bound += [a.name for a in node.names]
        else:
            assert isinstance(node, ast.Assign), ast.unparse(node)
            bound += [t.id for t in node.targets]
    # every module but the command line, which its entry point loads
    assert sorted(bound) == sorted((modules - {"cli"}) | {"__version__"})
