"""No module imports a name it never uses or binds a private module-level
name it never reads, and the oracles borrow no code they check.

pyflakes and ruff are not dependencies, so this is a small ast scan of
src/, tests/ and scripts/.  Package __init__.py files are skipped: their
imports are the package's re-exports.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src", "tests", "scripts")
# the library plumbing tests/reference.py may share: the state update and a
# per-engine histogram build to merge, never the gain, leaf or split code
REFERENCE_MAY_IMPORT = {"grad_hess", "margin_probability", "quantize", "build_histogram",
                        "QuantizedMatrix"}


def unused_imports(source: str) -> list:
    """(line, name) of every name the source imports and never references."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name) for a in node.names if a.name != "*"]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for line, name in imported if name not in used)


def test_scan_tells_used_from_unused():
    source = ("import os\nimport numpy as np\nimport os.path\n"
              "from a.b import c, d as e\n\ndef f():\n    from g import h\n    return np.zeros(c)\n")
    assert unused_imports(source) == [(1, "os"), (3, "os"), (4, "e"), (7, "h")]


def test_no_unused_imports():
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for top in SCANNED for path in sorted((ROOT / top).rglob("*.py"))
             if path.name != "__init__.py"
             for line, name in unused_imports(path.read_text())]
    assert found == []


def unloaded_private_names(source: str) -> list:
    """(line, name) of every module-level _name, bound by an assignment, def
    or class, that the module itself never loads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound += [(n.lineno, n.id) for target in targets for n in ast.walk(target)
                      if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]
    loaded = {node.id for node in ast.walk(tree)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((line, name) for line, name in bound
                  if name.startswith("_") and not name.startswith("__") and name not in loaded)


def test_private_name_scan_tells_loaded_from_unloaded():
    source = ("_A, _B = 1, 2\n_C: int = 3\n__all__ = []\n\ndef _f():\n    _local = 1\n    return _A\n"
              "\nclass _K:\n    pass\n\n_x = [_f]\n_x = None\n")
    assert unloaded_private_names(source) == [(1, "_B"), (2, "_C"), (9, "_K"), (12, "_x"),
                                              (13, "_x")]


def test_no_unloaded_private_names():
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for top in SCANNED for path in sorted((ROOT / top).rglob("*.py"))
             for line, name in unloaded_private_names(path.read_text())]
    assert found == []


def fpboost_imports(source: str) -> set:
    """Every name the source imports from fpboost; a whole module counts as
    its dotted name, and a star import as '*'."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names |= {a.name for a in node.names if a.name.split(".")[0] == "fpboost"}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "fpboost":
            names |= {a.name for a in node.names}
    return names


def test_fpboost_import_scan():
    source = ("import numpy\nimport fpboost.cli\nfrom fpboost import *\n"
              "from fpboost.node_trainer import split_gain as g\nfrom mpmath import mp\n")
    assert fpboost_imports(source) == {"fpboost.cli", "*", "split_gain"}


def test_oracles_borrow_only_plumbing():
    borrowed = fpboost_imports((ROOT / "tests" / "reference.py").read_text())
    assert borrowed <= REFERENCE_MAY_IMPORT, sorted(borrowed - REFERENCE_MAY_IMPORT)
