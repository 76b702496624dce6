"""No module imports a name it never uses, and the oracles borrow no code
they check.

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
