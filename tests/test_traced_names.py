"""The benchmark's tracer rebinds fpboost names from outside the program
(perfbench/tracing.py, WRAPPED), and a name fpboost no longer binds only
reads 0 there.  This test makes such a rename fail here instead."""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# Wrapped names already gone from fpboost, whose tracer entries are still to
# be mended in the benchmark itself.
STALE = {
    "boost_controller.merged_node_histogram",
    "boost_controller.tree_increment",
    "data_parallel.build_histogram",
    "data_parallel.merge_histograms",
    "metrics.tree_increment",
    "splitter.tree_increment",
}


def _wrapped():
    """WRAPPED's (module, attribute, span) triples, read from the source
    without running it."""
    for stmt in ast.parse(TRACING.read_text()).body:
        if isinstance(stmt, ast.Assign) and [t.id for t in stmt.targets] == ["WRAPPED"]:
            return ast.literal_eval(stmt.value)
    raise AssertionError(f"no WRAPPED in {TRACING}")


def test_every_traced_name_is_bound_in_fpboost():
    wrapped = _wrapped()
    assert wrapped
    unbound = [f"{mod}.{attr}" for mod, attr, _ in wrapped
               if f"{mod}.{attr}" not in STALE
               and not hasattr(importlib.import_module(f"fpboost.{mod}"), attr)]
    assert unbound == []
