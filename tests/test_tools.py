"""Checks of the scripts in ``tools/`` that need no benchmark run."""

import ast
import os

from cnfopt.model import _HEADS

TOOLS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools")


def _assigned(path, name):
    """The literal assigned to ``name`` at the top level of a script, read
    without running the script (it sets environment variables on import)."""
    with open(path) as f:
        tree = ast.parse(f.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError(f"{name} is not assigned in {path}")


def test_compile_census_names_every_compiled_head():
    # every kernel form, and the per-expression value and gradient functions
    # of cnfopt.expr; a form missing here would stop the census with
    # "unknown compiled function" instead of failing this test
    kinds = _assigned(os.path.join(TOOLS, "compile_census.py"), "KINDS")
    heads = {head.partition("(")[0] for head in _HEADS.values()} | {"_val", "_grad"}
    assert set(kinds) == heads
    assert len(set(kinds.values())) == len(kinds)
