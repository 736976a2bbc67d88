"""Checks of the scripts in ``tools/`` that need no benchmark run."""

import ast
import os
import subprocess
import sys

import pytest

from cnfopt.model import _HEAD

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOLS = os.path.join(ROOT, "tools")


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
    heads = {_HEAD.partition("(")[0], "_val", "_grad"}
    assert set(kinds) == heads
    assert len(set(kinds.values())) == len(kinds)


def _ab_bench(*args):
    """Run ``tools/ab_bench.py`` with a tag no other run uses; it must refuse
    the arguments before it runs a benchmark or writes its record."""
    tag = "refused-arguments-check"
    out = os.path.join(ROOT, f"BENCH_{tag}.json")
    proc = subprocess.run([sys.executable, os.path.join(TOOLS, "ab_bench.py"), *args, "--tag", tag],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=60)
    assert not os.path.exists(out)
    return proc


@pytest.mark.parametrize("parent", [
    lambda tmp_path: ROOT,
    lambda tmp_path: os.path.join(ROOT, "tools", ".."),
    lambda tmp_path: _symlink(tmp_path / "link", ROOT),
], ids=["root", "dotted", "symlink"])
def test_ab_bench_refuses_this_checkout_as_the_parent(tmp_path, parent):
    # it would benchmark the tree against itself
    proc = _ab_bench(parent(tmp_path), "--pairs", "1")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "is this checkout" in proc.stderr


@pytest.mark.parametrize("pairs", ["0", "-3"])
def test_ab_bench_refuses_fewer_than_one_pair(tmp_path, pairs):
    proc = _ab_bench(str(tmp_path), "--pairs", pairs)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "--pairs must be at least 1" in proc.stderr


def _symlink(link, target):
    os.symlink(target, link)
    return str(link)
