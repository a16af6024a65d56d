"""``src/`` keeps no public function or class that only tests or demos call:
each is referenced by name in ``src/`` outside its own definition, or is a
span boundary the traced benchmark pins by name."""

from __future__ import annotations

import ast
import glob
import os
from collections import Counter

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
SRC = os.path.join(ROOT, "src", "tokengraphs")
TRACED = os.path.join(ROOT, "perfbench", "traced.py")


def _parse(path: str) -> ast.Module:
    with open(path, encoding="utf-8") as handle:
        return ast.parse(handle.read(), path)


def _names(node: ast.AST) -> Counter:
    """Every name ``node`` refers to: bare names and attribute names."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def _boundaries() -> set[str]:
    """The function names in ``perfbench/traced.py``'s ``BOUNDARIES``."""
    if not os.path.exists(TRACED):
        return set()
    for node in _parse(TRACED).body:
        if (isinstance(node, ast.Assign)
                and [target.id for target in node.targets] == ["BOUNDARIES"]):
            return {entry.elts[1].value for entry in node.value.elts}
    raise AssertionError("perfbench/traced.py defines no BOUNDARIES tuple")


def test_every_public_definition_is_used_in_src():
    paths = sorted(glob.glob(os.path.join(SRC, "*.py")))
    assert paths
    trees = {os.path.basename(path): _parse(path) for path in paths}
    used = sum(map(_names, trees.values()), Counter())
    pinned = _boundaries()
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_") and node.name not in pinned
                    and not used[node.name] - _names(node)[node.name]):
                unused.append(f"{module}:{node.lineno} {node.name}")
    assert not unused, "only tests or demos use " + ", ".join(unused)
