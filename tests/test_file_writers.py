"""Every file ``src/`` writes is opened by one of a few named functions: CSV
outputs go through ``features.write_rows``, and the rest (the model file, edge
lists, fixtures, manifests and the ``fetch`` output) each have one writer."""

from __future__ import annotations

import ast
import glob
import os

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "tokengraphs")

WRITERS = {"write_rows", "save_model", "export_graphs", "write_fixture", "gen_corpus",
           "gen_scan_corpus", "_write_manifest", "cmd_fetch"}


def _writing_opens(tree: ast.Module):
    """``(function, line)`` for each ``open()`` call whose mode may write."""
    for function in ast.walk(tree):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for call in ast.walk(function):
            if not (isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                    and call.func.id == "open"):
                continue
            mode = call.args[1] if len(call.args) > 1 else next(
                (k.value for k in call.keywords if k.arg == "mode"), None)
            modes = [node.value for node in ast.walk(mode) if isinstance(node, ast.Constant)
                     and isinstance(node.value, str)] if mode is not None else ["r"]
            # a mode the AST cannot spell out counts as writing
            if not modes or any(set(m) & set("wax+") for m in modes):
                yield function.name, call.lineno


def test_only_the_named_writers_open_a_file_for_writing():
    found = []
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path, encoding="utf-8") as handle:
            tree = ast.parse(handle.read(), path)
        found += [(os.path.basename(path), name, line)
                  for name, line in _writing_opens(tree)]
    assert {"write_rows", "save_model"} <= {name for _, name, _ in found}
    strays = [f"{module}:{line} {name}" for module, name, line in found
              if name not in WRITERS]
    assert not strays, "open() for writing outside the named writers: " + ", ".join(strays)
