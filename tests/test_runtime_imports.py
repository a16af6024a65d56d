"""Runtime dependencies stay numpy + requests: scipy, networkx and pytest may
be used by tests and the benchmark, never imported by the package itself."""

from __future__ import annotations

import ast
import glob
import os
import subprocess
import sys

FORBIDDEN = {"scipy", "networkx", "pytest"}
SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "tokengraphs")


def test_package_imports_no_test_only_dependency():
    paths = sorted(glob.glob(os.path.join(SRC, "*.py")))
    assert paths
    found = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            tree = ast.parse(handle.read(), path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{os.path.basename(path)}:{node.lineno} imports {name}"
                      for name in names if name.split(".")[0] in FORBIDDEN]
    assert not found


def test_cli_starts_without_requests():
    """Only ``fetch`` talks to a provider; every other subcommand's process
    starts without importing requests."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (os.path.dirname(os.path.abspath(SRC)),
                      os.environ.get("PYTHONPATH")))))
    code = "import sys, tokengraphs.cli; print('requests' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "False"
