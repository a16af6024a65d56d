"""Runtime dependencies stay numpy + requests: scipy, networkx and pytest may
be used by tests and the benchmark, never imported by the package itself.  A
CLI process runs BLAS on one thread, whatever its environment asks for."""

from __future__ import annotations

import ast
import glob
import os
import subprocess
import sys
import textwrap

import pytest

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


def _child(code: str, **env: str) -> str:
    """The stdout of a fresh interpreter that runs ``code`` with the package
    importable and ``env`` added to the environment."""
    env = dict(os.environ, **env, PYTHONPATH=os.pathsep.join(
        filter(None, (os.path.dirname(os.path.abspath(SRC)),
                      os.environ.get("PYTHONPATH")))))
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, check=True)
    return result.stdout.strip()


def test_cli_starts_without_requests():
    """Only ``fetch`` talks to a provider; every other subcommand's process
    starts without importing requests."""
    assert _child("import sys, tokengraphs.cli; print('requests' in sys.modules)") == "False"


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
def test_cli_runs_one_thread_whatever_the_environment_asks():
    code = "import os, tokengraphs.cli; print(len(os.listdir('/proc/self/task')))"
    assert _child(code, OPENBLAS_NUM_THREADS="4") == "1"


def test_a_cli_fit_is_bitwise_the_same_whatever_blas_threads_the_environment_asks():
    # at 200,000 rows, matrix.T @ r gives other bits on two BLAS threads than on one
    code = textwrap.dedent("""
        import tokengraphs.cli
        import numpy as np
        from tokengraphs.model import TrainConfig, train_matrix
        rng = np.random.default_rng(7)
        matrix = rng.normal(size=(200_000, 9)) * rng.uniform(1.0, 1e3, size=9)
        labels = np.arange(200_000) % 2
        model = train_matrix(matrix, labels, tuple("abcdefghi"), TrainConfig(max_iters=3))
        print(np.concatenate([[model.intercept], model.coefficients]).tobytes().hex())
    """)
    assert _child(code, OPENBLAS_NUM_THREADS="1") == _child(code, OPENBLAS_NUM_THREADS="2")
