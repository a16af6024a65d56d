"""Runtime dependencies stay numpy + requests: scipy, networkx and pytest may
be used by tests and the benchmark, never imported by the package itself.  A
CLI process runs BLAS on one thread, whatever its environment asks for,
compiles no module it starts with past the parser's token step, and ends with
its objects frozen out of the interpreter's shutdown collections."""

from __future__ import annotations

import ast
import gc
import glob
import os
import subprocess
import sys
import textwrap
import tokenize

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


def _run(code: str, *argv: str, **env: str) -> subprocess.CompletedProcess:
    """A fresh interpreter that runs ``code`` with ``argv`` and with the
    package importable and ``env`` added to the environment."""
    env = dict(os.environ, **env, PYTHONPATH=os.pathsep.join(
        filter(None, (os.path.dirname(os.path.abspath(SRC)),
                      os.environ.get("PYTHONPATH")))))
    return subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True, text=True)


def _child(code: str, **env: str) -> str:
    """The stdout of ``_run(code, **env)``, which must exit 0."""
    result = _run(code, **env)
    result.check_returncode()
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


# CPython's parser takes a larger block of memory for a module of 4,096 tokens
# or more: a CLI process compiling such a module from source peaks about 370 KB
# higher.  synth.py is past the step already, and every CLI process imports it.
TOKEN_STEP = 4_096
PAST_THE_STEP = {"tokengraphs.synth"}


def parser_tokens(path: str) -> int:
    """The tokens the parser reads from a module: comments, blank-line NL
    tokens and the encoding marker are not counted."""
    with open(path, "rb") as handle:
        return sum(token.type not in (tokenize.COMMENT, tokenize.NL, tokenize.ENCODING)
                   for token in tokenize.tokenize(handle.readline))


def test_no_module_a_cli_process_starts_with_reaches_the_parser_token_step():
    modules = _child("import sys, tokengraphs.cli; print(' '.join(sorted(m for m in "
                     "sys.modules if m.startswith('tokengraphs.'))))").split()
    assert "tokengraphs.cli" in modules
    tokens = {module: parser_tokens(os.path.join(SRC, module.split(".")[1] + ".py"))
              for module in modules if module not in PAST_THE_STEP}
    assert all(count < TOKEN_STEP for count in tokens.values()), tokens


# a CLI process ends through ``cli.run``, which freezes every object so that the
# interpreter's shutdown collections skip them; ``main`` itself never freezes
_FROZEN_AT_EXIT = textwrap.dedent("""
    import atexit, gc, runpy
    atexit.register(lambda: print(f"frozen at exit: {gc.get_freeze_count()}"))
    runpy.run_module("tokengraphs.cli", run_name="__main__", alter_sys=True)
""")


def _in_process(argv: list[str], capsys) -> tuple[int, str, str]:
    """``main(argv)``'s exit code, stdout and stderr, an argparse exit included."""
    from tokengraphs.cli import main

    capsys.readouterr()
    try:
        code = main(argv)
    except SystemExit as stop:
        code = stop.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv, code", [
    (["synth", "--out-dir", "@tmp/corpus", "--n-tokens", "3"], 0),
    (["train", "--features", "@tmp/missing.csv", "--labels", "@tmp/missing.csv",
      "--model-out", "@tmp/model.txt"], 2),
    (["train", "--features"], 2),  # an argparse usage error
    (["--version"], 0),
])
def test_a_cli_process_ends_with_its_objects_frozen(tmp_path, capsys, argv, code):
    argv = [arg.replace("@tmp", str(tmp_path)) for arg in argv]
    child = _run(_FROZEN_AT_EXIT, *argv)
    out, _, frozen = child.stdout.rpartition("frozen at exit: ")
    assert int(frozen) > 0
    # the exit code, stdout and stderr of the same run in this process
    assert (child.returncode, out, child.stderr) == _in_process(argv, capsys)
    assert child.returncode == code


def test_main_freezes_nothing_and_run_freezes_on_its_way_out(tmp_path, monkeypatch):
    from tokengraphs import cli

    before = gc.get_freeze_count()
    argv = ["synth", "--out-dir", str(tmp_path / "corpus"), "--n-tokens", "3"]
    assert cli.main(argv) == 0
    assert gc.get_freeze_count() == before
    monkeypatch.setattr(sys, "argv", ["tokengraphs", *argv])
    try:
        assert cli.run() == 0
        assert gc.get_freeze_count() > before
    finally:
        gc.unfreeze()
