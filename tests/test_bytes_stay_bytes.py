"""Fixture cells and node addresses are bytes inside the pipeline, and text
outside it.  A ``str(bytes)`` slip writes ``b'0x…'`` where an address
belongs, and comparing bytes with text is silently False; under ``python
-bb`` either one raises BytesWarning.  (``-b -W error::BytesWarning`` only
prints the warning: the filter that ``-b`` installs outranks ``-W``.)  Each
command runs twice, plainly and under ``-bb``, must print nothing on stderr
and must write the same bytes both times."""

from __future__ import annotations

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")

COMMANDS = (
    ("synth", "--out-dir", "corpus", "--n-tokens", "12", "--seed", "5"),
    ("synth", "--out-dir", "small", "--kind", "scan", "--n-tokens", "12", "--seed", "5"),
    ("features", "--fixture", "corpus/fixture.tsv", "--out", "corpus.csv",
     "--export-graphs", "graphs", "--histogram-out", "histogram.csv"),
    ("features", "--fixture", "small/fixture.tsv", "--out", "small.csv"),
    ("train", "--features", "corpus.csv", "--labels", "corpus/labels.csv",
     "--variant", "reduced", "--model-out", "reduced.txt"),
    ("scan", "--model", "reduced.txt", "--features", "small.csv", "--out", "scan.csv"),
)


def _run_all(directory, *flags: str) -> list[str]:
    """Run every command in ``directory`` with interpreter ``flags``; their stdout."""
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=os.pathsep.join(
        filter(None, (os.path.abspath(SRC), os.environ.get("PYTHONPATH")))))
    directory.mkdir()
    stdout = []
    for argv in COMMANDS:
        child = subprocess.run([sys.executable, *flags, "-m", "tokengraphs.cli", *argv],
                               cwd=directory, env=env, capture_output=True, text=True)
        assert (child.returncode, child.stderr) == (0, ""), argv
        stdout.append(child.stdout)
    return stdout


def _files(directory) -> dict[str, bytes]:
    return {str(path.relative_to(directory)): path.read_bytes()
            for path in sorted(directory.rglob("*")) if path.is_file()}


def test_no_bytes_reach_text_and_outputs_are_unchanged(tmp_path):
    plain = _run_all(tmp_path / "plain")
    strict = _run_all(tmp_path / "strict", "-bb")
    assert strict == plain
    outputs = _files(tmp_path / "plain")
    assert len([name for name in outputs if name.startswith("graphs")]) == 12
    assert _files(tmp_path / "strict") == outputs
