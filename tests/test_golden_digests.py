"""Pinned sha256 digests of the CLI's outputs at small fixed seeds.

A change to the generators' RNG draw order, the fixture format, the feature
arithmetic or the edge-list writer changes one of these digests.  They were
recorded before the columnar fixture writer and window batches replaced the
per-transfer event path, which had to keep every byte.
"""

from __future__ import annotations

import hashlib
import os

import pytest

from tokengraphs.cli import main

EXPECTED = {
    "training/fixture.tsv":
        "f3ee5b5fca19cda970fbfda19a83a03e30a75404381471d2b26c8eacf7781c97",
    "training/labels.csv":
        "1b006cf8f4c5573f9f171557a3e0fc91804d30bdc4e6f9bbef461d79220c02e5",
    "scan/fixture.tsv":
        "7bd292a69155fcdf560561d7e8dede262751a96ae2b5b07c2754a8fcf63eb645",
    "training.csv":
        "5e28cb313dd28340d8a83e678fa262ac92e52af741b8d2affc3aa31ed7bcc13a",
    "scan.csv":
        "8b59523b35e1fe2ab7bd4aae8b75539b0938d38833ab5a5946b4c05dd8aa1592",
    "graphs":
        "181d8b407424b2971bc80c061185a62262ce4e486a238d2e7f3072522f55fc28",
}


def _sha256(path) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def _tree_digest(directory) -> str:
    """One digest over every file of ``directory``: its name and its bytes."""
    digest = hashlib.sha256()
    for name in sorted(os.listdir(directory)):
        digest.update(f"{name}\0{_sha256(os.path.join(directory, name))}\n".encode())
    return digest.hexdigest()


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    assert main(["synth", "--out-dir", str(root / "training"), "--n-tokens", "8",
                 "--n-windows", "2", "--seed", "11"]) == 0
    assert main(["synth", "--out-dir", str(root / "scan"), "--kind", "scan",
                 "--n-tokens", "8", "--seed", "11"]) == 0
    assert main(["features", "--fixture", str(root / "training" / "fixture.tsv"),
                 "--out", str(root / "training.csv"),
                 "--export-graphs", str(root / "graphs")]) == 0
    assert main(["features", "--fixture", str(root / "scan" / "fixture.tsv"),
                 "--out", str(root / "scan.csv"),
                 "--export-graphs", str(root / "graphs")]) == 0
    return root


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_output_digest_is_pinned(outputs, name):
    path = outputs / name
    actual = _tree_digest(path) if path.is_dir() else _sha256(path)
    assert actual == EXPECTED[name]
