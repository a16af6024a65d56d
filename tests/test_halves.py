"""The fixture path in two halves: a forked worker reads the blocks after the
split of a fixture and writes the second half of a corpus.

These tests hold the two halves to the one-process reader in ``oracles.py``
(the same exit code and stderr for a spoiled line or a restarted window
anywhere, the split included, and equal window batches on three corpus
shapes), and check that no worker process outlives a run, however it ends.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import signal
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import tokengraphs.cli as cli_mod
import tokengraphs.halves as halves
import tokengraphs.ingest as ingest
import tokengraphs.synth as synth
from tokengraphs.cli import main
from tokengraphs.ingest import format_fixture_line, iter_window_groups

from conftest import batch_rows, make_event
from oracles import one_process_windows

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")

WIDTH = 1_000
FIRST = 18_000_000
N_LINES = 2_400


def _base_lines() -> list[str]:
    """Three windows of 800 transfers each, in window order; a few values are
    2**128 or more, which a batch keeps in ``wide``."""
    rng = random.Random(11)
    events = []
    for window in range(3):
        for _ in range(N_LINES // 3):
            value = rng.choice((rng.randrange(10**20), rng.randrange(2**64, 2**128),
                                2**200 + rng.randrange(10**6), rng.randrange(10)))
            events.append(make_event(
                f"0x{rng.randrange(1, 40):x}", f"0x{rng.randrange(1, 40):x}", value=value,
                block=FIRST + window * WIDTH + rng.randrange(WIDTH),
                log_index=rng.randrange(100), token=f"0x{rng.randrange(1, 6):x}",
                tx=len(events) + 1))
    return list(map(format_fixture_line, events))


_BASE = _base_lines()


def _write(path, lines: list[str]) -> None:
    path.write_bytes("".join(line + "\n" for line in lines).encode("utf-8", "surrogateescape"))


def _split_line(path) -> int:
    """The index of the first line the worker reads."""
    with open(path, "rb") as handle:
        blocks, offset = halves._split(handle)
        assert blocks is not None
        handle.seek(0)
        return handle.read(offset).count(b"\n")


@pytest.fixture(scope="module")
def split_at(tmp_path_factory) -> int:
    path = tmp_path_factory.mktemp("base") / "fixture.tsv"
    _write(path, _BASE)
    return _split_line(path)


def _features(fixture, out, one_process: bool = False) -> tuple[int, str]:
    """The exit code and stderr of ``features`` on ``fixture``, in two halves
    or as the one-process reader reads it."""
    err = io.StringIO()
    reader = mock.patch.object(cli_mod, "iter_window_groups", one_process_windows)
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()), \
            reader if one_process else contextlib.nullcontext():
        code = main(["features", "--fixture", str(fixture), "--out", str(out),
                     "--window-width", str(WIDTH)])
    return code, err.getvalue()


def _spoil(lines: list[str], index: int, kind: str, window: int) -> list[str]:
    lines = list(lines)
    fields = lines[index].split("\t")
    if kind == "hex":
        fields[1] = fields[1][:7] + "g" + fields[1][8:]
    elif kind == "digit":
        fields[4] = fields[4][:3] + "x" + fields[4][4:]
    elif kind == "value":
        fields[3] = str(2**256)
    elif kind == "fields":
        del fields[5]
    elif kind == "restart":  # this line moves to another window: it may start one again
        fields[4] = str(FIRST + window * WIDTH + int(fields[4]) % WIDTH)
    if kind == "blank":
        lines.insert(index, "")
    else:
        lines[index] = "\t".join(fields)
    return lines


@needs_fork
@settings(max_examples=30, deadline=None)
@given(near_split=st.booleans(), offset=st.integers(-3, 3), anywhere=st.integers(0, N_LINES - 1),
       kind=st.sampled_from(("hex", "digit", "value", "fields", "blank", "restart")),
       window=st.integers(0, 2))
def test_a_spoiled_line_or_a_restarted_window_anywhere_fails_as_in_one_process(
        tmp_path_factory, split_at, near_split, offset, anywhere, kind, window):
    index = split_at + offset if near_split else anywhere
    tmp = tmp_path_factory.mktemp("spoiled")
    fixture = tmp / "fixture.tsv"
    _write(fixture, _spoil(_BASE, index, kind, window))
    expected = _features(fixture, tmp / "one.csv", one_process=True)
    assert _features(fixture, tmp / "two.csv") == expected
    code, err = expected
    assert code == 0 or (code == 2 and err.count("\n") == 1 and err.startswith("error: "))
    if code == 0:
        assert (tmp / "two.csv").read_bytes() == (tmp / "one.csv").read_bytes()
    else:
        assert not (tmp / "two.csv").exists()


def _assert_same_batches(path, width: int) -> list:
    """The two halves' (window, batch) pairs, once checked against one process's."""
    ours = list(iter_window_groups(path, width))
    theirs = list(one_process_windows(path, width))
    assert [window for window, _ in ours] == [window for window, _ in theirs]
    for (_, a), (_, b) in zip(ours, theirs):
        assert a.tokens == b.tokens and a.nodes == b.nodes and a.wide == b.wide
        for name in ("token", "src", "dst", "block", "log_index", "value_lo", "value_hi"):
            column, expected = getattr(a, name), getattr(b, name)
            assert column.dtype == expected.dtype and np.array_equal(column, expected), name
    return ours


@needs_fork
@pytest.mark.parametrize("argv", [
    ("--n-tokens", "125", "--seed", "99", "--scam-fraction", "0.353"),  # bulk-window
    ("--kind", "scan", "--n-tokens", "60", "--seed", "4242"),  # block-sorted
    ("--n-tokens", "24", "--seed", "3", "--n-windows", "3"),
], ids=["bulk-window", "scan", "three-windows"])
def test_the_halves_give_the_batches_of_one_process(tmp_path, argv):
    assert main(["synth", "--out-dir", str(tmp_path), *argv]) == 0
    _split_line(tmp_path / "fixture.tsv")  # the fixture has a second half
    _assert_same_batches(tmp_path / "fixture.tsv", 100_000)


def test_the_base_fixture_gives_the_batches_of_one_process(tmp_path):
    _write(tmp_path / "fixture.tsv", _BASE)
    _assert_same_batches(tmp_path / "fixture.tsv", WIDTH)


# ---------------------------------------------------------------------------
# address tables packed while a window's rows come grouped by token

_SMALL_BLOCK = 1_024  # about five lines a block: a window spans many blocks


def _tokens_and_nodes(events) -> tuple[list[str], list[list[str]]]:
    """One window's tokens in order of first appearance, and each token's
    node addresses, sorted: a batch numbers them in order of first
    appearance too, but in each column block all senders come first."""
    nodes: dict[str, set[str]] = {}
    for e in events:
        nodes.setdefault(e.token, set()).update((e.from_addr, e.to_addr))
    return list(nodes), list(map(sorted, nodes.values()))


@needs_fork
@settings(max_examples=100, deadline=None)
@given(shape=st.sampled_from(("grouped", "broken", "returns-at-split")),
       first_rows=st.integers(1, 3),
       rows=st.lists(st.integers(1, 25), min_size=3, max_size=9).filter(lambda r: sum(r) >= 12),
       pool=st.integers(1, 30), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_tables_packed_while_rows_are_grouped_give_the_batches_of_one_process(
        tmp_path_factory, shape, first_rows, rows, pool, seed, data):
    """One window written token by token, as a synth corpus is: left so, with
    a row in the parent's half moved back to the first token once that
    token's table is packed, or with the worker's first row moved back to
    it.  Both readers must give the oracle's rows, tokens and node tables,
    and a packed table that is needed again must be unpacked where the
    token comes back: in the parent's interning, or in the merge of the
    worker's half."""
    rng = random.Random(seed)
    events = []
    for t, count in enumerate([first_rows, *rows]):
        for _ in range(count):
            value = rng.choice((rng.randrange(10**6), rng.randrange(2**64, 2**128), 2**200))
            events.append(make_event(
                f"0x{rng.randrange(pool) + 1:x}", f"0x{rng.randrange(pool) + 1:x}",
                value=value, block=FIRST + len(events), log_index=rng.randrange(3),
                token=f"0x{t + 0xf1:x}", tx=len(events) + 1))
    fixture = tmp_path_factory.mktemp("grouped") / "fixture.tsv"
    with mock.patch.object(halves, "_BLOCK", _SMALL_BLOCK):
        _write(fixture, list(map(format_fixture_line, events)))
        split = _split_line(fixture)
        # by the end of the block after its last row's, the first token's table is packed
        packed_by = first_rows + 2 * (_SMALL_BLOCK // 200 + 1)
        if shape != "grouped":
            assume(packed_by < split)
            index = split if shape == "returns-at-split" else data.draw(
                st.integers(packed_by, split - 1))
            events[index] = events[index]._replace(token=events[0].token)
            _write(fixture, list(map(format_fixture_line, events)))  # the same line lengths
            assert _split_line(fixture) == split
        unpacked = {"ingest": 0, "halves": 0}

        def counted(module, unpack):
            def call(table, shared):
                unpacked[module] += isinstance(table, bytes)
                return unpack(table, shared)
            return call

        with mock.patch.object(ingest, "_unpacked", counted("ingest", ingest._unpacked)), \
                mock.patch.object(halves, "_unpacked", counted("halves", halves._unpacked)):
            (_window, batch), = _assert_same_batches(fixture, WIDTH)
            assert unpacked == {"grouped": {"ingest": 0, "halves": 0},
                                "broken": {"ingest": 2, "halves": 0},
                                "returns-at-split": {"ingest": 1, "halves": 1}}[shape]
    assert batch_rows(batch) == [tuple(e[:6]) for e in events]
    nodes = [sorted(np.frombuffer(blob, "S42").astype(str).tolist()) for blob in batch.nodes]
    assert (batch.tokens, nodes) == _tokens_and_nodes(events)


def test_a_packed_table_past_the_shared_ids_comes_back_with_its_ids(tmp_path):
    """A token with more addresses than a window has shared ids is packed
    while another token's rows come, then comes back with its first address,
    its last and a new one: every address keeps its id."""
    rows = [("0xa1", f"0x{2 * i + 1:x}", f"0x{2 * i + 2:x}") for i in range(2_100)]
    rows += [("0xb2", "0x1", "0x2")] * 200
    rows += [("0xa1", "0x1", "0x1068"), ("0xa1", "0x1069", "0x2")]
    events = [make_event(a, b, block=FIRST, token=token, tx=i + 1)
              for i, (token, a, b) in enumerate(rows)]
    assert 2 * 2_100 > ingest._SHARED_IDS
    _write(tmp_path / "fixture.tsv", list(map(format_fixture_line, events)))
    (_window, batch), = _assert_same_batches(tmp_path / "fixture.tsv", WIDTH)
    assert batch_rows(batch) == [tuple(e[:6]) for e in events]
    assert len(batch.nodes[0]) == 42 * (2 * 2_100 + 1)


# ---------------------------------------------------------------------------
# no worker outlives its run

def _no_child_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@needs_fork
def test_clean_synth_and_features_leave_no_child(tmp_path):
    assert main(["synth", "--out-dir", str(tmp_path), "--n-tokens", "12", "--seed", "2"]) == 0
    _no_child_left()
    assert main(["features", "--fixture", str(tmp_path / "fixture.tsv"),
                 "--out", str(tmp_path / "f.csv")]) == 0
    _no_child_left()


@needs_fork
@pytest.mark.parametrize("case", ["parent-half", "worker-half", "interleaved"])
def test_a_failing_half_leaves_no_child(tmp_path, split_at, case):
    lines = {"parent-half": lambda: _spoil(_BASE, 10, "hex", 0),
             "worker-half": lambda: _spoil(_BASE, N_LINES - 10, "hex", 0),
             "interleaved": lambda: _spoil(_BASE, split_at + 1, "restart", 0)}[case]()
    _write(tmp_path / "fixture.tsv", lines)
    code, err = _features(tmp_path / "fixture.tsv", tmp_path / "f.csv")
    assert code == 2 and err.count("\n") == 1
    _no_child_left()


@needs_fork
def test_a_reader_closed_after_its_first_window_leaves_no_child(tmp_path):
    _write(tmp_path / "fixture.tsv", _BASE)
    windows = iter_window_groups(tmp_path / "fixture.tsv", WIDTH)
    window, _batch = next(windows)
    assert window.start == FIRST
    windows.close()
    _no_child_left()


def _killed_in_the_worker(function):
    parent = os.getpid()

    def call(*args, **kwargs):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return function(*args, **kwargs)
    return call


@needs_fork
@pytest.mark.parametrize("command", ["synth", "features"])
def test_a_killed_worker_exits_3_with_one_line_and_leaves_no_child(tmp_path, capsys, command):
    assert main(["synth", "--out-dir", str(tmp_path / "in"), "--n-tokens", "12",
                 "--seed", "2"]) == 0
    capsys.readouterr()
    if command == "synth":
        killed = mock.patch.object(synth, "generate", _killed_in_the_worker(synth.generate))
        argv = ["synth", "--out-dir", str(tmp_path / "out"), "--n-tokens", "12", "--seed", "2"]
    else:
        killed = mock.patch.object(halves, "_intern_window",
                                   _killed_in_the_worker(halves._intern_window))
        argv = ["features", "--fixture", str(tmp_path / "in" / "fixture.tsv"),
                "--out", str(tmp_path / "f.csv")]
    with killed:
        assert main(argv) == 3
    assert capsys.readouterr().err == (
        "error: the worker process ended before its half was done\n")
    _no_child_left()
    assert not (tmp_path / "f.csv").exists()
    assert not (tmp_path / "out").exists() or os.listdir(tmp_path / "out") == []


# ---------------------------------------------------------------------------
# a leaked pipe, temporary file or worker shows as a ResourceWarning

@needs_fork
def test_synth_and_features_children_raise_no_resource_warning(tmp_path):
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (os.path.abspath(src), os.environ.get("PYTHONPATH")))))
    prefix = [sys.executable, "-X", "dev", "-W", "error::ResourceWarning",
              "-m", "tokengraphs.cli"]
    for argv in (["synth", "--out-dir", "corpus", "--n-tokens", "12", "--seed", "2"],
                 ["features", "--fixture", "corpus/fixture.tsv", "--out", "f.csv"]):
        child = subprocess.run(prefix + argv, cwd=tmp_path, env=env, capture_output=True,
                               text=True, timeout=120)
        assert child.returncode == 0, child.stderr
        assert "ResourceWarning" not in child.stderr
