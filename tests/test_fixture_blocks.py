"""A fixture path is parsed a block of lines at a time; these tests hold that
path to the per-line reading it replaced.

Hypothesis tests: one spoiled cell or line anywhere in a multi-block fixture
gives the per-line error and exit code, and any valid fixture without
interleaved windows gives the same window batches by path as
``partition_windows`` makes of its events.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import threading
from itertools import groupby

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tokengraphs.cli import main
from tokengraphs.ingest import (INT64_MAX, UINT256_MAX, format_fixture_line, iter_window_groups,
                                partition_windows, read_fixture)

from conftest import batch_rows, make_event

WIDTH = 1_000
FIRST = 18_000_000
INTERLEAVED = "fixture windows are interleaved; sort the fixture by block"
EDGE_VALUES = (0, 2**32 - 1, 2**64 - 1, 2**64, 2**96, 2**128 - 1, 2**128, UINT256_MAX)


def _events(rng: random.Random, n: int, windows: list[int]):
    """``n`` transfers over a few tokens and a small address pool, in the
    windows ``windows`` (offsets from FIRST, in file order), shuffled inside
    each window; values, blocks and log indexes include their range's edges."""
    events = []
    for w, window in enumerate(windows):
        rows = n // len(windows) + (w < n % len(windows))
        start = FIRST + window * WIDTH
        chunk = [make_event(f"0x{rng.randrange(1, 9):x}", f"0x{rng.randrange(1, 9):x}",
                            value=rng.choice((rng.choice(EDGE_VALUES),
                                              rng.randrange(UINT256_MAX + 1), rng.randrange(10))),
                            block=rng.choice((start, start + WIDTH - 1,
                                              rng.randrange(start, start + WIDTH))),
                            log_index=rng.choice((0, INT64_MAX, rng.randrange(50))),
                            token=f"0x{rng.randrange(1, 5):x}", tx=len(events) + i + 1)
                 for i in range(rows)]
        rng.shuffle(chunk)
        events += chunk
    return events


def _fixture_text(lines: list[str], newline: str, blanks: list[int], final: bool) -> str:
    """``lines`` joined by ``newline``, with a blank line before each index in
    ``blanks``, ending in ``newline`` when ``final``."""
    lines = list(lines)
    for index in sorted(blanks, reverse=True):
        lines.insert(min(index, len(lines)), "")
    return newline.join(lines) + (newline if final else "")


def _groups(path):
    """(window, rows) of each batch, and the ValueError that ended them, if any."""
    groups = []
    try:
        for window, batch in iter_window_groups(path, WIDTH):
            groups.append((window, batch_rows(batch)))
    except ValueError as exc:
        return groups, str(exc)
    return groups, None


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32), n=st.integers(0, 600),
       windows=st.lists(st.integers(0, 3), min_size=1, max_size=4),
       newline=st.sampled_from(("\n", "\r\n")),
       blanks=st.lists(st.integers(0, 600), max_size=3), final=st.booleans())
def test_a_path_gives_the_batches_its_events_give(tmp_path_factory, seed, n, windows,
                                                  newline, blanks, final):
    """Batch rows, not node ids, are compared: a block interns its senders
    before its recipients, so ids follow the block size."""
    events = _events(random.Random(seed), n, windows)
    path = tmp_path_factory.mktemp("blocks") / "fixture.tsv"
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(_fixture_text(list(map(format_fixture_line, events)), newline,
                                   blanks, final))
    assert list(read_fixture(path)) == events
    by_path, error = _groups(path)
    runs = [window for window, _run in groupby(event.block // WIDTH for event in events)]
    interleaved = len(set(runs)) < len(runs)
    assert error == (INTERLEAVED if interleaved else None)
    if not interleaved:
        assert dict(by_path) == {window: batch_rows(batch) for window, batch
                                 in partition_windows(events, WIDTH).items()}


# ---------------------------------------------------------------------------
# one spoiled cell or line in a fixture of several read blocks

N_LINES = 3_000
_GOOD = [format_fixture_line(e)
         for e in _events(random.Random(7), N_LINES, [0, 1])]


@st.composite
def spoiled(draw):
    """(lines, 1-based number of the spoiled line, final newline) of a spoiled
    copy of the base fixture."""
    lines, index, final = list(_GOOD), draw(st.integers(0, N_LINES - 1)), True
    fields = lines[index].split("\t")
    kind = draw(st.sampled_from(("hex", "digit", "value", "int64", "blank", "unended",
                                 "long", "padded", "huge", "byte")))
    if kind == "hex":
        field = draw(st.sampled_from((0, 1, 2, 6)))
        at = draw(st.integers(0, len(fields[field]) - 1))
        fields[field] = fields[field][:at] + draw(st.sampled_from("gAF:x ")) + fields[field][at + 1:]
    elif kind == "digit":
        field = draw(st.sampled_from((3, 4, 5)))
        at = draw(st.integers(0, len(fields[field]) - 1))
        fields[field] = (fields[field][:at] + draw(st.sampled_from("١۵７²"))
                         + fields[field][at + 1:])
    elif kind == "value":
        fields[3] = str(2**256)
    elif kind == "int64":
        fields[draw(st.sampled_from((4, 5)))] = str(2**63)
    elif kind == "long":  # one line longer than a read of the fixture
        field = draw(st.integers(0, 6))
        fields[field] += ("1" if 3 <= field <= 5 else "a") * 100_000
    elif kind in ("padded", "huge"):  # past int()'s 4,300 digits, the same number or out of range
        field = draw(st.sampled_from((3, 4, 5)))
        fields[field] = "0" * 5_000 + fields[field] if kind == "padded" else "7" * 5_000
    elif kind == "byte":  # a byte that is not UTF-8, written through surrogateescape
        field = draw(st.integers(0, 6))
        at = draw(st.integers(0, len(fields[field]) - 1))
        fields[field] = fields[field][:at] + "\udcff" + fields[field][at + 1:]
    if kind == "blank":
        lines.insert(index, "")
    elif kind == "unended":
        index, final = N_LINES - 1, False
    else:
        lines[index] = "\t".join(fields)
    return lines, index + 1, final


def _features(fixture, out) -> tuple[int, str]:
    """The exit code and stderr of ``features`` on ``fixture``."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(["features", "--fixture", str(fixture), "--out", str(out)])
    return code, err.getvalue()


@settings(max_examples=40, deadline=None)
@given(spoil=spoiled())
def test_one_spoiled_line_gives_its_own_error(tmp_path_factory, spoil):
    lines, line_no, final = spoil
    tmp = tmp_path_factory.mktemp("spoiled")
    alone = tmp / "alone.tsv"
    alone.write_text(_fixture_text([lines[line_no - 1]], "\n", [], final), encoding="utf-8",
                     errors="surrogateescape")
    fixture = tmp / "fixture.tsv"
    fixture.write_text(_fixture_text(lines, "\n", [], final), encoding="utf-8",
                       errors="surrogateescape")
    expected_code, expected_err = _features(alone, tmp / "alone.csv")
    code, err = _features(fixture, tmp / "features.csv")
    assert code == expected_code
    assert code == 0 or expected_err.startswith("error: line 1: ")
    assert err == expected_err.replace("error: line 1:", f"error: line {line_no}:", 1)
    assert err.count("\n") == (code != 0) and "Traceback" not in err
    if code == 0:  # a blank line, no final newline or padding: the table of the good lines
        clean = tmp / "clean.tsv"
        clean.write_text(_fixture_text(_GOOD, "\n", [], True), encoding="utf-8")
        assert _features(clean, tmp / "clean.csv") == (0, "")
        assert (tmp / "features.csv").read_bytes() == (tmp / "clean.csv").read_bytes()


# ---------------------------------------------------------------------------
# the exact message of one spoiled line, whatever bytes it holds and wherever it sits

_BASE = [line.encode() for line in _GOOD]
_FIELDS = ("token", "from", "to", "value", "block", "logIndex", "txHash")


def _spoil(index: int, field: int, edit, lines=None) -> bytes:
    """The base fixture, or ``lines``, with field ``field`` of line ``index``
    replaced by ``edit(field_bytes)``."""
    lines = list(lines or _BASE)
    fields = lines[index].split(b"\t")
    fields[field] = edit(fields[field])
    lines[index] = b"\t".join(fields)
    return b"\n".join(lines) + b"\n"


def _second_block_start() -> int:
    """The index of the first base line of the second read block: a read takes
    12,288 bytes and the rest of the line they end in."""
    offset, index = 0, 0
    while offset <= 12_288:
        offset += len(_BASE[index]) + 1
        index += 1
    return index


_SECOND = _second_block_start()
_SPOILED = {
    **{f"non-utf8-{name}": _spoil(100 + field, field, lambda cell: cell[:5] + b"\xff" + cell[6:])
       for field, name in enumerate(_FIELDS)},
    "non-ascii-digit": _spoil(200, 4, lambda cell: cell[:2] + "٥".encode() + cell[3:]),
    "crlf": _spoil(1_500, 1, bytes.upper).replace(b"\n", b"\r\n"),
    "cr-line-ends": _spoil(1_500, 1, bytes.upper).replace(b"\n", b"\r"),
    "lone-cr": _spoil(300, 2, lambda cell: cell[:10] + b"\r" + cell[10:]),
    "space": _spoil(400, 3, lambda cell: cell[:1] + b" " + cell[1:]),
    "nul": _spoil(500, 6, lambda cell: cell[:20] + b"\x00" + cell[21:]),
    "5000-digit-value": _spoil(600, 3, lambda cell: b"7" * 5_000),
    "block-2**63": _spoil(700, 4, lambda cell: b"%d" % 2**63),
    "unended-last-line": b"\n".join(_BASE[:-1] + [_BASE[-1][:100]]),
    "after-12288-bytes-and-blank-lines": _spoil(
        _SECOND + 3, 0, bytes.upper, _BASE[:_SECOND] + [b""] * 3 + _BASE[_SECOND:]),
}

# the stderr of each case, as the per-line text reader printed it
_SPOILED_ERRORS = {
    "non-utf8-token":
        "error: line 101: bad token address: '0x000\\udcff000000000000000000000000000000000002'\n",
    "non-utf8-from":
        "error: line 102: bad from address: '0x000\\udcff000000000000000000000000000000000001'\n",
    "non-utf8-to":
        "error: line 103: bad to address: '0x000\\udcff000000000000000000000000000000000002'\n",
    "non-utf8-value": "error: line 104: non-decimal value: '5\\udcff'\n",
    "non-utf8-block": "error: line 105: non-decimal block: '18000\\udcff99'\n",
    "non-utf8-logIndex": "error: line 106: non-decimal logIndex: '92233\\udcff2036854775807'\n",
    "non-utf8-txHash":
        "error: line 107: bad txHash: "
        "'0x000\\udcff000000000000000000000000000000000000000000000000000000000265'\n",
    "non-ascii-digit": "error: line 201: non-decimal block: '18٥00999'\n",
    "crlf": "error: line 1501: bad from address: '0X0000000000000000000000000000000000000007'\n",
    "cr-line-ends":
        "error: line 1501: bad from address: '0X0000000000000000000000000000000000000007'\n",
    "lone-cr": "error: line 301: expected 7 fields, got 3\n",
    "space":
        "error: line 401: non-decimal value: '1 055018772304222617755652845984151840473142274"
        "9250819432372086892421123836946'\n",
    "nul":
        "error: line 501: bad txHash: "
        "'0x000000000000000000\\x000000000000000000000000000000000000000000003f0'\n",
    "5000-digit-value": "error: line 601: value out of uint256 range\n",
    "block-2**63": "error: line 701: block or logIndex out of int64 range\n",
    "unended-last-line": "error: line 3000: expected 7 fields, got 3\n",
    "after-12288-bytes-and-blank-lines":
        "error: line 55: bad token address: '0X0000000000000000000000000000000000000001'\n",
}


@pytest.mark.parametrize("case", sorted(_SPOILED))
def test_a_spoiled_line_prints_its_pinned_error(tmp_path, case):
    fixture = tmp_path / "fixture.tsv"
    fixture.write_bytes(_SPOILED[case])
    assert _features(fixture, tmp_path / "features.csv") == (2, _SPOILED_ERRORS[case])
    assert not (tmp_path / "features.csv").exists()


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
@pytest.mark.parametrize("case", ["crlf", "after-12288-bytes-and-blank-lines"])
def test_a_spoiled_line_read_from_a_pipe_prints_the_same_error(tmp_path, case):
    """A pipe cannot be read again, so its lines are counted as they are read."""
    fixture = tmp_path / "fixture.fifo"
    os.mkfifo(fixture)

    def feed():
        with contextlib.suppress(BrokenPipeError), open(fixture, "wb") as pipe:
            pipe.write(_SPOILED[case])

    writer = threading.Thread(target=feed)
    writer.start()
    try:
        assert _features(fixture, tmp_path / "features.csv") == (2, _SPOILED_ERRORS[case])
    finally:
        writer.join(timeout=10)
    assert not writer.is_alive()
