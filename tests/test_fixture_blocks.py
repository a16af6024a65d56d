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
import random
from itertools import groupby

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
