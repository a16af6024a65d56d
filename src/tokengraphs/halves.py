"""Fixtures read, and corpora written, in two halves on two cores.

A forked worker process does the second half of each job: it parses and
interns the fixture blocks after the block boundary nearest the middle, or
writes the second half of a corpus's tokens.  The worker is forked once the
program is imported, so it starts with every module loaded, and it sends the
parent a few pickled messages per window or per corpus half, never one per
line.  Where the platform cannot fork, or the second half is empty (a pipe, a
fixture of one read block), the same code runs with no worker.

The fixture's block reader lives here too, as the split must fall on one of
its block boundaries.  ``synth.gen_corpus`` and ``ingest``'s fixture readers
import this module when they are called, so no other command compiles it.
"""

from __future__ import annotations

import os
import pickle
import re
import shutil
import signal
import tempfile
from array import array
from contextlib import contextmanager
from functools import partial
from itertools import chain, groupby, islice
from operator import itemgetter
from typing import BinaryIO, Callable, Iterator

import numpy as np

from .ingest import (_ADDRESS_RE, _TXHASH_RE, ADDRESS_BYTES, ADDRESS_DTYPE, INT64_MAX,
                     UINT256_MAX, BlockWindow, FixtureParseError, FixtureValueError,
                     WindowBatch, _intern_window, _unpacked, _window_runs, _windows)

_FORKS = hasattr(os, "fork")


@contextmanager
def forked(work: Callable[[Callable], None] | None) -> Iterator[Iterator]:
    """Run ``work(send)`` in a forked worker, unless ``work`` is None, and
    yield an iterator over the objects it passes to ``send``.

    The iterator raises what ``work`` raised where it raised it, and
    ChildProcessError (an OSError) if the worker ends before ``work`` returns.
    The worker ends only through ``os._exit``.  Whichever way the ``with``
    ends, the parent reaps the worker, killing it first if it still runs.
    """
    if work is None:
        yield iter(())
        return
    read_end, write_end = os.pipe()
    with open(read_end, "rb") as pipe_in, open(write_end, "wb") as pipe_out:
        pid = os.fork()
        if pid == 0:
            try:
                pipe_in.close()
                try:
                    work(partial(pickle.dump, file=pipe_out))
                except Exception as exc:
                    pickle.dump(exc, pipe_out)
                else:
                    pickle.dump(None, pipe_out)
                pipe_out.flush()
            finally:
                os._exit(0)
        pipe_out.close()
        try:
            yield _received(pipe_in)
        finally:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _received(pipe: BinaryIO) -> Iterator:
    while True:
        try:
            message = pickle.load(pipe)
        except (EOFError, pickle.UnpicklingError) as exc:
            raise ChildProcessError("the worker process ended before its half was done") from exc
        if message is None:
            return
        if isinstance(message, BaseException):
            raise message
        yield message


# ---------------------------------------------------------------------------
# synth: each half writes its own tokens' lines

def write_halves(jobs: list, write: Callable[[list, BinaryIO], tuple[int, dict]],
                 handle: BinaryIO) -> tuple[int, dict]:
    """``write(jobs, handle)``, which returns an event count and a dict of
    labels, with the second half of ``jobs`` written by a forked worker to an
    unlinked temporary file beside ``handle``'s file.  The file is appended
    after this half's lines, and the labels are merged with ``dict.update``,
    so the lines and the labels' order are one process's."""
    middle = len(jobs) // 2 if _FORKS else len(jobs)

    def work(send: Callable) -> None:
        result = write(jobs[middle:], spill)
        spill.flush()
        send(result)

    with tempfile.TemporaryFile(dir=os.path.dirname(handle.name) or ".") as spill:
        with forked(work if jobs[middle:] else None) as received:
            events, labels = write(jobs[:middle], handle)
            for more_events, more_labels in received:
                events += more_events
                labels.update(more_labels)
        spill.seek(0)
        shutil.copyfileobj(spill, handle)
    return events, labels


# ---------------------------------------------------------------------------
# the block reader: a block of fixture lines, blank ones included, is checked
# by one regex match; a failing block is diagnosed per line

_FIXTURE_LINE = (rb"0x[0-9a-f]{40}\t0x[0-9a-f]{40}\t0x[0-9a-f]{40}"
                 rb"\t[0-9]+\t[0-9]+\t[0-9]+\t0x[0-9a-f]{64}")
_FIXTURE_LINES_RE = re.compile(b"(?:%s)?+(?:\n(?:%s)?+)*+" % (_FIXTURE_LINE, _FIXTURE_LINE))
# a read takes these bytes and the rest of the line they end in (16K left more
# of the C heap fragmented, a higher peak RSS)
_BLOCK = 12_288


def _decimal(digits: bytes) -> int:
    """A decimal field's value, read from at most 79 significant digits: a
    longer value is out of range anyway, and ``int()`` refuses 4,300 digits."""
    return int(digits.lstrip(b"0")[:79] or b"0")


def _diagnose_fixture_line(line_no: int, line: bytes) -> FixtureParseError:
    # a byte that is not UTF-8 decodes to a lone surrogate, which fails its field's check
    fields = line.decode("utf-8", "surrogateescape").split("\t")
    if len(fields) != 7:
        return FixtureParseError(line_no, f"expected 7 fields, got {len(fields)}")
    token, from_addr, to_addr, value_s, block_s, index_s, tx_hash = fields
    for name, addr in (("token", token), ("from", from_addr), ("to", to_addr)):
        if not _ADDRESS_RE.match(addr):
            return FixtureParseError(line_no, f"bad {name} address: {addr!r}")
    if not _TXHASH_RE.match(tx_hash):
        return FixtureParseError(line_no, f"bad txHash: {tx_hash!r}")
    for name, field in (("value", value_s), ("block", block_s), ("logIndex", index_s)):
        if not (field.isascii() and field.isdigit()):
            return FixtureParseError(line_no, f"non-decimal {name}: {field!r}")
    if _decimal(value_s.encode()) > UINT256_MAX:
        return FixtureValueError(line_no, "value out of uint256 range")
    return FixtureValueError(line_no, "block or logIndex out of int64 range")


def _columns(lines: bytes) -> list[list] | None:
    """The token, from, to, value, block, logIndex and txHash columns of
    fixture ``lines``, blank ones allowed; None unless all are valid."""
    if not _FIXTURE_LINES_RE.fullmatch(lines):
        return None
    cells = lines.split()
    try:
        value, block, log_index = (list(map(int, cells[field::7])) for field in (3, 4, 5))
    except ValueError:  # more digits than int() converts
        value, block, log_index = (list(map(_decimal, cells[field::7])) for field in (3, 4, 5))
    if max(value, default=0) <= UINT256_MAX and max(block + log_index, default=0) <= INT64_MAX:
        return [cells[0::7], cells[1::7], cells[2::7], value, block, log_index, cells[6::7]]
    return None


def _fixture_blocks(handle: BinaryIO) -> Iterator[bytes]:
    """An open fixture's whole lines, a block at a time; as in a text read, a
    ``\\r\\n`` or ``\\r`` ends a line as ``\\n`` does."""
    while lines := handle.read(_BLOCK) + handle.readline():
        yield lines.replace(b"\r\n", b"\n").replace(b"\r", b"\n") if b"\r" in lines else lines


def _fixture_columns(handle: BinaryIO, blocks: int = 0,
                     count: int | None = None) -> Iterator[list[list]]:
    """An open fixture's lines as column blocks, in file order: ``count``
    blocks, or all, from block ``blocks``, where the handle stands.  Lines are
    counted only for a failing block's error, by reading the blocks before it
    again from the start (from a pipe, as they go)."""
    piped, line_no = not handle.seekable(), 1
    for lines in islice(_fixture_blocks(handle), count):
        columns = _columns(lines)
        if columns is None:  # read again line by line, for the first bad line's error
            if not piped:
                handle.seek(0)
                line_no += sum(block.count(b"\n")
                               for block in islice(_fixture_blocks(handle), blocks))
            for line_no, line in enumerate(lines.split(b"\n"), line_no):
                if _columns(line) is None:
                    raise _diagnose_fixture_line(line_no, line)
        yield columns
        blocks += 1
        if piped:
            line_no += lines.count(b"\n")


# ---------------------------------------------------------------------------
# windows: each half parses and interns its own blocks, and the parent merges

_CHUNK = 4_096  # rows of a window's columns per message


def _split(handle: BinaryIO) -> tuple[int | None, int]:
    """The reader's block boundary nearest the middle of a regular file, as
    (blocks before it, its offset), found by stepping from the start as the
    reader reads; (None, 0) when the second half would be empty.  The handle
    is left at the start."""
    if not (_FORKS and handle.seekable()):
        return None, 0
    size = handle.seek(0, os.SEEK_END)
    blocks, before, after = 0, 0, 0
    while after < size / 2:
        before = after
        handle.seek(before + _BLOCK)
        handle.readline()
        blocks, after = blocks + 1, handle.tell()
    handle.seek(0)
    if after - size / 2 > size / 2 - before:
        blocks, after = blocks - 1, before
    return (blocks, after) if 0 < after < size else (None, 0)


def fixture_windows(path: str | os.PathLike,
                    width: int) -> Iterator[tuple[BlockWindow, WindowBatch] | None]:
    """``iter_window_groups``'s generator, whose first step checks the width,
    opens the fixture and yields None.  This process reads the blocks before
    the split and a forked worker those after it; the worker's windows come
    in as runs of the same windowing generator, after this half's runs."""
    if width < 1:
        raise ValueError("window width must be >= 1 block")
    with open(path, "rb") as handle:
        yield None
        blocks, offset = _split(handle)
        work = blocks and partial(_send_windows, path, width, blocks, offset)
        with forked(work) as received:
            runs = _window_runs(_fixture_columns(handle, 0, blocks), width)
            yield from _windows(chain(runs, _merged_runs(received)), width)


def _send_windows(path: str | os.PathLike, width: int, blocks: int, offset: int,
                  send: Callable) -> None:
    """The worker: each window of the fixture from block ``blocks``, at
    ``offset``, is sent as its index when it starts, then once interned as
    its token names, its node-address blobs, its row count and
    ``wide``, then its columns ``_CHUNK`` rows at a time."""
    with open(path, "rb") as handle:
        handle.seek(offset)
        runs = _window_runs(_fixture_columns(handle, blocks), width)
        for index, group in groupby(runs, key=itemgetter(0)):
            send(index)
            batch = _intern_window(group)
            send((batch.tokens, batch.nodes, len(batch), batch.wide))
            columns = (batch.token, batch.src, batch.dst, batch.block, batch.log_index,
                       batch.value_lo, batch.value_hi)
            for start in range(0, len(batch), _CHUNK):
                send([column[start:start + _CHUNK].tobytes() for column in columns])


def _merged_runs(received: Iterator) -> Iterator[tuple[int, Callable]]:
    """The worker's windows as runs: (window index, a function that merges
    the window into the tables of the window being interned)."""
    for index in received:
        yield index, partial(_merge, received)


def _merge(received: Iterator, token_ids: dict, node_ids: list, columns: list,
           wide: dict) -> None:
    """Intern the worker's next window through these tables as one process
    would have interned its blocks: its tokens, and each token's addresses,
    in the worker's id order, which is their order of first appearance.  A
    token this process has packed is unpacked first.  A token new to the
    window keeps the worker's address blob and ids as they are, with no
    table: the worker's window is the last run of its window, so nothing is
    interned into it afterwards."""
    tokens, blobs, rows, more_wide = next(received)
    ids = list(map(token_ids.__getitem__, map(str.encode, tokens)))
    known = len(node_ids)
    starts, nodes = [], array("i")  # node ids held as C ints
    blobs.reverse()
    for token_id in ids:
        blob = blobs.pop()
        starts.append(len(nodes))
        if token_id < known:
            node_ids[token_id] = table = _unpacked(node_ids[token_id], token_ids.ids)
            nodes.extend(map(table.__getitem__, np.frombuffer(blob, ADDRESS_DTYPE).tolist()))
        else:
            node_ids.append(blob)
            nodes.extend(range(len(blob) // ADDRESS_BYTES))
    ids, starts, nodes = np.array(ids, np.int32), np.array(starts), np.frombuffer(nodes, np.int32)
    wide.update((len(columns[0]) + row, value) for row, value in more_wide.items())
    for _ in range(0, rows, _CHUNK):
        token, src, dst, *rest = next(received)
        token = np.frombuffer(token, np.int32)
        start = starts[token]
        rest[:0] = (ids[token].tobytes(), nodes[start + np.frombuffer(src, np.int32)].tobytes(),
                    nodes[start + np.frombuffer(dst, np.int32)].tobytes())
        for column, raw in zip(columns, rest):
            column.frombytes(raw)
