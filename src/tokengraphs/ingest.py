"""Fetching, filtering, decoding and windowing of ERC-20 Transfer logs.

The pipeline entry point: transfers come either from an Ethereum JSON-RPC
endpoint (``fetch_logs``, which decodes eth_getLogs entries into one list of
:class:`TransferEvent` per block chunk) or from a local tab-separated fixture
file (``read_fixture``, a stream of the same events), and leave as one
:class:`WindowBatch` of interned columns per fixed-width block window.
"""

from __future__ import annotations

import logging
import os
import re
import time
from array import array
from dataclasses import dataclass
from itertools import chain, count, groupby
from operator import itemgetter
from typing import BinaryIO, Callable, Iterable, Iterator, NamedTuple

import numpy as np

log = logging.getLogger(__name__)

# topic0 of ERC-20 Transfer events: keccak-256 of "Transfer(address,address,uint256)"
TRANSFER_TOPIC = "0xddf252ad1be2c89b69c2b068fc378daa952ba7f163c4a11628f55a4df523b3ef"

ENDPOINT_ENV_VAR = "ETH_RPC_URL"

UINT256_MAX = (1 << 256) - 1
INT64_MAX = (1 << 63) - 1  # blocks and log indexes become int64 columns

_ADDRESS_RE = re.compile(r"^0x[0-9a-f]{40}$")
_TXHASH_RE = re.compile(r"^0x[0-9a-f]{64}$")
_QUANTITY_RE = re.compile(r"0x[0-9a-f]+")

# provider messages that mean "narrow the block range", collected from the
# common public endpoints (infura / alchemy / erigon / nethermind wording)
_OVER_LIMIT_RE = re.compile(
    r"more than \d+ results|too many|response size|query timeout exceeded"
    r"|block range|limit exceeded",
    re.IGNORECASE,
)


class DecodeError(ValueError):
    """Raised when a log does not decode to a well-formed transfer."""


class FixtureParseError(ValueError):
    """Malformed fixture line; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(line_no, message)  # what a pickled copy is made from
        self.line_no = line_no

    def __str__(self) -> str:
        return "line %d: %s" % self.args


class FixtureValueError(FixtureParseError):
    """Fixture field parses but is out of range."""


class FetchError(RuntimeError):
    """Log fetch failed after retries; ``__cause__`` holds the last error."""


class RangeTooDenseError(FetchError):
    """A single block still exceeds the provider's result limit."""


class TransferEvent(NamedTuple):
    """One decoded ERC-20 transfer.

    ``value`` is kept in raw token units as an exact (arbitrary precision)
    integer; no decimals adjustment is applied anywhere in the pipeline.
    """

    token: str
    from_addr: str
    to_addr: str
    value: int
    block: int
    log_index: int
    tx_hash: str


class BlockWindow(NamedTuple):
    """Half-open block range [start, end)."""

    start: int
    end: int

    @property
    def width(self) -> int:
        return self.end - self.start

    def __str__(self) -> str:
        return f"{self.start}-{self.end}"


DEFAULT_WINDOW_WIDTH = 100_000

def is_erc20_transfer(entry: dict) -> bool:
    """Shape filter on an eth_getLogs entry: Transfer topic, exactly 3 topics,
    exactly 32 data bytes.  The 3-topic check is what separates ERC-20 from
    ERC-721, whose Transfer event indexes the token id as a fourth topic and
    carries no data."""
    topics, data = entry["topics"], entry["data"].lower()
    return (len(topics) == 3 and topics[0].lower() == TRANSFER_TOPIC
            and data.startswith("0x") and len(data) == 2 + 64)


def _decode(entry: dict) -> TransferEvent | None:
    """The transfer in an eth_getLogs entry, or None for another shape.  Every
    field is read, in entry order, before the shape is looked at, so a missing
    or non-string field raises whatever its shape; a transfer's hex field that
    the fixture reader would refuse raises ValueError."""
    token = entry["address"].lower()
    topics = [topic.lower() for topic in entry["topics"]]
    data = entry["data"].lower()
    block = str.lower(entry["blockNumber"])  # a quantity given as an int: TypeError
    tx_hash = entry["transactionHash"].lower()
    log_index = str.lower(entry["logIndex"])
    if not is_erc20_transfer(entry):
        return None
    # indexed addresses are left-padded to 32 bytes; high bytes mean no address
    if any(len(topic) != 2 + 64 or topic[2:26] != "0" * 24 for topic in topics[1:]):
        raise DecodeError(f"log {tx_hash}/{log_index}: an address topic is not padded")
    from_addr, to_addr = ("0x" + topic[26:] for topic in topics[1:])
    for name, text, pattern in (
            ("address", token, _ADDRESS_RE), ("from", from_addr, _ADDRESS_RE),
            ("to", to_addr, _ADDRESS_RE), ("data", data, _TXHASH_RE),  # one 32-byte word
            ("blockNumber", block, _QUANTITY_RE), ("transactionHash", tx_hash, _TXHASH_RE),
            ("logIndex", log_index, _QUANTITY_RE)):
        if not pattern.fullmatch(text) or pattern is _QUANTITY_RE and int(text, 16) > INT64_MAX:
            raise ValueError(f"bad {name}: {text!r}")
    return TransferEvent(token, from_addr, to_addr, int(data, 16), int(block, 16),
                         int(log_index, 16), tx_hash)


def decode_logs(entries: Iterable[dict]) -> Iterator[TransferEvent]:
    """Decode eth_getLogs entries, silently dropping non-transfers."""
    for entry in entries:
        try:
            event = _decode(entry)
        except DecodeError as exc:
            log.debug("dropping malformed transfer %s", exc)
            continue
        if event is not None:
            yield event


def _requests_transport(endpoint: str, payload: dict, timeout: float) -> dict:
    import requests  # only fetch needs it; every other subcommand starts without it

    response = requests.post(endpoint, json=payload, timeout=timeout)
    response.raise_for_status()
    return response.json()


Transport = Callable[[str, dict, float], dict]


class _OverLimit(Exception):
    pass


def fetch_logs(
    endpoint: str,
    window: BlockWindow,
    chunk: int = 2_000,
    transport: Transport | None = None,
    timeout: float = 30.0,
    retries: int = 3,
    backoff_base: float = 0.5,
) -> Iterator[tuple[int, list[TransferEvent]]]:
    """Fetch and decode the transfers over ``window`` in ``chunk``-block slices.

    Yields ``(chunk_end, transfers)`` for every slice in block order, empty
    slices included, so a caller can record its progress after each one;
    ``transfers`` are decoded as by :func:`decode_logs` and ordered by
    (block, log_index).  When the provider rejects a slice as too large, the
    slice is halved and re-requested; a slice that cannot go below one block
    raises :class:`RangeTooDenseError`.  Duplicates (same block, tx_hash,
    log_index) from provider retries are dropped; slices share no block, so
    duplicates are looked for within each slice only.  The arguments are
    checked on the call, before any request is made.
    """
    if chunk < 1:
        raise ValueError("chunk must be >= 1 block")
    if retries < 0:
        raise ValueError("rpc retries must be >= 0")
    if not timeout > 0:
        raise ValueError("rpc timeout must be > 0 seconds")
    if not backoff_base >= 0:
        raise ValueError("rpc backoff must be >= 0 seconds")
    transport = transport or _requests_transport
    request_ids = count(1)

    def get_logs(from_block: int, to_block: int) -> list[dict]:
        """eth_getLogs over the inclusive block range [from_block, to_block]."""
        payload = {
            "jsonrpc": "2.0",
            "id": next(request_ids),
            "method": "eth_getLogs",
            "params": [{
                "fromBlock": hex(from_block),
                "toBlock": hex(to_block),
                "topics": [TRANSFER_TOPIC],
            }],
        }
        last_error: Exception | None = None
        for attempt in range(retries + 1):
            if attempt and backoff_base:
                time.sleep(min(backoff_base * 2 ** (attempt - 1), 30.0))
            try:
                reply = transport(endpoint, payload, timeout)
            except Exception as exc:  # transport-level: connection, timeout, 5xx
                last_error = exc
                log.info("eth_getLogs transport error (attempt %d): %s",
                         attempt + 1, exc)
                continue
            if (isinstance(reply, dict) and reply.get("error") is None
                    and isinstance(reply.get("result"), list)):
                return reply["result"]
            error = reply.get("error") if isinstance(reply, dict) else None
            if isinstance(error, dict):
                message = str(error.get("message", ""))
                if error.get("code") == -32005 or _OVER_LIMIT_RE.search(message):
                    raise _OverLimit(message)
            else:  # neither a result list nor an error object: retried the same way
                message = f"malformed reply: {str(reply)[:200]}"
            last_error = FetchError(f"provider error: {message}")
            log.info("eth_getLogs provider error (attempt %d): %s",
                     attempt + 1, message)
        raise FetchError(
            f"eth_getLogs failed after {retries + 1} attempts: {last_error}"
        ) from last_error

    def fetch_span(span_start: int, span_end: int) -> list[TransferEvent]:
        # spans are half-open; eth_getLogs takes inclusive bounds
        try:
            raw = get_logs(span_start, span_end - 1)
        except _OverLimit as exc:
            if span_end - span_start <= 1:
                raise RangeTooDenseError(
                    f"block {span_start} alone exceeds the provider limit: {exc}"
                ) from exc
            mid = (span_start + span_end) // 2
            return fetch_span(span_start, mid) + fetch_span(mid, span_end)
        try:
            return list(decode_logs(raw))
        except (KeyError, TypeError, AttributeError, ValueError) as exc:
            raise FetchError(f"malformed log entry from provider: {exc!r}") from exc

    def fetch_chunk(start: int) -> tuple[int, list[TransferEvent]]:
        end = min(start + chunk, window.end)
        unique: dict[tuple[int, str, int], TransferEvent] = {}
        for event in sorted(fetch_span(start, end),
                            key=lambda e: (e.block, e.log_index)):
            unique.setdefault((event.block, event.tx_hash, event.log_index), event)
        return end, list(unique.values())

    return map(fetch_chunk, range(window.start, window.end, chunk))


# ---------------------------------------------------------------------------
# fixture file format: one transfer per line, tab separated, fields in
# TransferEvent order
#   token  from  to  value  block  logIndex  txHash

FIXTURE_LINE = "%s\t%s\t%s\t%d\t%d\t%d\t%s"


def format_fixture_line(event: TransferEvent) -> str:
    return FIXTURE_LINE % event


def read_fixture(path: str | os.PathLike) -> Iterator[TransferEvent]:
    """Yield transfers from a fixture file in file order, validating each line."""
    from .halves import _fixture_columns  # compiled only by a process that reads a fixture

    with open(path, "rb") as handle:
        for columns in _fixture_columns(handle):
            for field in (0, 1, 2, 6):  # token, from, to, txHash
                columns[field] = list(map(bytes.decode, columns[field]))
            yield from map(TransferEvent._make, zip(*columns))


def write_fixture(events: Iterable[TransferEvent], handle: BinaryIO) -> int:
    """Write events as fixture lines to an open binary handle; returns the number written."""
    lines = [format_fixture_line(event) + "\n" for event in events]
    handle.write("".join(lines).encode())
    return len(lines)


# ---------------------------------------------------------------------------
# block windows as interned columns

_LIMB = (1 << 64) - 1
_WIDE = 1 << 128


def append_values(lo: array, hi: array, wide: dict[int, int], values: list[int]) -> None:
    """Append uint256 ``values`` as uint64 limbs, bits 0-63 to ``lo`` and 64-127
    to ``hi``; a value of 2**128 or more gets zero limbs and is kept whole in
    ``wide`` under its row."""
    try:
        lo.fromlist(values)  # leaves lo as it was if a value needs more than 64 bits
    except OverflowError:
        low, high = values[:], [0] * len(values)
        for i, value in enumerate(values):
            if value > _LIMB:
                if value < _WIDE:
                    low[i], high[i] = value & _LIMB, value >> 64
                else:
                    low[i], wide[len(lo) + i] = 0, value
        lo.fromlist(low)
        hi.fromlist(high)
    else:
        hi.frombytes(bytes(8 * len(values)))


class LimbValues:
    """Exact values as ``append_values`` splits them: uint64 ``value_lo`` and
    ``value_hi`` limb columns, and a ``wide`` side dict {row: value}."""

    @property
    def values(self) -> list[int]:
        """Each row's exact value as a Python int, made on demand."""
        values = self.value_lo.tolist()
        rows = np.flatnonzero(self.value_hi)
        for row, high in zip(rows.tolist(), self.value_hi[rows].tolist()):
            values[row] |= high << 64
        for row, value in self.wide.items():
            values[row] = value
        return values


@dataclass
class WindowBatch(LimbValues):
    """One window's transfers as columns, in input order.

    Tokens are interned per window and addresses per token, each numbered in
    order of first appearance: ``tokens[t]`` is the address of token id
    ``t``, and ``nodes[t]`` packs the ASCII addresses of that token's graph
    nodes, 42 bytes each, node ``i``'s at ``nodes[t][42 * i:42 * i + 42]``.
    An address that moved two tokens is a node of each, never one shared node.
    No column holds a Python object: values are limbs (see ``LimbValues``).
    """

    tokens: list[str]
    nodes: list[bytes]
    token: np.ndarray      # int32 token id of each transfer
    src: np.ndarray        # int32 node id of the sender, within its token
    dst: np.ndarray        # int32 node id of the recipient, within its token
    block: np.ndarray      # int64
    log_index: np.ndarray  # int64
    value_lo: np.ndarray
    value_hi: np.ndarray
    wide: dict[int, int]

    def __len__(self) -> int:
        return len(self.token)


ADDRESS_BYTES = 42  # "0x" and 40 hex digits
ADDRESS_DTYPE = f"S{ADDRESS_BYTES}"  # a numpy view of an address blob
# the dtypes of a WindowBatch's columns, token to value_hi, grown in place
_DTYPES = (np.int32,) * 3 + (np.int64,) * 2 + (np.uint64,) * 2
_SHARED_IDS = 4_096  # ids made once per window and shared by its tables


class _Interner(dict):
    """A dict that gives each new key the next id, in order of first lookup:
    the ints of ``ids`` (0, 1, 2, ...) while they last, then new ones.  No
    id factory object is made per table."""

    __slots__ = ("ids",)

    def __init__(self, ids: list[int]):
        self.ids = ids

    def __missing__(self, key: bytes) -> int:
        size = len(self)
        self[key] = new = self.ids[size] if size < len(self.ids) else size
        return new


def _packed(table: _Interner | bytes) -> bytes:
    """A token's address table as its node addresses in id order, one blob."""
    if isinstance(table, bytes):  # a blob already: packed early, or sent by a worker
        return table
    blob = b"".join(table)
    if len(blob) != ADDRESS_BYTES * len(table):
        raise ValueError(f"a node address is not {ADDRESS_BYTES} bytes long")
    return blob


def _unpacked(table: _Interner | bytes, shared: list[int]) -> _Interner:
    """A token's address table that may be packed, as a table again, each
    address under the id it had."""
    if not isinstance(table, bytes):
        return table
    addresses = np.frombuffer(table, ADDRESS_DTYPE).tolist()
    unpacked = _Interner(shared)
    unpacked.update(zip(addresses, chain(shared, count(len(shared)))))
    return unpacked


def _intern_window(runs: Iterable[tuple[int, list | Callable]]) -> WindowBatch:
    """One window's (window index, column block) runs as a WindowBatch.  A run
    may instead hold a function, which merges a part of the window interned
    by another process through this window's tables and columns.

    Addresses are bytes keys.  Each token has its own small address table,
    which stays in cache however many addresses the window holds; every
    table's ids below ``_SHARED_IDS`` are the same int objects, made once per
    window.  While the rows come grouped by token (no row's token id below
    the id of the row before it), each block's tokens but its last are
    finished, and their tables are packed into their blobs at once; once a
    row goes back to an earlier token, no more are packed, and a packed
    table that is needed again is unpacked.  When the window closes, each table left is
    packed and freed before the next is packed, and token names are decoded.
    """
    shared = list(range(_SHARED_IDS))
    token_ids = _Interner(shared)
    node_ids: list[_Interner | bytes] = []  # by token id
    columns = [array(np.dtype(dtype).char) for dtype in _DTYPES]
    token, src, dst, block, log_index, lo, hi = columns
    wide: dict[int, int] = {}
    grouped, packed = True, 0  # tokens below id packed are blobs, packed while rows are grouped
    for _index, run in runs:
        if callable(run):
            run(token_ids, node_ids, columns, wide)
            continue
        tokens, froms, tos, values, blocks, log_indexes, _tx_hashes = run
        ids = list(map(token_ids.__getitem__, tokens))
        node_ids += (_Interner(shared) for _ in range(len(token_ids) - len(node_ids)))
        grouped = grouped and ids[0] >= packed and ids == sorted(ids)
        if not grouped and packed:  # a packed token may come back
            for t in {t for t in ids if t < packed}:
                node_ids[t] = _unpacked(node_ids[t], shared)
        tables = list(map(node_ids.__getitem__, ids))
        token.fromlist(ids)
        src.fromlist(list(map(dict.__getitem__, tables, froms)))
        dst.fromlist(list(map(dict.__getitem__, tables, tos)))
        tables = None  # this run's hold on its tables, which may be packed now
        block.fromlist(blocks)
        log_index.fromlist(log_indexes)
        append_values(lo, hi, wide, values)
        if grouped:
            for t in range(packed, ids[-1]):
                node_ids[t] = _packed(node_ids[t])
            packed = ids[-1]
    for t, table in enumerate(node_ids):
        node_ids[t] = _packed(table)
    return WindowBatch(list(map(bytes.decode, token_ids)), node_ids,
                       *map(np.frombuffer, columns, _DTYPES), wide)


def partition_windows(
    events: Iterable[TransferEvent], width: int = DEFAULT_WINDOW_WIDTH,
) -> dict[BlockWindow, WindowBatch]:
    """Group events of any order into fixed-width windows, keeping input order in each."""
    if width < 1:
        raise ValueError("window width must be >= 1 block")
    ordered = sorted(events, key=lambda event: event.block // width)
    # one column block as a fixture read yields it: token, from and to as bytes
    columns = [list(map(str.encode, column)) if field < 3 else list(column)
               for field, column in enumerate(zip(*ordered))]
    return dict(_windows(_window_runs([columns] if ordered else [], width), width))


def _window_runs(blocks: Iterable[list[list]], width: int) -> Iterator[tuple[int, list[list]]]:
    """Each column block's runs of rows in one window, as (window index, run)."""
    for columns in blocks:
        block = columns[4]
        if block and min(block) // width == max(block) // width:  # most blocks
            yield block[0] // width, columns
            continue
        start = 0
        for index, run in groupby(map(width.__rfloordiv__, block)):
            end = start + len(list(run))
            yield index, [column[start:end] for column in columns]
            start = end


def iter_window_groups(
    path: str | os.PathLike, width: int = DEFAULT_WINDOW_WIDTH,
) -> Iterator[tuple[BlockWindow, WindowBatch]]:
    """Stream (window, batch) pairs from a fixture path, parsed a block of
    lines at a time and interned one window at a time.

    Windowing only groups: a batch keeps its transfers' input order, and
    ``build_graphs`` orders edges.  Windows must be contiguous, as every
    fetched or generated fixture's are; interleaved windows raise ValueError.
    The width is checked and the fixture opened on the call, not on the first
    pair.  A forked worker reads the second half of a regular file (see
    ``halves``); the pairs and errors are those of one process.
    """
    from .halves import fixture_windows  # compiled only by a process that reads a fixture

    windows = fixture_windows(path, width)
    next(windows)  # checks the width and opens the fixture, which closes with the generator
    return windows


def _windows(runs: Iterable[tuple[int, list | Callable]],
             width: int) -> Iterator[tuple[BlockWindow, WindowBatch]]:
    """(window index, run) runs as (window, batch) pairs; a window that starts again raises ValueError."""
    done: set[int] = set()
    for index, group in groupby(runs, key=itemgetter(0)):
        if index in done:
            raise ValueError("fixture windows are interleaved; sort the fixture by block")
        done.add(index)
        yield BlockWindow(index * width, (index + 1) * width), _intern_window(group)
