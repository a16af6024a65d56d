from __future__ import annotations

import os
import random

import pytest
from hypothesis import strategies as st

from tokengraphs.features import extract_features, feature_table
from tokengraphs.ingest import (BlockWindow, TransferEvent, WindowBatch, partition_windows,
                                write_fixture)

WINDOW = BlockWindow(18_000_000, 18_100_000)


def make_event(
    from_addr: str = "0xaa",
    to_addr: str = "0xbb",
    value: int = 1,
    block: int = 18_000_000,
    log_index: int = 0,
    token: str = "0x01",
    tx: int = 0,
) -> TransferEvent:
    """Compact event builder: short address stubs are zero-padded."""
    pad = lambda a: "0x" + a[2:].rjust(40, "0")
    return TransferEvent(
        token=pad(token),
        from_addr=pad(from_addr),
        to_addr=pad(to_addr),
        value=value,
        block=block,
        log_index=log_index,
        tx_hash="0x" + format(tx if tx else block * 1000 + log_index, "064x"),
    )


def batch_of(events: list[TransferEvent]) -> WindowBatch:
    """All ``events`` as one window batch, in their order (at least one event)."""
    (batch,) = partition_windows(events, 1 << 63).values()
    return batch


def feature_row(graph):
    """``extract_features``' row of ``graph`` as a feature-table record, whose
    cells read by column name."""
    return feature_table([extract_features(graph)])[0]


@st.composite
def feature_rows(draw) -> tuple:
    """A feature-table row that ``read_feature_table`` accepts: finite reals,
    at least one component, and ints past int64 in every int column."""
    reals = st.floats(allow_nan=False, allow_infinity=False)
    counts = st.integers(0, 2**70)
    start = draw(st.integers(0, 2**70))
    return ("0x" + draw(st.text("0123456789abcdef", min_size=40, max_size=40)),
            start, start + draw(st.integers(0, 10**6)), draw(counts), draw(counts),
            draw(reals), draw(st.integers(1, 2**70)), draw(reals), draw(counts),
            draw(reals), draw(st.integers(0, 2**1000)))


def batch_rows(batch: WindowBatch) -> list[tuple[str, str, str, int, int, int]]:
    """A batch's transfers as (token, from, to, value, block, logIndex) rows,
    in batch order, with each node address cut from its token's blob and
    decoded as an event's is."""
    token = batch.token.tolist()
    address = lambda t, i: batch.nodes[t][42 * i:42 * i + 42].decode()
    return list(zip(map(batch.tokens.__getitem__, token),
                    map(address, token, batch.src.tolist()),
                    map(address, token, batch.dst.tolist()),
                    batch.values, batch.block.tolist(),
                    batch.log_index.tolist()))


def write_tiny_corpus(path: str | os.PathLike, n_tokens: int,
                      seed: int = 0) -> list[TransferEvent]:
    """The many-small-token shape of a real window: ``n_tokens`` tokens of 3
    transfers each among at most 5 addresses of their own, interleaved over
    ``WINDOW`` and written to ``path`` as one fixture sorted by block; returns
    the transfers in file order."""
    rng = random.Random(seed)
    address = lambda: "0x" + format(rng.getrandbits(160), "040x")
    drawn = []
    for _ in range(n_tokens):
        token, pool = address(), [address() for _ in range(5)]
        drawn += [(rng.randrange(WINDOW.start, WINDOW.end), token, rng.choice(pool),
                   rng.choice(pool), rng.randrange(1, 10**21)) for _ in range(3)]
    drawn.sort(key=lambda row: row[0])
    events = [TransferEvent(token, src, dst, value, block, i, "0x" + format(i + 1, "064x"))
              for i, (block, token, src, dst, value) in enumerate(drawn)]
    with open(path, "wb") as handle:
        write_fixture(events, handle)
    return events


@pytest.fixture
def window() -> BlockWindow:
    return WINDOW
