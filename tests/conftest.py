from __future__ import annotations

import pytest

from tokengraphs.ingest import BlockWindow, TransferEvent, WindowBatch, iter_window_groups

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
    (_window, batch), = iter_window_groups(events, 1 << 63)
    return batch


def batch_rows(batch: WindowBatch) -> list[tuple[str, str, str, int, int, int]]:
    """A batch's transfers as (token, from, to, value, block, logIndex) rows,
    in batch order."""
    token = batch.token.tolist()
    return list(zip(map(batch.tokens.__getitem__, token),
                    map(lambda t, i: batch.nodes[t][i], token, batch.src.tolist()),
                    map(lambda t, i: batch.nodes[t][i], token, batch.dst.tolist()),
                    batch.values, batch.block.tolist(),
                    batch.log_index.tolist()))


@pytest.fixture
def window() -> BlockWindow:
    return WINDOW
