from __future__ import annotations

import json
import os

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tokengraphs.ingest import (
    TRANSFER_TOPIC,
    BlockWindow,
    DecodeError,
    FetchError,
    FixtureParseError,
    FixtureValueError,
    INT64_MAX,
    RangeTooDenseError,
    TransferEvent,
    UINT256_MAX,
    _decode,
    decode_logs,
    fetch_logs,
    format_fixture_line,
    is_erc20_transfer,
    iter_window_groups,
    partition_windows,
    read_fixture,
    write_fixture,
)

from conftest import batch_rows, make_event

TOPIC = "0xddf252ad1be2c89b69c2b068fc378daa952ba7f163c4a11628f55a4df523b3ef"


def raw_log(topics, data, block=18_000_000, index=0, address="0x" + "a" * 40, tx=1):
    return {"address": address, "topics": list(topics), "data": data,
            "blockNumber": hex(block), "transactionHash": "0x" + format(tx, "064x"),
            "logIndex": hex(index)}


def padded_topic(suffix: str) -> str:
    return "0x" + "0" * 24 + suffix.rjust(40, "0")


# --- topic -------------------------------------------------------------------

def test_transfer_topic_is_the_canonical_keccak():
    assert TRANSFER_TOPIC == TOPIC


# --- shape filter -----------------------------------------------------------

def test_accepts_well_formed_transfer():
    log = raw_log([TOPIC, padded_topic("b1"), padded_topic("c1")], "0x" + "0" * 64)
    assert is_erc20_transfer(log)


def test_rejects_four_topics_nft_style():
    log = raw_log([TOPIC, padded_topic("b1"), padded_topic("c1"), padded_topic("1")],
                  "0x")
    assert not is_erc20_transfer(log)


def test_rejects_empty_data():
    log = raw_log([TOPIC, padded_topic("b1"), padded_topic("c1")], "0x")
    assert not is_erc20_transfer(log)


def test_rejects_wrong_signature_and_no_topics():
    other = "0x" + "9" * 64
    assert not is_erc20_transfer(
        raw_log([other, padded_topic("b1"), padded_topic("c1")], "0x" + "0" * 64))
    assert not is_erc20_transfer(raw_log([], "0x" + "0" * 64))


# --- decoding ---------------------------------------------------------------

def test_decode_zero_value():
    log = raw_log([TOPIC, padded_topic("b1"), padded_topic("c1")], "0x" + "0" * 64)
    assert _decode(log).value == 0


def test_decode_value_one():
    log = raw_log([TOPIC, padded_topic("b1"), padded_topic("c1")],
                  "0x" + "0" * 63 + "1")
    assert _decode(log).value == 1


def test_decode_mint_from_null_address():
    log = raw_log([TOPIC, "0x" + "0" * 64, padded_topic("c1")], "0x" + "0" * 64)
    assert _decode(log).from_addr == "0x" + "0" * 40


def test_decode_copies_ordering_fields():
    log = raw_log([TOPIC, padded_topic("b1"), padded_topic("c1")],
                  "0x" + format(77, "064x"), block=18_000_123, index=9, tx=55)
    event = _decode(log)
    assert (event.block, event.log_index) == (18_000_123, 9)
    assert event.tx_hash == "0x" + format(55, "064x")
    assert event.token == log["address"]


def test_decode_rejects_unfiltered_log():
    log = raw_log([TOPIC, padded_topic("b1"), padded_topic("c1")], "0x")
    assert _decode(log) is None


def test_decode_rejects_dirty_topic_padding():
    dirty = "0x" + "11" * 12 + "b1".rjust(40, "0")
    log = raw_log([TOPIC, dirty, padded_topic("c1")], "0x" + "0" * 64)
    with pytest.raises(DecodeError):
        _decode(log)


def test_stream_decoding_drops_nft_salt():
    good = raw_log([TOPIC, padded_topic("b1"), padded_topic("c1")], "0x" + "0" * 64)
    nft = raw_log([TOPIC, padded_topic("b1"), padded_topic("c1"), padded_topic("9")],
                  "0x", index=1)
    events = list(decode_logs([nft, good, nft]))
    assert len(events) == 1 and events[0].log_index == 0


# --- fixture round trip -----------------------------------------------------

def test_fixture_round_trip(tmp_path):
    events = [
        make_event("0xb1", "0xc1", value=10, block=18_000_100, log_index=0),
        make_event("0xc1", "0xb1", value=UINT256_MAX, block=18_000_101, log_index=1),
        make_event("0xd1", "0xd1", value=0, block=18_000_102, log_index=2),
    ]
    path = tmp_path / "fixture.tsv"
    with open(path, "wb") as handle:
        assert write_fixture(events, handle) == 3
    assert list(read_fixture(path)) == events


def test_empty_fixture_is_empty_stream(tmp_path):
    path = tmp_path / "empty.tsv"
    path.write_text("")
    assert list(read_fixture(path)) == []


def test_fixture_error_names_line_number(tmp_path):
    path = tmp_path / "bad.tsv"
    good = format_fixture_line(make_event())
    path.write_text(good + "\n" + good.replace("0x", "0Z", 1) + "\n")
    with pytest.raises(FixtureParseError) as err:
        list(read_fixture(path))
    assert err.value.line_no == 2


def test_fixture_rejects_uppercase_address(tmp_path):
    path = tmp_path / "case.tsv"
    line = format_fixture_line(make_event())
    path.write_text(line.replace("0x00", "0xAB", 1) + "\n")
    with pytest.raises(FixtureParseError):
        list(read_fixture(path))


def test_fixture_rejects_a_bad_tx_hash(tmp_path):
    path = tmp_path / "hash.tsv"
    path.write_text(format_fixture_line(make_event())[:-1] + "\n")  # 63 hex digits
    with pytest.raises(FixtureParseError, match="^line 1: bad txHash: '0x0"):
        list(read_fixture(path))


def test_fixture_rejects_value_above_uint256(tmp_path):
    path = tmp_path / "range.tsv"
    fields = format_fixture_line(make_event()).split("\t")
    for too_big in (str(UINT256_MAX + 1), "7" * 5_000):  # past int()'s 4,300-digit limit
        fields[3] = too_big
        path.write_text("\t".join(fields) + "\n")
        with pytest.raises(FixtureValueError, match="^line 1: value out of uint256 range$"):
            list(read_fixture(path))


@pytest.mark.parametrize("field", [4, 5])  # block, logIndex
def test_fixture_rejects_block_or_log_index_beyond_int64(tmp_path, field):
    path = tmp_path / "range.tsv"
    fields = format_fixture_line(make_event()).split("\t")
    for zeros in ("", "0" * 5_000):  # past int()'s 4,300-digit limit
        fields[field] = zeros + str(INT64_MAX)
        path.write_text("\t".join(fields) + "\n")
        assert list(read_fixture(path))[0][field] == INT64_MAX
    for too_big in (str(INT64_MAX + 1), str(10 ** 23 - 1), "7" * 5_000):
        fields[field] = too_big
        path.write_text("\t".join(fields) + "\n")
        with pytest.raises(FixtureValueError, match="^line 1: .*int64"):
            list(read_fixture(path))


@pytest.mark.parametrize("field, name, text", [
    (4, "block", "\u0661\u0668\u0660\u0660\u0660\u0660\u0660\u0665"),  # Arabic-Indic 18000005
    (3, "value", "\u00b2"),  # superscript two: str.isdigit accepts it
    (5, "logIndex", "\uff17"),  # fullwidth seven
])
def test_fixture_numbers_are_ascii_decimal(tmp_path, field, name, text):
    path = tmp_path / "digits.tsv"
    fields = format_fixture_line(make_event()).split("\t")
    fields[field] = text
    path.write_text("\t".join(fields) + "\n", encoding="utf-8")
    with pytest.raises(FixtureParseError, match=f"^line 1: non-decimal {name}: "):
        list(read_fixture(path))


def test_fixture_rejects_wrong_field_count(tmp_path):
    path = tmp_path / "short.tsv"
    path.write_text("0xabc\t1\t2\n")
    with pytest.raises(FixtureParseError) as err:
        list(read_fixture(path))
    assert "3" in str(err.value)


def test_a_byte_that_is_not_utf8_names_its_fixture_line(tmp_path):
    path = tmp_path / "bytes.tsv"
    good = format_fixture_line(make_event()).encode()
    path.write_bytes(b"\n".join([good] * 3 + [good[:5] + b"\xff" + good[6:]]) + b"\n")
    with pytest.raises(FixtureParseError, match=r"^line 4: bad token address: '0x0*\\udcff"):
        list(read_fixture(path))


# --- windowing --------------------------------------------------------------

def test_floor_rule_groups_edges_of_window():
    events = [make_event(block=18_000_001, log_index=0),
              make_event(block=18_099_999, log_index=1)]
    grouped = partition_windows(events, 100_000)
    assert set(grouped) == {BlockWindow(18_000_000, 18_100_000)}


def test_window_end_is_exclusive():
    grouped = partition_windows([make_event(block=18_100_000)], 100_000)
    assert set(grouped) == {BlockWindow(18_100_000, 18_200_000)}


def test_width_one_gives_one_window_per_block():
    events = [make_event(block=b, log_index=i) for i, b in enumerate((5, 6, 7))]
    grouped = partition_windows(events, 1)
    assert len(grouped) == 3
    assert all(w.width == 1 for w in grouped)


@given(st.lists(st.tuples(st.integers(0, 10_000_000), st.integers(0, 500)),
                min_size=1, max_size=200),
       st.integers(1, 100_000))
def test_partition_is_a_partition(points, width):
    events = [make_event(block=b, log_index=i, tx=n + 1)
              for n, (b, i) in enumerate(points)]
    grouped = partition_windows(events, width)
    regrouped = [row for batch in grouped.values() for row in batch_rows(batch)]
    assert sorted(regrouped) == sorted(e[:6] for e in events)
    for window, batch in grouped.items():
        assert all(window.start <= block < window.end for block in batch.block.tolist())


def test_iter_window_groups_matches_partition_on_contiguous_input(tmp_path):
    events = [make_event(block=b, log_index=i, tx=i + 1)
              for i, b in enumerate((18_000_005, 18_000_001, 18_099_000,
                                     18_100_001, 18_150_000))]
    with open(tmp_path / "f.tsv", "wb") as handle:
        write_fixture(events, handle)
    streamed = {w: batch_rows(b) for w, b in iter_window_groups(tmp_path / "f.tsv", 100_000)}
    assert streamed == {w: batch_rows(b)
                        for w, b in partition_windows(events, 100_000).items()}


def test_iter_window_groups_rejects_interleaved_windows(tmp_path):
    events = [make_event(block=18_000_001), make_event(block=18_100_001),
              make_event(block=18_000_002)]
    with open(tmp_path / "f.tsv", "wb") as handle:
        write_fixture(events, handle)
    with pytest.raises(ValueError, match="interleaved; sort the fixture by block"):
        list(iter_window_groups(tmp_path / "f.tsv", 100_000))


# --- fetch ------------------------------------------------------------------

class FakeProvider:
    """Canned eth_getLogs endpoint with scriptable failures."""

    def __init__(self, logs, over_limit_spans=(), fail_first=0):
        self.logs = logs  # eth_getLogs entry dicts, hex blockNumber/logIndex
        self.over_limit_spans = set(over_limit_spans)
        self.fail_first = fail_first
        self.calls: list[tuple[int, int]] = []

    def __call__(self, endpoint, payload, timeout):
        params = payload["params"][0]
        start = int(params["fromBlock"], 16)
        end = int(params["toBlock"], 16)
        self.calls.append((start, end))
        if self.fail_first > 0:
            self.fail_first -= 1
            raise ConnectionError("synthetic transport failure")
        if (start, end) in self.over_limit_spans:
            return {"jsonrpc": "2.0", "id": payload["id"],
                    "error": {"code": -32005, "message": "query returned more than 10000 results"}}
        result = [entry for entry in self.logs
                  if start <= int(entry["blockNumber"], 16) <= end]
        return {"jsonrpc": "2.0", "id": payload["id"], "result": result}


def rpc_entry(block, index, tx=None, value=5):
    return {
        "address": "0x" + "a" * 40,
        "topics": [TOPIC, padded_topic("b1"), padded_topic("c1")],
        "data": "0x" + format(value, "064x"),
        "blockNumber": hex(block),
        "transactionHash": "0x" + format(tx if tx is not None else block * 10 + index, "064x"),
        "logIndex": hex(index),
    }


def flat(chunks):
    """The logs of every chunk ``fetch_logs`` yields, in order."""
    return [entry for _, logs in chunks for entry in logs]


def test_fetch_chunks_cover_range_in_order():
    logs = [rpc_entry(100, 0), rpc_entry(150, 1), rpc_entry(199, 0)]
    provider = FakeProvider(logs)
    out = flat(fetch_logs("http://fake", BlockWindow(100, 200), chunk=50,
                          transport=provider, backoff_base=0.0))
    assert [(e.block, e.log_index) for e in out] == [(100, 0), (150, 1), (199, 0)]
    assert provider.calls[0] == (100, 149)
    assert provider.calls[1] == (150, 199)


def test_fetch_empty_range_is_empty():
    provider = FakeProvider([])
    assert flat(fetch_logs("http://fake", BlockWindow(100, 100), chunk=10,
                           transport=provider, backoff_base=0.0)) == []
    assert provider.calls == []


def test_fetch_yields_every_chunk_end_with_its_logs_empty_chunks_included():
    logs = [rpc_entry(151, 0), rpc_entry(100, 1), rpc_entry(100, 0)]
    chunks = list(fetch_logs("http://fake", BlockWindow(100, 190), chunk=25,
                             transport=FakeProvider(logs), backoff_base=0.0))
    assert [(end, [(e.block, e.log_index) for e in found])
            for end, found in chunks] == [
        (125, [(100, 0), (100, 1)]), (150, []), (175, [(151, 0)]), (190, [])]


@pytest.mark.parametrize("bad", [
    {"chunk": 0}, {"retries": -1}, {"timeout": 0.0}, {"timeout": float("nan")},
    {"backoff_base": -0.5},
])
def test_fetch_arguments_are_checked_on_the_call_before_any_request(bad):
    provider = FakeProvider([rpc_entry(100, 0)])
    with pytest.raises(ValueError):
        fetch_logs("http://fake", BlockWindow(100, 110), transport=provider,
                   **{"chunk": 5, **bad})
    assert provider.calls == []


def test_an_int_quantity_is_a_malformed_entry():
    provider = FakeProvider([{**rpc_entry(100, 0), "logIndex": 0}])
    with pytest.raises(FetchError, match="malformed log entry from provider: TypeError"):
        flat(fetch_logs("http://fake", BlockWindow(100, 101), chunk=1,
                        transport=provider, backoff_base=0.0))


def test_over_limit_chunk_is_split_in_half():
    logs = [rpc_entry(100, 0), rpc_entry(190, 0)]
    provider = FakeProvider(logs, over_limit_spans={(100, 199)})
    out = flat(fetch_logs("http://fake", BlockWindow(100, 200), chunk=100,
                          transport=provider, backoff_base=0.0))
    assert len(out) == 2
    assert provider.calls == [(100, 199), (100, 149), (150, 199)]


def test_single_block_over_limit_raises_range_too_dense():
    provider = FakeProvider([], over_limit_spans={(100, 100)})
    with pytest.raises(RangeTooDenseError):
        flat(fetch_logs("http://fake", BlockWindow(100, 101), chunk=1,
                        transport=provider, backoff_base=0.0))


def test_transient_errors_are_retried_then_succeed():
    provider = FakeProvider([rpc_entry(100, 0)], fail_first=2)
    out = flat(fetch_logs("http://fake", BlockWindow(100, 101), chunk=1,
                          transport=provider, retries=3, backoff_base=0.0))
    assert len(out) == 1


def test_unreachable_endpoint_fails_after_retries():
    provider = FakeProvider([], fail_first=99)
    with pytest.raises(FetchError):
        flat(fetch_logs("http://fake", BlockWindow(100, 101), chunk=1,
                        transport=provider, retries=2, backoff_base=0.0))


def test_duplicate_logs_are_dropped():
    dup = rpc_entry(100, 0, tx=7)
    provider = FakeProvider([dup, dict(dup)])
    out = flat(fetch_logs("http://fake", BlockWindow(100, 101), chunk=1,
                          transport=provider, backoff_base=0.0))
    assert len(out) == 1


def test_duplicate_across_halves_of_a_split_chunk_is_dropped():
    dup = rpc_entry(100, 0, tx=7)
    provider = FakeProvider([dup], over_limit_spans={(100, 199)})

    def lagging_replica(endpoint, payload, timeout):
        # answers both halves of the split chunk with the same log
        reply = provider(endpoint, payload, timeout)
        if "result" in reply:
            reply["result"] = [dict(dup)]
        return reply

    out = flat(fetch_logs("http://fake", BlockWindow(100, 200), chunk=100,
                          transport=lagging_replica, backoff_base=0.0))
    assert provider.calls == [(100, 199), (100, 149), (150, 199)]
    assert len(out) == 1


def test_fetch_order_is_independent_of_chunk_size():
    logs = [rpc_entry(b, i) for b in (100, 101, 150, 151, 199) for i in (1, 0)]
    streams = []
    for chunk in (1, 7, 1000):
        provider = FakeProvider(logs)
        streams.append([
            (e.block, e.log_index)
            for e in flat(fetch_logs("http://fake", BlockWindow(100, 200), chunk=chunk,
                                     transport=provider, backoff_base=0.0))
        ])
    assert streams[0] == streams[1] == streams[2]
    assert streams[0] == sorted(streams[0])


# --- golden parsing suite ---------------------------------------------------

def _load_golden_logs():
    here = os.path.dirname(__file__)
    with open(os.path.join(here, "data", "raw_logs_golden.jsonl")) as fh:
        return [json.loads(line) for line in fh]


def test_golden_corpus_decodes_to_expected_set():
    here = os.path.dirname(__file__)
    decoded = sorted(decode_logs(_load_golden_logs()))
    expected = sorted(read_fixture(os.path.join(here, "data",
                                                "raw_logs_golden_expected.tsv")))
    assert decoded == expected


def test_golden_decoys_never_pass_the_filter():
    logs = _load_golden_logs()
    accepted = [log for log in logs if is_erc20_transfer(log)]
    # the only dirty-padding decoy passes the shape filter but must fail decode
    decoded = list(decode_logs(logs))
    assert len(accepted) == 7 and len(decoded) == 6
