"""Seeded synthetic transfer corpora with the three observed graph shapes.

``generate(cfg)`` builds the structures seen in real token networks: a
legitimate token (giant interconnected component plus satellite flecks,
activity spread across most of the window), a honeypot/rug-pull star (one
component, two hubs, short clustered burst of activity), and an
address-poisoning spray (many 2-4 node scraps, dust values, short burst).

Every stream is deterministic per (seed, window, token index), so corpora
can be regenerated byte-identically from their manifest.
"""

from __future__ import annotations

import math
import os
from array import array
from bisect import bisect_right
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from itertools import chain, product
from typing import Sequence

import numpy as np

from .dataset import write_labels
from .ingest import (ADDRESS_BYTES, ADDRESS_DTYPE, FIXTURE_LINE, BlockWindow, WindowBatch,
                     append_values)

NULL_ADDRESS = b"0x" + b"0" * 40

LEGITIMATE = "legitimate"
HONEYPOT_STAR = "honeypot_star"
COUNTERFEIT_POISONING = "counterfeit_poisoning"

KINDS = (LEGITIMATE, HONEYPOT_STAR, COUNTERFEIT_POISONING)
_BUDGET_FLOORS = {LEGITIMATE: 20, HONEYPOT_STAR: 10, COUNTERFEIT_POISONING: 6}

SCAM_LIFETIME_CAP = 10_000  # blocks; scam bursts stay under this

# measured clustering must come in under concentration * uniform std dev,
# so the sampling sigma keeps this much headroom
_CLUSTER_MARGIN = 2.0

_TOKEN_INDEX = (1 << 64) - 1  # a namespace's token address; its nodes count from 1

Edges = list[tuple[int, int]]  # (from, to) node ids, in wiring order


@dataclass(frozen=True)
class ArchetypeConfig:
    kind: str
    node_budget: int
    window: BlockWindow
    lifetime: int
    seed: int
    temporal_concentration: float = 0.3
    value_scale: float = 1e18
    token: str | None = None
    edge_multiplier: float | None = None
    value_sigma: float = 0.6  # spread of the per-token value-scale multiplier

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown archetype kind: {self.kind!r}")
        if not 0 < self.temporal_concentration <= 1:
            raise ValueError("temporal concentration must be in (0, 1]")
        if not 0 <= self.lifetime <= self.window.width - 1:
            raise ValueError("lifetime must fit inside the window")
        floor = _BUDGET_FLOORS[self.kind]
        if self.node_budget < floor:
            raise ValueError(f"{self.kind} archetype needs a node budget of at least {floor}")
        if self.kind == LEGITIMATE and self.lifetime < 0.8 * self.window.width:
            raise ValueError("legitimate archetype lifetime must cover >= 80% of the window")
        if self.kind != LEGITIMATE and self.lifetime >= SCAM_LIFETIME_CAP:
            raise ValueError(f"{self.kind} lifetime must stay under {SCAM_LIFETIME_CAP} blocks")

    @property
    def label(self) -> int:
        """Ground truth: 0 for a legitimate token, 1 for either scam shape."""
        return int(self.kind != LEGITIMATE)


def _addresses(namespace: int, first: int, count: int = 1) -> bytes:
    """The ASCII addresses of ``namespace`` at ``count`` indexes from ``first``
    (below 2**80), packed in one blob."""
    return (b"0x%020x%%020x" % (namespace % (1 << 80)) * count) % tuple(
        range(first, first + count))


def token_address(seed: int, window_tag: int, token_idx: int) -> str:
    namespace = (seed % (1 << 40)) << 39 | (window_tag << 26) | token_idx | 1 << 79
    return _addresses(namespace, _TOKEN_INDEX).decode()


def _blocks(rng: np.random.Generator, n: int, cfg: ArchetypeConfig) -> np.ndarray:
    """Legitimate activity is uniform over the lifetime, with the endpoints
    pinned so the measured lifetime is exact; scam activity is one normal
    burst, clipped to the lifetime."""
    window, lifetime = cfg.window, cfg.lifetime
    slack = window.width - 1 - lifetime
    t0 = window.start + (int(rng.integers(0, slack + 1)) if slack > 0 else 0)
    if cfg.kind == LEGITIMATE:
        blocks = rng.integers(t0, t0 + lifetime + 1, size=n)
        if n >= 2:
            blocks[0] = t0
            blocks[1] = t0 + lifetime
        return blocks.astype(np.int64)
    uniform_std = lifetime / math.sqrt(12.0)
    sigma = max(cfg.temporal_concentration * uniform_std / _CLUSTER_MARGIN, 1e-9)
    blocks = np.rint(rng.normal(t0 + lifetime / 2.0, sigma, size=n))
    return np.clip(blocks, t0, t0 + lifetime).astype(np.int64)


def _values(rng: np.random.Generator, n: int, cfg: ArchetypeConfig) -> list[int]:
    """Dust for poisoning; otherwise lognormal around a per-token level."""
    if cfg.kind == COUNTERFEIT_POISONING:
        return rng.integers(1, 1000, size=n).tolist()
    token_level = rng.lognormal(0.0, cfg.value_sigma)
    draws = rng.lognormal(0.0, 1.0, size=n)
    return list(map(int, (cfg.value_scale * token_level * draws).tolist()))


def _fixture_lines(batch: WindowBatch) -> bytes:
    """The fixture lines of a one-token batch: one bytes ``%`` over
    ``FIXTURE_LINE`` with the token and the tx-hash prefix written in.  A tx
    hash is the token address (unique per corpus), then the log index."""
    token, = batch.tokens
    addresses = np.frombuffer(batch.nodes[0], ADDRESS_DTYPE)
    line = (FIXTURE_LINE.replace("%s", token, 1).removesuffix("%s").encode()
            + b"0x%032x%%032x\n" % (int(token[2:], 16) % (1 << 128)))
    log_index = batch.log_index.tolist()
    cells = [0] * (6 * len(log_index))
    cells[0::6], cells[1::6] = addresses[batch.src].tolist(), addresses[batch.dst].tolist()
    cells[2::6], cells[3::6] = batch.values, batch.block.tolist()
    cells[4::6] = cells[5::6] = log_index
    return line * len(log_index) % tuple(cells)


@contextmanager
def _scalar_draws(rng: np.random.Generator):
    """numpy's scalar ``rng.integers(n)`` (1 <= n <= 2**32) and ``rng.random()``,
    replayed from raw PCG64 words at a fraction of a call's cost, leaving
    ``rng`` as those calls would.  ``integers`` is Lemire's method
    (arXiv:1805.10941) on the buffered high half-word (``has_uint32``/
    ``uinteger``) or else a fresh word's low half, buffering its high half;
    it redraws on rejection and draws nothing for n == 1.  ``random`` is a
    word's top 53 bits * 2**-53."""
    bitgen = rng.bit_generator
    state = bitgen.state
    has_half, half = state["has_uint32"], state["uinteger"]
    words: list[int] = []  # drawn and not yet used, next one last

    def refill() -> int:
        words.extend(bitgen.random_raw(256)[::-1].tolist())
        return words.pop()

    def integers(n: int) -> int:
        nonlocal has_half, half
        while n > 1:
            if has_half:
                has_half, scaled = 0, half * n
            else:
                raw = words.pop() if words else refill()
                has_half, half, scaled = 1, raw >> 32, (raw & 0xFFFFFFFF) * n
            if scaled & 0xFFFFFFFF >= (1 << 32) % n:
                return scaled >> 32
        return 0

    yield integers, lambda: ((words.pop() if words else refill()) >> 11) * 2.0 ** -53
    bitgen.advance(-len(words))  # this clears the buffer, so set it after
    bitgen.state = {**bitgen.state, "has_uint32": has_half, "uinteger": half}


def _attachments(rng: np.random.Generator, giant: int) -> tuple[np.ndarray, np.ndarray]:
    """Node k's ``rng.integers(2k - 1)`` and ``rng.random() < 0.5`` for 0 < k <
    giant, from one ``random_raw`` call: the bounds read half-words as
    ``_scalar_draws`` does (node 1's reads none), and a coin is its word's top
    bit being 0.  From the first node whose half its bound rejects (about 1 in
    10**4 tokens), the nodes draw one by one through ``_scalar_draws``."""
    bitgen = rng.bit_generator
    state = bitgen.state
    step = np.arange(giant - 1)  # the nodes from 2 on, which draw an index, then the end
    place = step + 1 - state["has_uint32"]  # in the half-words: buffered, low, high, low...
    start = 1 + step + place // 2  # the first word of each, after node 1's coin
    words = bitgen.random_raw(int(start[-1]))
    fresh = words[start[:-1][place[:-1] % 2 == 1]]
    halves = np.empty(1 + 2 * len(fresh), np.uint64)
    halves[0], halves[1::2], halves[2::2] = state["uinteger"], fresh & 0xFFFFFFFF, fresh >> 32
    bound = 2 * step[:-1].astype(np.uint64) + 3
    scaled = halves[place[:-1]] * bound  # Lemire: the index is scaled >> 32
    rejected = np.flatnonzero(scaled & 0xFFFFFFFF < (1 << 32) % bound)
    stop = int(rejected[0]) if len(rejected) else len(bound)
    end = 2 + stop  # the rejected node, or giant
    index, coin = np.zeros(giant, np.int64), np.zeros(giant, bool)
    index[2:end] = scaled[:stop] >> 32
    coin[1:end] = words[np.append(0, start + place % 2)[:end - 1]] < 1 << 63
    bitgen.advance(int(start[stop]) - len(words))  # back to the end or the rejected node
    at = int(place[stop])
    bitgen.state = {**bitgen.state, "has_uint32": 1 - at % 2, "uinteger": int(halves[at - at % 2])}
    with _scalar_draws(rng) as (integers, random):
        for node in range(end, giant):
            index[node], coin[node] = integers(2 * node - 1), random() < 0.5
    return index, coin


def _wire_legitimate(cfg: ArchetypeConfig, rng: np.random.Generator) -> Edges:
    """Giant preferential-attachment component plus 2-5 node satellites."""
    budget = cfg.node_budget
    sat_budget = int(0.18 * budget)
    sat_sizes: list[int] = []
    used = 0
    with _scalar_draws(rng) as (integers, _random):
        while used + (size := 2 + integers(4)) <= sat_budget:  # rng.integers(2, 6)
            sat_sizes.append(size)
            used += size
    giant = budget - used
    # node k attaches to pool[index[k]], where pool[0] = 0, pool[2m - 1] = m and
    # pool[2m] = node m's target: even indexes link back until an odd one or 0
    index, coin = _attachments(rng, giant)
    nodes = np.arange(giant)
    link = np.where(index % 2 == 1, nodes, index >> 1)
    jumped = link[link]
    while (jumped != link).any():
        link, jumped = jumped, jumped[jumped]
    target = (index[link] + 1) >> 1
    edges: Edges = list(zip(np.where(coin, nodes, target)[1:].tolist(),
                            np.where(coin, target, nodes)[1:].tolist()))

    multiplier = cfg.edge_multiplier
    if multiplier is None:
        multiplier = float(rng.uniform(1.05, 1.7))
    extra = max(int((multiplier - 1.0) * giant), 0)
    if extra:
        pool = np.column_stack((nodes, target)).ravel()[1:]  # 0, 1, target of 1, 2, ...
        src = pool[rng.integers(len(pool), size=extra)]
        dst = pool[rng.integers(len(pool), size=extra)]
        edges.extend(zip(src.tolist(), dst.tolist()))

    center = giant
    with _scalar_draws(rng) as (integers, random):
        for size in sat_sizes:
            for member in range(center + 1, center + size):
                edges.append((center, member) if random() < 0.5 else (member, center))
            if size >= 3 and random() < 0.4:
                edges.append((center + 1, center + 2))
            center += size
    return edges


def _wire_honeypot_star(cfg: ArchetypeConfig, rng: np.random.Generator) -> Edges:
    """Single star: node 0 (the null address) mints to the pool hub, node 1,
    and every other node is a user of degree <= 3 trading with the pool."""
    budget = cfg.node_budget
    n_users = budget - 2
    null_id, pool_id = 0, 1

    mints = 4 + int(rng.integers(0, 4))
    edges: Edges = [(null_id, pool_id)] * mints

    multiplier = cfg.edge_multiplier
    if multiplier is None:
        multiplier = float(rng.uniform(1.0, 1.6))
    users = list(range(2, budget))
    coins = (rng.random(n_users) < 0.65).tolist()
    # extras go to users in a random order, at most two each, so every
    # user's degree stays <= 3
    extra = min(int(multiplier * budget) - mints - n_users, 2 * n_users)
    if extra > 0:
        users += np.repeat(rng.permutation(n_users) + 2, 2)[:extra].tolist()
        coins += (rng.random(extra) < 0.5).tolist()
    edges += [(pool_id, user) if coin else (user, pool_id) for user, coin in zip(users, coins)]
    return edges


# poisoning scrap sizes and their probabilities.  ``Generator.choice(sizes,
# p=...)`` draws one ``random()`` and searches it in ``cumsum(p) / cumsum(p)[-1]``
# with side="right"; doing the same here keeps every corpus byte-identical
# and skips choice's per-call validation
_SCRAP_SIZES = (2, 3, 4)
_SCRAP_CUMSUM = np.cumsum((0.5, 0.35, 0.15))
_SCRAP_CDF = tuple((_SCRAP_CUMSUM / _SCRAP_CUMSUM[-1]).tolist())


def _wire_counterfeit_poisoning(cfg: ArchetypeConfig, rng: np.random.Generator) -> Edges:
    """Many scraps of 2-4 nodes: a fresh spoof address dusting one or two victims."""
    budget = cfg.node_budget
    edges: Edges = []
    scammer = 0
    with _scalar_draws(rng) as (_integers, random):
        while scammer < budget:
            remaining = budget - scammer
            if remaining <= 4:
                size = remaining
            elif remaining == 5:
                size = 3
            else:
                size = _SCRAP_SIZES[bisect_right(_SCRAP_CDF, random())]
            edges.extend((scammer, victim) for victim in range(scammer + 1, scammer + size))
            scammer += size

    # repeat dustings of the same victims: parallel edges, no new nodes
    multiplier = cfg.edge_multiplier
    if multiplier is None:
        multiplier = float(rng.uniform(0.85, 1.45))
    repeats = int(multiplier * budget) - len(edges)
    if repeats > 0:
        edges += [edges[idx] for idx in rng.integers(0, len(edges), size=repeats).tolist()]
    return edges


_WIRINGS = {LEGITIMATE: _wire_legitimate, HONEYPOT_STAR: _wire_honeypot_star,
            COUNTERFEIT_POISONING: _wire_counterfeit_poisoning}


def generate(cfg: ArchetypeConfig) -> WindowBatch:
    """One token's transfers, drawn from ``cfg.seed``: the kind's wiring,
    then blocks, then values.  The batch is in log order (by block, ties in
    edge order, log indexes 0, 1, 2, ...), and its nodes are the token's
    addresses, each an endpoint of some edge; a star's node 0 is the null
    address."""
    rng = np.random.default_rng(cfg.seed)
    edges = _WIRINGS[cfg.kind](cfg, rng)
    namespace = (cfg.seed % (1 << 48)) << 30 | (cfg.node_budget % (1 << 20)) | 1 << 78
    addresses = _addresses(namespace, 1, cfg.node_budget)
    if cfg.kind == HONEYPOT_STAR:
        addresses = NULL_ADDRESS + addresses[:-ADDRESS_BYTES]
    n = len(edges)
    blocks = _blocks(rng, n, cfg)
    values = _values(rng, n, cfg)
    order = np.argsort(blocks, kind="stable")
    ends = np.fromiter(chain.from_iterable(edges), np.int32, 2 * n).reshape(n, 2)[order]
    lo, hi, wide = array("Q"), array("Q"), {}
    append_values(lo, hi, wide, list(map(values.__getitem__, order.tolist())))
    return WindowBatch([cfg.token or _addresses(namespace, _TOKEN_INDEX).decode()], [addresses],
                       np.zeros(n, np.int32), ends[:, 0], ends[:, 1], blocks[order],
                       np.arange(n, dtype=np.int64), np.frombuffer(lo, np.uint64),
                       np.frombuffer(hi, np.uint64), wide)


@dataclass
class CorpusProfile:
    """Parameter ranges the corpus generator draws per-token configs from."""

    legit_budget: tuple[int, int] = (510, 900)
    scam_budget: tuple[int, int] = (510, 900)
    legit_lifetime_frac: tuple[float, float] = (0.82, 0.97)
    scam_lifetime: tuple[int, int] = (3000, 9500)
    scam_concentration: tuple[float, float] = (0.08, 1.0)
    legit_value_scale: float = 1e18
    honeypot_value_scale: float = 1e15


def _token_rng(*entropy: int) -> tuple[int, np.random.Generator]:
    """A token's own seed, spawned from ``entropy``, and its generator."""
    child_seed = int(np.random.SeedSequence(entropy).generate_state(1)[0])
    return child_seed, np.random.default_rng(child_seed)


def _token_config(kind: str, window: BlockWindow, token: str, profile: CorpusProfile,
                  seed: int, rng: np.random.Generator, **legit) -> ArchetypeConfig:
    """A token's config, drawn from ``profile`` in a fixed order: budget,
    lifetime, then a scam's concentration.  ``legit`` sets further fields of
    a legitimate token."""
    if kind == LEGITIMATE:
        lo, hi = profile.legit_lifetime_frac
        return ArchetypeConfig(
            kind, int(rng.integers(*profile.legit_budget)), window,
            lifetime=int(rng.uniform(lo, hi) * window.width), seed=seed,
            temporal_concentration=1.0, value_scale=profile.legit_value_scale,
            token=token, **legit)
    return ArchetypeConfig(
        kind, int(rng.integers(*profile.scam_budget)), window,
        lifetime=int(rng.integers(*profile.scam_lifetime)), seed=seed,
        temporal_concentration=float(rng.uniform(*profile.scam_concentration)),
        value_scale=profile.honeypot_value_scale if kind == HONEYPOT_STAR else 1.0,
        token=token)


def gen_corpus(
    n_tokens: int,
    scam_fraction: float,
    windows: Sequence[BlockWindow],
    fixture_path: str | os.PathLike,
    labels_path: str | os.PathLike,
    profile: CorpusProfile | None = None,
    seed: int = 0,
) -> dict:
    """Write a multi-window corpus fixture plus its ground-truth label file.

    Each window holds ``n_tokens`` token graphs at the requested scam mix,
    the scam half split evenly between the star and poisoning shapes.
    Legitimate tokens recur in every window under the same address; scam
    tokens are minted fresh per window, which is what makes the pooled
    suspicious fraction drop below the unique-token one.  Returns the corpus
    description that ``synth`` records in its manifest.
    """
    if not 0.0 <= scam_fraction <= 1.0:
        raise ValueError("scam fraction must be within [0, 1]")
    if not windows:
        raise ValueError("at least one window is required")
    profile = profile or CorpusProfile()
    n_scam = round(n_tokens * scam_fraction)
    n_honeypot = (n_scam + 1) // 2
    n_legit = n_tokens - n_scam

    def write(jobs, handle):
        """Each job's token, as fixture lines to ``handle``: (events, labels)."""
        labels, events = {}, 0
        for (window_idx, window), token_idx in jobs:
            if token_idx < n_legit:  # recurs across windows
                kind, token = LEGITIMATE, token_address(seed, 0, token_idx)
            else:
                kind = (HONEYPOT_STAR if token_idx < n_legit + n_honeypot
                        else COUNTERFEIT_POISONING)
                token = token_address(seed, window_idx + 1, token_idx)
            cfg = _token_config(kind, window, token, profile,
                                *_token_rng(seed, window_idx, token_idx))
            batch = generate(cfg)
            labels[token] = cfg.label
            handle.write(_fixture_lines(batch))
            events += len(batch)
        return events, labels

    from .halves import write_halves  # compiled only by a process that writes a corpus

    # tokens are written sequentially inside each window block; build_graphs
    # orders edges by (block, logIndex), so no global merge is needed here.
    # Each token draws from its own generator, so the halves are independent
    jobs = list(product(enumerate(windows), range(n_tokens)))
    with open(fixture_path, "wb") as handle:
        total_events, labels = write_halves(jobs, write, handle)
    write_labels(labels, labels_path)

    return {
        "format": 1,
        "kind": "synthetic-corpus",
        "seed": seed,
        "n_tokens": n_tokens,
        "scam_fraction": scam_fraction,
        "windows": [[w.start, w.end] for w in windows],
        "profile": asdict(profile),
        "tokens_per_window": n_tokens,
        "scam_tokens_per_window": n_scam,
        "total_events": total_events,
    }


@dataclass
class ScanProfile:
    """Mix of small (sub-threshold) graphs used for unlabeled-scan studies."""

    young_fraction: float = 0.5       # legitimate wiring, very short lifetime
    long_legit_fraction: float = 0.3  # legitimate wiring, full-window lifetime
    budget: tuple[int, int] = (280, 498)
    young_lifetime: tuple[int, int] = (350, 950)
    young_edge_multiplier: tuple[float, float] = (1.1, 1.4)
    scam_lifetime: tuple[int, int] = (4000, 9500)
    scam_concentration: tuple[float, float] = (0.5, 0.9)
    value_scale: float = 2.4e18
    value_sigma: float = 0.2


def gen_scan_corpus(
    n_tokens: int,
    window: BlockWindow,
    fixture_path: str | os.PathLike,
    seed: int = 0,
) -> dict:
    """Write a fixture of small graphs: young tokens, small veterans, small scams.

    Young tokens reuse the legitimate wiring inside a narrow slice of the
    window, modeling a token in its first hours of life; they are the
    graphs a lifetime-aware model flags wholesale.  Veterans and scams are
    drawn as in a training corpus, at the scan profile's budgets, scam
    timing and legitimate values.
    """
    profile = ScanProfile()
    n_young = round(n_tokens * profile.young_fraction)
    n_long = round(n_tokens * profile.long_legit_fraction)
    veterans = CorpusProfile(legit_budget=profile.budget, scam_budget=profile.budget,
                             scam_lifetime=profile.scam_lifetime,
                             scam_concentration=profile.scam_concentration,
                             legit_value_scale=profile.value_scale)

    lines: list[bytes] = []
    blocks, log_indexes = [], []
    for token_idx in range(n_tokens):
        child_seed, rng = _token_rng(seed, 7_777, token_idx)
        token = token_address(seed, 9, token_idx)
        if token_idx < n_young:
            budget = int(rng.integers(*profile.budget))
            lifetime = int(rng.integers(*profile.young_lifetime))
            width = max(int(lifetime / 0.9), lifetime + 2)
            offset = int(rng.integers(0, window.width - width))
            narrow = BlockWindow(window.start + offset, window.start + offset + width)
            cfg = ArchetypeConfig(
                kind=LEGITIMATE, node_budget=budget, window=narrow,
                lifetime=lifetime, temporal_concentration=1.0,
                value_scale=profile.value_scale, token=token, seed=child_seed,
                edge_multiplier=float(rng.uniform(*profile.young_edge_multiplier)),
                value_sigma=profile.value_sigma,
            )
        else:
            kind = (LEGITIMATE if token_idx < n_young + n_long
                    else HONEYPOT_STAR if token_idx % 2 == 0 else COUNTERFEIT_POISONING)
            cfg = _token_config(kind, window, token, veterans, child_seed, rng,
                                value_sigma=profile.value_sigma)
        batch = generate(cfg)
        lines += _fixture_lines(batch).splitlines(keepends=True)
        blocks.append(batch.block)
        log_indexes.append(batch.log_index)

    # one stable sort of every token's lines by (block, logIndex)
    order = np.lexsort((np.concatenate(log_indexes),
                        np.concatenate(blocks))).tolist() if lines else []
    with open(fixture_path, "wb") as handle:
        handle.writelines(map(lines.__getitem__, order))
    return {
        "format": 1,
        "kind": "scan-corpus",
        "seed": seed,
        "n_tokens": n_tokens,
        "window": [window.start, window.end],
        "profile": asdict(profile),
        "total_events": len(lines),
    }
