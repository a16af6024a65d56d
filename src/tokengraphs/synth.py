"""Seeded synthetic transfer corpora with the three observed graph shapes.

Three generators cover the structures seen in real token networks: a
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
from dataclasses import asdict, dataclass
from itertools import chain, repeat
from typing import Sequence

import numpy as np

from .dataset import write_labels
from .ingest import FIXTURE_LINE, BlockWindow, WindowBatch

NULL_ADDRESS = "0x" + "0" * 40

LEGITIMATE = "legitimate"
HONEYPOT_STAR = "honeypot_star"
COUNTERFEIT_POISONING = "counterfeit_poisoning"

KINDS = (LEGITIMATE, HONEYPOT_STAR, COUNTERFEIT_POISONING)

SCAM_LIFETIME_CAP = 10_000  # blocks; scam bursts stay under this

# measured clustering must come in under concentration * uniform std dev,
# so the sampling sigma keeps this much headroom
_CLUSTER_MARGIN = 2.0


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


def _addr(namespace: int, index: int) -> str:
    return f"0x{namespace % (1 << 80):020x}{index % (1 << 80):020x}"


def _addrs(namespace: int, first: int, count: int) -> list[str]:
    """``_addr(namespace, i)`` for ``count`` indexes from ``first`` (below 2**80)."""
    return list(map(f"0x{namespace % (1 << 80):020x}%020x".__mod__,
                    range(first, first + count)))


def token_address(seed: int, window_tag: int, token_idx: int) -> str:
    return _addr((seed % (1 << 40)) << 39 | (window_tag << 26) | token_idx | 1 << 79,
                 (1 << 64) - 1)


def _uniform_blocks(rng: np.random.Generator, n: int, window: BlockWindow,
                    lifetime: int) -> np.ndarray:
    slack = window.width - 1 - lifetime
    t0 = window.start + (int(rng.integers(0, slack + 1)) if slack > 0 else 0)
    blocks = rng.integers(t0, t0 + lifetime + 1, size=n)
    if n >= 2:  # pin the endpoints so the measured lifetime is exact
        blocks[0] = t0
        blocks[1] = t0 + lifetime
    return blocks.astype(np.int64)


def _clustered_blocks(rng: np.random.Generator, n: int, window: BlockWindow,
                      lifetime: int, concentration: float) -> np.ndarray:
    slack = window.width - 1 - lifetime
    t0 = window.start + (int(rng.integers(0, slack + 1)) if slack > 0 else 0)
    uniform_std = lifetime / math.sqrt(12.0)
    sigma = max(concentration * uniform_std / _CLUSTER_MARGIN, 1e-9)
    center = t0 + lifetime / 2.0
    blocks = np.rint(rng.normal(center, sigma, size=n))
    return np.clip(blocks, t0, t0 + lifetime).astype(np.int64)


def _lognormal_values(rng: np.random.Generator, n: int, scale: float,
                      token_sigma: float = 0.6) -> list[int]:
    token_level = rng.lognormal(0.0, token_sigma)
    draws = rng.lognormal(0.0, 1.0, size=n)
    return list(map(int, (scale * token_level * draws).tolist()))


def _batch_from_edges(
    token: str,
    addresses: list[str],
    edges: list[tuple[int, int]],
    blocks: np.ndarray,
    values: list[int],
) -> WindowBatch:
    """One token's transfers in log order: by block, ties in edge order, with
    log indexes 0, 1, 2, ...  Every address is an endpoint of some edge, so
    ``addresses`` are the token's nodes."""
    n = len(edges)
    order = np.argsort(blocks, kind="stable")
    ends = np.fromiter(chain.from_iterable(edges), np.int32, 2 * n).reshape(n, 2)[order]
    return WindowBatch([token], [addresses], np.zeros(n, np.int32), ends[:, 0],
                       ends[:, 1], blocks[order], np.arange(n, dtype=np.int64),
                       np.array(values, dtype=object)[order])


def _fixture_lines(batch: WindowBatch) -> list[str]:
    """The fixture lines of a one-token batch.  Transaction hashes are the
    token address (unique per corpus) followed by the log index."""
    token, = batch.tokens
    addresses, = batch.nodes
    log_index = batch.log_index.tolist()
    tx_hashes = map(f"0x{int(token[2:], 16) % (1 << 128):032x}%032x".__mod__, log_index)
    rows = zip(repeat(token), map(addresses.__getitem__, batch.src.tolist()),
               map(addresses.__getitem__, batch.dst.tolist()), batch.values.tolist(),
               batch.block.tolist(), log_index, tx_hashes)
    return list(map(FIXTURE_LINE.__mod__, rows))


def _namespace(cfg: ArchetypeConfig) -> int:
    return (cfg.seed % (1 << 48)) << 30 | (cfg.node_budget % (1 << 20)) | 1 << 78


def gen_legitimate(cfg: ArchetypeConfig) -> tuple[WindowBatch, int]:
    """Giant preferential-attachment component plus 2-5 node satellites.

    Activity is spread uniformly over a lifetime covering at least 80% of
    the window, with the first and last blocks pinned to the span ends.
    """
    if cfg.node_budget < 20:
        raise ValueError("legitimate archetype needs a node budget of at least 20")
    if cfg.lifetime < 0.8 * cfg.window.width:
        raise ValueError("legitimate archetype lifetime must cover >= 80% of the window")
    rng = np.random.default_rng(cfg.seed)
    budget = cfg.node_budget

    sat_budget = int(0.18 * budget)
    sat_sizes: list[int] = []
    used = 0
    while True:
        size = int(rng.integers(2, 6))
        if used + size > sat_budget:
            break
        sat_sizes.append(size)
        used += size
    giant = budget - used

    edges: list[tuple[int, int]] = []
    attach_pool = [0]
    for node in range(1, giant):
        target = attach_pool[int(rng.integers(len(attach_pool)))]
        if rng.random() < 0.5:
            edges.append((node, target))
        else:
            edges.append((target, node))
        attach_pool.append(node)
        attach_pool.append(target)

    multiplier = cfg.edge_multiplier
    if multiplier is None:
        multiplier = float(rng.uniform(1.05, 1.7))
    extra = max(int((multiplier - 1.0) * giant), 0)
    if extra:
        pool_arr = np.asarray(attach_pool)
        src = pool_arr[rng.integers(len(pool_arr), size=extra)]
        dst = pool_arr[rng.integers(len(pool_arr), size=extra)]
        edges.extend(zip(src.tolist(), dst.tolist()))

    next_node = giant
    for size in sat_sizes:
        center = next_node
        for member in range(center + 1, center + size):
            if rng.random() < 0.5:
                edges.append((center, member))
            else:
                edges.append((member, center))
        if size >= 3 and rng.random() < 0.4:
            edges.append((center + 1, center + 2))
        next_node += size

    namespace = _namespace(cfg)
    token = cfg.token or _addr(namespace, (1 << 64) - 1)
    addresses = _addrs(namespace, 1, budget)
    blocks = _uniform_blocks(rng, len(edges), cfg.window, cfg.lifetime)
    values = _lognormal_values(rng, len(edges), cfg.value_scale, cfg.value_sigma)
    return _batch_from_edges(token, addresses, edges, blocks, values), 0


def gen_honeypot_star(cfg: ArchetypeConfig) -> tuple[WindowBatch, int]:
    """Single star component: null address and a pool hub, everyone else <= degree 3.

    All activity happens in one clustered burst shorter than 10K blocks.
    """
    if cfg.node_budget < 10:
        raise ValueError("honeypot archetype needs a node budget of at least 10")
    if cfg.lifetime >= SCAM_LIFETIME_CAP:
        raise ValueError(f"honeypot lifetime must stay under {SCAM_LIFETIME_CAP} blocks")
    rng = np.random.default_rng(cfg.seed)
    budget = cfg.node_budget
    n_users = budget - 2

    namespace = _namespace(cfg)
    token = cfg.token or _addr(namespace, (1 << 64) - 1)
    addresses = [NULL_ADDRESS, *_addrs(namespace, 1, n_users + 1)]
    null_id, pool_id = 0, 1

    mints = 4 + int(rng.integers(0, 4))
    edges: list[tuple[int, int]] = [(null_id, pool_id)] * mints

    multiplier = cfg.edge_multiplier
    if multiplier is None:
        multiplier = float(rng.uniform(1.0, 1.6))
    target_edges = max(int(multiplier * budget), n_users + mints)
    for user in range(n_users):
        user_id = user + 2
        if rng.random() < 0.65:
            edges.append((pool_id, user_id))
        else:
            edges.append((user_id, pool_id))
    extra = target_edges - len(edges)
    if extra > 0:
        # spread extras while honoring the degree <= 3 cap on users
        capacity = np.full(n_users, 2, dtype=np.int64)
        candidates = rng.permutation(n_users)
        added = 0
        for user in candidates.tolist():
            if added >= extra:
                break
            take = min(int(capacity[user]), extra - added)
            for _ in range(take):
                user_id = user + 2
                if rng.random() < 0.5:
                    edges.append((pool_id, user_id))
                else:
                    edges.append((user_id, pool_id))
            capacity[user] -= take
            added += take

    blocks = _clustered_blocks(rng, len(edges), cfg.window, cfg.lifetime,
                               cfg.temporal_concentration)
    values = _lognormal_values(rng, len(edges), cfg.value_scale, cfg.value_sigma)
    return _batch_from_edges(token, addresses, edges, blocks, values), 1


def gen_counterfeit_poisoning(cfg: ArchetypeConfig) -> tuple[WindowBatch, int]:
    """Many scraps of 2-4 nodes: a fresh spoof address dusting one or two victims."""
    if cfg.node_budget < 6:
        raise ValueError("poisoning archetype needs a node budget of at least 6")
    if cfg.lifetime >= SCAM_LIFETIME_CAP:
        raise ValueError(f"poisoning lifetime must stay under {SCAM_LIFETIME_CAP} blocks")
    rng = np.random.default_rng(cfg.seed)
    budget = cfg.node_budget

    sizes: list[int] = []
    remaining = budget
    while remaining > 0:
        if remaining <= 4:
            size = remaining
        elif remaining == 5:
            size = 3
        else:
            size = int(rng.choice((2, 3, 4), p=(0.5, 0.35, 0.15)))
        sizes.append(size)
        remaining -= size

    edges: list[tuple[int, int]] = []
    next_node = 0
    for size in sizes:
        scammer = next_node
        for victim in range(scammer + 1, scammer + size):
            edges.append((scammer, victim))
        next_node += size

    # repeat dustings of the same victims: parallel edges, no new nodes
    multiplier = cfg.edge_multiplier
    if multiplier is None:
        multiplier = float(rng.uniform(0.85, 1.45))
    repeats = int(multiplier * budget) - len(edges)
    if repeats > 0:
        base = len(edges)
        for idx in rng.integers(0, base, size=repeats).tolist():
            edges.append(edges[idx])

    namespace = _namespace(cfg)
    token = cfg.token or _addr(namespace, (1 << 64) - 1)
    addresses = _addrs(namespace, 1, budget)
    blocks = _clustered_blocks(rng, len(edges), cfg.window, cfg.lifetime,
                               cfg.temporal_concentration)
    values = rng.integers(1, 1000, size=len(edges)).tolist()
    return _batch_from_edges(token, addresses, edges, blocks, values), 1


_GENERATORS = {
    LEGITIMATE: gen_legitimate,
    HONEYPOT_STAR: gen_honeypot_star,
    COUNTERFEIT_POISONING: gen_counterfeit_poisoning,
}


def generate(cfg: ArchetypeConfig) -> tuple[WindowBatch, int]:
    return _GENERATORS[cfg.kind](cfg)


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

    def to_dict(self) -> dict:
        return asdict(self)


def _token_config(
    kind: str,
    window: BlockWindow,
    token: str,
    profile: CorpusProfile,
    rng: np.random.Generator,
    seed: int,
) -> ArchetypeConfig:
    if kind == LEGITIMATE:
        lo, hi = profile.legit_lifetime_frac
        return ArchetypeConfig(
            kind=kind,
            node_budget=int(rng.integers(*profile.legit_budget)),
            window=window,
            lifetime=int(rng.uniform(lo, hi) * window.width),
            temporal_concentration=1.0,
            value_scale=profile.legit_value_scale,
            token=token,
            seed=seed,
        )
    value_scale = profile.honeypot_value_scale if kind == HONEYPOT_STAR else 1.0
    return ArchetypeConfig(
        kind=kind,
        node_budget=int(rng.integers(*profile.scam_budget)),
        window=window,
        lifetime=int(rng.integers(*profile.scam_lifetime)),
        temporal_concentration=float(rng.uniform(*profile.scam_concentration)),
        value_scale=value_scale,
        token=token,
        seed=seed,
    )


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

    labels: dict[str, int] = {}
    total_events = 0
    with open(fixture_path, "w", encoding="utf-8") as handle:
        # tokens are written sequentially inside each window block;
        # build_graphs orders edges by (block, logIndex), so no global merge
        # is needed here
        for window_idx, window in enumerate(windows):
            for token_idx in range(n_tokens):
                if token_idx < n_legit:
                    kind = LEGITIMATE
                    token = token_address(seed, 0, token_idx)  # recurs across windows
                elif token_idx < n_legit + n_honeypot:
                    kind = HONEYPOT_STAR
                    token = token_address(seed, window_idx + 1, token_idx)
                else:
                    kind = COUNTERFEIT_POISONING
                    token = token_address(seed, window_idx + 1, token_idx)
                entropy = np.random.SeedSequence([seed, window_idx, token_idx])
                child_seed = int(entropy.generate_state(1)[0])
                rng = np.random.default_rng(child_seed)
                cfg = _token_config(kind, window, token, profile, rng, child_seed)
                batch, label = generate(cfg)
                labels[token] = label
                handle.write("\n".join(_fixture_lines(batch)))
                handle.write("\n")
                total_events += len(batch)

    write_labels(labels, labels_path)

    return {
        "format": 1,
        "kind": "synthetic-corpus",
        "seed": seed,
        "n_tokens": n_tokens,
        "scam_fraction": scam_fraction,
        "windows": [[w.start, w.end] for w in windows],
        "profile": profile.to_dict(),
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

    def to_dict(self) -> dict:
        return asdict(self)


def gen_scan_corpus(
    n_tokens: int,
    window: BlockWindow,
    fixture_path: str | os.PathLike,
    profile: ScanProfile | None = None,
    seed: int = 0,
) -> dict:
    """Write a fixture of small graphs: young tokens, small veterans, small scams.

    Young tokens reuse the legitimate wiring inside a narrow slice of the
    window, modeling a token in its first hours of life; they are the
    graphs a lifetime-aware model flags wholesale.
    """
    profile = profile or ScanProfile()
    n_young = round(n_tokens * profile.young_fraction)
    n_long = round(n_tokens * profile.long_legit_fraction)

    lines: list[str] = []
    blocks, log_indexes = [], []
    for token_idx in range(n_tokens):
        entropy = np.random.SeedSequence([seed, 7_777, token_idx])
        child_seed = int(entropy.generate_state(1)[0])
        rng = np.random.default_rng(child_seed)
        budget = int(rng.integers(*profile.budget))
        token = token_address(seed, 9, token_idx)
        if token_idx < n_young:
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
        elif token_idx < n_young + n_long:
            cfg = ArchetypeConfig(
                kind=LEGITIMATE, node_budget=budget, window=window,
                lifetime=int(rng.uniform(0.82, 0.97) * window.width),
                temporal_concentration=1.0,
                value_scale=profile.value_scale, token=token, seed=child_seed,
                value_sigma=profile.value_sigma,
            )
        else:
            kind = HONEYPOT_STAR if token_idx % 2 == 0 else COUNTERFEIT_POISONING
            cfg = ArchetypeConfig(
                kind=kind, node_budget=budget, window=window,
                lifetime=int(rng.integers(*profile.scam_lifetime)),
                temporal_concentration=float(rng.uniform(*profile.scam_concentration)),
                value_scale=1e15 if kind == HONEYPOT_STAR else 1.0,
                token=token, seed=child_seed,
            )
        batch, _ = generate(cfg)
        lines += _fixture_lines(batch)
        blocks.append(batch.block)
        log_indexes.append(batch.log_index)

    # one stable sort of every token's lines by (block, logIndex)
    order = np.lexsort((np.concatenate(log_indexes),
                        np.concatenate(blocks))).tolist() if lines else []
    with open(fixture_path, "w", encoding="utf-8") as handle:
        handle.writelines(map("%s\n".__mod__, map(lines.__getitem__, order)))
    return {
        "format": 1,
        "kind": "scan-corpus",
        "seed": seed,
        "n_tokens": n_tokens,
        "window": [window.start, window.end],
        "profile": profile.to_dict(),
        "total_events": len(lines),
    }
