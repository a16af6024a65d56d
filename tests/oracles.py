"""Independent straight-line reference implementations used to check the
package's optimized paths.  Nothing here imports the code under test except
plain data containers, and the one-process fixture reader, which runs the
package's own block reader and windowing generator over a whole file."""

from __future__ import annotations

import math
from collections import deque
from typing import Iterable, NamedTuple

import numpy as np


def bfs_components(n_nodes: int, edges: list[tuple[int, int]]) -> tuple[int, list[int]]:
    """Weak components by breadth-first search over undirected shadows.

    Returns (count, sorted component sizes).
    """
    sizes = bfs_component_sizes(n_nodes, edges)
    return len(sizes), sorted(sizes)


def bfs_component_sizes(n_nodes: int, edges: list[tuple[int, int]]) -> list[int]:
    """Weak component sizes by breadth-first search, ordered by each
    component's smallest node id."""
    neighbors: list[list[int]] = [[] for _ in range(n_nodes)]
    for src, dst in edges:
        neighbors[src].append(dst)
        neighbors[dst].append(src)
    seen = [False] * n_nodes
    sizes: list[int] = []
    for start in range(n_nodes):
        if seen[start]:
            continue
        size = 0
        queue = deque([start])
        seen[start] = True
        while queue:
            node = queue.popleft()
            size += 1
            for other in neighbors[node]:
                if not seen[other]:
                    seen[other] = True
                    queue.append(other)
        sizes.append(size)
    return sizes


def straight_line_features(
    edges: list[tuple[str, str, int, int]],
) -> dict[str, float | int]:
    """Feature definitions transcribed directly: edges are (from, to, value, block)."""
    nodes = set()
    for src, dst, _value, _block in edges:
        nodes.add(src)
        nodes.add(dst)
    n = len(nodes)
    e = len(edges)

    density = e / (n * (n - 1)) if n >= 2 else 0.0

    # components by label propagation over the undirected pairs
    labels = {node: node for node in nodes}

    def root(node: str) -> str:
        while labels[node] != node:
            node = labels[node]
        return node

    for src, dst, _value, _block in edges:
        ra, rb = root(src), root(dst)
        if ra != rb:
            labels[ra] = rb
    components = len({root(node) for node in nodes})

    blocks = [block for _s, _d, _v, block in edges]
    mean_block = sum(blocks) / e
    variance = sum((b - mean_block) ** 2 for b in blocks) / e  # population form
    return {
        "num_nodes": n,
        "num_edges": e,
        "density": density,
        "num_components": components,
        "avg_comp_size": n / components,
        "lifetime": max(blocks) - min(blocks),
        "transfer_std_dev": math.sqrt(variance),
        "amount": sum(v for _s, _d, v, _b in edges),
    }


def straight_feature_matrix(rows, names: tuple[str, ...],
                            log_amount: bool = False) -> np.ndarray:
    """The float64 model matrix filled cell by cell from feature-table rows
    (anything with one attribute per table column): ``edges_per_component``
    is the Python division of the row's ``num_edges`` by its
    ``num_components``, any other cell is its value as a float, and
    ``log_amount`` swaps the amount column for log10(1 + amount)."""
    matrix = np.empty((len(rows), len(names)), dtype=np.float64)
    for i, row in enumerate(rows):
        for j, name in enumerate(names):
            if name == "edges_per_component":
                matrix[i, j] = row.num_edges / row.num_components
            else:
                matrix[i, j] = float(getattr(row, name))
    if log_amount and "amount" in names:
        column = names.index("amount")
        matrix[:, column] = np.log10(1.0 + matrix[:, column])
    return matrix


def loop_join(rows, labels: dict[str, int], min_nodes: int) -> tuple[list, list, list]:
    """(kept rows, their labels, unlabeled tokens) of feature-table rows
    joined with ``labels`` row by row: rows of ``min_nodes`` nodes or fewer
    are dropped, a second row of one (token, window start) above the
    threshold raises, and an unlabeled token is listed once per row."""
    kept, flags, unlabeled, seen = [], [], [], set()
    for row in rows:
        if row.num_nodes <= min_nodes:
            continue
        key = (row.token, row.window_start)
        if key in seen:
            raise ValueError(f"duplicate (token, window) row: {key}")
        seen.add(key)
        if row.token in labels:
            kept.append(row)
            flags.append(labels[row.token])
        else:
            unlabeled.append(row.token)
    return kept, flags, unlabeled


def pairwise_auc(scores: list[float], truth: list[int]) -> float:
    """AUC as P(score+ > score-) + P(score+ = score-)/2 by full enumeration."""
    positives = [s for s, t in zip(scores, truth) if t == 1]
    negatives = [s for s, t in zip(scores, truth) if t == 0]
    wins = 0.0
    for pos in positives:
        for neg in negatives:
            if pos > neg:
                wins += 1.0
            elif pos == neg:
                wins += 0.5
    return wins / (len(positives) * len(negatives))


def finite_diff_gradient(func, params: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central finite differences of a scalar function of a vector."""
    grad = np.empty_like(params)
    for i in range(params.size):
        bumped_up = params.copy()
        bumped_up[i] += h
        bumped_down = params.copy()
        bumped_down[i] -= h
        grad[i] = (func(bumped_up) - func(bumped_down)) / (2.0 * h)
    return grad


def loop_confusion(predicted: list[int], truth: list[int]) -> tuple[int, int, int, int]:
    """(tp, fp, fn, tn) counted row by row; 1 is a scam, anything else is not."""
    tp = fp = fn = tn = 0
    for pred, actual in zip(predicted, truth, strict=True):
        if actual == 1:
            if pred == 1:
                tp += 1
            else:
                fn += 1
        else:
            if pred == 1:
                fp += 1
            else:
                tn += 1
    return tp, fp, fn, tn


def loop_roc_auc(
    scores: list[float], truth: list[int],
) -> tuple[list[tuple[float, float]], float]:
    """ROC points and trapezoidal AUC, walking the scores from the highest
    down one group of tied scores at a time (Fawcett 2006, Algorithm 2).
    Both classes must be present and no score may be nan."""
    y = np.asarray(truth, dtype=np.int64)
    s = np.asarray(scores, dtype=np.float64)
    n_pos = int(y.sum())
    n_neg = int(y.size - n_pos)
    order = np.argsort(-s, kind="stable")
    s_sorted = s[order]
    y_sorted = y[order]

    points: list[tuple[float, float]] = [(0.0, 0.0)]
    auc = 0.0
    tp = fp = 0
    i = 0
    while i < y_sorted.size:
        j = i
        while j < y_sorted.size and s_sorted[j] == s_sorted[i]:
            j += 1
        pos_in_group = int(y_sorted[i:j].sum())
        neg_in_group = (j - i) - pos_in_group
        prev_tpr = tp / n_pos
        prev_fpr = fp / n_neg
        tp += pos_in_group
        fp += neg_in_group
        tpr = tp / n_pos
        fpr = fp / n_neg
        auc += (fpr - prev_fpr) * (tpr + prev_tpr) / 2.0
        points.append((fpr, tpr))
        i = j
    return points, auc


def loop_stratified_folds(labels: list[int], k: int, seed: int) -> list[int]:
    """Fold ids dealt row by row: each class (1 first) is shuffled by one
    seeded generator and dealt round-robin, the second class starting where
    the first left off."""
    y = np.asarray(labels, dtype=np.int64)
    rng = np.random.default_rng(seed)
    assignment = np.empty(y.size, dtype=np.int64)
    offset = 0
    for cls in (1, 0):
        idx = np.flatnonzero(y == cls)
        rng.shuffle(idx)
        for position, row in enumerate(idx):
            assignment[row] = (position + offset) % k
        offset += idx.size
    return assignment.tolist()


def masked_sigmoid(z: np.ndarray | float) -> np.ndarray | float:
    """The logistic function by two masked branches, each overflow-safe."""
    arr = np.asarray(z, dtype=np.float64)
    out = np.empty_like(arr)
    pos = arr >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-arr[pos]))
    ez = np.exp(arr[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out if isinstance(z, np.ndarray) else float(out)


def straight_loss_and_gradient(
    params: np.ndarray,
    matrix: np.ndarray,
    labels: np.ndarray,
    lam: float,
) -> tuple[float, np.ndarray]:
    """Mean logistic NLL plus ``lam/(2k) * sum(beta^2)`` and its gradient,
    written as plain expressions with fresh arrays; ``params[0]`` is the
    unpenalized intercept."""
    n_rows, n_feat = matrix.shape
    beta0 = params[0]
    beta = params[1:]
    z = beta0 + matrix @ beta
    nll = float(np.mean(np.logaddexp(0.0, z) - labels * z))
    loss = nll + lam / (2.0 * n_feat) * float(beta @ beta)

    residual = masked_sigmoid(z) - labels
    grad = np.empty_like(params)
    grad[0] = residual.mean()
    grad[1:] = matrix.T @ residual / n_rows + lam / n_feat * beta
    return loss, grad


def straight_descent(
    scaled: np.ndarray,
    labels: np.ndarray,
    params: np.ndarray,
    lam: float,
    learning_rate: float,
    max_iters: int,
    tolerance: float,
) -> tuple[list[float], np.ndarray]:
    """Loss history and final params of full-batch gradient descent over the
    straight objective, stopping when the largest gradient component is under
    ``tolerance``."""
    loss, grad = straight_loss_and_gradient(params, scaled, labels, lam)
    history = [loss]
    for _ in range(max_iters):
        if float(np.abs(grad).max()) < tolerance:
            break
        params = params - learning_rate * grad
        loss, grad = straight_loss_and_gradient(params, scaled, labels, lam)
        history.append(loss)
    return history, params


def degree_stats(graph) -> tuple[np.ndarray, np.ndarray]:
    """(in, out) degree of each node id of a ``TokenGraph``, counting
    multiplicity; a self-loop adds 1 to each side."""
    n = graph.num_nodes
    return (np.bincount(graph.edge_to, minlength=n),
            np.bincount(graph.edge_from, minlength=n))


# a NamedTuple, not a dataclass: perfbench/checks.py runs this file without
# registering it in sys.modules, which a dataclass needs
class CorpusSummary(NamedTuple):
    per_window: list[tuple]  # (window, rows, suspicious)
    pooled_rows: int
    pooled_suspicious: int
    unique_tokens: int
    unique_suspicious: int

    @property
    def pooled_fraction(self) -> float:
        return self.pooled_suspicious / self.pooled_rows if self.pooled_rows else 0.0

    @property
    def unique_fraction(self) -> float:
        return self.unique_suspicious / self.unique_tokens if self.unique_tokens else 0.0


def summarize(datasets: Iterable) -> CorpusSummary:
    """Pooled and unique-token counts over the rows of per-window
    ``LabeledDataset``s; each window is a (start, end) pair.

    A token counts as suspicious at the unique level when any of its window
    rows is labeled suspicious; legitimate tokens recurring across windows
    is what pushes the pooled fraction below the unique one.
    """
    per_window: list[tuple] = []
    token_flag: dict[str, int] = {}
    pooled_rows = 0
    pooled_suspicious = 0
    for dataset in datasets:
        by_window: dict = {}
        for row, label in zip(dataset.table, dataset.labels.tolist()):
            window = (row.window_start, row.window_end)
            rows, bad = by_window.get(window, (0, 0))
            by_window[window] = (rows + 1, bad + label)
            token_flag[row.token] = max(token_flag.get(row.token, 0), label)
            pooled_rows += 1
            pooled_suspicious += label
        per_window.extend((w, rows, bad) for w, (rows, bad) in sorted(by_window.items()))
    return CorpusSummary(
        per_window=per_window,
        pooled_rows=pooled_rows,
        pooled_suspicious=pooled_suspicious,
        unique_tokens=len(token_flag),
        unique_suspicious=sum(token_flag.values()),
    )


# keccak-256 of "Transfer(address,address,uint256)", written out here so the
# oracle does not take it from the code under test
_TRANSFER_TOPIC = "0xddf252ad1be2c89b69c2b068fc378daa952ba7f163c4a11628f55a4df523b3ef"


def straight_fetch_lines(entries: list[dict]) -> list[str]:
    """The fixture lines a fetch writes for eth_getLogs ``entries``, step by
    step: lowercase every hex field, sort by (block, logIndex) keeping the
    entries' order within a tie, keep the first of each (block, txHash,
    logIndex), keep the ERC-20 Transfer shape (the Transfer topic, 3 topics,
    32 data bytes), skip logs whose address topics are not zero-padded and
    write the rest as token, from, to, value, block, logIndex, txHash."""
    logs = [(int(e["blockNumber"], 16), int(e["logIndex"], 16),
             e["transactionHash"].lower(), e["address"].lower(),
             [topic.lower() for topic in e["topics"]], e["data"].lower())
            for e in entries]
    logs.sort(key=lambda log: (log[0], log[1]))
    seen: set[tuple[int, str, int]] = set()
    lines = []
    for block, index, tx_hash, address, topics, data in logs:
        if (block, tx_hash, index) in seen:
            continue
        seen.add((block, tx_hash, index))
        if (len(topics) != 3 or topics[0] != _TRANSFER_TOPIC
                or len(data) != 66 or data[:2] != "0x"):
            continue
        if any(len(topic) != 66 or topic[2:26] != "0" * 24 for topic in topics[1:]):
            continue
        sender, recipient = ("0x" + topic[-40:] for topic in topics[1:])
        lines.append("\t".join([address, sender, recipient, str(int(data[2:], 16)),
                                str(block), str(index), tx_hash]))
    return lines


# The token wirings as numpy's scalar calls draw them, one call per node: the
# references for synth's wirings, which replay the same draws from raw words.
# Each takes the config's ``node_budget`` and ``edge_multiplier`` and returns
# (from, to) node ids in wiring order.

def scalar_wire_legitimate(cfg, rng: np.random.Generator) -> list[tuple[int, int]]:
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

    edges = []
    attach_pool = [0]
    for node in range(1, giant):
        target = attach_pool[int(rng.integers(len(attach_pool)))]
        edges.append((node, target) if rng.random() < 0.5 else (target, node))
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

    center = giant
    for size in sat_sizes:
        for member in range(center + 1, center + size):
            edges.append((center, member) if rng.random() < 0.5 else (member, center))
        if size >= 3 and rng.random() < 0.4:
            edges.append((center + 1, center + 2))
        center += size
    return edges


def scalar_wire_honeypot_star(cfg, rng: np.random.Generator) -> list[tuple[int, int]]:
    budget = cfg.node_budget
    n_users = budget - 2
    null_id, pool_id = 0, 1

    mints = 4 + int(rng.integers(0, 4))
    edges = [(null_id, pool_id)] * mints

    multiplier = cfg.edge_multiplier
    if multiplier is None:
        multiplier = float(rng.uniform(1.0, 1.6))
    target_edges = max(int(multiplier * budget), n_users + mints)
    for user_id in range(2, budget):
        edges.append((pool_id, user_id) if rng.random() < 0.65 else (user_id, pool_id))
    extra = target_edges - len(edges)
    if extra > 0:
        capacity = np.full(n_users, 2, dtype=np.int64)
        candidates = rng.permutation(n_users)
        added = 0
        for user in candidates.tolist():
            if added >= extra:
                break
            take = min(int(capacity[user]), extra - added)
            user_id = user + 2
            for _ in range(take):
                edges.append((pool_id, user_id) if rng.random() < 0.5 else (user_id, pool_id))
            capacity[user] -= take
            added += take
    return edges


def scalar_wire_counterfeit_poisoning(cfg, rng: np.random.Generator) -> list[tuple[int, int]]:
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

    edges = []
    scammer = 0
    for size in sizes:
        edges.extend((scammer, victim) for victim in range(scammer + 1, scammer + size))
        scammer += size

    multiplier = cfg.edge_multiplier
    if multiplier is None:
        multiplier = float(rng.uniform(0.85, 1.45))
    repeats = int(multiplier * budget) - len(edges)
    if repeats > 0:
        edges += [edges[idx] for idx in rng.integers(0, len(edges), size=repeats).tolist()]
    return edges


def one_process_windows(path, width: int):
    """``iter_window_groups``'s (window, batch) pairs as one process reads a
    fixture: every block in file order through the one windowing generator,
    with no split and no worker."""
    from tokengraphs.halves import _fixture_columns
    from tokengraphs.ingest import _window_runs, _windows

    if width < 1:
        raise ValueError("window width must be >= 1 block")
    with open(path, "rb") as handle:
        yield from _windows(_window_runs(_fixture_columns(handle), width), width)
