"""Token transfer graph analytics: build per-token transfer multigraphs from
ERC-20 event logs, extract structural/temporal features, and train a
logistic model that flags suspicious tokens."""

__version__ = "0.1.0"
