"""Token transfer graph analytics: build per-token transfer multigraphs from
ERC-20 event logs, extract structural/temporal features, and train a
logistic model that flags suspicious tokens."""

from .ingest import (
    TRANSFER_TOPIC,
    BlockWindow,
    RawLog,
    TransferEvent,
    WindowBatch,
    decode_logs,
    decode_transfer,
    fetch_logs,
    is_erc20_transfer,
    partition_windows,
    read_fixture,
    write_fixture,
)
from .graphs import TokenGraph, build_graphs, degree_stats, weak_components
from .features import (
    FeatureVector,
    extract_features,
    feature_matrix,
    read_feature_table,
    write_feature_table,
)
from .dataset import LabeledDataset, join, load_labels, summarize, write_labels
from .model import (
    Model,
    Standardizer,
    TrainConfig,
    load_model,
    loss_and_gradient,
    predict_proba,
    save_model,
    sigmoid,
    standardize_fit,
    train,
)
from .evaluation import (
    ConfusionCounts,
    EvalReport,
    ScanReport,
    cross_window_eval,
    kfold_cv,
    metrics,
    roc_auc,
    unlabeled_scan,
)
from .synth import (
    ArchetypeConfig,
    CorpusProfile,
    ScanProfile,
    gen_corpus,
    gen_counterfeit_poisoning,
    gen_honeypot_star,
    gen_legitimate,
    gen_scan_corpus,
)

__version__ = "0.1.0"
