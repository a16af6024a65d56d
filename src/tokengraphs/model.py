"""L2-regularized logistic regression trained by full-batch gradient descent.

Nothing here is stochastic beyond the seeded coefficient initialization, so
training is reproducible bit-for-bit from its config.  Features are
z-scored before descent; raw amounts reach 1e21 and make unscaled descent
numerically hopeless.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .features import VARIANTS, FeatureVector, feature_matrix

MODEL_FORMAT_VERSION = 1

# a scam probability at or above this is a predicted scam
SCAM_THRESHOLD = 0.5

_KNOWN_FEATURE_NAMES = frozenset(
    name for names in VARIANTS.values() for name in names
)


class TrainingError(RuntimeError):
    """Degenerate training input (single class, empty matrix, divergence)."""


class ModelFormatError(ValueError):
    pass


class FeatureMismatchError(ValueError):
    """Model feature names do not match what the caller can provide."""


def _sigmoid_into(z: np.ndarray, out: np.ndarray, scratch: np.ndarray,
                  nonneg: np.ndarray) -> np.ndarray:
    """``out = where(z >= 0, 1, e) / (1 + e)`` with ``e = exp(-|z|)``.

    Overflow-safe without masked gathers, and bitwise equal to the two-branch
    ``1/(1+exp(-z))`` / ``exp(z)/(1+exp(z))`` form, ±0 and ±inf included (a nan
    stays nan).
    """
    np.absolute(z, out=scratch)
    np.negative(scratch, out=scratch)
    np.exp(scratch, out=scratch)
    np.add(scratch, 1.0, out=out)
    np.greater_equal(z, 0.0, out=nonneg)
    np.copyto(scratch, 1.0, where=nonneg)
    return np.divide(scratch, out, out=out)


def sigmoid(z: np.ndarray | float) -> np.ndarray | float:
    """Overflow-safe logistic function."""
    arr = np.asarray(z, dtype=np.float64)
    out = _sigmoid_into(arr, np.empty_like(arr), np.empty_like(arr),
                        np.empty(arr.shape, dtype=bool))
    return out if isinstance(z, np.ndarray) else float(out)


@dataclass
class Standardizer:
    """Per-feature z-scoring statistics, fitted on training rows only."""

    means: np.ndarray
    stds: np.ndarray  # population stds; zeros are kept and applied as 1

    def transform(self, matrix: np.ndarray) -> np.ndarray:
        safe = np.where(self.stds == 0.0, 1.0, self.stds)
        return (matrix - self.means) / safe


def standardize_fit(matrix: np.ndarray) -> Standardizer:
    if matrix.ndim != 2 or matrix.shape[0] < 1:
        raise ValueError("standardizer needs at least one row")
    return Standardizer(
        means=matrix.mean(axis=0),
        stds=matrix.std(axis=0),  # population (divide by n)
    )


@dataclass
class TrainConfig:
    lam: float = 1.0
    learning_rate: float = 0.1
    max_iters: int = 10_000
    tolerance: float = 1e-7
    seed: int = 0
    log_amount: bool = False  # model amount as log10(1 + x) instead of raw


@dataclass
class Model:
    feature_names: tuple[str, ...]
    intercept: float
    coefficients: np.ndarray
    standardizer: Standardizer
    config: TrainConfig
    iterations: int = 0
    final_loss: float = float("nan")
    loss_history: list[float] | None = field(default=None, repr=False)
    train_row_ids: frozenset | None = field(default=None, repr=False)

    @property
    def converged(self) -> bool:
        """False when gradient descent stopped at ``config.max_iters``."""
        return self.iterations < self.config.max_iters

    @property
    def variant(self) -> str | None:
        for name, names in VARIANTS.items():
            if names == self.feature_names:
                return name
        return None

    def decision_values(self, matrix: np.ndarray) -> np.ndarray:
        scaled = self.standardizer.transform(matrix)
        return self.intercept + scaled @ self.coefficients

    def predict_matrix(self, matrix: np.ndarray) -> np.ndarray:
        return sigmoid(self.decision_values(matrix))


def _objective(matrix: np.ndarray, labels: np.ndarray, lam: float):
    """The loss-and-gradient step for one fit, checked and allocated once.

    Returns ``step(params) -> (loss, grad)``: the mean negative log-likelihood
    plus ``lam/(2k) * beta@beta`` over the k feature weights ``beta =
    params[1:]`` (the intercept ``params[0]`` is not penalized, and dividing
    by k keeps the objective invariant under row replication), and its exact
    gradient.  In plain form, with ``z = params[0] + matrix @ beta`` and
    ``r = sigmoid(z) - labels``: ``loss = mean(logaddexp(0, z) - labels*z) +
    lam/(2k) * beta@beta`` and ``grad = [mean(r), matrix.T @ r / n + lam/k *
    beta]``; log-sum-exp keeps both finite for any z.  Every expression and
    its order match that plain form, so results are bit-identical to it.
    ``grad`` is a buffer the next call overwrites.
    """
    n_rows, n_feat = matrix.shape
    if labels.shape != (n_rows,):
        raise ValueError("parameter/label dimensions do not match the matrix")
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    penalty = lam / (2.0 * n_feat)
    slope = lam / n_feat
    matrix_t = matrix.T  # a view: a contiguous copy may change BLAS summation order
    z = np.empty(n_rows)
    row = np.empty(n_rows)
    scratch = np.empty(n_rows)
    nonneg = np.empty(n_rows, dtype=bool)
    k_vector = np.empty(n_feat)
    grad = np.empty(n_feat + 1)
    grad_beta = grad[1:]

    # at a few thousand rows an iteration is mostly per-call overhead, so the
    # ufuncs are looked up once per fit rather than on every call
    matmul, add, subtract, multiply = np.matmul, np.add, np.subtract, np.multiply
    logaddexp, divide, add_reduce = np.logaddexp, np.divide, np.add.reduce

    def step(params: np.ndarray) -> tuple[float, np.ndarray]:
        beta = params[1:]
        matmul(matrix, beta, out=z)
        add(z, params[0], out=z)
        # mean NLL: softplus(z) - y*z, via logaddexp(0, z) for stability
        logaddexp(0.0, z, out=row)
        multiply(labels, z, out=scratch)
        subtract(row, scratch, out=row)
        nll = float(add_reduce(row) / n_rows)
        loss = nll + penalty * float(beta @ beta)

        residual = subtract(_sigmoid_into(z, row, scratch, nonneg), labels, out=row)
        grad[0] = add_reduce(residual) / n_rows
        matmul(matrix_t, residual, out=k_vector)
        divide(k_vector, n_rows, out=k_vector)
        multiply(slope, beta, out=grad_beta)
        add(k_vector, grad_beta, out=grad_beta)
        return loss, grad

    return step


def train_matrix(
    matrix: np.ndarray,
    labels: Sequence[int],
    feature_names: tuple[str, ...],
    config: TrainConfig | None = None,
    row_ids: Sequence | None = None,
) -> Model:
    """Fit a standardizer and run gradient descent on a raw feature matrix."""
    config = config or TrainConfig()
    y = np.asarray(labels, dtype=np.float64)
    if y.size == 0 or len({int(v) for v in y}) < 2:
        raise TrainingError("training data must contain both classes")
    scaler = standardize_fit(matrix)
    scaled = scaler.transform(matrix)

    rng = np.random.default_rng(config.seed)
    params = rng.normal(0.0, 0.01, size=matrix.shape[1] + 1)

    step = _objective(scaled, y, config.lam)
    history: list[float] = []
    iterations = 0
    loss, grad = step(params)
    history.append(loss)
    for iterations in range(1, config.max_iters + 1):
        if float(np.abs(grad).max()) < config.tolerance:
            iterations -= 1
            break
        params = params - config.learning_rate * grad
        loss, grad = step(params)
        if loss > history[-1] + 1e-12 * max(1.0, abs(history[-1])):
            raise TrainingError(
                f"loss increased at iteration {iterations}; lower the learning rate"
            )
        history.append(loss)

    return Model(
        feature_names=tuple(feature_names),
        intercept=float(params[0]),
        coefficients=params[1:].copy(),
        standardizer=scaler,
        config=config,
        iterations=iterations,
        final_loss=history[-1],
        loss_history=history,
        train_row_ids=frozenset(row_ids) if row_ids is not None else None,
    )


def train(dataset, config: TrainConfig | None = None, variant: str = "full") -> Model:
    """Train on a labeled dataset using one of the named feature variants."""
    config = config or TrainConfig()
    names = VARIANTS.get(variant)
    if names is None:
        raise ValueError(f"unknown feature variant: {variant!r}")
    matrix = feature_matrix(dataset.vectors, names, log_amount=config.log_amount)
    return train_matrix(matrix, dataset.labels, names, config,
                        row_ids=dataset.row_ids())


def predict_proba(model: Model, vectors: Sequence[FeatureVector]) -> np.ndarray:
    """Scam probabilities for feature vectors, using the model's own scaling."""
    unknown = [n for n in model.feature_names if n not in _KNOWN_FEATURE_NAMES]
    if unknown:
        raise FeatureMismatchError(f"model uses unknown features: {unknown}")
    matrix = feature_matrix(vectors, model.feature_names,
                            log_amount=model.config.log_amount)
    return model.predict_matrix(matrix)


# ---------------------------------------------------------------------------
# model file format: "key: value" lines, floats with 17 significant digits

def _f17(x: float) -> str:
    return format(float(x), ".17g")


def save_model(model: Model, path: str | os.PathLike) -> None:
    lines = [
        f"format_version: {MODEL_FORMAT_VERSION}",
        f"feature_names: {','.join(model.feature_names)}",
        f"intercept: {_f17(model.intercept)}",
        f"coefficients: {','.join(_f17(c) for c in model.coefficients)}",
        f"means: {','.join(_f17(m) for m in model.standardizer.means)}",
        f"stds: {','.join(_f17(s) for s in model.standardizer.stds)}",
        f"lambda: {_f17(model.config.lam)}",
        f"learning_rate: {_f17(model.config.learning_rate)}",
        f"max_iters: {model.config.max_iters}",
        f"tolerance: {_f17(model.config.tolerance)}",
        f"seed: {model.config.seed}",
        f"log_amount: {int(model.config.log_amount)}",
        f"iterations: {model.iterations}",
        f"final_loss: {_f17(model.final_loss)}",
    ]
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


_REQUIRED_KEYS = (
    "format_version", "feature_names", "intercept", "coefficients", "means",
    "stds", "lambda", "learning_rate", "max_iters", "tolerance", "seed",
    "log_amount", "iterations", "final_loss",
)


def load_model(path: str | os.PathLike) -> Model:
    entries: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.rstrip("\n")
            if not line:
                continue
            if ": " not in line:
                raise ModelFormatError(f"malformed model line: {line!r}")
            key, value = line.split(": ", 1)
            entries[key] = value
    missing = [k for k in _REQUIRED_KEYS if k not in entries]
    if missing:
        raise ModelFormatError(f"model file truncated; missing {missing}")
    version = int(entries["format_version"])
    if version != MODEL_FORMAT_VERSION:
        raise ModelFormatError(f"unsupported model format version {version}")

    names = tuple(entries["feature_names"].split(","))
    coefficients = np.array([float(v) for v in entries["coefficients"].split(",")])
    means = np.array([float(v) for v in entries["means"].split(",")])
    stds = np.array([float(v) for v in entries["stds"].split(",")])
    if not (len(names) == coefficients.size == means.size == stds.size):
        raise ModelFormatError("inconsistent feature/coefficient counts")
    intercept = float(entries["intercept"])
    # a nan or inf here would turn every score into nan, and nan flags nothing
    if not np.isfinite([intercept, *coefficients, *means, *stds]).all():
        raise ModelFormatError("intercept, coefficients, means and stds must be finite")
    config = TrainConfig(
        lam=float(entries["lambda"]),
        learning_rate=float(entries["learning_rate"]),
        max_iters=int(entries["max_iters"]),
        tolerance=float(entries["tolerance"]),
        seed=int(entries["seed"]),
        log_amount=bool(int(entries["log_amount"])),
    )
    return Model(
        feature_names=names,
        intercept=intercept,
        coefficients=coefficients,
        standardizer=Standardizer(means=means, stds=stds),
        config=config,
        iterations=int(entries["iterations"]),
        final_loss=float(entries["final_loss"]),
    )
