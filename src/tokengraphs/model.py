"""L2-regularized logistic regression trained by full-batch gradient descent.

Nothing here is stochastic beyond the seeded coefficient initialization, so
training is reproducible bit-for-bit from its config.  Features are
z-scored before descent; raw amounts reach 1e21 and make unscaled descent
numerically hopeless.  A step whose size the descent lemma shows cannot
raise the loss computes none; otherwise each step checks the exact loss for a
rise.  ``final_loss`` is the exact ``logaddexp`` loss at the final parameters.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .features import VARIANTS, feature_matrix, read_rows

MODEL_HEADER = "format_version: 1"

# a scam probability at or above this is a predicted scam
SCAM_THRESHOLD = 0.5


class TrainingError(RuntimeError):
    """Degenerate training input (single class, empty matrix, divergence)."""


class ModelFormatError(ValueError):
    pass


def _sigmoid_into(z: np.ndarray, e: np.ndarray, out: np.ndarray,
                  nonneg: np.ndarray) -> np.ndarray:
    """``out = where(z >= 0, 1, e) / (1 + e)`` from ``e = exp(-|z|)``, which it
    overwrites; as ``0 <= e <= 1``, that numerator is ``max(e, z >= 0)``.

    Overflow-safe without masked gathers, and bitwise equal to the two-branch
    ``1/(1+exp(-z))`` / ``exp(z)/(1+exp(z))`` form, ±0 and ±inf included (a nan
    stays nan).
    """
    np.add(e, 1.0, out=out)
    np.maximum(e, np.greater_equal(z, 0.0, out=nonneg), out=e)
    return np.divide(e, out, out=out)


def sigmoid(z: np.ndarray | float) -> np.ndarray | float:
    """Overflow-safe logistic function."""
    arr = np.asarray(z, dtype=np.float64)
    out = _sigmoid_into(arr, np.exp(-np.abs(arr), out=np.empty_like(arr)),
                        np.empty_like(arr), np.empty(arr.shape, dtype=bool))
    return out if isinstance(z, np.ndarray) else float(out)


@dataclass
class TrainConfig:
    lam: float = 1.0
    learning_rate: float = 0.1
    max_iters: int = 10_000
    tolerance: float = 1e-7
    seed: int = 0
    log_amount: bool = False  # model amount as log10(1 + x) instead of raw

    def __post_init__(self):
        # a setting is named by its model-file key, as its option is (--lambda: lam)
        for name, value in (("lambda", self.lam), ("max_iters", self.max_iters),
                            ("tolerance", self.tolerance), ("seed", self.seed)):
            if not 0 <= value < math.inf:
                raise ValueError(f"{name} must be finite and >= 0, not {value}")
        if not 0 < self.learning_rate < math.inf:
            raise ValueError(f"learning_rate must be finite and > 0, not {self.learning_rate}")


@dataclass
class Model:
    feature_names: tuple[str, ...]
    intercept: float
    coefficients: np.ndarray
    means: np.ndarray  # z-scoring statistics, fitted on the training rows only
    stds: np.ndarray  # population stds; zeros are kept and applied as 1
    config: TrainConfig
    iterations: int = 0
    final_loss: float = float("nan")
    train_row_ids: frozenset | None = field(default=None, repr=False)
    converged: bool = True  # False when descent stopped at max_iters short of tolerance

    @property
    def variant(self) -> str | None:
        for name, names in VARIANTS.items():
            if names == self.feature_names:
                return name
        return None


def _zscore(matrix: np.ndarray, means: np.ndarray, stds: np.ndarray) -> np.ndarray:
    return (matrix - means) / np.where(stds == 0.0, 1.0, stds)


def _objective(matrix: np.ndarray, labels: np.ndarray, lam: float):
    """The loss-and-gradient step for one fit, checked and allocated once.

    Returns ``step(params, with_loss=True) -> (loss, grad)``: the mean negative
    log-likelihood plus ``lam/(2k) * beta@beta`` over the k feature weights
    ``beta = params[1:]`` (the intercept ``params[0]`` is not penalized, and
    dividing by k keeps the objective invariant under row replication), and
    its exact gradient.  In plain form, with ``z = params[0] + matrix @ beta``
    and ``r = sigmoid(z) - labels``: ``loss = mean(logaddexp(0, z) - labels*z)
    + lam/(2k) * beta@beta`` and ``grad = [mean(r), matrix.T @ r / n + lam/k *
    beta]``; log-sum-exp keeps both finite for any z.  Every expression and
    its order match that plain form, so results are bit-identical to it.
    ``with_loss=False`` skips the loss, a scalar libm loop that costs about
    half a step, and returns ``(None, grad)`` with the same gradient.
    ``grad`` is a buffer the next call overwrites.
    """
    n_rows, n_feat = matrix.shape
    if labels.shape != (n_rows,):
        raise ValueError("parameter/label dimensions do not match the matrix")
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    penalty, slope = lam / (2.0 * n_feat), lam / n_feat
    matrix_t = matrix.T  # a view: a contiguous copy may change BLAS summation order
    z, e, row = (np.empty(n_rows) for _ in range(3))
    nonneg = np.empty(n_rows, dtype=bool)
    k_vector, grad = np.empty(n_feat), np.empty(n_feat + 1)
    grad_beta = grad[1:]

    # at a few thousand rows an iteration is mostly per-call overhead, so the
    # ufuncs are looked up once per fit rather than on every call, and products
    # go through np.dot, which makes the same BLAS calls as ``@`` at less cost
    dot, add, subtract, multiply = np.dot, np.add, np.subtract, np.multiply
    logaddexp, divide, absolute, negative = np.logaddexp, np.divide, np.absolute, np.negative
    exp, add_reduce = np.exp, np.add.reduce

    def step(params: np.ndarray, with_loss: bool = True) -> tuple[float | None, np.ndarray]:
        beta = params[1:]
        dot(matrix, beta, out=z)
        add(z, params[0], out=z)
        loss = None
        if with_loss:  # mean NLL: softplus(z) - y*z
            subtract(logaddexp(0.0, z, out=row), multiply(labels, z, out=e), out=row)
            loss = float(add_reduce(row) / n_rows) + penalty * float(dot(beta, beta))
        exp(negative(absolute(z, out=e), out=e), out=e)
        residual = subtract(_sigmoid_into(z, e, row, nonneg), labels, out=row)
        grad[0] = add_reduce(residual) / n_rows
        dot(matrix_t, residual, out=k_vector)
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
    """Z-score a raw feature matrix and run gradient descent on it."""
    config = config or TrainConfig()
    y = np.asarray(labels, dtype=np.float64)
    if y.size == 0 or len({int(v) for v in y}) < 2:
        raise TrainingError("training data must contain both classes")
    if matrix.ndim != 2 or matrix.shape[0] < 1:
        raise ValueError("z-scoring needs at least one row")
    means, stds = matrix.mean(axis=0), matrix.std(axis=0)  # population (divide by n)
    params = np.random.default_rng(config.seed).normal(0.0, 0.01, size=matrix.shape[1] + 1)

    scaled = _zscore(matrix, means, stds)
    step, (n_rows, n_feat) = _objective(scaled, y, config.lam), scaled.shape
    # L bounds the objective's Hessian by its trace (the sigmoid's slope is at most
    # 1/4), so by the descent lemma a step with lr * L < 1 cannot raise the loss and
    # none is computed; a nan L (from a nan or inf cell) keeps the check on
    lipschitz = 0.25 * (1.0 + float(np.vdot(scaled, scaled)) / n_rows) + config.lam / n_feat
    check = not config.learning_rate * lipschitz < 1.0
    iterations, (loss, grad) = 0, step(params, check)
    buf = np.empty_like(grad)  # |grad|, then lr * grad, without a fresh array per step
    while not (converged := float(np.absolute(grad, out=buf).max()) < config.tolerance) \
            and iterations < config.max_iters:
        iterations += 1
        np.subtract(params, np.multiply(config.learning_rate, grad, out=buf), out=params)
        previous, (loss, grad) = loss, step(params, check)
        if check and not loss <= previous + 1e-12 * max(1.0, abs(previous)):  # nan too
            raise TrainingError(f"loss increased at iteration {iterations}; "
                                "lower the learning rate")

    return Model(feature_names=tuple(feature_names), intercept=float(params[0]),
                 coefficients=params[1:].copy(), means=means, stds=stds, config=config,
                 iterations=iterations, final_loss=step(params)[0], converged=converged,
                 train_row_ids=frozenset(row_ids) if row_ids is not None else None)


def train(dataset, config: TrainConfig | None = None, variant: str = "full") -> Model:
    """Train on a labeled dataset using one of the named feature variants."""
    config = config or TrainConfig()
    names = VARIANTS.get(variant)
    if names is None:
        raise ValueError(f"unknown feature variant: {variant!r}")
    matrix = feature_matrix(dataset.table, names, log_amount=config.log_amount)
    return train_matrix(matrix, dataset.labels, names, config,
                        row_ids=dataset.row_ids())


def predict_proba(model: Model, table: np.recarray) -> np.ndarray:
    """Scam probabilities for a feature table's rows, using the model's own scaling."""
    matrix = feature_matrix(table, model.feature_names,
                            log_amount=model.config.log_amount)
    scaled = _zscore(matrix, model.means, model.stds)
    return sigmoid(model.intercept + scaled @ model.coefficients)


# ---------------------------------------------------------------------------
# model file format: the ``MODEL_HEADER`` line, then one "key: value" line per
# key of ``_MODEL_KEYS``, in its order, floats with 17 significant digits

_f17 = "{:.17g}".format

# how a value is written and read back, by kind: (what it must be, write, read)
_INT = ("an integer", str, int)
_REAL = ("a real", _f17, float)
_REALS = ("comma-separated reals", lambda values: ",".join(map(_f17, values)),
          lambda text: np.array([float(v) for v in text.split(",")]))
_NAMES = ("comma-separated names", ",".join, lambda text: tuple(text.split(",")))
_FLAG = ("0 or 1", lambda flag: str(int(flag)), {"0": False, "1": True}.__getitem__)

# every key of a model file, in file order: its value in a Model, and its kind
_MODEL_KEYS = (
    ("feature_names", lambda m: m.feature_names, _NAMES),
    ("intercept", lambda m: m.intercept, _REAL),
    ("coefficients", lambda m: m.coefficients, _REALS),
    ("means", lambda m: m.means, _REALS),
    ("stds", lambda m: m.stds, _REALS),
    ("lambda", lambda m: m.config.lam, _REAL),
    ("learning_rate", lambda m: m.config.learning_rate, _REAL),
    ("max_iters", lambda m: m.config.max_iters, _INT),
    ("tolerance", lambda m: m.config.tolerance, _REAL),
    ("seed", lambda m: m.config.seed, _INT),
    ("log_amount", lambda m: m.config.log_amount, _FLAG),
    ("iterations", lambda m: m.iterations, _INT),
    ("final_loss", lambda m: m.final_loss, _REAL),
)
_KEY_NAMES = tuple(key for key, _, _ in _MODEL_KEYS)


def save_model(model: Model, path: str | os.PathLike) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(MODEL_HEADER + "\n")
        handle.writelines(f"{key}: {kind[1](value(model))}\n"
                          for key, value, kind in _MODEL_KEYS)


def load_model(path: str | os.PathLike) -> Model:
    entries = dict([MODEL_HEADER.split(": ")])  # the header is the first key's line
    for line_no, line in read_rows(path, MODEL_HEADER, "model", ModelFormatError):
        key, colon, value = line.partition(": ")
        if not colon:
            raise ModelFormatError(f"line {line_no}: malformed model line: {key!r}")
        if key in entries:
            raise ModelFormatError(f"line {line_no}: duplicate model key: {key!r}")
        if key not in _KEY_NAMES:
            raise ModelFormatError(f"line {line_no}: unknown model key: {key!r}")
        entries[key] = value
    missing = [key for key in _KEY_NAMES if key not in entries]
    if missing:
        raise ModelFormatError(f"model file truncated; missing {missing}")
    values = {}
    for key, _, (form, _, read) in _MODEL_KEYS:
        try:
            values[key] = read(entries[key])
        except (KeyError, ValueError):  # the flag's lookup raises KeyError
            raise ModelFormatError(f"{key} {entries[key]!r} is not {form}") from None

    names, coefficients = values["feature_names"], values["coefficients"]
    means, stds, intercept = values["means"], values["stds"], values["intercept"]
    if not (len(names) == coefficients.size == means.size == stds.size):
        raise ModelFormatError("inconsistent feature/coefficient counts")
    # a nan or inf here would turn every score into nan, and nan flags nothing
    if not np.isfinite([intercept, *coefficients, *means, *stds]).all():
        raise ModelFormatError("intercept, coefficients, means and stds must be finite")
    try:
        config = TrainConfig(values["lambda"], values["learning_rate"], values["max_iters"],
                             values["tolerance"], values["seed"], values["log_amount"])
    except ValueError as exc:
        raise ModelFormatError(str(exc)) from None
    return Model(feature_names=names, intercept=intercept, coefficients=coefficients,
                 means=means, stds=stds, config=config,
                 iterations=values["iterations"], final_loss=values["final_loss"])
