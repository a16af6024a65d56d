from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tokengraphs.dataset import LabeledDataset
from tokengraphs.features import FeatureVector
from tokengraphs.ingest import BlockWindow
from tokengraphs.model import (
    FeatureMismatchError,
    Model,
    ModelFormatError,
    Standardizer,
    TrainConfig,
    TrainingError,
    _objective,
    load_model,
    predict_proba,
    save_model,
    sigmoid,
    standardize_fit,
    train,
    train_matrix,
)

from oracles import (finite_diff_gradient, masked_sigmoid, straight_descent,
                     straight_loss_and_gradient)

WINDOW = BlockWindow(18_000_000, 18_100_000)


def _vector(token, values: dict) -> FeatureVector:
    base = dict(num_nodes=600, num_edges=700, density=0.002, num_components=40,
                avg_comp_size=15.0, lifetime=90_000, transfer_std_dev=26_000.0,
                amount=10 ** 21)
    base.update(values)
    return FeatureVector(token=token, window=WINDOW, **base)


def toy_dataset(n_per_class: int = 30, seed: int = 0) -> LabeledDataset:
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n_per_class):
        rows.append((_vector(f"0xlegit{i}", {
            "lifetime": int(rng.uniform(80_000, 99_000)),
            "transfer_std_dev": float(rng.uniform(23_000, 28_000)),
            "amount": int(rng.uniform(1e21, 5e21)),
        }), 0))
        rows.append((_vector(f"0xscam{i}", {
            "lifetime": int(rng.uniform(2_000, 9_500)),
            "transfer_std_dev": float(rng.uniform(100, 2_500)),
            "amount": int(rng.uniform(1e5, 1e18)),
        }), 1))
    return LabeledDataset(rows=rows)


# --- sigmoid ----------------------------------------------------------------

def test_sigmoid_midpoint_and_saturation():
    assert sigmoid(0.0) == pytest.approx(0.5)
    # sigma(50) = 1 - 1.9e-22, which float64 rounds to exactly 1.0
    assert sigmoid(50.0) >= 1 - 1e-20
    assert sigmoid(50.0) <= 1.0
    assert sigmoid(-50.0) < 1e-20
    assert sigmoid(-1000.0) == pytest.approx(0.0)  # overflow-safe branch


_EDGE_VALUES = (0.0, -0.0, math.inf, -math.inf, math.nan, 800.0, -800.0,
                709.0, -745.0, 1e-300, -1e-300)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.sampled_from(_EDGE_VALUES), st.floats()),
                max_size=40))
def test_sigmoid_equals_the_masked_oracle_bitwise(values):
    arr = np.array(values, dtype=np.float64)
    assert np.array_equal(sigmoid(arr), masked_sigmoid(arr), equal_nan=True)
    for value in values[:5]:
        got, want = sigmoid(value), masked_sigmoid(value)
        assert type(got) is float
        assert got == want or (math.isnan(got) and math.isnan(want))


# --- standardizer ---------------------------------------------------------------

def test_two_point_column_population_std():
    scaler = standardize_fit(np.array([[1.0], [3.0]]))
    assert scaler.means[0] == pytest.approx(2.0)
    assert scaler.stds[0] == pytest.approx(1.0)


def test_constant_column_stays_at_zero():
    scaler = standardize_fit(np.array([[5.0], [5.0], [5.0]]))
    assert scaler.stds[0] == 0.0
    assert scaler.transform(np.array([[5.0]]))[0, 0] == 0.0


def test_standardized_column_is_idempotent():
    rng = np.random.default_rng(4)
    column = rng.normal(size=(200, 1))
    once = standardize_fit(column).transform(column)
    scaler = standardize_fit(once)
    assert scaler.means[0] == pytest.approx(0.0, abs=1e-12)
    assert scaler.stds[0] == pytest.approx(1.0, abs=1e-12)


def test_empty_matrix_rejected():
    with pytest.raises(ValueError):
        standardize_fit(np.empty((0, 3)))


# --- loss and gradient -----------------------------------------------------------

def test_zero_params_balanced_labels_gives_log_two():
    matrix = np.random.default_rng(0).normal(size=(10, 4))
    labels = np.array([0, 1] * 5, dtype=float)
    loss, _ = _objective(matrix, labels, 0.0)(np.zeros(5))
    assert loss == pytest.approx(math.log(2.0), rel=1e-12)


def test_gradient_matches_central_differences():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(20):
        matrix = rng.normal(size=(50, 8))
        labels = (rng.random(50) < 0.4).astype(float)
        params = rng.normal(size=9)
        lam = float(rng.uniform(0.0, 2.0))
        _, grad = _objective(matrix, labels, lam)(params)
        numeric = finite_diff_gradient(
            lambda p: _objective(matrix, labels, lam)(p)[0], params)
        rel = np.max(np.abs(grad - numeric) / np.maximum(np.abs(numeric), 1e-8))
        worst = max(worst, float(rel))
    assert worst < 1e-6


def test_huge_regularization_collapses_to_base_rate():
    # learning rate must respect the curvature the penalty adds (lam/k per step)
    rng = np.random.default_rng(3)
    matrix = rng.normal(size=(200, 3))
    labels = (rng.random(200) < 0.25).astype(int)
    model = train_matrix(matrix, labels, ("a", "b", "c"),
                         TrainConfig(lam=1000.0, learning_rate=0.004,
                                     max_iters=60_000))
    assert np.max(np.abs(model.coefficients)) < 1e-2
    base_rate = labels.mean()
    assert model.intercept == pytest.approx(math.log(base_rate / (1 - base_rate)),
                                            abs=1e-2)


def test_dimension_mismatch_raises():
    with pytest.raises(ValueError):
        _objective(np.zeros((5, 3)), np.zeros(5), 0.1)(np.zeros(3))
    with pytest.raises(ValueError):
        _objective(np.zeros((5, 3)), np.zeros(4), 0.1)(np.zeros(4))
    with pytest.raises(ValueError, match="nonnegative"):
        _objective(np.zeros((5, 3)), np.zeros(5), -0.1)(np.zeros(4))


@st.composite
def objectives(draw):
    """(matrix, labels, lam, params list): 1-60 rows, 1-8 columns, lam >= 0,
    and params that put every z at exactly 0, at +-800 or anywhere.  No params
    put z at -0.0: ``matrix @ beta`` sums from +0.0, so ``beta0 + matrix @ beta``
    is never -0.0; the sigmoid test covers -0.0."""
    n_rows = draw(st.integers(1, 60))
    n_feat = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    matrix = rng.normal(size=(n_rows, n_feat)) * draw(st.sampled_from((1.0, 30.0)))
    labels = (rng.random(n_rows) < 0.4).astype(float)
    lam = draw(st.one_of(st.just(0.0), st.floats(0.0, 1e3)))
    params = [rng.normal(size=n_feat + 1) * scale for scale in (0.01, 1.0, 40.0)]
    for beta0 in (0.0, -0.0, 800.0, -800.0):
        fixed = np.zeros(n_feat + 1)
        fixed[0] = beta0
        params.append(fixed)
    return matrix, labels, lam, params


@settings(max_examples=150, deadline=None)
@given(objectives())
def test_kernel_equals_the_straight_oracle_bitwise(case):
    matrix, labels, lam, params = case
    step = _objective(matrix, labels, lam)
    for p in params:  # consecutive steps of one kernel against fresh oracle calls
        loss, grad = step(p)
        want_loss, want_grad = straight_loss_and_gradient(p, matrix, labels, lam)
        assert loss == want_loss
        assert np.array_equal(grad, want_grad)
        fresh_loss, fresh_grad = _objective(matrix, labels, lam)(p)
        assert fresh_loss == want_loss
        assert np.array_equal(fresh_grad, want_grad)


def test_returned_gradient_is_not_overwritten_by_a_later_call():
    rng = np.random.default_rng(4)
    matrix = rng.normal(size=(20, 3))
    labels = (rng.random(20) < 0.5).astype(float)
    _, first = _objective(matrix, labels, 0.5)(np.zeros(4))
    kept = first.copy()
    _, second = _objective(matrix, labels, 0.5)(np.ones(4))
    assert second is not first
    assert np.array_equal(first, kept)


# --- training ---------------------------------------------------------------------

def test_separable_feature_gets_positive_weight():
    rng = np.random.default_rng(11)
    x = np.concatenate([rng.normal(-2, 0.5, 40), rng.normal(2, 0.5, 40)])
    labels = np.array([0] * 40 + [1] * 40)
    model = train_matrix(x.reshape(-1, 1), labels, ("feature",))
    assert model.coefficients[0] > 0


def test_row_replication_leaves_coefficients_unchanged():
    dataset = toy_dataset(25)
    doubled = LabeledDataset(rows=dataset.rows + dataset.rows[:])
    m1 = train(dataset, TrainConfig(tolerance=1e-10))
    # identical objective up to row count; same optimum
    m2_matrix = np.vstack([np.array([[fv.value(n) for n in m1.feature_names]
                                     for fv, _ in doubled.rows])])
    m2 = train_matrix(m2_matrix, doubled.labels, m1.feature_names,
                      TrainConfig(tolerance=1e-10))
    assert np.allclose(m1.coefficients, m2.coefficients, atol=1e-8)
    assert m1.intercept == pytest.approx(m2.intercept, abs=1e-8)


def test_single_class_training_is_degenerate():
    dataset = toy_dataset(10)
    only_legit = LabeledDataset(rows=[r for r in dataset.rows if r[1] == 0])
    with pytest.raises(TrainingError):
        train(only_legit)


def test_unknown_variant_rejected():
    with pytest.raises(ValueError, match="unknown feature variant"):
        train(toy_dataset(10), variant="bogus")


def test_loss_history_is_monotone_nonincreasing():
    model = train(toy_dataset(30))
    history = np.array(model.loss_history)
    assert np.all(np.diff(history) <= 1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 60), st.integers(1, 8), st.integers(0, 2**32 - 1),
       st.sampled_from((0.0, 0.3, 1.0)))
def test_loss_history_equals_a_straight_oracle_loop(n_rows, n_feat, seed, lam):
    rng = np.random.default_rng(seed)
    matrix = rng.normal(size=(n_rows, n_feat)) * 5.0 + 2.0
    labels = np.arange(n_rows) % 2
    config = TrainConfig(lam=lam, max_iters=300, tolerance=1e-5, seed=seed % 7)
    model = train_matrix(matrix, labels, tuple(f"f{i}" for i in range(n_feat)), config)
    scaled = standardize_fit(matrix).transform(matrix)
    start = np.random.default_rng(config.seed).normal(0.0, 0.01, size=n_feat + 1)
    history = straight_descent(scaled, labels.astype(float), start, lam,
                               config.learning_rate, config.max_iters, config.tolerance)
    assert model.loss_history == history
    assert model.iterations == len(history) - 1


def test_a_diverging_learning_rate_is_a_training_error():
    with pytest.raises(TrainingError,
                       match="^loss increased at iteration 1; lower the learning rate$"):
        train(toy_dataset(10), TrainConfig(learning_rate=1000.0))


def test_a_loss_that_is_not_finite_is_a_training_error():
    # one step of 1e308 overflows the parameters, and the loss turns nan
    with np.errstate(all="ignore"), pytest.raises(TrainingError, match="^loss increased"):
        train(toy_dataset(10), TrainConfig(learning_rate=1e308))


def test_two_seeds_reach_the_same_optimum():
    dataset = toy_dataset(30)
    m1 = train(dataset, TrainConfig(seed=1, tolerance=1e-9))
    m2 = train(dataset, TrainConfig(seed=2, tolerance=1e-9))
    assert m1.final_loss == pytest.approx(m2.final_loss, abs=1e-6)


def test_training_is_deterministic_given_config():
    dataset = toy_dataset(20)
    m1 = train(dataset, TrainConfig(seed=5))
    m2 = train(dataset, TrainConfig(seed=5))
    assert np.array_equal(m1.coefficients, m2.coefficients)
    assert m1.intercept == m2.intercept


# --- prediction ---------------------------------------------------------------------

def test_probability_at_training_means_is_intercept_sigmoid():
    model = Model(
        feature_names=("a", "b"), intercept=-0.4,
        coefficients=np.array([0.0, 0.0]),
        standardizer=Standardizer(means=np.array([1.0, 2.0]),
                                  stds=np.array([1.0, 1.0])),
        config=TrainConfig(),
    )
    probs = model.predict_matrix(np.array([[1.0, 2.0]]))
    assert probs[0] == pytest.approx(sigmoid(-0.4))


def test_predict_proba_needs_known_feature_names():
    model = Model(
        feature_names=("mystery",), intercept=0.0,
        coefficients=np.array([1.0]),
        standardizer=Standardizer(means=np.array([0.0]), stds=np.array([1.0])),
        config=TrainConfig(),
    )
    with pytest.raises(FeatureMismatchError):
        predict_proba(model, [_vector("0x" + "0" * 40, {})])


def test_probabilities_are_in_unit_interval():
    dataset = toy_dataset(20)
    model = train(dataset)
    probs = predict_proba(model, dataset.vectors)
    assert np.all(probs >= 0.0) and np.all(probs <= 1.0)


# --- persistence ----------------------------------------------------------------------

def test_save_load_round_trip(tmp_path):
    dataset = toy_dataset(20)
    model = train(dataset, TrainConfig(seed=9))
    path = tmp_path / "model.txt"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.feature_names == model.feature_names
    assert loaded.config == model.config
    assert loaded.iterations == model.iterations
    assert np.max(np.abs(loaded.coefficients - model.coefficients)) < 1e-15

    rng = np.random.default_rng(1)
    for _ in range(100):
        fv = _vector("0x" + "9" * 40, {
            "lifetime": int(rng.uniform(0, 99_000)),
            "amount": int(rng.uniform(0, 1e22)),
            "transfer_std_dev": float(rng.uniform(0, 28_000)),
        })
        p1 = predict_proba(model, [fv])[0]
        p2 = predict_proba(loaded, [fv])[0]
        assert p1 == pytest.approx(p2, abs=1e-12)


def test_truncated_model_file_rejected(tmp_path):
    dataset = toy_dataset(10)
    path = tmp_path / "model.txt"
    save_model(train(dataset), path)
    content = path.read_text().splitlines()
    path.write_text("\n".join(content[:4]) + "\n")
    with pytest.raises(ModelFormatError):
        load_model(path)


def test_unknown_format_version_rejected(tmp_path):
    dataset = toy_dataset(10)
    path = tmp_path / "model.txt"
    save_model(train(dataset), path)
    content = path.read_text().replace("format_version: 1", "format_version: 99")
    path.write_text(content)
    with pytest.raises(ModelFormatError) as err:
        load_model(path)
    assert "99" in str(err.value)


@pytest.mark.parametrize("key", ["intercept", "coefficients", "means", "stds"])
@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_non_finite_model_parameters_rejected(tmp_path, key, bad):
    path = tmp_path / "model.txt"
    save_model(train(toy_dataset(10)), path)
    lines = path.read_text().splitlines()
    for i, line in enumerate(lines):
        name, value = line.split(": ", 1)
        if name == key:  # the last of a list's entries goes bad
            lines[i] = f"{name}: " + ",".join([*value.split(",")[:-1], bad])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ModelFormatError, match="must be finite"):
        load_model(path)


def test_variant_is_recovered_from_names(tmp_path):
    dataset = toy_dataset(10)
    model = train(dataset, variant="reduced")
    path = tmp_path / "model.txt"
    save_model(model, path)
    assert load_model(path).variant == "reduced"


def test_log_amount_flag_transforms_the_amount_column(tmp_path):
    dataset = toy_dataset(20)
    raw = train(dataset, TrainConfig(seed=0))
    logged = train(dataset, TrainConfig(seed=0, log_amount=True))
    # the standardizer sees a different amount column
    amount_idx = raw.feature_names.index("amount")
    assert raw.standardizer.means[amount_idx] > 1e15
    assert logged.standardizer.means[amount_idx] < 25  # log10 scale

    path = tmp_path / "logged.txt"
    save_model(logged, path)
    loaded = load_model(path)
    assert loaded.config.log_amount is True
    probs1 = predict_proba(logged, dataset.vectors)
    probs2 = predict_proba(loaded, dataset.vectors)
    assert np.allclose(probs1, probs2, atol=1e-12)
