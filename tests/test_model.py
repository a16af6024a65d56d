from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tokengraphs.dataset import LabeledDataset
from tokengraphs.features import TABLE_HEADER, VARIANTS, feature_matrix, feature_table
from tokengraphs.ingest import BlockWindow
from tokengraphs.model import (
    Model,
    ModelFormatError,
    TrainConfig,
    TrainingError,
    _objective,
    _zscore,
    load_model,
    predict_proba,
    save_model,
    sigmoid,
    train,
    train_matrix,
)

from oracles import (finite_diff_gradient, masked_sigmoid, straight_descent,
                     straight_feature_matrix, straight_loss_and_gradient)

WINDOW = BlockWindow(18_000_000, 18_100_000)


def _vector(token, values: dict) -> tuple:
    """A feature-table row: a mid-sized legitimate token's cells, ``values`` replaced."""
    base = dict(num_nodes=600, num_edges=700, density=0.002, num_components=40,
                avg_comp_size=15.0, lifetime=90_000, transfer_std_dev=26_000.0,
                amount=10 ** 21)
    base.update(values)
    return (token, *WINDOW, *(base[name] for name in TABLE_HEADER.split(",")[3:]))


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
    return LabeledDataset(feature_table([row for row, _ in rows]),
                          np.array([label for _, label in rows]))


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


# --- z-scoring ---------------------------------------------------------------------

def _fit(matrix: np.ndarray) -> Model:
    """A model trained on ``matrix`` with alternating labels, for its z-scoring."""
    return train_matrix(matrix, np.arange(len(matrix)) % 2,
                        tuple(f"f{i}" for i in range(matrix.shape[1])))


def test_two_point_column_population_std():
    model = _fit(np.array([[1.0], [3.0]]))
    assert model.means[0] == pytest.approx(2.0)
    assert model.stds[0] == pytest.approx(1.0)


def test_constant_column_stays_at_zero():
    model = _fit(np.array([[5.0], [5.0], [5.0]]))
    assert model.stds[0] == 0.0
    assert _zscore(np.array([[5.0]]), model.means, model.stds)[0, 0] == 0.0


def test_standardized_column_is_idempotent():
    rng = np.random.default_rng(4)
    column = rng.normal(size=(200, 1))
    first = _fit(column)
    model = _fit(_zscore(column, first.means, first.stds))
    assert model.means[0] == pytest.approx(0.0, abs=1e-12)
    assert model.stds[0] == pytest.approx(1.0, abs=1e-12)


def test_empty_matrix_rejected():
    with pytest.raises(ValueError, match="at least one row"):
        train_matrix(np.empty((0, 3)), [0, 1], ("a", "b", "c"))


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


@settings(max_examples=150, deadline=None)
@given(objectives())
def test_a_gradient_only_step_returns_no_loss_and_the_oracle_gradient(case):
    matrix, labels, lam, params = case
    step = _objective(matrix, labels, lam)
    for p in params:  # interleaved with full steps, which share the buffers
        loss, grad = step(p, False)
        _, want_grad = straight_loss_and_gradient(p, matrix, labels, lam)
        assert loss is None
        assert np.array_equal(grad, want_grad)
        assert step(p)[0] == straight_loss_and_gradient(p, matrix, labels, lam)[0]


def test_final_loss_is_the_exact_loss_at_the_final_parameters():
    rng = np.random.default_rng(22)
    matrix = rng.normal(size=(40, 3)) * 5.0 + 2.0
    labels = np.arange(40) % 2
    model = train_matrix(matrix, labels, ("a", "b", "c"), TrainConfig(max_iters=50))
    params = np.concatenate([[model.intercept], model.coefficients])
    scaled = _zscore(matrix, model.means, model.stds)
    exact, _ = straight_loss_and_gradient(params, scaled, labels.astype(float), 1.0)
    assert model.final_loss == exact


def _first_rise(history: list[float]) -> int | None:
    """The first iteration whose loss exceeds the one before by more than
    ``train_matrix``'s slack (a nan counts), or None."""
    for i in range(1, len(history)):
        previous = history[i - 1]
        if not history[i] <= previous + 1e-12 * max(1.0, abs(previous)):
            return i
    return None


@settings(max_examples=60, deadline=None)
@given(objectives(), st.one_of(st.just(1e308), st.floats(2.0, 1e308), st.floats(2.0, 60.0)),
       st.integers(0, 6))
@example(case=(np.arange(12.0).reshape(6, 2) % 5, None, 0.0, None), learning_rate=1e308,
         seed=0)  # the loss turns nan at the first step
def test_a_diverging_fit_names_the_oracle_loop_s_first_rise(case, learning_rate, seed):
    matrix, _, lam, _ = case
    assume(matrix.shape[0] >= 2)
    labels = np.arange(matrix.shape[0]) % 2
    config = TrainConfig(lam=lam, learning_rate=learning_rate, max_iters=40,
                         tolerance=1e-9, seed=seed)
    means, stds = matrix.mean(axis=0), matrix.std(axis=0)
    scaled = (matrix - means) / np.where(stds == 0.0, 1.0, stds)
    start = np.random.default_rng(seed).normal(0.0, 0.01, size=matrix.shape[1] + 1)
    names = tuple(f"f{i}" for i in range(matrix.shape[1]))
    with np.errstate(all="ignore"):
        history, _ = straight_descent(scaled, labels.astype(float), start, lam,
                                      learning_rate, config.max_iters, config.tolerance)
        rise = _first_rise(history)
        if rise is None:
            train_matrix(matrix, labels, names, config)
        else:
            with pytest.raises(TrainingError, match=f"^loss increased at iteration {rise};"):
                train_matrix(matrix, labels, names, config)


def _lipschitz(scaled: np.ndarray, lam: float) -> float:
    """``train_matrix``'s bound on the objective's Hessian over a z-scored matrix."""
    n_rows, n_feat = scaled.shape
    return 0.25 * (1.0 + float(np.vdot(scaled, scaled)) / n_rows) + lam / n_feat


@st.composite
def descent_matrices(draw):
    """(matrix, lam): 2-60 rows, 1-8 columns at scales from 1 to 1e6, with a
    constant column and a column collinear with another drawn in or not."""
    n_rows, n_feat = draw(st.integers(2, 60)), draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scales = 10.0 ** rng.uniform(0.0, 6.0, size=n_feat)
    matrix = rng.normal(size=(n_rows, n_feat)) * scales + rng.normal(size=n_feat) * scales
    if draw(st.booleans()):
        matrix[:, draw(st.integers(0, n_feat - 1))] = draw(st.floats(-1e6, 1e6))
    if n_feat >= 2 and draw(st.booleans()):
        matrix[:, 1] = matrix[:, 0] * draw(st.floats(-1e3, 1e3)) + draw(st.floats(-1e6, 1e6))
    return matrix, draw(st.one_of(st.just(0.0), st.floats(0.0, 1e3)))


@settings(max_examples=80, deadline=None)
@given(descent_matrices(), st.integers(0, 6))
def test_a_step_under_the_bound_never_raises_the_oracle_loss(case, seed):
    """Just under ``1 / L`` (the descent lemma allows up to ``2 / L``) the
    oracle loop never rises past the slack, so a fit that computes no loss
    there misses no rise, and it ends where the oracle loop does."""
    matrix, lam = case
    labels = np.arange(matrix.shape[0]) % 2
    means, stds = matrix.mean(axis=0), matrix.std(axis=0)
    scaled = _zscore(matrix, means, stds)
    config = TrainConfig(lam=lam, learning_rate=0.999 / _lipschitz(scaled, lam),
                         max_iters=60, tolerance=1e-12, seed=seed)
    start = np.random.default_rng(seed).normal(0.0, 0.01, size=matrix.shape[1] + 1)
    history, params = straight_descent(scaled, labels.astype(float), start, lam,
                                       config.learning_rate, config.max_iters,
                                       config.tolerance)
    assert _first_rise(history) is None
    model = train_matrix(matrix, labels, tuple(f"f{i}" for i in range(matrix.shape[1])),
                         config)
    assert model.intercept == params[0]
    assert np.array_equal(model.coefficients, params[1:])
    assert (model.iterations, model.final_loss) == (len(history) - 1, history[-1])


def _counting_logaddexp(monkeypatch) -> list:
    calls, logaddexp = [], np.logaddexp

    def counted(*args, **kwargs):
        calls.append(1)
        return logaddexp(*args, **kwargs)

    monkeypatch.setattr(np, "logaddexp", counted)
    return calls


def test_a_fit_under_the_bound_computes_only_the_final_loss(monkeypatch):
    calls = _counting_logaddexp(monkeypatch)
    model = train(toy_dataset(10), TrainConfig(max_iters=200))
    assert model.iterations > 0
    assert len(calls) == 1


def test_a_fit_over_the_bound_computes_the_loss_on_every_step(monkeypatch):
    dataset = toy_dataset(10)
    matrix = feature_matrix(dataset.table, VARIANTS["full"])
    bound = _lipschitz(_zscore(matrix, matrix.mean(axis=0), matrix.std(axis=0)), 1.0)
    calls = _counting_logaddexp(monkeypatch)
    # between 1/L and 2/L the loss still falls, but no bound here says so
    model = train(dataset, TrainConfig(learning_rate=1.2 / bound, max_iters=200))
    assert model.iterations > 0
    assert len(calls) == model.iterations + 2  # the start, every step, final_loss
    calls.clear()
    with pytest.raises(TrainingError, match="^loss increased at iteration 1;"):
        train(dataset, TrainConfig(learning_rate=1000.0))
    assert len(calls) == 2


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_a_matrix_with_a_non_finite_cell_is_a_training_error(bad):
    # its L is nan, which must keep the rising-loss check on
    matrix = np.arange(24.0).reshape(8, 3) % 5
    matrix[3, 1] = bad
    with np.errstate(all="ignore"), pytest.raises(
            TrainingError, match="^loss increased at iteration 1; lower the learning rate$"):
        train_matrix(matrix, np.arange(8) % 2, ("a", "b", "c"))


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
    doubled = dataset[np.tile(np.arange(len(dataset)), 2)]
    m1 = train(dataset, TrainConfig(tolerance=1e-10))
    # identical objective up to row count; same optimum
    m2_matrix = straight_feature_matrix(doubled.table, m1.feature_names)
    m2 = train_matrix(m2_matrix, doubled.labels, m1.feature_names,
                      TrainConfig(tolerance=1e-10))
    assert np.allclose(m1.coefficients, m2.coefficients, atol=1e-8)
    assert m1.intercept == pytest.approx(m2.intercept, abs=1e-8)


def test_single_class_training_is_degenerate():
    dataset = toy_dataset(10)
    only_legit = dataset[dataset.labels == 0]
    with pytest.raises(TrainingError):
        train(only_legit)


def test_unknown_variant_rejected():
    with pytest.raises(ValueError, match="unknown feature variant"):
        train(toy_dataset(10), variant="bogus")


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 60), st.integers(1, 8), st.integers(0, 2**32 - 1),
       st.sampled_from((0.0, 0.3, 1.0)))
def test_loss_history_equals_a_straight_oracle_loop(n_rows, n_feat, seed, lam):
    rng = np.random.default_rng(seed)
    matrix = rng.normal(size=(n_rows, n_feat)) * 5.0 + 2.0
    labels = np.arange(n_rows) % 2
    config = TrainConfig(lam=lam, max_iters=300, tolerance=1e-5, seed=seed % 7)
    model = train_matrix(matrix, labels, tuple(f"f{i}" for i in range(n_feat)), config)
    means, stds = matrix.mean(axis=0), matrix.std(axis=0)
    assert np.array_equal(model.means, means) and np.array_equal(model.stds, stds)
    scaled = (matrix - means) / np.where(stds == 0.0, 1.0, stds)
    start = np.random.default_rng(config.seed).normal(0.0, 0.01, size=n_feat + 1)
    history, params = straight_descent(scaled, labels.astype(float), start, lam,
                                       config.learning_rate, config.max_iters,
                                       config.tolerance)
    assert model.intercept == params[0]
    assert np.array_equal(model.coefficients, params[1:])
    assert model.iterations == len(history) - 1
    assert model.final_loss == history[-1]


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
        feature_names=("lifetime", "amount"), intercept=-0.4,
        coefficients=np.array([0.0, 0.0]),
        means=np.array([1.0, 2.0]), stds=np.array([1.0, 1.0]),
        config=TrainConfig(),
    )
    probs = predict_proba(model, feature_table([_vector("0x" + "0" * 40,
                                                        {"lifetime": 1, "amount": 2})]))
    assert probs[0] == pytest.approx(sigmoid(-0.4))


def test_probabilities_are_in_unit_interval():
    dataset = toy_dataset(20)
    model = train(dataset)
    probs = predict_proba(model, dataset.table)
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
        fv = feature_table([_vector("0x" + "9" * 40, {
            "lifetime": int(rng.uniform(0, 99_000)),
            "amount": int(rng.uniform(0, 1e22)),
            "transfer_std_dev": float(rng.uniform(0, 28_000)),
        })])
        p1 = predict_proba(model, fv)[0]
        p2 = predict_proba(loaded, fv)[0]
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
    # z-scoring sees a different amount column
    amount_idx = raw.feature_names.index("amount")
    assert raw.means[amount_idx] > 1e15
    assert logged.means[amount_idx] < 25  # log10 scale

    path = tmp_path / "logged.txt"
    save_model(logged, path)
    loaded = load_model(path)
    assert loaded.config.log_amount is True
    probs1 = predict_proba(logged, dataset.table)
    probs2 = predict_proba(loaded, dataset.table)
    assert np.allclose(probs1, probs2, atol=1e-12)
