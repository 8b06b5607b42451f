import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import examples
from gatewatch import lstm
from gatewatch.errors import NonFiniteLoss


ARRAYS = ("W", "U", "b", "dense_w")


def toy_data(n=40, t=6, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(0, 1, (n, t))
    y = X[:, -1] * 0.5 + rng.normal(0, 0.05, n)
    return X, y


def test_layer_param_count():
    assert lstm.lstm_param_count(10, 1) == 480
    assert lstm.lstm_param_count(1, 1) == 12
    assert lstm.lstm_param_count(units=3, input_dim=2) == 4 * 3 * (3 + 2 + 1)


def test_total_param_count_includes_dense_head():
    assert lstm.total_param_count(10, 1) == 491


def test_init_matches_count():
    rng = np.random.default_rng(0)
    params = lstm.LstmParams.init(10, 1, rng)
    assert params.count() == 491
    # forget-gate biases start at 1, everything else at 0
    u = params.units
    assert np.all(params.b[u:2 * u] == 1.0)
    assert np.all(params.b[:u] == 0.0)
    assert np.all(params.b[2 * u:] == 0.0)


def test_zero_learning_rate_leaves_params_unchanged():
    X, y = toy_data()
    # train_chunked draws its init first from the generator `seed` makes
    init = lstm.LstmParams.init(4, 1, np.random.default_rng(3))
    trained, _ = lstm.train_chunked(X, y, 4, learning_rate=0.0, dropout=0.0,
                                    seed=3)
    for name in ARRAYS:
        assert np.array_equal(getattr(trained, name), getattr(init, name)), name
    assert trained.dense_b == init.dense_b


def test_backward_matches_finite_differences():
    X, y = toy_data(n=5, t=4, seed=1)
    rng = np.random.default_rng(1)
    params = lstm.LstmParams.init(3, 1, rng)
    pred, cache = lstm.forward(params, X, keep_cache=True)
    grads = lstm.backward(params, cache, pred, y)

    eps = 1e-6
    for name in ("W", "U", "b", "dense_w"):
        arr = getattr(params, name)
        grad = getattr(grads, name)
        flat = arr.reshape(-1)
        for k in range(0, flat.size, max(1, flat.size // 7)):
            orig = flat[k]
            flat[k] = orig + eps
            up = lstm.mse_loss(lstm.predict(params, X), y)
            flat[k] = orig - eps
            dn = lstm.mse_loss(lstm.predict(params, X), y)
            flat[k] = orig
            numeric = (up - dn) / (2 * eps)
            assert grad.reshape(-1)[k] == pytest.approx(numeric, rel=1e-4, abs=1e-8), \
                f"{name}[{k}]"


def test_training_reduces_loss():
    X, y = toy_data(n=200, t=5, seed=2)
    params0 = lstm.LstmParams.init(6, 1, np.random.default_rng(7))
    before = lstm.mse_loss(lstm.predict(params0, X), y)
    trained, chunk_losses = lstm.train_chunked(X, y, 6, epochs=20, learning_rate=0.05,
                                               dropout=0.0, seed=7)
    after = lstm.mse_loss(lstm.predict(trained, X), y)
    assert after < before
    assert len(chunk_losses) == 20


def test_training_is_bit_deterministic():
    X, y = toy_data(n=100, t=5, seed=4)
    a, losses_a = lstm.train_chunked(X, y, 5, num_chunks=4, epochs=3,
                                     dropout=0.2, seed=11)
    b, losses_b = lstm.train_chunked(X, y, 5, num_chunks=4, epochs=3,
                                     dropout=0.2, seed=11)
    for name in ARRAYS:
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert losses_a == losses_b


def test_different_seeds_differ():
    X, y = toy_data(n=60, t=5, seed=4)
    a, _ = lstm.train_chunked(X, y, 5, seed=1)
    b, _ = lstm.train_chunked(X, y, 5, seed=2)
    assert not np.array_equal(a.W, b.W)


def test_divergence_raises_non_finite_loss():
    X, y = toy_data(n=100, t=5, seed=5)
    with np.errstate(over="ignore"), pytest.raises(NonFiniteLoss):
        lstm.train_chunked(X, y, 5, epochs=200, learning_rate=1e6, dropout=0.0,
                           seed=5)


@pytest.mark.parametrize("name, value", [
    ("batch_size", 0), ("batch_size", -1), ("num_chunks", 0), ("epochs", 0),
    ("dropout", -0.5), ("dropout", 1.0), ("dropout", float("nan")),
    ("learning_rate", -0.01), ("learning_rate", float("nan")),
    ("learning_rate", float("inf")),
])
def test_arguments_that_leave_training_untrained_or_nan_are_refused(name, value):
    X, y = toy_data(n=20, t=6, seed=7)
    with pytest.raises(ValueError, match=name):
        lstm.train_chunked(X, y, 3, seed=7, **{name: value})


def test_chunk_trace_length():
    X, y = toy_data(n=90, t=4, seed=6)
    _, chunk_losses = lstm.train_chunked(X, y, 4, num_chunks=6, epochs=3, seed=6)
    assert len(chunk_losses) == 18


def test_params_json_round_trip():
    rng = np.random.default_rng(9)
    params = lstm.LstmParams.init(4, 1, rng)
    back = lstm.LstmParams.from_json_obj(params.to_json_obj())
    for name in ARRAYS:
        assert np.array_equal(getattr(params, name), getattr(back, name)), name
    assert back.dense_b == params.dense_b


@settings(max_examples=examples(25), deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_predictions_are_bounded_by_dense_head(seed):
    # |h| <= 1 per unit, so |pred - b| <= sum |dense_w| regardless of input.
    rng = np.random.default_rng(seed)
    params = lstm.LstmParams.init(3, 1, rng)
    X = rng.normal(0, 100, (8, 6))
    pred = lstm.predict(params, X)
    bound = np.abs(params.dense_w).sum() + abs(params.dense_b) + 1e-12
    assert np.all(np.abs(pred) <= bound)


@pytest.mark.parametrize("field, value, message", [
    ("input_dim", 2, "input_dim must be 1"),
    ("units", 0, "units must be an int >= 1, not 0"),
    ("W", [[0.1, 0.2]] * 16, r"W has shape \(16, 2\), want \(16, 1\)"),
    ("U", [[0.1] * 3] * 16, r"U has shape \(16, 3\), want \(16, 4\)"),
    ("b", [0.0] * 15, r"b has shape \(15,\), want \(16,\)"),
    ("dense_w", [[0.1]] * 4, r"dense_w has shape \(4, 1\), want \(4,\)"),
    ("U", [[0.1] * 4] * 15 + [[0.1]], "U is not a numeric array"),
])
def test_params_json_with_misfit_field_is_refused(field, value, message):
    obj = lstm.LstmParams.init(4, 1, np.random.default_rng(9)).to_json_obj()
    obj[field] = value
    with pytest.raises(ValueError, match=message):
        lstm.LstmParams.from_json_obj(obj)
