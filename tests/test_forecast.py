import json
import math
import re
from dataclasses import replace
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import examples
from gatewatch import cli, forecast as fc
from gatewatch.errors import MissingValuesPresent, SeriesTooShort
from gatewatch.series import TimeSeries, band_stats


def make(values, interval=3600.0):
    return TimeSeries.from_values(values, interval_seconds=interval)


def sine(cycles=10, period=24, amp=1.0, noise=0.0, seed=0):
    t = np.arange(cycles * period)
    y = amp * np.sin(2 * np.pi * t / period)
    if noise:
        y = y + np.random.default_rng(seed).normal(0, noise, len(t))
    return make(y)


CONSTANT_CONFIGS = [
    fc.ForecasterConfig(variant="moving_average", ma_window=3),
    fc.ForecasterConfig(variant="holt_winters", hw_period=4,
                        hw_alpha=0.5, hw_beta=0.2, hw_gamma=0.3),
    fc.ForecasterConfig(variant="linear_trend"),
    fc.ForecasterConfig(variant="lstm", lstm_num_timesteps=4, lstm_dropout=0.0),
]


@pytest.mark.parametrize("config", CONSTANT_CONFIGS,
                         ids=[c.variant for c in CONSTANT_CONFIGS])
def test_constant_series_is_a_fixed_point(config):
    model = fc.fit(config, make([7.0] * 20))
    assert np.allclose(model.fitted, 7.0)
    assert model.residual_std == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(model.forecast(5), 7.0)


def test_holt_winters_nails_exact_periodicity():
    series = sine(cycles=10, period=24)
    model = fc.fit(fc.ForecasterConfig(variant="holt_winters", hw_period=24), series)
    post_warmup = series.values[len(series) - len(model.fitted):]
    post_warmup_mse = float(np.mean((post_warmup - model.fitted) ** 2))
    assert post_warmup_mse < 1e-6 * series.values.var()


def test_holt_winters_seasonals_sum_to_zero_at_init():
    y = sine(cycles=4, period=12).values
    _, _, seasonals = fc._hw_initial_state(y, 12)
    assert abs(seasonals.sum()) < 1e-9


def test_moving_average_flat_forecast():
    model = fc.fit(fc.ForecasterConfig(variant="moving_average", ma_window=3),
                   make([1.0, 2.0, 4.0, 6.0]))
    assert model.forecast(2) == [4.0, 4.0]


def test_moving_average_persistence():
    model = fc.fit(fc.ForecasterConfig(variant="moving_average", ma_window=1),
                   make([1.0, 2.0, 9.0]))
    assert model.forecast(3) == [9.0, 9.0, 9.0]


def test_linear_trend_exact_on_line():
    t = np.arange(50)
    model = fc.fit(fc.ForecasterConfig(variant="linear_trend"), make(2.0 * t + 1.0))
    preds = np.array(model.forecast(5))
    truth = 2.0 * np.arange(50, 55) + 1.0
    assert np.max(np.abs(preds - truth)) < 1e-9


def test_lstm_parameter_count_matches_accounting():
    config = fc.ForecasterConfig(variant="lstm", lstm_num_timesteps=6,
                                 lstm_units=10)
    model = fc.fit(config, sine(cycles=2, period=12))
    assert model.lstm_params.count() == 491


def test_fit_rejects_missing_values():
    with pytest.raises(MissingValuesPresent):
        fc.fit(fc.ForecasterConfig(variant="moving_average"),
               make([1.0, None, 3.0]))


def test_length_requirements():
    with pytest.raises(SeriesTooShort):
        fc.fit(fc.ForecasterConfig(variant="holt_winters", hw_period=24),
               make(list(range(30))))
    with pytest.raises(SeriesTooShort):
        fc.fit(fc.ForecasterConfig(variant="lstm", lstm_num_timesteps=48),
               make(list(range(40))))


@pytest.mark.parametrize("constants, message", [
    ((0.9, None, None), "all or none"), ((None, 0.2, 0.3), "all or none"),
    ((5.0, 0.1, 0.1), r"in \[0, 1\]"), ((0.5, -0.1, 0.3), r"in \[0, 1\]"),
    ((0.5, 0.2, math.nan), r"in \[0, 1\]"), ((math.inf, 0.2, 0.3), r"in \[0, 1\]")],
    ids=["alpha-only", "alpha-missing", "above-one", "negative", "nan", "inf"])
def test_holt_winters_constants_it_would_misuse_are_refused(constants, message):
    # Each would be misused: a part given searched over silently, alpha = 5
    # a residual_std of 6.8e136, and a NaN constant NaN forecasts.
    alpha, beta, gamma = constants
    config = fc.ForecasterConfig(variant="holt_winters", hw_period=4,
                                 hw_alpha=alpha, hw_beta=beta, hw_gamma=gamma)
    with pytest.raises(ValueError, match=message):
        fc.fit(config, sine(cycles=4, period=4, noise=0.1))


def test_holt_winters_constants_at_the_ends_of_zero_one_are_taken():
    config = fc.ForecasterConfig(variant="holt_winters", hw_period=4,
                                 hw_alpha=1.0, hw_beta=0.0, hw_gamma=1.0)
    model = fc.fit(config, sine(cycles=4, period=4, noise=0.1))
    assert model.hw_constants == (1.0, 0.0, 1.0)
    assert np.isfinite(model.forecast(4)).all()


@pytest.mark.parametrize("field, value", [
    ("lstm_units", 0), ("lstm_units", -2), ("lstm_units", 2.5),
    ("lstm_num_timesteps", 0), ("lstm_num_timesteps", -1)])
def test_lstm_sizes_that_are_not_positive_ints_are_refused(field, value):
    # Zero units would divide by zero, zero timesteps train on empty
    # windows, and a negative size fail inside numpy.
    config = replace(fc.ForecasterConfig(variant="lstm", lstm_num_timesteps=4),
                     **{field: value})
    with pytest.raises(ValueError, match=f"{field} must be an int >= 1, not {value}"):
        fc.fit(config, sine(cycles=2, period=12))


def test_fit_is_deterministic():
    series = sine(cycles=3, period=24, noise=0.1)
    config = fc.ForecasterConfig(variant="lstm", lstm_num_timesteps=8, rng_seed=5)
    m1 = fc.fit(config, series)
    m2 = fc.fit(config, series)
    assert np.array_equal(m1.lstm_params.W, m2.lstm_params.W)
    assert m1.forecast(4) == m2.forecast(4)


@pytest.mark.parametrize("config", CONSTANT_CONFIGS,
                         ids=[c.variant for c in CONSTANT_CONFIGS])
def test_serialization_round_trip_is_bit_identical(config):
    series = sine(cycles=3, period=8, noise=0.05)
    model = fc.fit(config, series)
    loaded = fc.FittedForecaster.from_json(model.to_json())
    assert loaded.forecast(6) == model.forecast(6)
    assert loaded.to_json() == model.to_json()


def test_model_json_does_not_grow_with_the_training_length():
    # A fitted model is its parameters: 240 and 2,400 training points give
    # the same keys and list lengths, and texts that differ only in the
    # digits of their numbers.
    texts = [fc.fit(fc.ForecasterConfig(variant="holt_winters", hw_period=24),
                    sine(cycles=cycles, period=24, noise=0.1, seed=3)).to_json()
             for cycles in (10, 100)]
    number = r"-?\d+(\.\d+)?(e[-+]?\d+)?"
    assert re.sub(number, "0", texts[0]) == re.sub(number, "0", texts[1])
    params = json.loads(texts[1])["parameters"]
    assert "train_values" not in params and params["n_train"] == 2400
    assert all(len(texts[k]) < 2048 for k in (0, 1))


def test_one_step_on_continues_the_recurrence():
    series = sine(cycles=10, period=24)
    train_vals = series.values[:192]
    test_vals = series.values[192:]
    model = fc.fit(fc.ForecasterConfig(variant="holt_winters", hw_period=24),
                   make(train_vals))
    preds = model.one_step_on(test_vals)
    assert np.max(np.abs(preds - test_vals)) < 1e-9


@settings(max_examples=examples(60), deadline=None)
@given(period=st.integers(2, 8), extra=st.integers(0, 20),
       k=st.integers(1, 30), seed=st.integers(0, 2**32 - 1),
       constants=st.tuples(*[st.sampled_from(fc.HW_GRID)] * 3))
def test_one_step_on_is_the_fit_recurrence_continued(period, extra, k, seed,
                                                     constants):
    # Fitting and scoring share one recurrence: scoring new points from the
    # saved state gives, bit for bit, the one-step fits over train + new.
    rng = np.random.default_rng(seed)
    y = rng.normal(0, 1, 2 * period + extra + k).cumsum()
    alpha, beta, gamma = constants
    config = fc.ForecasterConfig(variant="holt_winters", hw_period=period,
                                 hw_alpha=alpha, hw_beta=beta, hw_gamma=gamma)
    n = len(y) - k
    scored = fc.fit(config, make(y[:n])).one_step_on(y[n:])
    whole = fc.fit(config, make(y)).fitted
    assert scored.tolist() == whole[-k:].tolist()


def test_hw_grid_rows_equal_single_parameter_runs():
    # The grid search and the single fit run the same recurrence, on
    # K-vectors and on floats; each grid row must be that fit's predictions.
    y = sine(cycles=6, period=8, noise=0.3).values
    combos = [(0.1, 0.1, 0.1), (0.5, 0.2, 0.3), (0.9, 0.9, 0.9), (0.3, 0.7, 0.1)]
    alpha, beta, gamma = (np.array(c) for c in zip(*combos))
    level, trend, S = fc._hw_initial_state(y, 8)
    grid, _, _ = fc._hw_run(y[8:], alpha, beta, gamma, 8, level, trend,
                            np.tile(S[:, None], (1, len(combos))), 8)
    for row, constants in zip(grid, combos):
        single, _, _ = fc._hw_run(y[8:], *constants, 8, level, trend, S.copy(), 8)
        assert row.tolist() == single.tolist()


REWIND_CONFIGS = CONSTANT_CONFIGS + [
    fc.ForecasterConfig(variant="moving_average", ma_window=1),
    fc.ForecasterConfig(variant="moving_average", ma_window=12),
    fc.ForecasterConfig(variant="holt_winters", hw_period=8),
    fc.ForecasterConfig(variant="linear_trend", lt_seasonal_dummies=True, hw_period=8),
]


@pytest.mark.parametrize("config", REWIND_CONFIGS, ids=[c.label() for c in REWIND_CONFIGS])
def test_in_sample_fit_is_the_one_step_predictor(config):
    # A model rewound to where its in-sample fit starts (the state and the
    # history it had there) predicts, bit for bit, its own `fitted`.
    y = sine(cycles=6, period=8, amp=40.0, noise=3.0, seed=4).values
    model = fc.fit(config, make(y))
    warm = len(y) - len(model.fitted)
    state = {}
    if model.hw_state is not None:
        state["hw_state"] = fc._hw_initial_state(y, config.hw_period)
    rewound = replace(model, n_train=warm,
                      history=y[warm - len(model.history):warm], **state)
    assert rewound.one_step_on(y[warm:]).tolist() == model.fitted.tolist()


LSTM_SIZES = {"variant": "lstm", "lstm_units": 2, "lstm_num_timesteps": 4,
              "lstm_batch_size": 8, "lstm_epochs": 2, "lstm_num_chunks": 2, "rng_seed": 5}
# Each int field of ForecasterConfig that a fit reads, with a config that reads it.
INT_FIELDS = [
    ("ma_window", {"variant": "moving_average", "ma_window": 3}),
    ("hw_period", {"variant": "holt_winters", "hw_period": 4}),
    ("hw_period", {"variant": "linear_trend", "lt_seasonal_dummies": True, "hw_period": 4}),
    *((name, LSTM_SIZES) for name in LSTM_SIZES if name != "variant"),
]


@pytest.mark.parametrize("name, kwargs", INT_FIELDS,
                         ids=[f"{kw['variant']}-{name}" for name, kw in INT_FIELDS])
def test_a_numpy_integer_size_writes_the_model_json_of_its_int(name, kwargs):
    # A numpy integer used to stay in the config, and json.dumps refused it.
    series = sine(cycles=3, period=8, amp=5.0, noise=0.5, seed=2)
    as_int = fc.fit(fc.ForecasterConfig(**kwargs), series).to_json()
    numpy_kwargs = {**kwargs, name: np.int64(kwargs[name])}
    assert fc.fit(fc.ForecasterConfig(**numpy_kwargs), series).to_json() == as_int


def test_persistence_fit_is_the_previous_value():
    y = np.random.default_rng(8).normal(100.0, 30.0, 500)
    model = fc.fit(fc.ForecasterConfig(variant="moving_average", ma_window=1), make(y))
    assert model.fitted.tolist() == y[:-1].tolist()


def test_window_means_match_the_per_window_loop():
    values = np.random.default_rng(2).normal(0.0, 1e3, 600)
    for w in range(1, 301):
        assert fc._window_means(values, w).tolist() == \
            [values[i:i + w].mean() for i in range(len(values) - w)], w


@pytest.mark.parametrize("config", [
    fc.ForecasterConfig(variant="moving_average", ma_window=1),
    fc.ForecasterConfig(variant="moving_average", ma_window=3),
    fc.ForecasterConfig(variant="linear_trend"),
], ids=["ma1", "ma3", "linear_trend"])
def test_residual_std_is_never_nan(config):
    # On a ramp the residuals are (nearly) constant; sigma, taken about 0, is
    # their size, never NaN.
    t = np.arange(60)
    for k in range(1, 400):
        sigma = fc.fit(config, make(0.1 * k * t + 3.7)).residual_std
        assert math.isfinite(sigma) and sigma >= 0.0, k


def ref_hw_run(y, alpha, beta, gamma, m, level, trend, S, t0):
    """The recurrence before it wrote time-major rows: one column per step."""
    preds = np.empty(S.shape[1:] + (len(y),))
    for i, obs in enumerate(y.tolist()):
        phase = (t0 + i) % m
        seasonal = S[phase]
        preds[..., i] = level + trend + seasonal
        prev_level = level
        level = alpha * (obs - seasonal) + (1.0 - alpha) * (level + trend)
        trend = beta * (level - prev_level) + (1.0 - beta) * trend
        S[phase] = gamma * (obs - level) + (1.0 - gamma) * seasonal
    return preds, level, trend


def ref_hw_fit(config, y):
    """Select the constants on the grid, then rerun the chosen ones on floats:
    the Holt-Winters fit before the grid run kept its best column."""
    m = config.hw_period
    given = (config.hw_alpha, config.hw_beta, config.hw_gamma)
    if all(c is not None for c in given):
        alpha, beta, gamma = given
    else:
        combos = list(product(fc.HW_GRID, fc.HW_GRID, fc.HW_GRID))
        a, b, g = (np.array(c) for c in zip(*combos))
        level, trend, seasonals = fc._hw_initial_state(y, m)
        S = np.tile(seasonals[:, None], (1, len(combos)))
        preds, _, _ = ref_hw_run(y[m:], a, b, g, m, level, trend, S, m)
        mses = np.mean((preds - y[m:]) ** 2, axis=1)
        alpha, beta, gamma = combos[int(np.argmin(mses))]
    level, trend, S = fc._hw_initial_state(y, m)
    preds, level, trend = ref_hw_run(y[m:], alpha, beta, gamma, m, level, trend, S, m)
    return ref_model(config, y, preds, hw_constants=(alpha, beta, gamma),
                     hw_state=(float(level), float(trend), S))


def ref_model(config, y, fitted, keep=0, **state):
    """`forecast._model` when every fit ran its in-sample pass at once: the
    model of a fit over y whose one-step fit `fitted` covers its last
    len(fitted) values."""
    r = y[len(y) - len(fitted):] - fitted
    sigma = np.sqrt(np.mean(r ** 2)) if len(r) else 0.0
    X, s = band_stats(y)
    return fc.FittedForecaster(config=config, n_train=len(y),
                               history=y[len(y) - keep:].copy(),
                               train_mean=float(X), train_std=float(s),
                               in_sample=(fitted, float(sigma)), **state)


def ref_eager(model, y):
    """The model of `model`'s fit over y with its in-sample pass run at once,
    by the variant's one-step predictor on the fit's parameters."""
    config = model.config
    if config.variant == "moving_average":
        w = config.ma_window
        return ref_model(config, y, fc._window_means(y, w), keep=w)
    if config.variant == "holt_winters":
        return ref_hw_fit(config, y)
    if config.variant == "linear_trend":
        coefs = model.lt_coefs
        return ref_model(config, y, fc._lt_line(config, coefs, np.arange(len(y))),
                         lt_coefs=coefs)
    T = config.lstm_num_timesteps
    return ref_model(config, y, fc._lstm_one_step(model.lstm_params, model.scaler, y, T),
                     keep=T, lstm_params=model.lstm_params, scaler=model.scaler)


def test_the_grid_search_builds_no_grid(monkeypatch):
    # {0.1..0.9}^3 and its columns are built once, read-only, not on every fit
    assert fc.HW_SEARCH == tuple(product(fc.HW_GRID, fc.HW_GRID, fc.HW_GRID))
    assert fc.HW_SEARCH_COLUMNS.tolist() == [list(c) for c in zip(*fc.HW_SEARCH)]
    with pytest.raises(ValueError, match="read-only"):
        fc.HW_SEARCH_COLUMNS[0, 0] = 0.5
    monkeypatch.setattr(fc, "product", None)
    model = fc.fit(fc.ForecasterConfig(variant="holt_winters", hw_period=4),
                   sine(cycles=4, period=4, noise=0.1))
    assert model.hw_constants in fc.HW_SEARCH


@pytest.mark.parametrize("period", [2, 4, 12, 24])
@pytest.mark.parametrize("constants", [None, (0.3, 0.1, 0.7), (0.15, 0.05, 0.9)])
@pytest.mark.parametrize("seed", range(4))
def test_hw_fit_equals_select_then_rerun(period, constants, seed):
    # The one grid run gives, bit for bit, what choosing the constants and
    # fitting them again gave: constants, fit, state, model.json and scoring.
    # Seed 0 is a flat series, on which all 729 grid members tie at MSE 0.
    rng = np.random.default_rng(seed)
    n = 2 * period + int(rng.integers(0, 6 * period))
    t = np.arange(n)
    y = (rng.uniform(10, 100) + rng.uniform(1, 20) * np.sin(2 * np.pi * t / period)
         + rng.uniform(-0.2, 0.2) * t + rng.normal(0, rng.uniform(0.1, 5), n))
    if seed == 0:
        y = np.zeros(n)
    alpha, beta, gamma = constants or (None, None, None)
    config = fc.ForecasterConfig(variant="holt_winters", hw_period=period,
                                 hw_alpha=alpha, hw_beta=beta, hw_gamma=gamma)
    model, want = fc.fit(config, make(y)), ref_hw_fit(config, y)
    assert model.hw_constants == want.hw_constants
    assert model.fitted.tolist() == want.fitted.tolist()
    level, trend, S = model.hw_state
    assert (level, trend, S.tolist()) == (want.hw_state[0], want.hw_state[1],
                                          want.hw_state[2].tolist())
    assert model.to_json() == want.to_json()
    new = np.r_[rng.normal(y.mean(), y.std(), 5), np.nan, rng.normal(y.mean(), 1, 3)]
    assert model.one_step_on(new).tobytes() == want.one_step_on(new).tobytes()


@pytest.mark.parametrize("overwrite", [False, True], ids=["kept", "overwritten"])
@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("config", REWIND_CONFIGS, ids=[c.label() for c in REWIND_CONFIGS])
def test_the_deferred_in_sample_pass_equals_the_eager_one(config, seed, overwrite):
    # The in-sample pass waits for the first read of fitted or residual_std,
    # runs on the fit's own copy of the training values (so a caller that
    # reuses its buffer first changes nothing) and is then dropped.
    y = sine(cycles=6, period=8, amp=40.0, noise=3.0, seed=seed).values
    train = make(y)
    model = fc.fit(replace(config, rng_seed=seed), train)
    want = ref_eager(model, y)
    if overwrite:
        train.values[:] = -1.0
    assert callable(model.in_sample)
    assert model.fitted.tobytes() == want.fitted.tobytes()
    assert not callable(model.in_sample)
    assert model.residual_std == want.residual_std
    assert model.to_json() == want.to_json()


def test_gatewatch_forecast_writes_the_bytes_of_the_eager_pass(tmp_path, monkeypatch):
    # LSTM outputs depend on the BLAS build, so no golden pins them: the
    # deferred pass is checked against the eager one in one process.
    path = tmp_path / "s.json"
    path.write_text(sine(cycles=4, period=24, amp=5.0, noise=0.5, seed=6).to_json(),
                    encoding="utf-8")
    argv = ["forecast", "--input", str(path), "--model", "lstm",
            "--lstm-num-timesteps", "24", "--seed", "11", "--out"]
    assert cli.main(argv + [str(tmp_path / "deferred")]) == 0
    fit = cli.fit
    monkeypatch.setattr(cli, "fit", lambda config, train: ref_eager(fit(config, train),
                                                                    train.values))
    assert cli.main(argv + [str(tmp_path / "eager")]) == 0
    for name in ("forecast.json", "model.json", "forecast.csv"):
        assert (tmp_path / "deferred" / name).read_bytes() == \
            (tmp_path / "eager" / name).read_bytes(), name
