"""Forecaster families behind one contract: fit on a training series, then
produce one-step and multi-horizon forecasts.

Variants: moving average, additive Holt-Winters, linear trend (optional
seasonal dummies), and the numpy LSTM. Fits are deterministic functions of
(config, series, seed). Each variant has one one-step predictor; a fit's
in-sample `fitted` and `one_step_on` are both that predictor.
"""
from __future__ import annotations

import json
from collections.abc import Callable
from dataclasses import asdict, dataclass, field
from functools import partial
from itertools import product

import numpy as np

from . import lstm
from .errors import MissingValuesPresent, SeriesTooShort
from .series import Scaler, TimeSeries, band_stats, check_count, fit_scaler, windows

VARIANTS = ("moving_average", "holt_winters", "linear_trend", "lstm")

HW_GRID = [round(0.1 * k, 1) for k in range(1, 10)]
# The search grid {0.1..0.9}^3; its alpha, beta and gamma columns, read-only.
HW_SEARCH = tuple(product(HW_GRID, HW_GRID, HW_GRID))
HW_SEARCH_COLUMNS = np.array(HW_SEARCH).T.copy()
HW_SEARCH_COLUMNS.flags.writeable = False


@dataclass
class ForecasterConfig:
    variant: str = "holt_winters"
    ma_window: int = 3
    hw_alpha: float | None = None
    hw_beta: float | None = None
    hw_gamma: float | None = None
    hw_period: int = 24
    lt_seasonal_dummies: bool = False
    lstm_units: int = 10
    lstm_dropout: float = 0.2
    lstm_learning_rate: float = 0.01
    lstm_batch_size: int = 128
    lstm_epochs: int = 1
    lstm_num_timesteps: int = 1008
    lstm_num_chunks: int = 1
    rng_seed: int = 0

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        # a numpy integer is taken as its int, so to_json writes the same bytes
        for name, value in list(vars(self).items()):
            if isinstance(value, np.integer):
                setattr(self, name, int(value))

    def label(self) -> str:
        if self.variant == "moving_average":
            return f"moving_average(w={self.ma_window})"
        if self.variant == "holt_winters":
            return f"holt_winters(m={self.hw_period})"
        if self.variant == "linear_trend":
            return "linear_trend+dummies" if self.lt_seasonal_dummies else "linear_trend"
        return "lstm"


def _hw_initial_state(y: np.ndarray, m: int):
    level = float(y[:m].mean())
    trend = float(np.mean((y[m:2 * m] - y[:m]) / m))
    seasonals = y[:m] - y[:m].mean()  # additive seasonals sum to 0
    return level, trend, seasonals


def _hw_run(y: np.ndarray, alpha, beta, gamma, m: int, level, trend,
            S: np.ndarray, t0: int):
    """Additive Holt-Winters recurrence over y, whose first point is at time
    t0, continued from the state (level, trend, S).

    alpha/beta/gamma are floats for one parameter set, or K-vectors to
    evaluate a whole grid in one pass; S is then (m,) or (m, K), and is
    updated in place. A NaN observation carries into the state.

    Returns (one-step preds of shape S.shape[1:] + (len(y),), final level,
    final trend). The preds are a transposed view of a time-major array, one
    contiguous row per step.
    """
    preds = np.empty((len(y),) + S.shape[1:])
    keep_alpha, keep_beta, keep_gamma = 1.0 - alpha, 1.0 - beta, 1.0 - gamma
    for i, obs in enumerate(y.tolist()):
        phase = (t0 + i) % m
        seasonal = S[phase]
        smoothed = level + trend
        preds[i] = smoothed + seasonal
        prev_level = level
        level = alpha * (obs - seasonal) + keep_alpha * smoothed
        trend = beta * (level - prev_level) + keep_beta * trend
        S[phase] = gamma * (obs - level) + keep_gamma * seasonal
    return preds.T, level, trend


def _window_means(values: np.ndarray, w: int) -> np.ndarray:
    return windows(values, w).mean(axis=1)


def _lstm_one_step(params, scaler: Scaler, values: np.ndarray, T: int) -> np.ndarray:
    return scaler.invert(lstm.predict(params, windows(scaler.apply(values), T)))


def _lt_design(t: np.ndarray, m: int, dummies: bool) -> np.ndarray:
    cols = [np.ones_like(t, dtype=float), t.astype(float)]
    if dummies:
        for j in range(1, m):
            cols.append((t % m == j).astype(float))
    return np.stack(cols, axis=1)


def _lt_line(config: ForecasterConfig, coefs: np.ndarray, t: np.ndarray):
    return _lt_design(t, config.hw_period, config.lt_seasonal_dummies) @ coefs


@dataclass
class FittedForecaster:
    """A fitted forecaster as its parameters: what `forecast`, `one_step_on`
    and mean-shift scoring read, in O(parameters) whatever the training
    length.

    `fitted` (the in-sample one-step fit of the last len(fitted) training
    points) and `residual_std` (the RMS of its residuals: their spread about
    0) come from the variant's one-step predictor run over the training
    values. A fit runs that in-sample pass once, on the first read of
    either: `gatewatch forecast`, residual-mode `detect` and `model.json`
    read them, `compare` never does, so its LSTM rows run no in-sample pass.
    `fitted` is never serialized, so a loaded model has none and keeps its
    stored `residual_std`."""

    config: ForecasterConfig
    n_train: int
    history: np.ndarray       # last ma_window / lstm_num_timesteps training values
    train_mean: float         # band X and s over the training points
    train_std: float
    # (fitted, residual_std), or the fit's pending in-sample pass returning them
    in_sample: tuple[np.ndarray, float] | Callable = field(repr=False, compare=False)
    # variant state
    hw_constants: tuple[float, float, float] | None = None
    hw_state: tuple[float, float, np.ndarray] | None = None  # level, trend, seasonals
    lt_coefs: np.ndarray | None = None
    lstm_params: lstm.LstmParams | None = None
    scaler: Scaler | None = None

    @property
    def fitted(self) -> np.ndarray:
        return self._in_sample()[0]

    @property
    def residual_std(self) -> float:
        return self._in_sample()[1]

    def _in_sample(self) -> tuple[np.ndarray, float]:
        if callable(self.in_sample):
            self.in_sample = self.in_sample()   # drops what the pending pass held
        return self.in_sample

    # -- forecasting --------------------------------------------------------

    def forecast(self, horizon: int) -> list[float]:
        check_count("horizon", horizon)
        v = self.config.variant
        n = self.n_train
        if v == "moving_average":
            return [float(self.history.mean())] * horizon
        if v == "holt_winters":
            level, trend, S = self.hw_state
            m = self.config.hw_period
            return [float(level + h * trend + S[(n - 1 + h) % m])
                    for h in range(1, horizon + 1)]
        if v == "linear_trend":
            return _lt_line(self.config, self.lt_coefs, np.arange(n, n + horizon)).tolist()
        # lstm: roll forward recursively on its own predictions
        window = list(self.scaler.apply(self.history))
        out = []
        for _ in range(horizon):
            pred = float(lstm.predict(self.lstm_params, np.array([window]))[0])
            out.append(float(self.scaler.invert(np.array([pred]))[0]))
            window = window[1:] + [pred]
        return out

    def one_step_on(self, new_values: np.ndarray) -> np.ndarray:
        """Teacher-forced one-step-ahead predictions for points following the
        training range: prediction i uses training data plus new_values[:i]."""
        new_values = np.asarray(new_values, dtype=float)
        v = self.config.variant
        n = self.n_train
        hist = np.concatenate([self.history, new_values])
        if v == "moving_average":
            return _window_means(hist, self.config.ma_window)
        if v == "holt_winters":
            level, trend, S = self.hw_state
            return _hw_run(new_values, *self.hw_constants, self.config.hw_period,
                           level, trend, S.copy(), n)[0]
        if v == "linear_trend":
            return _lt_line(self.config, self.lt_coefs, np.arange(n, n + len(new_values)))
        return _lstm_one_step(self.lstm_params, self.scaler, hist,
                              self.config.lstm_num_timesteps)

    # -- serialization -------------------------------------------------------

    def to_json_obj(self) -> dict:
        params: dict = {"n_train": self.n_train, "history": self.history.tolist(),
                        "train_mean": self.train_mean, "train_std": self.train_std,
                        "residual_std": self.residual_std}
        if self.hw_constants is not None:
            level, trend, S = self.hw_state
            params.update(hw_constants=list(self.hw_constants),
                          hw_level=level, hw_trend=trend, hw_seasonals=S.tolist())
        if self.lt_coefs is not None:
            params["lt_coefs"] = self.lt_coefs.tolist()
        if self.lstm_params is not None:
            params["lstm"] = self.lstm_params.to_json_obj()
        return {
            "variant": self.config.variant,
            "config": asdict(self.config),
            "parameters": params,
            "scaler": None if self.scaler is None
            else {"min": self.scaler.min, "max": self.scaler.max},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj())

    @classmethod
    def from_json_obj(cls, obj: dict) -> "FittedForecaster":
        params = obj["parameters"]
        model = cls(config=ForecasterConfig(**obj["config"]),
                    n_train=params["n_train"],
                    history=np.array(params["history"], dtype=float),
                    train_mean=params["train_mean"], train_std=params["train_std"],
                    in_sample=(np.empty(0), params["residual_std"]))
        if "hw_constants" in params:
            model.hw_constants = tuple(params["hw_constants"])
            model.hw_state = (params["hw_level"], params["hw_trend"],
                              np.array(params["hw_seasonals"]))
        if "lt_coefs" in params:
            model.lt_coefs = np.array(params["lt_coefs"])
        if "lstm" in params:
            model.lstm_params = lstm.LstmParams.from_json_obj(params["lstm"])
        if obj["scaler"] is not None:
            model.scaler = Scaler(min=obj["scaler"]["min"], max=obj["scaler"]["max"])
        return model

    @classmethod
    def from_json(cls, text: str) -> "FittedForecaster":
        return cls.from_json_obj(json.loads(text))


def _in_sample_fit(one_step: Callable[[np.ndarray], np.ndarray],
                   y: np.ndarray) -> tuple[np.ndarray, float]:
    """(fitted, residual_std) of the in-sample one-step fit `one_step(y)`,
    which covers y[len(y) - len(fitted):]."""
    fitted = one_step(y)
    r = y[len(y) - len(fitted):] - fitted
    # Taken about 0: the residual band is centred on the forecast, so a
    # forecaster's steady bias belongs in its sigma.
    sigma = np.sqrt(np.mean(r ** 2)) if len(r) else 0.0
    return fitted, float(sigma)


def _model(config: ForecasterConfig, y: np.ndarray,
           one_step: Callable[[np.ndarray], np.ndarray], keep: int = 0,
           **state) -> FittedForecaster:
    """The model of a fit over training values y, keeping the last `keep`
    values. Its in-sample pass, `one_step` over the fit's own copy of y,
    waits for the first read of `fitted` or `residual_std`, so a caller that
    overwrites y afterwards cannot change it."""
    X, s = band_stats(y)
    y = y.copy()
    return FittedForecaster(config=config, n_train=len(y),
                            history=y[len(y) - keep:].copy(),
                            train_mean=float(X), train_std=float(s),
                            in_sample=partial(_in_sample_fit, one_step, y), **state)


def fit(config: ForecasterConfig, train: TimeSeries) -> FittedForecaster:
    """Fit one forecaster variant; deterministic given (config, train).
    Holt-Winters constants given in part, or outside [0, 1], raise
    ValueError, as does each size the variant reads (ma_window, hw_period,
    lstm_units, lstm_num_timesteps) that `series.check_count` refuses."""
    if train.has_missing():
        raise MissingValuesPresent("training series must not contain missing values")
    y = train.values
    n = len(y)
    v = config.variant

    if v == "moving_average":
        w = config.ma_window
        check_count("ma_window", w)
        if n < w + 1:
            raise SeriesTooShort(f"length {n} too short for window {w}")
        return _model(config, y, lambda y: _window_means(y, w), keep=w)

    if v == "holt_winters":
        m = config.hw_period
        check_count("hw_period", m, least=2)
        if n < 2 * m:
            raise SeriesTooShort(f"length {n} < 2 x period {m}")
        # Given constants, all three in [0, 1], are a one-member grid; with
        # none given, search {0.1..0.9}^3 for the least one-step training MSE,
        # in one pass over the grid.
        given = (config.hw_alpha, config.hw_beta, config.hw_gamma)
        if given.count(None) not in (0, 3):
            raise ValueError(f"give hw_alpha, hw_beta and hw_gamma all or none, not {given}")
        if given.count(None) == 0:
            if not all(0.0 <= c <= 1.0 for c in given):    # NaN is refused too
                raise ValueError(f"Holt-Winters constants must be in [0, 1], not {given}")
            grid = [given]
            alpha, beta, gamma = (np.array([c], dtype=float) for c in given)
        else:
            grid, (alpha, beta, gamma) = HW_SEARCH, HW_SEARCH_COLUMNS
        level, trend, seasonals = _hw_initial_state(y, m)
        S = np.tile(seasonals[:, None], (1, len(grid)))
        preds, level, trend = _hw_run(y[m:], alpha, beta, gamma, m, level, trend,
                                      S, m)
        # np.mean sums a contiguous row pairwise; over the transposed view it
        # would add in another order, and the last bits decide near-ties.
        # The copy is always made, so squaring in place leaves preds intact.
        errors = np.array(preds, order="C")
        errors -= y[m:]
        mses = np.mean(np.square(errors, out=errors), axis=1)
        best = int(np.argmin(mses))  # argmin is first-hit, so ties are stable
        fitted = preds[best].copy()    # a copy, so the model holds no grid
        return _model(config, y, lambda y: fitted, hw_constants=grid[best],
                      hw_state=(float(level[best]), float(trend[best]),
                                S[:, best].copy()))

    if v == "linear_trend":
        if n < 2:
            raise SeriesTooShort("linear trend needs at least 2 points")
        if config.lt_seasonal_dummies:
            check_count("hw_period", config.hw_period, least=2)
        X = _lt_design(np.arange(n), config.hw_period, config.lt_seasonal_dummies)
        coefs, *_ = np.linalg.lstsq(X, y, rcond=None)
        return _model(config, y, lambda y: _lt_line(config, coefs, np.arange(len(y))),
                      lt_coefs=coefs)

    # lstm
    for name in ("lstm_units", "lstm_num_timesteps"):
        check_count(name, getattr(config, name))
    T = config.lstm_num_timesteps
    if n <= T:
        raise SeriesTooShort(f"length {n} <= num_timesteps {T}")
    scaler = fit_scaler(train)
    scaled = scaler.apply(y)
    params, _ = lstm.train_chunked(
        windows(scaled, T), scaled[T:], config.lstm_units,
        num_chunks=config.lstm_num_chunks, batch_size=config.lstm_batch_size,
        epochs=config.lstm_epochs, learning_rate=config.lstm_learning_rate,
        dropout=config.lstm_dropout, seed=config.rng_seed)
    return _model(config, y, lambda y: _lstm_one_step(params, scaler, y, T), keep=T,
                  lstm_params=params, scaler=scaler)
