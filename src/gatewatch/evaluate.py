"""Loss metrics, the persistence baseline, and the model-comparison report."""
from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import AllTargetsZero, EmptyInput, LengthMismatch, MissingValuesPresent
from .forecast import ForecasterConfig, fit
from .series import TimeSeries, split

# Broad pattern suitability of each family, as commonly tabulated.
PATTERN_CLASS = {
    "moving_average": "Stationary",
    "holt_winters": "Seasonality and or Trend",
    "linear_trend": "Seasonality and or Trend",
    "lstm": "Any Pattern (Stationary/Seasonality)",
    "persistence": "Stationary",
}


def mse(actual, predicted) -> float:
    a = np.asarray(actual, dtype=float)
    p = np.asarray(predicted, dtype=float)
    if len(a) != len(p):
        raise LengthMismatch(f"{len(a)} vs {len(p)}")
    if len(a) == 0:
        raise EmptyInput("mse of empty inputs")
    return float(np.mean((a - p) ** 2))


def mape(actual, predicted) -> tuple[float, int]:
    """Mean absolute percentage error over nonzero targets; returns
    (percentage, count of skipped zero targets)."""
    a = np.asarray(actual, dtype=float)
    p = np.asarray(predicted, dtype=float)
    if len(a) != len(p):
        raise LengthMismatch(f"{len(a)} vs {len(p)}")
    if len(a) == 0:
        raise EmptyInput("mape of empty inputs")
    nonzero = a != 0
    skipped = int((~nonzero).sum())
    if not nonzero.any():
        raise AllTargetsZero("every target is zero")
    pct = float(np.mean(np.abs((a[nonzero] - p[nonzero]) / a[nonzero])) * 100.0)
    return pct, skipped


@dataclass
class ModelRow:
    name: str
    pattern_class: str
    train_len: int
    test_mse: float | None
    test_mape_pct: float | None
    mape_skipped_zero_targets: int
    fit_seconds: float
    error: str | None = None

    def to_json_obj(self) -> dict:
        return asdict(self)


@dataclass
class ModelReport:
    rows: list[ModelRow] = field(default_factory=list)
    ranking: list[str] = field(default_factory=list)

    def row(self, name: str) -> ModelRow:
        for r in self.rows:
            if r.name == name:
                return r
        raise KeyError(name)

    def to_json_obj(self) -> dict:
        return {"rows": [r.to_json_obj() for r in self.rows], "ranking": self.ranking}

    def to_text_table(self) -> str:
        headers = ["model", "pattern", "train_len", "test_mse", "test_mape_%",
                   "skipped0", "fit_s"]
        body = []
        for r in self.rows:
            body.append([
                r.name, r.pattern_class, str(r.train_len),
                "-" if r.test_mse is None else f"{r.test_mse:.6g}",
                "-" if r.test_mape_pct is None else f"{r.test_mape_pct:.2f}",
                str(r.mape_skipped_zero_targets),
                f"{r.fit_seconds:.3f}",
            ])
        widths = [max(len(h), *(len(row[i]) for row in body)) if body else len(h)
                  for i, h in enumerate(headers)]
        lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths))]
        lines.append("  ".join("-" * w for w in widths))
        for row in body:
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
        lines.append("ranking: " + " < ".join(self.ranking))
        return "\n".join(lines)


def _score_row(name: str, pattern: str, config: ForecasterConfig,
               train: TimeSeries, test: TimeSeries) -> ModelRow:
    t0 = time.perf_counter()
    try:
        model = fit(config, train)
        preds = model.one_step_on(test.values)
        elapsed = time.perf_counter() - t0
        row_mse = mse(test.values, preds)
        try:
            pct, skipped = mape(test.values, preds)
        except AllTargetsZero:
            pct, skipped = None, len(test)
        return ModelRow(name=name, pattern_class=pattern, train_len=len(train),
                        test_mse=row_mse, test_mape_pct=pct,
                        mape_skipped_zero_targets=skipped,
                        fit_seconds=elapsed)
    except Exception as exc:  # per-model failure is recorded, not fatal
        return ModelRow(name=name, pattern_class=pattern, train_len=len(train),
                        test_mse=None, test_mape_pct=None,
                        mape_skipped_zero_targets=0,
                        fit_seconds=time.perf_counter() - t0,
                        error=f"{type(exc).__name__}: {exc}")


def compare_models(configs: list[ForecasterConfig], series: TimeSeries,
                   train_fraction: float) -> ModelReport:
    """Fit every config on the chronological train split and score one-step
    ahead on the test split; the persistence baseline is always appended. A
    split with a missing point, which no forecaster fits or scores, raises
    MissingValuesPresent before any fit."""
    train, test = split(series, train_fraction)
    for name, part in (("training", train), ("test", test)):
        if part.missing.any():
            raise MissingValuesPresent(f"{name} series must not contain missing values")
    report = ModelReport()
    for config in configs:
        report.rows.append(_score_row(config.label(), PATTERN_CLASS[config.variant],
                                      config, train, test))
    persistence = ForecasterConfig(variant="moving_average", ma_window=1)
    report.rows.append(_score_row("persistence", PATTERN_CLASS["persistence"],
                                  persistence, train, test))
    scored = [r for r in report.rows if r.test_mse is not None]
    report.ranking = [r.name for r in sorted(scored, key=lambda r: (r.test_mse, r.name))]
    return report
