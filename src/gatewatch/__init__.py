"""Deterministic anomaly detection for smart-city IoT gateway telemetry.

Flow-log ingestion, seasonal forecasting, confidence-interval surge flagging,
one-shot corner-classification of event records, and a seeded attack-trace
simulator for end-to-end evaluation.
"""

from .series import TimeSeries, Scaler, DiagnosticsReport, split, sliding_windows, \
    fit_scaler, diagnose, impute_short_gaps
from .ingest import FlowRecord, IngestReport, parse_flow_csv, clean, to_series
from .forecast import ForecasterConfig, FittedForecaster, fit
from .lstm import lstm_param_count, total_param_count, LstmParams
from .detect import (Z_TABLE, z_score, confidence_interval, ConfidenceBand,
                     AnomalyAlert, mean_shift_alerts, detect_surges,
                     detect_dropout, detect_identity_flood, merge_alerts)
from .evaluate import mse, mape, compare_models, ModelReport
from .cc4 import (EventLogRecord, SymbolSchema, FieldEncoder, CC4Network,
                  symbolize, cc4_train, cc4_classify, stream_pipeline,
                  StreamConfig)
from .simulate import (SimConfig, AttackScript, DeviceSpec, LabeledTrace,
                       generate_trace, write_trace, score_detections)

__version__ = "0.1.0"
