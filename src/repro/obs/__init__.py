"""Unified observability layer: structured tracing + metrics registry.

``repro.obs`` is the one substrate every layer instruments against
(enforced by the ``tests/test_obs_lint.py`` AST lint -- no ad-hoc
``print`` / ``time.perf_counter`` timing elsewhere in ``src/repro``):

- **Tracing** (:mod:`repro.obs.trace`): ``span()`` / ``traced()`` record
  wall-time spans with parent links into a per-process ring buffer,
  exported as Chrome-trace ``trace.json`` run-dir artifacts; spans from
  sweep workers merge into the parent buffer per finished cell.  Off by
  default and zero-cost when disabled; turned on per run via
  ``TrainConfig.trace``.
- **Metrics** (:mod:`repro.obs.metrics`): process-wide counters, gauges
  and fixed-bucket histograms, snapshotted into ``metrics.json`` and
  exportable as Prometheus text.

See ``docs/OBSERVABILITY.md`` for the full tour (artifact schemas, how
to open traces in Perfetto, measured overhead).
"""

from repro.obs.trace import (
    TRACE_SCHEMA,
    DEFAULT_TRACE_CAPACITY,
    span,
    traced,
    counter_event,
    instant_event,
    set_process_label,
    enable_tracing,
    tracing_enabled,
    trace_scope,
    reset_tracing,
    current_seq,
    events_since,
    snapshot_events,
    absorb_events,
    dropped_event_count,
    chrome_trace,
    export_trace,
    validate_chrome_trace,
)
from repro.obs.metrics import (
    METRICS_SCHEMA,
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    counter,
    gauge,
    histogram,
    get_metric,
    metrics_snapshot,
    write_metrics,
    prometheus_text,
    reset_metrics,
)

__all__ = [
    # trace
    "TRACE_SCHEMA",
    "DEFAULT_TRACE_CAPACITY",
    "span",
    "traced",
    "counter_event",
    "instant_event",
    "set_process_label",
    "enable_tracing",
    "tracing_enabled",
    "trace_scope",
    "reset_tracing",
    "current_seq",
    "events_since",
    "snapshot_events",
    "absorb_events",
    "dropped_event_count",
    "chrome_trace",
    "export_trace",
    "validate_chrome_trace",
    # metrics
    "METRICS_SCHEMA",
    "DEFAULT_LATENCY_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "counter",
    "gauge",
    "histogram",
    "get_metric",
    "metrics_snapshot",
    "write_metrics",
    "prometheus_text",
    "reset_metrics",
    "console",
]


def console(message: str) -> None:
    """The sanctioned stdout sink for user-facing progress lines.

    Library code routes verbose/progress output through here instead of
    calling ``print`` directly (the obs lint bans bare ``print`` outside
    ``repro.obs`` and the CLI), keeping one interception point for
    future log routing.
    """
    print(message, flush=True)
