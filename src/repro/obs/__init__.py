"""Run-level observability: metrics registry + per-run telemetry.

Two complementary surfaces:

* :class:`~repro.obs.metrics.MetricsRegistry` — in-process counters
  and histograms that the timing simulator, the campaign runner and
  the parallel executor report into (pressure, latency, utilization —
  things that may vary run to run and machine to machine);
* :class:`~repro.obs.records.RunRecord` — the deterministic per-run
  JSONL telemetry (seed, faults, outcome, error, scheme counters),
  committed in run-index order by the execution core, whose
  byte-identity across worker counts is itself a tested invariant.

``repro stats <file>`` (see :mod:`repro.obs.summary`) summarizes a
telemetry file from the command line.

A third surface is the cycle-level trace subsystem
(:mod:`repro.obs.trace` / :mod:`repro.obs.perfetto`): a
:class:`~repro.obs.trace.TraceSession` records typed, data-object-
attributed events from an instrumented timing simulation into a
bounded ring buffer and exports them as Perfetto/Chrome
``trace_events`` JSON (``repro trace``).  :mod:`repro.obs.log` is the
CLI's verbosity-aware structured logger.
"""

from repro.obs.log import Logger, configure, get_logger
from repro.obs.metrics import Counter, Histogram, MetricsRegistry
from repro.obs.perfetto import (
    TraceExportError,
    chrome_trace,
    render_chrome_trace,
    validate_trace_events,
    validate_trace_file,
    write_chrome_trace,
)
from repro.obs.trace import (
    TRACE_CATEGORIES,
    UNATTRIBUTED,
    ObjectMap,
    ObjectTraceStats,
    TraceConfig,
    TraceEvent,
    TraceSession,
)
from repro.obs.progress import (
    PROGRESS_EVENT_VERSION,
    ProgressEvent,
    TtyProgress,
)
from repro.obs.records import (
    RUN_RECORD_VERSION,
    RunRecord,
    TelemetryError,
    TelemetryWriter,
    iter_records,
    read_records,
    validate_record,
)
from repro.obs.store import (
    STORE_SCHEMA_VERSION,
    ResultsStore,
    detect_kind,
    ingest_files,
)
from repro.obs.session import (
    SESSION_EVENT_VERSION,
    SessionEvent,
    SessionLog,
    iter_session_events,
    read_session_events,
    validate_event,
)
from repro.obs.summary import (
    GroupSummary,
    TelemetrySummary,
    summarize_file,
    summarize_records,
)

__all__ = [
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "RUN_RECORD_VERSION",
    "RunRecord",
    "TelemetryError",
    "TelemetryWriter",
    "iter_records",
    "read_records",
    "validate_record",
    "GroupSummary",
    "TelemetrySummary",
    "summarize_file",
    "summarize_records",
    "SESSION_EVENT_VERSION",
    "SessionEvent",
    "SessionLog",
    "iter_session_events",
    "read_session_events",
    "validate_event",
    "PROGRESS_EVENT_VERSION",
    "ProgressEvent",
    "TtyProgress",
    "STORE_SCHEMA_VERSION",
    "ResultsStore",
    "detect_kind",
    "ingest_files",
    "Logger",
    "configure",
    "get_logger",
    "TRACE_CATEGORIES",
    "UNATTRIBUTED",
    "ObjectMap",
    "ObjectTraceStats",
    "TraceConfig",
    "TraceEvent",
    "TraceSession",
    "TraceExportError",
    "chrome_trace",
    "render_chrome_trace",
    "validate_trace_events",
    "validate_trace_file",
    "write_chrome_trace",
]
