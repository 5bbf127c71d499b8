"""Observability layer: span tracing, metrics, structured logging.

The DSE pipeline applies the paper's measurement discipline to itself:
just as Eqs 1-2 decompose a chip's gain into CMOS- and specialization-
driven parts, this package decomposes a run's wall time into named stages
(schedule, evaluate, cache traffic) so the next optimisation round starts
from measurements instead of guesses.

Three cooperating modules:

* :mod:`repro.obs.trace` — nested spans with monotonic timestamps and
  process/thread ids, exportable as Chrome trace-event JSON (open the
  file in Perfetto or ``chrome://tracing``).  Worker processes record
  their own spans, which the engine ships back with chunk results and
  merges into the parent trace.  Spans are the only per-stage clock;
  :meth:`Tracer.stage_rows` adds them up into self times.
* :mod:`repro.obs.metrics` — a process-wide registry of named counters,
  gauges, and latency histograms.  Cache hit/miss/write/drop counts,
  each engine operation's wall time and serve latencies are published
  here; ``repro stats`` renders the snapshot.
* :mod:`repro.obs.log` — ``key=value`` structured logging on ``repro.*``
  loggers, configured once from the CLI ``-v``/``-vv`` flags.

All three are dormant by default: no tracer installed means ``span()``
is a reusable no-op, metrics are plain in-process integers, and loggers
propagate to whatever the host application configured.
"""

from repro.obs.log import configure_logging, get_logger, kv, set_log_run_id
from repro.obs.metrics import Histogram, MetricsRegistry, metrics, reset_metrics
from repro.obs.trace import (
    Span,
    Tracer,
    current_trace_id,
    get_tracer,
    new_trace_id,
    parse_traceparent,
    set_tracer,
    span,
    trace_id_from_headers,
    trace_scope,
)

__all__ = [
    "Histogram",
    "MetricsRegistry",
    "Span",
    "Tracer",
    "configure_logging",
    "current_trace_id",
    "get_logger",
    "get_tracer",
    "kv",
    "metrics",
    "new_trace_id",
    "parse_traceparent",
    "reset_metrics",
    "set_log_run_id",
    "set_tracer",
    "span",
    "trace_id_from_headers",
    "trace_scope",
]
