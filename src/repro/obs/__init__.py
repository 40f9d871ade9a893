"""obitrace: causal tracing for the replication fault path.

The paper trades one big transfer for a *cascade* of small demand-driven
ones (get → fault → demand → splice → forward).  This package makes that
cascade observable as spans — timed, attributed, causally linked records
of each protocol step — where the aggregate counters (the
:class:`~repro.util.counters.Counters` behind ``site.fault_stats``,
``site.sync_stats`` and the rest) only say *how many* and the
frame log (:mod:`repro.simnet.trace`) only says *what moved*.

Layers:

* :mod:`repro.obs.spans` — the span model and the lock-safe per-site
  :class:`~repro.obs.spans.SpanCollector`;
* :mod:`repro.obs.context` — thread-local trace context, the
  :class:`~repro.obs.context.Tracer` sites hold, and the zero-overhead
  :data:`~repro.obs.context.NULL_TRACER` installed while tracing is off;
* :mod:`repro.obs.assemble` — stitch per-site spans into cross-site
  :class:`~repro.obs.assemble.Trace` trees;
* :mod:`repro.obs.critical_path` — longest causal chain and per-kind
  time attribution;
* :mod:`repro.obs.export` — JSON-lines and Chrome ``trace_event``
  exporters (the latter loads in Perfetto / ``chrome://tracing``);
* :mod:`repro.obs.cli` — the ``obitrace`` console script.

Tracing is opt-in per :class:`~repro.core.runtime.Site` via
``site.enable_tracing()``; the instrumented fault path costs only no-op
context managers while it is off (benchmarked in
``repro.bench.tracing_overhead``).
"""

from repro.obs.assemble import Trace, assemble_traces, gather_spans
from repro.obs.context import (
    NULL_TRACER,
    NullTracer,
    Tracer,
    activate,
    annotate,
    current,
    deactivate,
)
from repro.obs.critical_path import CriticalPath, critical_path, slow_spans, time_by_kind
from repro.obs.export import chrome_trace, to_chrome_json, to_jsonl
from repro.obs.spans import Span, SpanCollector

__all__ = [
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "SpanCollector",
    "Trace",
    "Tracer",
    "CriticalPath",
    "activate",
    "annotate",
    "assemble_traces",
    "chrome_trace",
    "critical_path",
    "current",
    "deactivate",
    "gather_spans",
    "slow_spans",
    "time_by_kind",
    "to_chrome_json",
    "to_jsonl",
]
