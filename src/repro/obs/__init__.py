"""repro.obs: unified observability (tracing spans, counters, exporters).

One subsystem answers "where does the work go?" for every layer of the
incremental pipeline:

* **counters** (:func:`incr`) accumulate the paper-relevant work
  quantities -- subtrees reused vs decomposed, tokens rescanned vs
  reused, GSS forks/merges, journal records, table-cache hits -- in a
  process-wide registry;
* **spans** (:func:`span`) are hierarchical timed regions
  (``with span("doc.parse"): ...``); each completed span records wall
  time, nesting, and the *counter deltas* that occurred inside it, so a
  trace shows not just how long an incremental parse took but how much
  reuse it achieved;
* **exporters** stream completed spans out of the process: a JSON-lines
  trace file (``REPRO_TRACE=path``), logfmt on stderr
  (``REPRO_OBS=logfmt``), and the in-process registry consumed by the
  ``repro stats`` / ``repro trace`` CLI subcommands and by
  ``repro.bench.incremental``.

Everything is **off by default** and the disabled fast path is a single
module-level flag test -- `repro.bench.obs_overhead` is the bench guard
holding the disabled overhead under 3% of per-edit latency.

The subsystem also owns the formerly ad-hoc measurement code:
:mod:`repro.obs.space` (parse-DAG space accounting, re-exported by
:mod:`repro.dag`) and, in :mod:`repro.obs.core`, the Appendix-B parser
action tracer (:class:`Tracer` / :func:`format_trace`, re-exported by
:mod:`repro.parser`).  Point events (:func:`event`) share the span
stream for one-shot occurrences such as invalidation cascades.

Instrumented modules access this package by attribute
(``from .. import obs`` then ``obs.incr(...)``) so that the overhead
bench can interpose counting wrappers without code changes.
"""

from .core import (
    MAX_RECORDS,
    OBS_ENV,
    TRACE_ENV,
    SpanRecord,
    TraceEvent,
    Tracer,
    collecting,
    configure,
    counter,
    counters,
    dropped_records,
    enabled,
    event,
    flush,
    format_trace,
    gauge,
    gauges,
    incr,
    records,
    reset,
    set_gauge,
    span,
    span_summary,
)

__all__ = [
    "MAX_RECORDS",
    "OBS_ENV",
    "TRACE_ENV",
    "SpanRecord",
    "TraceEvent",
    "Tracer",
    "collecting",
    "configure",
    "counter",
    "counters",
    "dropped_records",
    "enabled",
    "event",
    "flush",
    "format_trace",
    "gauge",
    "gauges",
    "incr",
    "records",
    "reset",
    "set_gauge",
    "span",
    "span_summary",
]
