"""Core observability machinery: counters, spans, exporters, registry.

Design constraints, in priority order:

1. **Near-zero disabled overhead.**  Instrumentation sites are hot
   (``MutationJournal.record`` runs once per touched node); with
   observability off, :func:`incr` is one global-flag test and
   :func:`span` returns a shared no-op context manager.  No dictionary
   is touched, no object allocated.
2. **Counter deltas belong to spans.**  A span snapshots the counter
   registry on entry and attaches the difference on exit, so a trace of
   ``doc.parse`` carries exactly the reuse/rescan/journal work of that
   parse, not of the whole process.
3. **Exporters may never break the pipeline.**  Export failures are
   swallowed (and counted); a full disk must not turn into a parse
   error.

The module is deliberately single-threaded, like the analysis pipeline
it observes; the registry is process-global state guarded by no locks.
"""

from __future__ import annotations

import json
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator

TRACE_ENV = "REPRO_TRACE"
OBS_ENV = "REPRO_OBS"

# Registry cap: long editor sessions must not grow memory without bound.
# Spans past the cap are still exported and counted, just not retained.
MAX_RECORDS = 100_000

_enabled = False
_counters: dict[str, int] = {}
_gauges: dict[str, float] = {}
_records: list["SpanRecord"] = []
_span_stack: list["_Span"] = []
_exporters: list[Callable[["SpanRecord"], None]] = []
_dropped = 0
_export_errors = 0


# -- counters -----------------------------------------------------------------


def enabled() -> bool:
    """True when the observability layer is collecting."""
    return _enabled


def incr(name: str, amount: int = 1) -> None:
    """Add ``amount`` to the named counter.  No-op while disabled."""
    if not _enabled:
        return
    _counters[name] = _counters.get(name, 0) + amount


def counter(name: str) -> int:
    """Current value of one counter (0 if never incremented)."""
    return _counters.get(name, 0)


def counters() -> dict[str, int]:
    """Snapshot of the whole counter registry."""
    return dict(_counters)


# -- gauges -------------------------------------------------------------------


def set_gauge(name: str, value: float) -> None:
    """Record the current level of a fluctuating quantity.

    Unlike counters (monotonic work totals), gauges hold the *latest*
    observed value -- queue depths, resident-node totals, live session
    counts.  Spans do not diff them.  No-op while disabled.
    """
    if not _enabled:
        return
    _gauges[name] = value


def gauge(name: str) -> float:
    """Current value of one gauge (0 if never set)."""
    return _gauges.get(name, 0)


def gauges() -> dict[str, float]:
    """Snapshot of the whole gauge registry."""
    return dict(_gauges)


# -- spans --------------------------------------------------------------------


@dataclass(frozen=True)
class SpanRecord:
    """One completed span.

    ``deltas`` holds the counters that changed while the span was open
    (value = change, not absolute); ``depth``/``parent`` encode the
    nesting at entry time.
    """

    name: str
    start: float  # wall-clock (time.time) at entry
    duration: float  # seconds
    depth: int
    parent: str | None
    attrs: dict = field(default_factory=dict)
    deltas: dict = field(default_factory=dict)


class _NullSpan:
    """Shared do-nothing span handed out while disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def note(self, **attrs) -> None:
        """Ignore attributes while disabled."""


_NULL_SPAN = _NullSpan()


class _Span:
    """A live span: times the region and diffs the counter registry."""

    __slots__ = ("name", "attrs", "_wall", "_t0", "_snapshot", "_depth", "_parent")

    def __init__(self, name: str, attrs: dict) -> None:
        self.name = name
        self.attrs = attrs

    def note(self, **attrs) -> None:
        """Attach attributes to the span after entry."""
        self.attrs.update(attrs)

    def __enter__(self) -> "_Span":
        self._parent = _span_stack[-1].name if _span_stack else None
        self._depth = len(_span_stack)
        _span_stack.append(self)
        self._snapshot = dict(_counters)
        self._wall = time.time()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        duration = time.perf_counter() - self._t0
        # Exception paths can unwind several spans at once; drop anything
        # stacked above us so nesting stays consistent.
        if self in _span_stack:
            while _span_stack and _span_stack[-1] is not self:
                _span_stack.pop()
            _span_stack.pop()
        snapshot = self._snapshot
        deltas = {
            key: value - snapshot.get(key, 0)
            for key, value in _counters.items()
            if value != snapshot.get(key, 0)
        }
        record = SpanRecord(
            name=self.name,
            start=self._wall,
            duration=duration,
            depth=self._depth,
            parent=self._parent,
            attrs=self.attrs,
            deltas=deltas,
        )
        global _dropped, _export_errors
        if len(_records) < MAX_RECORDS:
            _records.append(record)
        else:
            _dropped += 1
        for export in _exporters:
            try:
                export(record)
            except Exception:
                _export_errors += 1
        return False


def span(name: str, **attrs):
    """Open a timed region.  Returns a context manager.

    While disabled, a shared no-op object is returned -- no allocation,
    no clock read.
    """
    if not _enabled:
        return _NULL_SPAN
    return _Span(name, attrs)


def event(name: str, **attrs) -> None:
    """Record a zero-duration point event into the span stream.

    Events share the span registry and exporters: they nest under
    whatever span is open (same ``depth``/``parent`` bookkeeping) but
    carry no duration and no counter deltas.  Use them for one-shot
    occurrences -- an invalidation fired, a cache evicted -- where a
    timed region would be noise.
    """
    if not _enabled:
        return
    record = SpanRecord(
        name=name,
        start=time.time(),
        duration=0.0,
        depth=len(_span_stack),
        parent=_span_stack[-1].name if _span_stack else None,
        attrs=attrs,
        deltas={},
    )
    global _dropped, _export_errors
    if len(_records) < MAX_RECORDS:
        _records.append(record)
    else:
        _dropped += 1
    for export in _exporters:
        try:
            export(record)
        except Exception:
            _export_errors += 1


# -- registry queries ---------------------------------------------------------


def records() -> list[SpanRecord]:
    """Completed spans retained in process (oldest first)."""
    return list(_records)


def dropped_records() -> int:
    """Spans finished past the :data:`MAX_RECORDS` cap."""
    return _dropped


def span_summary() -> dict[str, dict]:
    """Aggregate per span name: call count, total and max seconds."""
    summary: dict[str, dict] = {}
    for record in _records:
        entry = summary.setdefault(
            record.name, {"calls": 0, "total_s": 0.0, "max_s": 0.0}
        )
        entry["calls"] += 1
        entry["total_s"] += record.duration
        entry["max_s"] = max(entry["max_s"], record.duration)
    return summary


# -- exporters ----------------------------------------------------------------


class _JsonlExporter:
    """Append one JSON object per completed span to a file."""

    def __init__(self, path: str) -> None:
        self.path = path
        self._fh = None

    def __call__(self, record: SpanRecord) -> None:
        if self._fh is None:
            self._fh = open(self.path, "a", encoding="utf-8")
        line = {
            "span": record.name,
            "ts": record.start,
            "dur_ms": round(record.duration * 1e3, 6),
            "depth": record.depth,
            "parent": record.parent,
        }
        if record.attrs:
            line["attrs"] = record.attrs
        if record.deltas:
            line["counters"] = record.deltas
        json.dump(line, self._fh, sort_keys=True)
        self._fh.write("\n")
        self._fh.flush()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


def _logfmt_exporter(stream) -> Callable[[SpanRecord], None]:
    """logfmt lines (``span=doc.parse dur_ms=1.2 ...``) on ``stream``."""

    def export(record: SpanRecord) -> None:
        parts = [
            f"span={record.name}",
            f"dur_ms={record.duration * 1e3:.3f}",
            f"depth={record.depth}",
        ]
        if record.parent:
            parts.append(f"parent={record.parent}")
        for key, value in record.attrs.items():
            parts.append(f"{key}={value}")
        for key, value in sorted(record.deltas.items()):
            parts.append(f"{key}={value}")
        print(" ".join(parts), file=stream)

    return export


def flush() -> None:
    """Close file-backed exporters (reopened lazily on the next span)."""
    for export in _exporters:
        close = getattr(export, "close", None)
        if close is not None:
            close()


# -- configuration ------------------------------------------------------------


def configure(
    enabled: bool = True,
    trace_path: str | None = None,
    logfmt: bool = False,
    stream=None,
) -> None:
    """(Re)configure the layer; replaces any existing exporters.

    ``trace_path`` attaches a JSON-lines exporter, ``logfmt`` a logfmt
    exporter on ``stream`` (default stderr).  Passing either implies
    ``enabled=True``.
    """
    global _enabled
    flush()
    _exporters.clear()
    _enabled = bool(enabled) or trace_path is not None or logfmt
    if trace_path is not None:
        _exporters.append(_JsonlExporter(trace_path))
    if logfmt:
        _exporters.append(_logfmt_exporter(stream or sys.stderr))


def reset() -> None:
    """Zero counters and the span registry; keep enabled state/exporters."""
    global _dropped, _export_errors
    _counters.clear()
    _gauges.clear()
    _records.clear()
    _span_stack.clear()
    _dropped = 0
    _export_errors = 0


@contextmanager
def collecting() -> Iterator[dict[str, int]]:
    """Temporarily collect counters into a fresh registry.

    Enables the layer (registry only, no exporters) for the duration of
    the block and yields the live counter dict; the previous state --
    enabled flag, counters, records, exporters -- is restored on exit.
    The yielded dict remains readable after the block::

        with obs.collecting() as work:
            document.parse()
        rescans = work.get("lex.tokens_rescanned", 0)
    """
    global _enabled, _counters, _gauges, _records, _span_stack
    global _dropped, _export_errors
    saved = (
        _enabled,
        _counters,
        _gauges,
        _records,
        _span_stack,
        list(_exporters),
        _dropped,
        _export_errors,
    )
    _enabled = True
    _counters = {}
    _gauges = {}
    _records = []
    _span_stack = []
    _exporters.clear()
    _dropped = 0
    _export_errors = 0
    try:
        yield _counters
    finally:
        (
            _enabled,
            _counters,
            _gauges,
            _records,
            _span_stack,
            restored_exporters,
            _dropped,
            _export_errors,
        ) = saved
        _exporters.clear()
        _exporters.extend(restored_exporters)


# -- parser action tracing (Appendix B reproduction) --------------------------
#
# The paper's Appendix B walks through the IGLR parser's
# shift/reduce/split actions on the typedef example; a :class:`Tracer`
# attached to an ``IGLRParser(..., tracer=...)`` records the same event
# stream and :func:`format_trace` renders it in the appendix's
# ``S:``/``R:`` style.
# Unlike spans/counters, which measure *how much* work happened, the
# tracer records *which* parser actions happened in order -- a
# qualitative trace for correctness arguments, not a performance one.

# Matches repro.grammar.cfg.EPSILON; kept as a literal so the
# observability core stays free of grammar imports.
_EPSILON = "$eps"


@dataclass(frozen=True)
class TraceEvent:
    """One parser action."""

    kind: str  # shift | shift-subtree | reduce | split | accept | breakdown
    detail: str
    parsers: int  # active parser count when the event fired


@dataclass
class Tracer:
    """Collects parser events; attach via ``IGLRParser(..., tracer=...)``."""

    events: list[TraceEvent] = field(default_factory=list)

    def shift(self, symbol: str, text: str, parsers: int) -> None:
        self.events.append(
            TraceEvent("shift", f"{symbol} {text!r}", parsers)
        )

    def shift_subtree(self, symbol: str, width: int, parsers: int) -> None:
        self.events.append(
            TraceEvent(
                "shift-subtree", f"{symbol} [{width} terminals]", parsers
            )
        )

    def reduce(self, production, parsers: int) -> None:
        # ``production`` is duck-typed (needs ``.lhs``/``.rhs``) so this
        # module does not depend on repro.grammar.
        rhs = " ".join(production.rhs) if production.rhs else _EPSILON
        self.events.append(
            TraceEvent("reduce", f"{production.lhs} -> {rhs}", parsers)
        )

    def split(self, parsers: int) -> None:
        self.events.append(TraceEvent("split", f"{parsers} parsers", parsers))

    def breakdown(self, symbol: str, parsers: int) -> None:
        self.events.append(TraceEvent("breakdown", symbol, parsers))

    def accept(self) -> None:
        self.events.append(TraceEvent("accept", "", 1))

    # -- queries -----------------------------------------------------------

    def reductions(self) -> list[str]:
        return [e.detail for e in self.events if e.kind == "reduce"]

    def max_parsers(self) -> int:
        return max((e.parsers for e in self.events), default=1)

    def events_during_split(self) -> list[TraceEvent]:
        """Events fired while more than one parser was active."""
        return [e for e in self.events if e.parsers > 1]


def format_trace(tracer: Tracer) -> str:
    """Render events in the Appendix B style."""
    prefixes = {
        "shift": "S:",
        "shift-subtree": "S*",
        "reduce": "R:",
        "split": "||",
        "breakdown": "B:",
        "accept": "A:",
    }
    lines = []
    for event in tracer.events:
        marker = f" [{event.parsers} parsers]" if event.parsers > 1 else ""
        lines.append(
            f"{prefixes.get(event.kind, '??')} {event.detail}{marker}"
        )
    return "\n".join(lines)


def _init_from_env() -> None:
    """One-time activation from the environment, at import.

    ``REPRO_TRACE=path`` turns on collection and JSON-lines export;
    ``REPRO_OBS`` selects ``logfmt``/``stderr`` (logfmt on stderr) or a
    truthy value (``1``/``on``/``true``/``counters``) for registry-only
    collection.
    """
    trace = os.environ.get(TRACE_ENV)
    mode = (os.environ.get(OBS_ENV) or "").strip().lower()
    if trace:
        configure(enabled=True, trace_path=trace, logfmt=mode == "logfmt")
    elif mode in {"logfmt", "stderr"}:
        configure(enabled=True, logfmt=True)
    elif mode in {"1", "on", "true", "counters"}:
        configure(enabled=True)


_init_from_env()
