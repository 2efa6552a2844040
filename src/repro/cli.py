"""Command-line interface: ``python -m repro <command> ...``.

Commands:

* ``grammar LANG.g``            — table statistics and conflict report
* ``tokens LANG.g FILE``        — dump the token stream
* ``parse LANG.g FILE``         — parse; print stats, ambiguities, tree
* ``edit LANG.g FILE EDITS...`` — parse, apply edits incrementally,
  reparse after each, print per-edit work (an editor session in a can);
  each edit is ``OFFSET:LENGTH:TEXT`` (TEXT may be empty for deletion).
* ``validate LANG.g FILE [EDITS...]`` — parse (with error recovery),
  apply any edits, then check every DAG and document invariant; exits
  non-zero and prints the violations if the structure is corrupt.
* ``tables``                    — parse-table cache statistics
  (``--stats``, default) or ``--clear`` to empty the on-disk cache.
* ``stats LANG.g FILE [EDITS...]`` — run an edit session with the
  observability layer on and print every work counter (tokens rescanned
  vs reused, subtrees reused vs decomposed, journal records, cache
  hits...) plus a per-span timing summary.  ``stats --service
  HOST:PORT`` instead scrapes a running ``serve --tcp`` instance; a
  sharded server answers with the merged per-worker view (``--json``
  for the raw payload).
* ``trace LANG.g FILE [EDITS...]`` — same session, printing the
  hierarchical span trace (``--out FILE.jsonl`` also writes the
  JSON-lines trace an ambient ``REPRO_TRACE=path`` would produce).
* ``serve``                     — the multi-document analysis service:
  JSON-lines requests on stdio (default) or ``--tcp HOST:PORT``; see
  docs/SERVICE.md for the protocol, backpressure and eviction policy.
  ``--state-dir DIR`` (or ``REPRO_STATE_DIR``) makes sessions durable:
  each flush appends a log record to the session's snapshot, eviction
  and shutdown write checkpoints, and sessions rehydrate lazily after a
  restart.  ``--workers N`` shards the session pool across N worker
  processes (one core each); dead workers are respawned and their
  sessions rehydrate from the shared state dir.
* ``sessions --state-dir DIR``  — inspect a snapshot store:
  ``--list`` (default) prints every durable session; ``--gc`` removes
  quarantined files (and, with ``--max-age``, expired snapshots).
* ``faults --list``             — every registered crash point with its
  description (the registry the fault-suite coverage gate enforces).

``LANG.g`` is a grammar-DSL description (see `repro.grammar.dsl`), or
the name of a bundled language (``calc``, ``minic``, ``fullc``,
``minifortran``, ``lr2``) when no such file exists.

The global ``--profile`` flag wraps any command in cProfile and prints
the top 20 functions by cumulative time — the quickest way to see
where a slow parse actually spends its cycles.
"""

from __future__ import annotations

import argparse
import sys

from . import obs
from .dag.traversal import dump_tree
from .dag.validate import validate_document
from .language import Language
from .langs import get_language, language_names
from .tables.cache import cache_info, clear_cache
from .tables.diagnostics import conflict_report, table_summary
from .versioned.document import AnalysisReport, Document


def _load_language(path: str, method: str) -> Language:
    import os

    if not os.path.exists(path) and path in language_names():
        return get_language(path)
    with open(path, encoding="utf-8") as handle:
        return Language.from_dsl(handle.read(), method=method)


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def cmd_grammar(args: argparse.Namespace) -> int:
    language = _load_language(args.grammar, args.method)
    print(table_summary(language.table))
    print()
    print(conflict_report(language.table))
    return 0


def cmd_tokens(args: argparse.Namespace) -> int:
    language = _load_language(args.grammar, args.method)
    for token in language.lexer.lex(_read(args.file)):
        trivia = f" (after {token.trivia!r})" if token.trivia else ""
        print(f"{token.type:16s} {token.text!r}{trivia}")
    return 0


def cmd_parse(args: argparse.Namespace) -> int:
    language = _load_language(args.grammar, args.method)
    document = Document(
        language,
        _read(args.file),
        balanced_sequences=args.balanced,
    )
    report = document.parse(recover=False)
    stats = report.stats
    print(
        f"parsed: {stats.shifts} shifts, {stats.reductions} reductions, "
        f"{stats.nodes_created} nodes"
    )
    print(f"ambiguous regions: {report.ambiguous_regions}")
    if args.tree:
        print(dump_tree(document.body, max_depth=args.max_depth))
    return 0


class _UsageError(Exception):
    """A command-line argument the command cannot use (exit status 2)."""


def _parse_edit(spec: str) -> tuple[int, int, str]:
    offset, _, rest = spec.partition(":")
    length, _, text = rest.partition(":")
    try:
        return int(offset), int(length), text
    except ValueError:
        raise _UsageError(
            f"bad edit {spec!r}: expected OFFSET:LENGTH:TEXT"
        ) from None


def _edit_session(
    args: argparse.Namespace, on_parse=None
) -> tuple[Document, AnalysisReport]:
    """Parse ``args.file``, then apply each of ``args.edits`` and reparse.

    Returns the document and its last parse report.  ``on_parse(spec,
    report)`` sees every parse, the first one with ``spec`` None.  Every
    spec is checked before anything is parsed; an edit that falls
    outside the text is reported when it comes up.
    """
    edits = [(spec, _parse_edit(spec)) for spec in args.edits]
    language = _load_language(args.grammar, args.method)
    document = Document(
        language,
        _read(args.file),
        balanced_sequences=args.balanced,
    )
    report = document.parse()
    if on_parse is not None:
        on_parse(None, report)
    for spec, (offset, length, text) in edits:
        try:
            document.edit(offset, length, text)
        except ValueError as error:
            raise _UsageError(
                f"edit {spec!r}: {error} "
                f"(the text is {len(document.text)} characters)"
            ) from None
        report = document.parse()
        if on_parse is not None:
            on_parse(spec, report)
    return document, report


def cmd_edit(args: argparse.Namespace) -> int:
    def show(spec: str | None, report: AnalysisReport) -> None:
        stats = report.stats
        if spec is None:
            print(f"initial parse: {stats.shifts + stats.reductions} work")
            return
        work = stats.shifts + stats.reductions + stats.breakdowns
        status = "" if report.fully_incorporated else "  [edits deferred]"
        print(
            f"edit {spec!r}: work={work} "
            f"reused={stats.subtree_shifts}{status}"
        )

    document, _ = _edit_session(args, show)
    if args.tree:
        print(dump_tree(document.body, max_depth=args.max_depth))
    print(f"final text: {document.text!r}")
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    document, report = _edit_session(args)
    problems = validate_document(document)
    if problems:
        print(f"INVALID: {len(problems)} invariant violation(s)")
        for problem in problems:
            print(f"  {problem}")
        return 1
    status = []
    if report.error_regions:
        status.append(f"{report.error_regions} error region(s) isolated")
    if report.reverted_edits:
        status.append(f"{len(report.reverted_edits)} edit(s) reverted")
    detail = f" ({', '.join(status)})" if status else ""
    print(f"ok: version {document.version}, all invariants hold{detail}")
    return 0


def cmd_tables(args: argparse.Namespace) -> int:
    if args.clear:
        clear_cache(disk=True)
        print("table cache cleared")
        return 0
    info = cache_info()
    print(f"cache dir: {info['dir'] or '(disk cache disabled)'}")
    print(f"format: v{info['format']}")
    print(
        "this process: "
        f"{info['memory_hits']} memory hit(s), "
        f"{info['disk_hits']} disk hit(s), "
        f"{info['misses']} miss(es), "
        f"{info['stores']} store(s), "
        f"{info['disk_errors']} disk error(s), "
        f"{info['invalidations']} invalidation(s)"
    )
    print(f"in-memory entries: {info['memory_entries']}")
    # Origin breakdown: labels are "<origin>:<name>" (builtin, inline,
    # fragment), so registered built-ins and ad-hoc DSL-authored
    # grammars are reported distinctly instead of as one opaque pile.
    origins: dict[str, list[str]] = {}
    for label in info["labels"].values():
        origin, _, name = label.partition(":")
        origins.setdefault(origin or "unknown", []).append(name or label)
    for origin in sorted(origins):
        names = ", ".join(sorted(origins[origin]))
        print(f"  {origin} grammars ({len(origins[origin])}): {names}")
    entries = info["disk_entries"]
    print(f"on-disk entries: {len(entries)}")
    for entry in entries:
        label = info["labels"].get(entry["key"], "")
        tag = f"  [{label}]" if label else ""
        print(f"  {entry['key'][:16]}...  {entry['bytes']:>8d} bytes{tag}")
    return 0


def _run_observed_session(args: argparse.Namespace) -> Document:
    """Parse ``args.file`` and apply ``args.edits`` with obs collecting.

    The layer is enabled *before* the language loads so table-cache
    traffic is captured too.  An exporter configured from the
    environment (``REPRO_TRACE``/``REPRO_OBS``) is left untouched.
    """
    if not obs.enabled():
        obs.configure(enabled=True)
    return _edit_session(args)[0]


def _print_counter_groups(counters: dict, indent: str = "  ") -> None:
    group = None
    for name in sorted(counters):
        prefix = name.split(".", 1)[0] if "." in name else None
        if prefix != group and prefix is not None:
            print(f"{indent}[{prefix}]")
        group = prefix
        pad = indent + ("  " if prefix is not None else "")
        print(f"{pad}{name:32s} {counters[name]:>10d}")


def _service_stats(target: str, as_json: bool) -> int:
    """``repro stats --service HOST:PORT``: one live stats scrape.

    Works against both backends; a sharded server answers with the
    merged view (per-worker counters and collector pauses summed,
    retired lives included) plus a ``dispatcher`` section describing
    each shard.
    """
    import json
    import socket

    host, _, port = target.rpartition(":")
    try:
        with socket.create_connection(
            (host or "127.0.0.1", int(port)), timeout=10.0
        ) as sock:
            sock.sendall(b'{"id":0,"op":"stats"}\n')
            buf = b""
            while b"\n" not in buf:
                chunk = sock.recv(1 << 16)
                if not chunk:
                    break
                buf += chunk
    except (OSError, ValueError) as error:
        print(f"error: cannot reach service at {target}: {error}",
              file=sys.stderr)
        return 2
    try:
        reply = json.loads(buf.decode("utf-8").splitlines()[0])
    except (IndexError, ValueError):
        print("error: malformed stats reply", file=sys.stderr)
        return 2
    if not reply.get("ok"):
        print(f"error: {reply.get('error')}", file=sys.stderr)
        return 2
    stats = reply["stats"]
    if as_json:
        print(json.dumps(stats, indent=2, sort_keys=True))
        return 0
    dispatcher = stats.get("dispatcher")
    backend = (
        f"sharded, {stats.get('workers')} worker(s)"
        if dispatcher
        else "single-process"
    )
    print(f"service at {target} ({backend})")
    print(
        f"requests: {stats.get('requests', 0)}"
        f"  timeouts: {stats.get('timeouts', 0)}"
        f"  resident nodes: {stats.get('resident_nodes', 0)}"
    )
    sessions = stats.get("sessions") or {}
    print(f"sessions: {len(sessions)} open")
    for name in sorted(sessions):
        info = sessions[name]
        print(
            f"  {name:24s} v{info.get('version', 0):<5d} "
            f"queue={info.get('queue_depth', 0)}"
        )
    if dispatcher:
        print(
            f"dispatcher: {dispatcher.get('routed', 0)} routed, "
            f"{dispatcher.get('worker_restarts', 0)} worker restart(s), "
            f"{dispatcher.get('forward_errors', 0)} forward error(s)"
        )
        for shard in dispatcher.get("shards", []):
            state = "alive" if shard.get("alive") else "DOWN"
            print(
                f"  shard {shard['shard']}: pid {shard.get('pid')}  "
                f"gen {shard.get('generation')}  "
                f"pending {shard.get('pending')}  [{state}]"
            )
    cache = stats.get("table_cache") or {}
    if cache:
        print(
            "table cache: "
            f"{cache.get('memory_hits', 0)} memory hit(s), "
            f"{cache.get('disk_hits', 0)} disk hit(s), "
            f"{cache.get('misses', 0)} miss(es), "
            f"{cache.get('stores', 0)} store(s)"
        )
    store = stats.get("persist")
    if store:
        print(
            f"persist: {store.get('snapshots', 0)} snapshot(s) in "
            f"{store.get('dir')}  "
            f"saves={store.get('saves', 0)} loads={store.get('loads', 0)} "
            f"quarantined={store.get('quarantined', 0)} "
            f"lock_waits={store.get('lock_waits', 0)} "
            f"conflicts={store.get('save_conflicts', 0)}"
        )
    for entry in stats.get("collector") or ():
        print(
            f"collector gen {entry['generation']}: "
            f"{entry['collections']} pass(es), "
            f"{entry['collected']} collected, "
            f"{entry['pause_ms']:.1f} ms paused "
            f"(largest {entry['max_pause_ms']:.1f} ms)"
        )
    counters = stats.get("counters") or {}
    if counters:
        print("counters:")
        _print_counter_groups(counters)
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    if args.service:
        return _service_stats(args.service, args.json)
    if not args.grammar or not args.file:
        print(
            "error: stats needs GRAMMAR and FILE (or --service HOST:PORT)",
            file=sys.stderr,
        )
        return 2
    document = _run_observed_session(args)
    counters = obs.counters()
    print(
        f"session: {document.version} version(s), "
        f"{len(args.edits)} edit(s), {len(document.tokens)} tokens"
    )
    if not counters:
        print("no counters recorded")
        return 0
    print("\ncounters:")
    _print_counter_groups(counters)
    summary = obs.span_summary()
    if summary:
        print("\nspans:")
        print(f"    {'name':32s} {'calls':>7s} {'total ms':>10s} {'max ms':>10s}")
        for name in sorted(summary):
            entry = summary[name]
            print(
                f"    {name:32s} {entry['calls']:>7d} "
                f"{entry['total_s'] * 1e3:>10.3f} {entry['max_s'] * 1e3:>10.3f}"
            )
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    if args.out:
        obs.configure(enabled=True, trace_path=args.out)
    _run_observed_session(args)
    obs.flush()
    for record in obs.records():
        indent = "  " * record.depth
        line = f"{indent}{record.name} {record.duration * 1e3:.3f}ms"
        if record.attrs:
            line += " " + " ".join(
                f"{k}={v}" for k, v in record.attrs.items()
            )
        deltas = " ".join(
            f"{k}={v}" for k, v in sorted(record.deltas.items())
        )
        if deltas:
            line += f"  [{deltas}]"
        print(line)
    if obs.dropped_records():
        print(f"... {obs.dropped_records()} span(s) past the registry cap")
    if args.out:
        print(f"wrote {args.out}")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    from .service.server import serve

    return serve(args)


def cmd_sessions(args: argparse.Namespace) -> int:
    from .service.persist import SnapshotStore

    store = SnapshotStore(args.state_dir)
    if args.gc:
        result = store.gc(args.max_age)
        print(
            f"gc: removed {result['quarantined_removed']} quarantined, "
            f"{result['expired_removed']} expired"
        )
        return 0
    entries = store.entries()
    bad = store.quarantined_files()
    print(f"state dir: {store.directory}")
    print(f"{len(entries)} snapshot(s), {len(bad)} quarantined file(s)")
    for entry in entries:
        if entry.get("corrupt"):
            print(f"  {entry['file']}  CORRUPT  {entry['bytes']} bytes")
            continue
        warm = "warm" if entry["warm"] else "cold"
        print(
            f"  {entry['name']:24s} {entry['language']:10s} "
            f"v{entry['version']:<5d} {entry['text_bytes']:>8d} chars  "
            f"{entry['journal_edits']} tail edit(s), "
            f"{entry['log_records']} log record(s)  [{warm}]"
        )
    for path in bad:
        print(f"  quarantined: {path.name}")
    return 0


def cmd_faults(args: argparse.Namespace) -> int:
    # Importing the instrumented layers populates the registry: each
    # module declares its crash points at import time.
    from . import service  # noqa: F401
    from .testing.faults import registered_points
    from .versioned import document  # noqa: F401

    points = registered_points()
    print(f"{len(points)} registered crash point(s):")
    for name in sorted(points):
        print(f"  {name:28s} {points[name]}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Incremental analysis of real programming languages "
        "(Wagner & Graham, PLDI 1997)",
    )
    parser.add_argument(
        "--method",
        choices=("lalr", "slr"),
        default="lalr",
        help="LR table construction method",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="run the command under cProfile and print the top 20 "
        "functions by cumulative time",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_grammar = sub.add_parser("grammar", help="table stats and conflicts")
    p_grammar.add_argument("grammar")
    p_grammar.set_defaults(func=cmd_grammar)

    p_tokens = sub.add_parser("tokens", help="dump the token stream")
    p_tokens.add_argument("grammar")
    p_tokens.add_argument("file")
    p_tokens.set_defaults(func=cmd_tokens)

    p_parse = sub.add_parser("parse", help="parse a file")
    p_parse.add_argument("grammar")
    p_parse.add_argument("file")
    p_parse.add_argument("--tree", action="store_true")
    p_parse.add_argument("--max-depth", type=int, default=None)
    p_parse.add_argument("--balanced", action="store_true")
    p_parse.set_defaults(func=cmd_parse)

    p_edit = sub.add_parser("edit", help="incremental edit session")
    p_edit.add_argument("grammar")
    p_edit.add_argument("file")
    p_edit.add_argument(
        "edits", nargs="+", metavar="OFFSET:LENGTH:TEXT"
    )
    p_edit.add_argument("--tree", action="store_true")
    p_edit.add_argument("--max-depth", type=int, default=None)
    p_edit.add_argument("--balanced", action="store_true")
    p_edit.set_defaults(func=cmd_edit)

    p_validate = sub.add_parser(
        "validate", help="parse, edit, and check DAG invariants"
    )
    p_validate.add_argument("grammar")
    p_validate.add_argument("file")
    p_validate.add_argument(
        "edits", nargs="*", metavar="OFFSET:LENGTH:TEXT"
    )
    p_validate.add_argument("--balanced", action="store_true")
    p_validate.set_defaults(func=cmd_validate)

    p_tables = sub.add_parser(
        "tables", help="parse-table cache statistics"
    )
    p_tables.add_argument(
        "--stats", action="store_true", help="show cache statistics (default)"
    )
    p_tables.add_argument(
        "--clear", action="store_true", help="empty the on-disk cache"
    )
    p_tables.set_defaults(func=cmd_tables)

    p_stats = sub.add_parser(
        "stats", help="edit session with work counters and span timings"
    )
    p_stats.add_argument("grammar", nargs="?", default=None)
    p_stats.add_argument("file", nargs="?", default=None)
    p_stats.add_argument("edits", nargs="*", metavar="OFFSET:LENGTH:TEXT")
    p_stats.add_argument("--balanced", action="store_true")
    p_stats.add_argument(
        "--service",
        default=None,
        metavar="HOST:PORT",
        help="scrape a running `repro serve --tcp` instead of running a "
        "local session (sharded servers answer with the merged "
        "per-worker view)",
    )
    p_stats.add_argument(
        "--json", action="store_true",
        help="with --service, print the raw stats JSON",
    )
    p_stats.set_defaults(func=cmd_stats)

    p_trace = sub.add_parser(
        "trace", help="edit session printing the hierarchical span trace"
    )
    p_trace.add_argument("grammar")
    p_trace.add_argument("file")
    p_trace.add_argument("edits", nargs="*", metavar="OFFSET:LENGTH:TEXT")
    p_trace.add_argument("--balanced", action="store_true")
    p_trace.add_argument(
        "--out", default=None, help="also write a JSON-lines trace here"
    )
    p_trace.set_defaults(func=cmd_trace)

    p_serve = sub.add_parser(
        "serve", help="JSON-lines analysis service (stdio or TCP)"
    )
    p_serve.add_argument(
        "--tcp",
        default=None,
        metavar="HOST:PORT",
        help="listen on TCP instead of stdio",
    )
    p_serve.add_argument(
        "--max-sessions",
        type=int,
        default=32,
        help="open-document cap; beyond it idle LRU sessions are evicted",
    )
    p_serve.add_argument(
        "--max-nodes",
        type=int,
        default=2_000_000,
        help="total resident parse-DAG nodes across all sessions",
    )
    p_serve.add_argument(
        "--queue-limit",
        type=int,
        default=64,
        help="per-session pending requests before backpressure replies",
    )
    p_serve.add_argument(
        "--timeout",
        type=float,
        default=30.0,
        help="per-request reply deadline in seconds (0 disables)",
    )
    p_serve.add_argument(
        "--state-dir",
        default=None,
        metavar="DIR",
        help="durable session snapshots here (default: $REPRO_STATE_DIR; "
        "unset disables persistence)",
    )
    p_serve.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="shard the session pool across N worker processes "
        "(documents routed by consistent hashing; session/node limits "
        "apply per shard; default 1 = in-process)",
    )
    p_serve.set_defaults(func=cmd_serve)

    p_sessions = sub.add_parser(
        "sessions", help="inspect/garbage-collect a session snapshot store"
    )
    p_sessions.add_argument(
        "--state-dir", required=True, metavar="DIR",
        help="snapshot store directory (as passed to serve)",
    )
    p_sessions.add_argument(
        "--list", action="store_true",
        help="list durable sessions (default)",
    )
    p_sessions.add_argument(
        "--gc", action="store_true",
        help="remove quarantined files (and expired snapshots, see "
        "--max-age)",
    )
    p_sessions.add_argument(
        "--max-age", type=float, default=None, metavar="SECONDS",
        help="with --gc, also drop snapshots older than this",
    )
    p_sessions.set_defaults(func=cmd_sessions)

    p_faults = sub.add_parser(
        "faults", help="list registered crash points"
    )
    p_faults.add_argument(
        "--list", action="store_true",
        help="list every registered crash point (default)",
    )
    p_faults.set_defaults(func=cmd_faults)

    return parser


def _run_profiled(args: argparse.Namespace) -> int:
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    try:
        return profiler.runcall(args.func, args)
    finally:
        stats = pstats.Stats(profiler, stream=sys.stderr)
        stats.sort_stats("cumulative")
        print("\n-- profile (top 20 by cumulative time) --", file=sys.stderr)
        stats.print_stats(20)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.profile:
            return _run_profiled(args)
        return args.func(args)
    except (FileNotFoundError, _UsageError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
