"""Panic-mode error isolation for batch parses (paper section 4.3).

History-sensitive recovery reverts recent edits when a *previously valid*
document stops parsing.  A document that has never parsed -- or whose
errors the user chooses to keep -- needs a different degradation: the
paper's environment "leaves program errors in place indefinitely", which
requires committing a tree even for malformed input.

This module supplies that: :func:`parse_tolerant` drives an underlying
batch parse callable and, on a syntax error, isolates the offending
input stretch inside an :class:`~repro.dag.nodes.ErrorNode` while
salvaging well-formed structure on both sides:

1. parse the remaining input as a complete sentence; on success the
   segment is finished;
2. on an error at terminal *i*, search backwards (within a bounded
   window) for the longest prefix that forms a complete sentence --
   that prefix becomes a salvaged subtree;
3. skip one terminal into the current error run and repeat.

Every terminal ends up in the result exactly once -- inside a salvaged
subtree or inside an error region -- so the committed tree always covers
the whole token stream and incremental reparsing (and a later fix-up
edit) proceeds normally.  Work is bounded by an attempt budget: when an
adversarial input exhausts it, the rest of the stream degrades into one
final error region (bounded response in the sense of Wirén, rather than
unbounded search).
"""

from __future__ import annotations

from typing import Callable, Sequence

from ..dag.nodes import NO_STATE, ErrorNode, Node, TerminalNode
from ..lexing.tokens import EOS, Token
from .iglr import ParseError, ParseResult, ParseStats

# How far back from the error point the prefix search looks for a
# completable sentence.  Errors are detected at bounded distance from
# their cause in LR parsing, so a small window suffices in practice.
PREFIX_WINDOW = 48

# Total sub-parse budget per tolerant parse.  Clean error-free suffixes
# cost one attempt; each garbage terminal costs about one more.
MAX_ATTEMPTS = 160

ParseFn = Callable[[list[TerminalNode]], ParseResult]


def _merge_stats(total: ParseStats, part: ParseStats) -> None:
    total.shifts += part.shifts
    total.subtree_shifts += part.subtree_shifts
    total.reductions += part.reductions
    total.nodes_created += part.nodes_created
    total.nodes_reused += part.nodes_reused
    total.breakdowns += part.breakdowns
    total.rounds += part.rounds
    total.parser_splits += part.parser_splits


def _error_index(remaining: Sequence[TerminalNode], error: ParseError) -> int:
    """Index of the offending terminal within ``remaining``.

    The synthetic end-of-input terminal (or a missing position) maps to
    ``len(remaining)``: the viable prefix spanned everything offered.
    """
    terminal = error.terminal
    if terminal is not None:
        for i, node in enumerate(remaining):
            if node is terminal:
                return i
    return len(remaining)


def parse_tolerant(
    parse_fn: ParseFn, terminals: list[TerminalNode]
) -> ParseResult:
    """Batch parse with panic-mode isolation; never raises ParseError.

    ``terminals`` is the full input including the trailing end-of-stream
    terminal (which, as in an ordinary parse, acts only as lookahead and
    never enters the tree).  Returns a result whose root covers every
    other terminal; unincorporable stretches are wrapped in error nodes.
    """
    if not terminals:
        raise ValueError("tolerant parse requires at least the EOS terminal")
    body = terminals[:-1]
    stats = ParseStats()
    new_nodes: list[Node] = []
    parts: list[Node] = []
    run: list[Node] = []
    attempts = 0

    def attempt(nodes: Sequence[TerminalNode]) -> ParseResult:
        nonlocal attempts
        attempts += 1
        return parse_fn(list(nodes) + [TerminalNode(Token(EOS, ""))])

    def flush_run() -> None:
        if run:
            region = ErrorNode(tuple(run))
            region.adopt_kids()
            new_nodes.append(region)
            parts.append(region)
            run.clear()

    def take(result: ParseResult) -> None:
        flush_run()
        parts.append(result.root)
        new_nodes.extend(result.new_nodes)
        _merge_stats(stats, result.stats)

    pos = 0
    n = len(body)
    while pos < n:
        if attempts >= MAX_ATTEMPTS:
            # Budget exhausted: degrade the rest into one error region.
            run.extend(body[pos:])
            pos = n
            break
        remaining = body[pos:]
        try:
            take(attempt(remaining))
            pos = n
            break
        except ParseError as error:
            error_index = _error_index(remaining, error)
        # Longest completable prefix strictly before the error point
        # (the full remaining input was just refuted above).
        salvaged = False
        lo = max(1, error_index - PREFIX_WINDOW)
        for j in range(min(error_index, len(remaining) - 1), lo - 1, -1):
            if attempts >= MAX_ATTEMPTS:
                break
            try:
                take(attempt(remaining[:j]))
            except ParseError:
                continue
            pos += j
            salvaged = True
            break
        if not salvaged:
            # No salvageable prefix: the leading terminal joins the
            # current error run and we resynchronize one token later.
            run.append(body[pos])
            pos += 1
    flush_run()

    if len(parts) == 1:
        root = parts[0]
    else:
        # Each salvaged part is a whole start-symbol sentence parsed from
        # the start state, a state it holds in no context but its own:
        # like the error region around it, it must never be reused whole.
        for part in parts:
            part.state = NO_STATE
        root = ErrorNode(tuple(parts))
        root.adopt_kids()
        new_nodes.append(root)
    return ParseResult(root, stats, new_nodes)
