"""Incremental lexing with lookahead invalidation.

Given the previous stream of terminal nodes and a single text edit,
:func:`relex` recomputes only the tokens whose *read windows* intersect
the edit, then re-synchronizes with the old stream at the first token
boundary past the edit whose content is unchanged.  A token's read
window covers its trivia, its text, and its lexical lookahead --
characters beyond the token that the DFA examined before settling on
the longest match.  Because the DFA tokenizes purely as a function of
the text suffix, identical suffixes guarantee identical tokens, which
makes boundary re-synchronization sound.

The stream is the parse DAG's own terminals: unchanged entries come back
as the *same node objects*, so the committed tree keeps them, and only
rescanned tokens get a new, parentless :class:`TerminalNode` -- which is
how the document tells an uncommitted terminal from a committed one.

Work stays proportional to the edit: the restart point comes from a
forward offset walk bounded by the edit position, and re-synchronization
uses a monotone cursor over the old stream instead of pre-materializing
an offset map of every old token (which would be O(N) per edit and
defeat the incremental bound).  ``RelexResult.examined`` counts the old
tokens whose offsets were computed, so tests can assert the bound on
work, not just on wall clock.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .. import obs
from ..dag.nodes import TerminalNode
from .lexer import LexerSpec
from .tokens import EOS, Token


@dataclass
class RelexResult:
    """Outcome of an incremental relex.

    Attributes:
        tokens: the full new stream of terminal nodes (ends with EOS).
        changed_start: index into ``tokens`` of the first non-reused node.
        changed_end: index one past the last non-reused node.
        removed: old nodes of the replaced window no longer in the stream.
        scanned: how many tokens were actually re-scanned (work metric).
        examined: old tokens whose offsets were computed while locating
            the restart point and the resync boundary (work metric; stays
            O(edit) for edits at a fixed position, unlike ``scanned`` it
            also exposes hidden bookkeeping walks).
    """

    tokens: list[TerminalNode]
    changed_start: int
    changed_end: int
    removed: list[TerminalNode] = field(default_factory=list)
    scanned: int = 0
    examined: int = 0

    @property
    def changed(self) -> list[TerminalNode]:
        return self.tokens[self.changed_start : self.changed_end]


def relex(
    spec: LexerSpec,
    old_nodes: list[TerminalNode],
    new_text: str,
    edit_offset: int,
    removed_len: int,
    inserted_len: int,
) -> RelexResult:
    """Incrementally retokenize after replacing ``removed_len`` characters
    at ``edit_offset`` (old coordinates) with ``inserted_len`` new ones.

    ``old_nodes`` must be a complete stream for the pre-edit text (ending
    with EOS); ``new_text`` is the post-edit text.
    """
    with obs.span("lex.relex"):
        result = _relex(
            spec, old_nodes, new_text, edit_offset, removed_len, inserted_len
        )
        obs.incr("lex.relexes")
        obs.incr("lex.tokens_rescanned", result.scanned)
        obs.incr(
            "lex.tokens_reused",
            len(result.tokens) - (result.changed_end - result.changed_start),
        )
        obs.incr("lex.tokens_examined", result.examined)
        return result


def _relex(
    spec: LexerSpec,
    old: list[TerminalNode],
    new_text: str,
    edit_offset: int,
    removed_len: int,
    inserted_len: int,
) -> RelexResult:
    if not old:
        nodes = [TerminalNode(tok) for tok in spec.lex(new_text)]
        return RelexResult(nodes, 0, len(nodes), scanned=len(nodes))

    delta = inserted_len - removed_len
    edit_old_end = edit_offset + removed_len
    examined = 0

    # -- restart point: walk forward to the last token starting at or
    #    before the edit, accumulating its start offset as we go.  Bounded
    #    by the edit position, never by the document length.
    start_idx = 0
    start_off = 0
    last = len(old) - 1
    while start_idx < last:
        width = old[start_idx].token.width
        if start_off + width > edit_offset:
            break
        start_off += width
        start_idx += 1
        examined += 1
    # ...then left over every token whose read window touches the edit
    #    (a read window ends ``lookahead`` characters past its token).
    while start_idx > 0:
        prev = old[start_idx - 1].token
        if start_off + prev.lookahead > edit_offset:
            start_idx -= 1
            start_off -= prev.width
        else:
            break

    # -- resync cursor: advances monotonically over old tokens strictly
    #    past the restart point, tracking their start offsets on demand.
    cursor = start_idx + 1
    cursor_off = start_off + old[start_idx].token.width

    # -- rescan.
    middle: list[Token] = []
    pos = start_off
    end_idx = len(old)  # one past the replaced window
    while True:
        target = pos - delta  # old coordinate of the current position
        while cursor < len(old) and cursor_off < target:
            cursor_off += old[cursor].token.width
            cursor += 1
            examined += 1
        if (
            middle
            and cursor < len(old)
            and cursor_off == target
            and cursor_off >= edit_old_end
        ):
            end_idx = cursor
            break
        tok = spec.next_token(new_text, pos)
        if tok is None:
            tok = Token(EOS, "")
        middle.append(tok)
        pos += tok.width
        if tok.type == EOS:
            break
    scanned = len(middle)

    # -- maximize identity reuse at the seam: scanning may have reproduced
    #    tokens identical to old ones (e.g. the restart token was left of
    #    the edit, or the edit was content-neutral).
    lo = 0
    while (
        lo < len(middle)
        and start_idx + lo < end_idx
        and middle[lo].same_content(old[start_idx + lo].token)
    ):
        lo += 1
    hi = len(middle)
    old_hi = end_idx
    while (
        hi > lo
        and old_hi > start_idx + lo
        and middle[hi - 1].same_content(old[old_hi - 1].token)
    ):
        hi -= 1
        old_hi -= 1

    nodes = (
        old[: start_idx + lo]
        + [TerminalNode(tok) for tok in middle[lo:hi]]
        + old[old_hi:]
    )
    return RelexResult(
        nodes,
        start_idx + lo,
        start_idx + hi,
        old[start_idx + lo : old_hi],
        scanned,
        examined,
    )
