"""Balanced-sequence maintenance: spine collapsing and sequence repair.

Two cooperating mechanisms implement the paper's section 3.4:

**Collapsing** (at commit): left-recursive spines produced by the parser
for grammar-declared sequences are replaced by
:class:`~repro.dag.sequences.SequenceNode` containers with balanced
internal structure.  A spine grown *on top of* a reused sequence node
(the incremental append case) extends that node in O(lg n) instead of
rebuilding it.

**Repair** (before parsing): when every modification since the last
parse falls inside one region of elements of one balanced sequence,
the affected element range -- widened by one element on each side to
re-validate left and right context -- is reparsed *in isolation* with
a fragment table rooted at the sequence symbol, then spliced back in
O(lg n).  The surrounding tree is never touched and the main parser
never runs.  This is sound under the paper's stated sequence
assumptions (elements have bounded dependence on surrounding context);
the implementation additionally *checks* the boundary elements: the
reparsed copies of the two unchanged guard elements must come out
token-identical, otherwise the repair is abandoned and the ordinary
incremental parse runs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .. import obs
from ..dag.journal import touch
from ..dag.nodes import ErrorNode, Node, ProductionNode, TerminalNode
from ..dag.sequences import SequenceNode, SequencePart, parts_created
from ..dag.traversal import first_terminal, last_terminal, previous_terminal
from ..grammar.cfg import Grammar
from ..lexing.tokens import BOS, EOS, Token
from ..testing.faults import crash_point, register_points

register_points(**{
    "repair:before-splice": "sequence repair about to splice new items",
    "repair:after-splice": "spliced; ancestor lengths refreshed",
})
from .iglr import IGLRParser, ParseError, ParseStats
from .input_stream import InputStream

__all__ = [
    "collapse_sequences",
    "attempt_sequence_repair",
    "RepairOutcome",
]


# -- collapsing ---------------------------------------------------------------


def _spine_items(
    node: Node, replacements: dict[int, Node]
) -> tuple[list[Node], SequenceNode | None]:
    """Flatten a sequence spine into items, left to right.

    Returns ``(items, base)`` where ``base`` is a reused SequenceNode at
    the spine's far left (to be extended), or None.  Non-spine kids
    (elements and separators) become items; kids already collapsed this
    round are taken from ``replacements``.
    """
    items: list[Node] = []
    base: SequenceNode | None = None
    lhs = node.symbol
    # Iterative: deep spines would overflow Python recursion.
    stack: list[Node] = [node]
    while stack:
        raw = stack.pop()
        current = replacements.get(id(raw), raw)
        if isinstance(current, SequenceNode) and current.symbol == lhs:
            if not items and base is None:
                base = current
            else:
                items.extend(current.items())
            continue
        if (
            isinstance(current, ProductionNode)
            and current.production.is_sequence
            and current.production.lhs == lhs
        ):
            stack.extend(reversed(current.kids))
            continue
        items.append(current)
    return items, base


def collapse_sequences(
    new_nodes: list[Node], grammar: Grammar
) -> dict[int, Node]:
    """Replace freshly built sequence spines with balanced nodes.

    Operates purely on the nodes the parser created this round: spine
    roots are new self-recursive sequence-production nodes not consumed
    by another new spine node of the same symbol.  Returns a mapping
    ``id(old spine root) -> replacement`` (the caller rewires the body
    if the tree root itself was replaced); kids of other new nodes are
    patched in place.
    """
    # Only true spines (``aux : aux elem``) collapse, not the
    # non-recursive wrappers the EBNF expander also marks.
    recursive = grammar.sequence_shapes
    spine_nodes = [
        n
        for n in new_nodes
        if isinstance(n, ProductionNode)
        and n.production.is_sequence
        and n.production.lhs in recursive
    ]
    if not spine_nodes:
        return {}
    consumed: set[int] = set()
    for node in spine_nodes:
        for kid in node.kids:
            if (
                isinstance(kid, ProductionNode)
                and kid.production.is_sequence
                and kid.production.lhs == node.production.lhs
            ):
                consumed.add(id(kid))
    # new_nodes is in creation (bottom-up) order, so inner spines are
    # collapsed before any outer structure that contains them.
    roots = [n for n in spine_nodes if id(n) not in consumed]
    replacements: dict[int, Node] = {}
    sequence_nodes: list[SequenceNode] = []
    for root in roots:
        items, base = _spine_items(root, replacements)
        if base is not None:
            touch(base)
            base.replace_items(base.n_items, base.n_items, items)
            base.state = root.state
            replacement: SequenceNode = base
        else:
            replacement = SequenceNode.from_items(
                root.production.lhs, items, root.state
            )
        replacements[id(root)] = replacement
        sequence_nodes.append(replacement)
    # Rewire new parents that reference a collapsed spine root.  Error
    # containers can hold salvaged spine fragments too.
    for node in new_nodes:
        if not isinstance(node, (ProductionNode, ErrorNode)):
            continue
        if id(node) in consumed:
            continue
        if any(id(kid) in replacements for kid in node.kids):
            node.replace_kids(
                tuple(replacements.get(id(kid), kid) for kid in node.kids)
            )
            node.adopt_kids()
    for seq in sequence_nodes:
        seq._adopt_spine()  # noqa: SLF001 - deliberate internal call
    return replacements


# -- repair --------------------------------------------------------------------


@dataclass
class RepairOutcome:
    """A successful in-place sequence repair."""

    stats: ParseStats
    parts_created: int
    new_nodes: list[Node]
    items_replaced: int


def _enclosing_item(node: Node) -> tuple[SequenceNode, Node] | None:
    """Innermost (sequence, element) containing ``node``, if any."""
    child: Node = node
    parent = child.parent
    while parent is not None:
        if (
            isinstance(parent, (SequenceNode, SequencePart))
            and not isinstance(child, SequencePart)
        ):
            seq: Node = parent
            while isinstance(seq, SequencePart):
                seq = seq.parent  # type: ignore[assignment]
            if isinstance(seq, SequenceNode):
                return seq, child
            return None
        child, parent = parent, parent.parent
    return None


def _terminal_tokens(node: Node) -> list[Token]:
    return [t.token for t in node.iter_terminals()]


def attempt_sequence_repair(document) -> RepairOutcome | None:
    """Try to absorb all pending modifications by one sequence splice.

    Returns None when the fast path does not apply (sites outside
    sequences, multiple sequences or damaged regions touched, range
    reaching the sequence tail, fragment reparse failure, or
    guard-element mismatch); the caller then runs the ordinary
    incremental parse.
    """
    with obs.span("parse.seq_repair"):
        outcome = _attempt_sequence_repair(document)
        if outcome is None:
            obs.incr("seq.repair_fallbacks")
        else:
            obs.incr("seq.repairs")
            obs.incr("seq.items_replaced", outcome.items_replaced)
        return outcome


def _attempt_sequence_repair(document) -> RepairOutcome | None:
    doc = document
    if doc.tree is None:
        return None

    # Collect change sites as old-tree terminals.
    sites: list[TerminalNode] = list(doc._removed_nodes)
    for _run, anchor in doc.fresh_runs():
        if anchor is None:
            return None  # insertion at end of document: no anchor
        sites.append(anchor)
    if not sites:
        return None

    # Map every site (and the terminal before it, whose element consumed
    # the site's slot as lookahead) to its innermost sequence element.
    # A removed predecessor is itself a site; the leftmost removal of its
    # run brings in the live terminal before the run.
    removed = {id(t) for t in doc._removed_nodes}
    located: list[tuple[SequenceNode, Node]] = []
    for site in sites:
        neighbours: list[Node] = [site]
        prev = previous_terminal(site)
        if prev is not None and id(prev) not in removed:
            neighbours.append(prev)
        for node in neighbours:
            found = _enclosing_item(node)
            if found is None:
                return None
            located.append(found)

    seq = located[0][0]
    if any(entry[0] is not seq for entry in located):
        return None  # multiple sequences touched: fall back

    try:
        indices = [seq.item_index_of(item) for _, item in located]
    except ValueError:
        return None
    # One damaged region per repair.  Between two regions further apart
    # than a shared guard element lie undamaged elements the fragment
    # parse would rebuild -- for edits scattered across a document,
    # nearly all of it -- while the ordinary incremental parse reuses
    # them as subtrees.
    ordered = sorted(set(indices))
    if any(right - left > 2 for left, right in zip(ordered, ordered[1:])):
        return None
    # Guard elements: one unchanged element on each side re-validates
    # boundary context.  At the sequence's start there is no left guard
    # (the fragment table's start state *is* the sequence-start context);
    # at the tail we fall back -- the ordinary parse reuses the whole
    # prefix there, so the suffix rebuild is already cheap.
    has_left_guard = min(indices) > 0
    lo = min(indices) - 1 if has_left_guard else 0
    hi = max(indices) + 1  # right guard element
    if hi >= seq.n_items:
        return None

    guard_left = seq.item_slice(lo, lo + 1)[0] if has_left_guard else None
    guard_right = seq.item_slice(hi, hi + 1)[0]

    # Token span of items [lo, hi] in the *new* stream, bounded by the
    # unchanged terminals just outside the range.
    range_first = guard_left if guard_left is not None else seq.item_slice(0, 1)[0]
    first_term = first_terminal(range_first)
    last_term = last_terminal(guard_right)
    if first_term is None or last_term is None:
        return None
    before = previous_terminal(first_term, skip=lambda t: id(t) in removed)
    if before is not None and before.token.type == BOS:
        before = None  # document start: the stream begins at index 0
    tokens = doc.tokens
    try:
        start_idx = tokens.index(before) + 1 if before is not None else 0
        end_idx = tokens.index(last_term, start_idx)
    except ValueError:
        return None

    # Parse copies of the fragment's terminals: committed nodes stay
    # untouched until the splice.
    fragment = tokens[start_idx : end_idx + 1]
    table = doc.language.fragment_table(seq.symbol)
    stream = InputStream(
        [TerminalNode(node.token) for node in fragment]
        + [TerminalNode(Token(EOS, ""))]
    )
    parts_before = parts_created()
    try:
        result = IGLRParser(table).parse(stream)
    except ParseError:
        return None
    if result.root.is_symbol_node:
        return None  # ambiguous fragment boundary: be conservative
    for node in result.new_nodes:
        if isinstance(node, ProductionNode):
            node.adopt_kids()
    # Balance any sequences *inside* the new elements too.
    replacements = collapse_sequences(
        result.new_nodes, doc.language.grammar
    )
    fragment_seq = replacements.get(id(result.root))
    if isinstance(fragment_seq, SequenceNode):
        new_items = fragment_seq.items()
    else:
        new_items, base = _spine_items(result.root, replacements)
        if base is not None:
            return None

    # Guard checks: the reparsed copies of the unchanged boundary
    # elements must be token-identical to the originals.
    keep_left = 1 if guard_left is not None else 0
    if len(new_items) < keep_left + 1:
        return None
    if guard_left is not None and _terminal_tokens(
        new_items[0]
    ) != _terminal_tokens(guard_left):
        return None
    if _terminal_tokens(new_items[-1]) != _terminal_tokens(guard_right):
        return None

    # Splice, keeping the original guard elements (preserves identity
    # and annotations of unchanged structure).
    replacement = new_items[keep_left:-1]
    crash_point("repair:before-splice")
    seq.replace_items(lo + keep_left, hi, replacement)
    _refresh_ancestors(seq)
    crash_point("repair:after-splice")

    # The replaced elements' terminals are fragment copies: they take
    # over their entries in the stream (a new list -- the transaction
    # state may still hold the old one).
    first = start_idx + sum(item.n_terms for item in new_items[:keep_left])
    terms = [term for item in replacement for term in item.iter_terminals()]
    doc.tokens = tokens[:first] + terms + tokens[first + len(terms):]

    return RepairOutcome(
        stats=result.stats,
        parts_created=parts_created() - parts_before,
        new_nodes=result.new_nodes,
        items_replaced=hi - lo - 1,
    )


def _refresh_ancestors(node: Node) -> None:
    """Recompute cached yield widths up the parent chain, and mark its
    synthesized counts unknown for the next census."""
    current = node.parent
    while current is not None:
        if isinstance(current, (ProductionNode, ErrorNode)):
            current.replace_kids(current.kids)  # recomputes n_terms
        elif isinstance(current, (SequenceNode, SequencePart)):
            touch(current)
            current.n_terms = sum(k.n_terms for k in current.kids)
        current.forget_counts()
        current = current.parent
