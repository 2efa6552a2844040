"""Disambiguation filters over choice nodes (paper section 4).

A *filter* rejects interpretations at a choice point.  Three flavours:

* **static syntactic filters** live in the parse table (precedence /
  associativity -- see `repro.tables.parse_table`) and never reach here;
* **dynamic syntactic filters** select by structure alone, e.g. C++'s
  "prefer a declaration to an expression"; rejected alternatives are
  *removed* (the paper keeps no syntactically-filtered interpretations);
* **semantic filters** select using binding information; rejected
  alternatives are *retained* and merely marked ``filtered``, because a
  later edit elsewhere (say, deleting a typedef) can flip the decision
  without touching this region (section 4.2).
"""

from __future__ import annotations

from typing import Callable, Iterable

from ..dag.nodes import Node, ProductionNode, SymbolNode

FILTERED = "filtered"
FILTER_REASON = "filter_reason"


def reject(alternative: Node, reason: str = "") -> None:
    """Semantically filter an interpretation (retained, marked)."""
    alternative.set_annotation(FILTERED, True)
    if reason:
        alternative.set_annotation(FILTER_REASON, reason)


def accept(alternative: Node) -> None:
    """Clear a previous semantic rejection (decision reversed by edits).

    An accepted alternative's rejection reason is meaningless, so it is
    dropped along with the flag: only currently-rejected interpretations
    carry a ``filter_reason``.
    """
    alternative.set_annotation(FILTERED, False)
    if alternative.annotations is not None:
        alternative.annotations.pop(FILTER_REASON, None)


def clear(alternative: Node) -> None:
    """Remove all filter state, as if the alternative was never filtered.

    Unlike :func:`accept` (which records an explicit ``filtered=False``
    decision), ``clear`` removes both annotations outright; a cleared
    alternative is indistinguishable from one no filter ever touched.
    """
    if alternative.annotations is None:
        return
    alternative.annotations.pop(FILTERED, None)
    alternative.annotations.pop(FILTER_REASON, None)
    if not alternative.annotations:
        alternative.annotations = None


def is_rejected(alternative: Node) -> bool:
    return bool(alternative.get_annotation(FILTERED, False))


def reset_choice(choice: SymbolNode) -> None:
    """Forget all semantic decisions at a choice point.

    Uses :func:`clear`, not :func:`accept`: "forget" means no residue --
    neither the flag nor a stale ``filter_reason`` may survive, so a
    reset choice point is byte-identical to a never-filtered one
    (paper section 4.2: decisions are reversible, rejected alternatives
    are retained but their rejection is not history).
    """
    for alternative in choice.alternatives:
        clear(alternative)


def semantic_select(
    choice: SymbolNode, predicate: Callable[[Node], bool], reason: str
) -> Node | None:
    """Keep alternatives satisfying ``predicate``; reject the rest.

    Returns the surviving interpretation when exactly one remains, else
    None (undecided: zero or several survivors -- the paper's error case,
    all interpretations stay available).
    """
    survivors = []
    for alternative in choice.alternatives:
        if predicate(alternative):
            accept(alternative)
            survivors.append(alternative)
        else:
            reject(alternative, reason)
    if len(survivors) == 1:
        return survivors[0]
    if not survivors:
        # No interpretation is semantically valid: retain everything so
        # future edits can resolve the region (section 4.3).
        reset_choice(choice)
    return None


def resolved_view(node: Node) -> Node:
    """Look through a decided choice point to its selected alternative.

    After syntactic and semantic disambiguation, "each symbol node can be
    logically identified with its single remaining child", letting tools
    treat the DAG as a plain tree.  Undecided choices return the choice
    node itself.
    """
    current = node
    while current.is_symbol_node:
        selected = current.selected()  # type: ignore[union-attr]
        if selected is None:
            return current
        current = selected
    return current


# -- dynamic syntactic filters ---------------------------------------------------


def production_tags(alternative: Node) -> set[str]:
    """Tags on the top production(s) of an interpretation."""
    node = alternative
    tags: set[str] = set()
    while isinstance(node, ProductionNode):
        tags.update(node.production.tags)
        # Follow unit chains so a tag anywhere down a 1-ary spine counts.
        if node.arity == 1 and not node.kids[0].is_terminal:
            node = node.kids[0]
        else:
            break
    return tags


def prefer_tagged(choice: SymbolNode, preferred_tag: str) -> Node | None:
    """The C++ rule "prefer a declaration to an expression" generalized:
    if exactly one alternative carries the tag, *remove* the others.

    This is a dynamic syntactic filter: rejected interpretations are not
    retained (unlike semantic filtering) -- the choice node collapses.
    Returns the surviving alternative, or None if the filter does not
    discriminate.
    """
    tagged = [
        alt
        for alt in choice.alternatives
        if preferred_tag in production_tags(alt)
    ]
    if len(tagged) != 1:
        return None
    winner = tagged[0]
    # The dropped alternatives leave every count from here to the root.
    node: Node | None = choice
    while node is not None:
        node.forget_counts()
        node = node.parent
    choice.alternatives[:] = [winner]
    choice.n_terms = winner.n_terms
    return winner


def apply_syntactic_filters(
    root: Node, preferences: Iterable[tuple[str, str]]
) -> int:
    """Apply tag preferences over all choice points under ``root``.

    ``preferences`` is an iterable of ``(symbol, preferred_tag)`` pairs.
    Returns the number of choice points collapsed.
    """
    from ..dag.traversal import choice_points

    prefs = dict(preferences)
    collapsed = 0
    for choice in choice_points(root):
        tag = prefs.get(choice.symbol)
        if tag is not None and len(choice.alternatives) > 1:
            if prefer_tagged(choice, tag) is not None:
                collapsed += 1
    return collapsed
