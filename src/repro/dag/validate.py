"""DAG invariant validation: the debug-mode safety net.

A committed tree must satisfy structural invariants that every other
layer silently relies on:

* **parent/kid consistency** -- each reachable kid's ``parent`` link
  points at a node that actually lists it as a kid, and following parent
  links from any first-alternative terminal reaches the tree root (the
  modification overlay and sequence repair both navigate upward);
* **yield coverage** -- every node's cached ``n_terms`` equals the size
  of its actual terminal yield, and all alternatives of a choice point
  share one yield width;
* **sequence-spine adoption** -- balanced sequence internals are
  consistent: part item counts add up and spine parent links are
  adopted (``item_index_of`` walks them);
* **one token stream** -- at the document level, the committed tree's
  terminal yield after BOS is the document's token stream, node for
  node by identity (so every stream node is committed), and no scratch
  state (removed nodes, pending edits) survives a commit;
* **exact synthesized counts** -- after a census, the root's
  ``n_nodes``/``n_choices`` equal what fresh walks of the whole DAG
  find (``measure_space`` and ``choice_points``).

``validate_tree``/``validate_document`` return human-readable violation
strings; ``check_document`` raises :class:`InvariantError`.  Setting
``REPRO_VALIDATE=1`` in the environment makes every
:class:`~repro.versioned.document.Document` commit run the check, and
``repro validate`` exposes it from the command line.
"""

from __future__ import annotations

import os

from ..lexing.tokens import BOS
from ..obs.space import measure_space
from .nodes import NO_STATE, Node, SymbolNode
from .sequences import SequenceNode, SequencePart, _items_of
from .traversal import census, choice_points, unparse


class InvariantError(AssertionError):
    """A committed document violated a DAG invariant."""


def validation_enabled() -> bool:
    """True when debug-mode post-commit validation is requested."""
    return os.environ.get("REPRO_VALIDATE", "") not in ("", "0")


def _reachable(root: Node) -> list[Node]:
    """Every node reachable from ``root`` (alternatives included), once."""
    seen: set[int] = set()
    order: list[Node] = []
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        order.append(node)
        stack.extend(node.kids)
    return order


def validate_tree(root: Node) -> list[str]:
    """Structural invariant violations of the subtree at ``root``."""
    problems: list[str] = []
    nodes = _reachable(root)
    ids = {id(n) for n in nodes}

    # Parent/kid consistency.
    for node in nodes:
        for kid in node.kids:
            parent = kid.parent
            if parent is None:
                problems.append(f"{kid!r}: kid of {node!r} has no parent link")
            elif not any(k is kid for k in parent.kids):
                problems.append(
                    f"{kid!r}: parent link points at {parent!r}, "
                    "which does not list it as a kid"
                )
            elif id(parent) not in ids:
                problems.append(
                    f"{kid!r}: parent {parent!r} is outside the tree"
                )

    # Upward reachability: parent chains from first-alternative terminals
    # must arrive at the root without cycling (the plan's change
    # propagation and sequence repair both depend on it).
    limit = len(nodes) + 2
    for term in root.iter_terminals():
        node: Node | None = term
        for _ in range(limit):
            if node is root:
                break
            node = node.parent
            if node is None:
                problems.append(
                    f"{term!r}: parent chain ends before reaching the root"
                )
                break
        else:
            problems.append(f"{term!r}: parent chain cycles")

    # Yield coverage: cached widths match the real yields.
    widths: dict[int, int] = {}

    def width_of(node: Node) -> int:
        key = id(node)
        if key in widths:
            return widths[key]
        if node.is_terminal:
            width = 1
        elif node.is_symbol_node:
            alt_widths = {width_of(alt) for alt in node.kids}
            if len(alt_widths) > 1:
                problems.append(
                    f"{node!r}: alternatives disagree on yield width "
                    f"{sorted(alt_widths)}"
                )
            width = next(iter(alt_widths)) if alt_widths else 0
        else:
            width = sum(width_of(kid) for kid in node.kids)
        widths[key] = width
        return width

    # Iterative postorder so deep spines cannot overflow the recursion
    # limit: compute widths bottom-up over the reachability order.
    for node in reversed(nodes):
        try:
            width = width_of(node)
        except RecursionError:  # pragma: no cover - deep degenerate trees
            problems.append(f"{node!r}: tree too deep to validate yields")
            return problems
        if node.n_terms != width:
            problems.append(
                f"{node!r}: cached n_terms={node.n_terms} "
                f"but actual yield width is {width}"
            )

    # Choice points and error regions never carry a reusable state.
    for node in nodes:
        if node.is_symbol_node:
            if not node.kids:
                problems.append(f"{node!r}: choice point with no alternatives")
            for alt in node.kids:
                if alt.state != NO_STATE:
                    problems.append(
                        f"{node!r}: alternative {alt!r} carries state "
                        f"{alt.state}; alternatives must be NO_STATE"
                    )
        if (node.is_symbol_node or node.is_error_node) and node.state != NO_STATE:
            problems.append(f"{node!r}: must carry NO_STATE, has {node.state}")

    # Balanced-sequence internals.
    for node in nodes:
        if isinstance(node, SequenceNode):
            spine = node.kids[0] if node.kids else None
            if spine is not None and spine.parent is not node:
                problems.append(
                    f"{node!r}: spine root's parent link is not the sequence"
                )
            if node.n_items != len(node.items()):
                problems.append(
                    f"{node!r}: n_items={node.n_items} but "
                    f"{len(node.items())} items flattened"
                )
        elif isinstance(node, SequencePart):
            left, right = node.kids
            if node.n_items != _items_of(left) + _items_of(right):
                problems.append(
                    f"{node!r}: n_items={node.n_items} inconsistent with kids"
                )
            if not isinstance(node.parent, (SequenceNode, SequencePart)):
                problems.append(
                    f"{node!r}: spine part adopted by non-sequence "
                    f"{node.parent!r}"
                )
    return problems


def validate_document(document) -> list[str]:
    """Tree and bookkeeping invariant violations of a parsed document."""
    doc = document
    if doc.tree is None:
        return []
    problems = validate_tree(doc.tree)

    # Yield coverage at the text level: the tree reconstructs the text.
    text = unparse(doc.tree)
    if text != doc.text:
        problems.append(
            f"tree yield {text!r} does not reconstruct document "
            f"text {doc.text!r}"
        )

    # The terminal yield is exactly [BOS] + the token stream, node for
    # node by identity: incremental relexing hands the stream's nodes
    # back, and an uncommitted node is one with no parent.
    terminals = list(doc.tree.iter_terminals())
    if not terminals or terminals[0].token.type != BOS:
        problems.append("tree yield does not start with the BOS sentinel")
    elif len(terminals) - 1 != len(doc.tokens) or any(
        a is not b for a, b in zip(terminals[1:], doc.tokens)
    ):
        problems.append(
            "tree terminal yield is not the document's node stream "
            f"({len(terminals) - 1} tree terminals vs {len(doc.tokens)})"
        )

    # The counts readers take at the root agree with whole-DAG walks.
    census(doc.tree)
    counted = (doc.tree.n_nodes, doc.tree.n_choices)
    walked = (measure_space(doc.tree).nodes, len(choice_points(doc.tree)))
    if counted != walked:
        problems.append(
            f"root counts (nodes, choices) = {counted}, but walks of "
            f"the DAG find {walked}"
        )

    # Scratch state must not survive a commit.
    if not doc._edit_log:
        if doc._removed_nodes:
            problems.append(
                f"{len(doc._removed_nodes)} removed nodes survive the commit"
            )
    return problems


def check_document(document) -> None:
    """Raise :class:`InvariantError` when a document violates invariants."""
    problems = validate_document(document)
    if problems:
        raise InvariantError(
            "document invariants violated:\n  " + "\n  ".join(problems)
        )
