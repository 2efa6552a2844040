"""The modification overlay consulted by incremental parsers.

The paper's self-versioning documents record edits directly in the tree
(``has_changes(lastParsedVersion)``).  We factor that state into an
explicit :class:`ParsePlan` overlay instead: the previous tree stays
pristine while the plan records, per node,

* *deleted* terminals (their tokens left the stream),
* *pending* fresh terminals to enter the stream before an anchor node,
* *nested changes* (some descendant is an edit site), and
* *right-context invalidation* (the terminal following the node's yield
  changed, so reductions along the node's right edge used stale
  lookahead -- the second half of process_modifications_to_parse_dag).

Keeping the overlay outside the nodes makes error recovery trivial: a
rejected parse simply discards the plan, leaving the last parsed version
untouched.  ``has_changes(node)`` is the plan-relative equivalent of the
paper's per-node test.
"""

from __future__ import annotations

from ..dag.nodes import Node, TerminalNode
from ..dag.traversal import ancestors_ending_at, previous_terminal


class ParsePlan:
    """Modifications applied since the last parse, as an overlay."""

    def __init__(self) -> None:
        self._deleted: dict[int, TerminalNode] = {}
        self._pending: dict[int, list[TerminalNode]] = {}
        self._nested: dict[int, Node] = {}
        self._right_invalid: dict[int, Node] = {}
        self.pending_at_end: list[TerminalNode] = []

    # -- recording modifications ---------------------------------------------

    def mark_deleted(self, node: TerminalNode) -> None:
        """The node's token left the stream; invalidate it and ancestors."""
        self._deleted[id(node)] = node
        self._propagate(node)
        self._invalidate_right_context(node)

    def add_pending_before(
        self, anchor: TerminalNode, fresh: list[TerminalNode]
    ) -> None:
        """Fresh terminals enter the stream immediately before ``anchor``."""
        self._pending.setdefault(id(anchor), []).extend(fresh)
        self._propagate(anchor)
        self._invalidate_right_context(anchor)

    def add_pending_at_end(self, fresh: list[TerminalNode]) -> None:
        """Fresh terminals enter the stream after every existing token."""
        self.pending_at_end.extend(fresh)

    def _propagate(self, node: Node) -> None:
        current = node.parent
        while current is not None and id(current) not in self._nested:
            self._nested[id(current)] = current
            if current.is_symbol_node:
                self._mark_region(current)
            current = current.parent

    def _mark_region(self, symbol_node: Node) -> None:
        """Invalidate an entire non-deterministic region.

        Inside an ambiguous region nodes are shared between alternatives,
        so single parent pointers cannot reach every enclosing node; the
        paper therefore treats such regions as atomic -- "reconstructed in
        [their] entirety whenever [they contain] at least one edit site"
        (section 5).  Regions are small in practice (section 2.1), so the
        full walk is cheap.
        """
        for node in symbol_node.walk():
            if id(node) not in self._nested:
                self._nested[id(node)] = node

    def _invalidate_right_context(self, site: TerminalNode) -> None:
        """Invalidate nodes whose implicit lookahead was ``site``'s slot.

        Any subtree whose yield ends immediately before the change site
        was reduced while peeking at a terminal that has now changed.

        A deleted predecessor is itself a site.  The leftmost deletion of
        its run reaches the live terminal before the run, in any order
        the sites arrive, and every ancestor ending at a deleted terminal
        is already invalid through :meth:`_propagate`.  So one lookup per
        site suffices, not one walk across the run per deleted terminal.
        """
        prev = previous_terminal(site)
        if prev is None or self.is_deleted(prev):
            return
        for ancestor in ancestors_ending_at(prev):
            self._right_invalid[id(ancestor)] = ancestor
            if ancestor.is_symbol_node:
                self._mark_region(ancestor)
            self._propagate(ancestor)

    # -- queries --------------------------------------------------------------

    def is_deleted(self, node: Node) -> bool:
        return id(node) in self._deleted

    def pending_before(self, node: Node) -> list[TerminalNode]:
        return self._pending.get(id(node), [])

    def has_changes(self, node: Node) -> bool:
        """Plan-relative ``has_changes``: the subtree cannot be reused."""
        key = id(node)
        return (
            key in self._deleted
            or key in self._pending
            or key in self._nested
            or key in self._right_invalid
        )

    @property
    def is_empty(self) -> bool:
        return not (
            self._deleted
            or self._pending
            or self._nested
            or self._right_invalid
            or self.pending_at_end
        )

    def modification_count(self) -> int:
        """Number of recorded edit sites (deletions + insertion anchors)."""
        return len(self._deleted) + len(self._pending) + (
            1 if self.pending_at_end else 0
        )
