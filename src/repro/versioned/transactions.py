"""Transactional version changes: rollback to the last good version.

Incremental reparsing mutates the previous version's tree *in place*:
subtree shifts overwrite recorded parse states, the node-retention pool
hands old production nodes to new reductions, local ambiguity packing
appends alternatives to existing choice nodes, commit re-adopts parent
pointers along fresh structure -- the token stream's uncommitted nodes
included -- and balanced-sequence repair splices directly into the
committed spine.  An exception anywhere in that pipeline would
otherwise leave the document half-mutated -- parsed-tree bookkeeping
out of sync with the text, parent chains pointing into discarded
structure.

:class:`JournalTransaction` implements the rollback guarantee: a
first-touch :class:`~repro.dag.journal.MutationJournal` records each
node's old field values the first time a mutation site writes it;
rollback replays the journal in reverse.  Begin cost is O(edits since
the last parse): the token stream is kept by reference, which is sound
because every writer rebinds ``Document.tokens`` to a new list and
never mutates one in place.  Per-parse node cost is O(touched region),
which keeps the *incremental* cost of a parse incremental.

Rollback is value-faithful: node *identities* survive, so annotations,
the token stream, and any outstanding edit log keep working after a
restore exactly as before the failed attempt.  That includes the
stream's freshness marker: a relexed node's ``parent`` is written only
through journaled sites, so a rollback returns it to ``None``.  The
O(tree) value snapshot that the fault-injection suite compares against
lives in :mod:`repro.testing.oracles`.
"""

from __future__ import annotations

from ..dag.journal import MutationJournal, activate, deactivate


class _DocumentState:
    """The document's own (non-node) mutable state, captured shallowly.

    Everything a commit writes is here, because a rollback may follow a
    completed commit (a failed ``REPRO_VALIDATE`` check).  The token
    stream and the last commit's removed terminals are held by reference
    (writers rebind them, never mutate them); the short per-edit lists,
    which edits extend in place, are copied.  Nodes are *not* walked
    here -- node-level capture is the journal's job.
    """

    __slots__ = (
        "text",
        "version",
        "tokens",
        "removed_nodes",
        "edit_log",
        "last_result",
        "last_removed_terminals",
        "error_count",
        "tree",
    )

    def __init__(self, document) -> None:
        doc = document
        self.text: str = doc.text
        self.version: int = doc.version
        self.tokens = doc.tokens
        self.removed_nodes = list(doc._removed_nodes)
        self.edit_log = list(doc._edit_log)
        self.last_result = doc.last_result
        self.last_removed_terminals = doc.last_removed_terminals
        self.error_count: int = doc._error_count
        self.tree = doc.tree

    def restore(self, document) -> None:
        doc = document
        doc.text = self.text
        doc.version = self.version
        doc.tokens = self.tokens
        doc._removed_nodes = list(self.removed_nodes)
        doc._edit_log = list(self.edit_log)
        doc.last_result = self.last_result
        doc.last_removed_terminals = self.last_removed_terminals
        doc._error_count = self.error_count
        doc.tree = self.tree


class JournalTransaction:
    """One version change's rollback scope: capture on write, replay in
    reverse on failure.

    ``rollback`` restores the document to the state at construction and
    may be called repeatedly.  ``close`` releases the scope and must run
    exactly once, on every exit path; ``Document._atomic`` is the one
    place that opens, rolls back and closes a scope.
    """

    __slots__ = ("_state", "_journal", "_open")

    def __init__(self, document) -> None:
        self._state = _DocumentState(document)
        self._journal = MutationJournal()
        self._open = True
        activate(self._journal)

    @property
    def node_records(self) -> int:
        return len(self._journal)

    def rollback(self, document) -> None:
        # Replay first: node restores must see the failed attempt's
        # writes undone before the scalar state points back at the old
        # tree.
        self._journal.replay()
        self._state.restore(document)

    def close(self) -> None:
        """Release the transaction scope (idempotent)."""
        if self._open:
            self._open = False
            deactivate(self._journal)
