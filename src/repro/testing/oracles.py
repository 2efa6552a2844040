"""Reference implementations the differential suites compare against.

Production documents roll back failed parses with the first-touch
mutation journal (:class:`~repro.versioned.transactions.JournalTransaction`).
The journal is only correct if every mutation site is instrumented, so
the fault-injection equivalence suite runs every crash point twice: on a
production :class:`~repro.versioned.document.Document`, and on a
:class:`SnapshotDocument`, whose rollback captures every mutable field of
every reachable node before the attempt and writes it all back on
failure.  That is O(tree) on every parse and trivially correct, which is
what an oracle needs to be.

This module imports the analysis layers, so :mod:`repro.testing` does not
import it; tests import ``repro.testing.oracles`` directly.
"""

from __future__ import annotations

from ..dag.nodes import Node
from ..versioned.document import Document
from ..versioned.transactions import _DocumentState

# Record layout: (node, state, parent, n_terms, n_nodes, n_choices,
# structure) where ``structure`` is the node-kind-specific mutable link
# bundle (``Node._capture_structure``) -- shared with the mutation
# journal.
_Record = tuple


class DocumentSnapshot:
    """A restorable snapshot of a Document's complete analysis state."""

    __slots__ = ("state", "records")

    def __init__(self, document) -> None:
        self.state = _DocumentState(document)
        # The stream's uncommitted nodes live across parse attempts too:
        # a failed attempt may have adopted them.
        roots = [document.tree] if document.tree is not None else []
        self.records: list[_Record] = _capture(roots + document.tokens)

    def restore(self, document) -> None:
        """Write the snapshot back; the document forgets the failed attempt."""
        self.state.restore(document)
        for (
            node, state, parent, n_terms, n_nodes, n_choices, structure
        ) in self.records:
            node.state = state
            node.parent = parent
            node.n_terms = n_terms
            node.n_nodes = n_nodes
            node.n_choices = n_choices
            node._restore_structure(structure)


def _capture(roots: list[Node]) -> list[_Record]:
    """Mutable state of every node reachable from ``roots``, once each.

    Sequence parts are persistent (their kid tuples, item counts, and
    depths are fixed at construction), so for them -- as for terminals --
    only the fields every node carries (state, parent, and the three
    synthesized counts) need recording.
    """
    records: list[_Record] = []
    seen: set[int] = set()
    stack: list[Node] = list(roots)
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        records.append(
            (
                node,
                node.state,
                node.parent,
                node.n_terms,
                node.n_nodes,
                node.n_choices,
                node._capture_structure(),
            )
        )
        stack.extend(node.kids)
    return records


class SnapshotTransaction:
    """O(tree) value snapshot up front; restore is a bulk write-back.

    Same interface as
    :class:`~repro.versioned.transactions.JournalTransaction`.
    """

    __slots__ = ("_snapshot",)

    def __init__(self, document) -> None:
        self._snapshot = DocumentSnapshot(document)

    @property
    def node_records(self) -> int:
        return len(self._snapshot.records)

    def rollback(self, document) -> None:
        self._snapshot.restore(document)

    def close(self) -> None:
        """Nothing to release: the snapshot holds no global state."""


class SnapshotDocument(Document):
    """A :class:`Document` whose parses roll back by value snapshot."""

    def _transaction(self) -> SnapshotTransaction:
        return SnapshotTransaction(self)
