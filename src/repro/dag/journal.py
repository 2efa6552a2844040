"""First-touch mutation journal: O(touched) transactional rollback.

Incremental reparsing mutates the previous version's tree *in place*
(subtree shifts overwrite recorded parse states, retention-pool reuse
re-labels old production nodes, ambiguity packing appends alternatives,
commit re-adopts parent pointers, balanced-sequence repair splices into
the committed spine).  `repro.versioned.transactions` makes that
pipeline transactional with a :class:`MutationJournal`, which records
each node's mutable fields *the first time the node is written* during
a parse attempt.  Rollback replays the journal in reverse, writing the
old values back; the cost of both recording and replay is proportional
to the number of nodes actually touched -- O(t + s lg N) for an
incremental parse, matching the paper's bound for the parse itself.
Capturing every reachable node up front instead would cost O(tree) on
every parse, including the overwhelmingly common success path; that
strategy survives only as the test oracle in `repro.testing.oracles`.

Instrumentation contract
------------------------

Every site that mutates a node which may already belong to the
committed tree calls :func:`touch` *before* the first write.  The sites
are threaded through

* ``repro.dag.nodes`` -- ``replace_kids`` / ``adopt_kids`` /
  ``SymbolNode.__init__`` / ``SymbolNode.add_choice`` /
  ``Node.forget_counts``;
* ``repro.dag.sequences`` -- ``SequenceNode.replace_items`` /
  ``_adopt_spine``;
* ``repro.parser.iglr`` and ``repro.parser.incremental_lr`` -- terminal
  and retention-pool ``state`` writes;
* ``repro.parser.sequences`` -- spine-extension ``state`` writes and
  yield-width refresh along ancestor chains;
* ``repro.versioned.document`` -- the commit re-adoption sweep and the
  count reset of reused nodes.

``touch`` is also safe (and cheap) for nodes created during the current
attempt: their restored fields are simply never observed again after a
rollback discards them.  The document's uncommitted stream nodes are
older than the attempt, and they *are* observed again: a rollback must
return their ``parent`` to ``None``, the document's only marker of a
terminal not yet committed, so no write to ``parent`` may skip ``touch``.

Journals nest.  The recovery ladder runs its reversion trials inside an
enclosing scope; every active journal records the first touch it has
not yet seen, so rolling back an inner trial leaves the outer journal
able to roll the document all the way back to the pre-parse state.
With no journal active, :func:`touch` is a call plus an iteration over
an empty tuple.
"""

from __future__ import annotations

from .. import obs

# Active journals, outermost first.  A tuple (not a list) so the hot
# no-journal path iterates a cached empty singleton; activation rebinds.
_journals: tuple["MutationJournal", ...] = ()


def touch(node) -> None:
    """Record ``node``'s pre-mutation state in every active journal.

    Must be called *before* the first write to the node at any mutation
    site.  No-op (one global load, empty iteration) when no transaction
    is active.
    """
    for journal in _journals:
        journal.record(node)


class MutationJournal:
    """First-touch undo log over parse-DAG nodes.

    Record layout matches ``repro.testing.oracles.DocumentSnapshot``:
    ``(node, state, parent, n_terms, n_nodes, n_choices, structure)``
    where ``structure`` is the node-kind-specific mutable link bundle
    (see ``Node._capture_structure``).  Replaying in reverse is therefore
    bit-identical to a snapshot restore over the touched region -- the
    differential fault-injection suite asserts exactly that.
    """

    __slots__ = ("_seen", "_records")

    def __init__(self) -> None:
        self._seen: set[int] = set()
        self._records: list[tuple] = []

    def __len__(self) -> int:
        return len(self._records)

    def record(self, node) -> None:
        key = id(node)
        if key in self._seen:
            return
        self._seen.add(key)
        obs.incr("journal.records")
        self._records.append(
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

    def replay(self) -> None:
        """Write every recorded old value back, most recent first.

        The journal is reset afterwards: a still-active journal resumes
        recording from the restored state.
        """
        for (
            node, state, parent, n_terms, n_nodes, n_choices, structure
        ) in reversed(self._records):
            node.state = state
            node.parent = parent
            node.n_terms = n_terms
            node.n_nodes = n_nodes
            node.n_choices = n_choices
            node._restore_structure(structure)
        self._seen.clear()
        self._records.clear()


def activate(journal: MutationJournal) -> None:
    """Push a journal onto the active stack (innermost last)."""
    global _journals
    _journals = _journals + (journal,)


def deactivate(journal: MutationJournal) -> None:
    """Remove a journal from the active stack (idempotent)."""
    global _journals
    if journal in _journals:
        _journals = tuple(j for j in _journals if j is not journal)


def active_count() -> int:
    """Number of currently active journals (diagnostics/tests)."""
    return len(_journals)
