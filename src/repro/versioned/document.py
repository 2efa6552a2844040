"""Self-versioning documents: the incremental analysis driver.

A :class:`Document` owns the program text, its token stream, and its
abstract parse DAG, and keeps all three consistent across edits.  The
token stream is a list of the DAG's own terminal nodes: an unchanged
token *is* the committed tree's terminal, and a token relexed since the
last commit is a new node with no parent yet.

* :meth:`edit` applies a textual change, incrementally relexing the
  affected region (paper's incremental lexer with lookahead tracking);
* :meth:`parse` incrementally reparses, reusing unchanged subtrees from
  the previous version, and commits the new tree;
* on a syntax error, a recovery ladder (paper section 4.3) keeps the
  document analyzable: history-sensitive non-correcting recovery reverts
  the most recent offending modifications when a clean prior version
  exists, and panic-mode error isolation confines the damage to
  :class:`~repro.dag.nodes.ErrorNode` regions when it does not;
* :meth:`isolate` runs that isolation on its own, for a client whose
  text is authoritative and must never see its edits reverted;
* :meth:`release` lets go of the parent-linked DAG when the document is
  dropped, so reference counting frees it.

Every version change -- a parse, a recovery trial, an isolation -- is
transactional: a first-touch mutation journal (see
`repro.versioned.transactions`) records old values as the pipeline
writes them and is replayed in reverse if *anything* goes wrong, so no
exception -- syntax error, invariant violation, injected fault -- can
leave a document between versions.

The previous tree is the paper's ``lastParsedVersion``; between parses,
modifications accumulate in the token stream (parentless nodes) and the
list of removed committed terminals, and are turned into a
:class:`~repro.parser.plan.ParsePlan` overlay when parsing starts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .. import obs
from ..dag.journal import touch
from ..dag.nodes import UNKNOWN, ErrorNode, Node, ProductionNode, TerminalNode
from ..dag.traversal import census, error_regions, unparse
from ..dag.validate import check_document, validation_enabled
from ..language import Language
from ..lexing.incremental import relex
from ..lexing.tokens import BOS, Token
from ..parser.iglr import IGLRParser, ParseError, ParseResult, ParseStats
from ..parser.incremental_lr import IncrementalLRParser
from ..parser.input_stream import InputStream
from ..parser.plan import ParsePlan
from ..testing.faults import crash_point, register_points
from .transactions import JournalTransaction

register_points(**{
    "commit:start": "commit pipeline entered, nothing written yet",
    "commit:adopted": "new nodes have adopted their kids",
    "commit:collapsed": "sequence spines collapsed to balanced form",
    "commit:rooted": "new root installed, parents re-adopted",
    "recover:after-revert": "one edit reverted during history-sensitive recovery",
    "isolate:reparse": "panic-mode tolerant reparse about to run",
    "persist:doc-capture": "document snapshot payload being assembled",
    "persist:doc-restore": "document state being rebuilt from a payload",
})


@dataclass(frozen=True)
class Edit:
    """One textual modification, invertible for error recovery."""

    offset: int
    removed_text: str
    inserted_text: str

    def inverse(self) -> "Edit":
        return Edit(self.offset, self.inserted_text, self.removed_text)


@dataclass
class AnalysisReport:
    """Outcome of :meth:`Document.parse` or :meth:`Document.isolate`.

    ``error_regions`` counts the isolated error regions in the committed
    tree (zero for a clean parse); ``recovered`` is True when the tree
    was produced by panic-mode isolation rather than a normal parse.
    """

    stats: ParseStats
    ambiguous_regions: int
    reverted_edits: list[Edit] = field(default_factory=list)
    error_regions: int = 0
    recovered: bool = False

    @property
    def fully_incorporated(self) -> bool:
        return not self.reverted_edits


class Document:
    """An editable program with an incrementally maintained parse DAG."""

    def __init__(
        self,
        language: Language,
        text: str = "",
        engine: str = "iglr",
        balanced_sequences: bool = False,
    ) -> None:
        self.language = language
        self.text = text
        self.engine_name = engine
        # Balanced representation for grammar-declared sequences (paper
        # 3.4): spines collapse to log-depth SequenceNodes at commit, and
        # sequence-local edits are repaired by fragment reparse + splice
        # without running the main parser.
        self.balanced_sequences = balanced_sequences
        if engine == "iglr":
            self._parser = IGLRParser(language.table)
        elif engine == "lr":
            self._parser = IncrementalLRParser(language.table)
        elif engine == "lr-sentential":
            self._parser = IncrementalLRParser(
                language.table, mode="sentential-form"
            )
        else:
            raise ValueError(f"unknown engine {engine!r}")
        self.tree: ProductionNode | None = None
        self.version = 0
        # The token stream as terminal nodes, EOS last.  A node with no
        # parent has not been committed yet: relex made it since the
        # last parse.  Every writer rebinds the list, never mutates it.
        self.tokens: list[TerminalNode] = []
        self.last_result: ParseResult | None = None
        # Committed terminals that left the stream since the last parse.
        self._removed_nodes: list[TerminalNode] = []
        # Same, for the *last committed* parse: alongside
        # last_result.new_nodes this is the mutation journal consumers
        # (e.g. repro.semantics) read to scope invalidation to the edit.
        self.last_removed_terminals: list[TerminalNode] = []
        self._edit_log: list[Edit] = []
        self._bos_node = TerminalNode(Token(BOS, ""))
        # Error regions in the committed tree (0 = clean version).
        self._error_count = 0

    # -- editing ------------------------------------------------------------

    def edit(self, offset: int, removed_len: int, inserted: str) -> None:
        """Replace ``removed_len`` characters at ``offset`` by ``inserted``.

        The token stream is incrementally relexed immediately; the parse
        DAG is updated on the next :meth:`parse`.
        """
        if offset < 0 or offset + removed_len > len(self.text):
            raise ValueError("edit range outside document")
        obs.incr("doc.edits")
        removed_text = self.text[offset : offset + removed_len]
        self._edit_log.append(Edit(offset, removed_text, inserted))
        self._apply_edit(offset, removed_len, inserted)

    def _apply_edit(self, offset: int, removed_len: int, inserted: str) -> None:
        self.text = (
            self.text[:offset]
            + inserted
            + self.text[offset + removed_len :]
        )
        if self.tree is None:
            return  # first parse will lex from scratch
        result = relex(
            self.language.lexer,
            self.tokens,
            self.text,
            offset,
            removed_len,
            len(inserted),
        )
        self.tokens = result.tokens
        # A parentless node never entered the tree: it simply vanishes.
        self._removed_nodes.extend(
            node for node in result.removed if node.parent is not None
        )

    def insert(self, offset: int, text: str) -> None:
        """Convenience: insert text."""
        self.edit(offset, 0, text)

    def delete(self, offset: int, length: int) -> None:
        """Convenience: delete text."""
        self.edit(offset, length, "")

    # -- parsing ----------------------------------------------------------------

    def parse(self, recover: bool = True) -> AnalysisReport:
        """(Re)parse the document, committing the new version.

        With ``recover=True`` (default), a syntax error runs the recovery
        ladder: history-sensitive reversion of the most recent edits when
        a clean previous version and pending edits exist, panic-mode
        error isolation otherwise (fresh documents, documents whose
        committed tree already contains error regions, nothing to
        revert), with isolation as the last resort when reversion cannot
        converge.  Reverted
        edits are reported as unincorporated; isolated errors are
        reported via ``error_regions``/``recovered``.  With
        ``recover=False`` the :class:`~repro.parser.iglr.ParseError`
        propagates and the document keeps its previous version.

        *Any* exception escaping this method -- ``recover=False`` syntax
        errors, faults injected into the commit pipeline, and under
        ``REPRO_VALIDATE`` an invariant violation of the new version --
        leaves the document exactly as it was on entry.
        """
        with obs.span("doc.parse", version=self.version):
            obs.incr("doc.parses")
            try:
                return self._atomic(self._parse_attempt)
            except ParseError:
                if not recover:
                    raise
                return self._recover_ladder()

    def _transaction(self) -> JournalTransaction:
        """Open a rollback scope over the document's current state."""
        return JournalTransaction(self)

    def _atomic(
        self, attempt: Callable[[], AnalysisReport]
    ) -> AnalysisReport:
        """Run ``attempt`` as one unit: it commits and checks, or never ran.

        Every version change goes through here.  Under ``REPRO_VALIDATE``
        the invariants are checked before the scope closes, so a failed
        check rolls back like any other exception.
        """
        txn = self._transaction()
        try:
            report = attempt()
            if validation_enabled():
                check_document(self)
            return report
        except BaseException:
            txn.rollback(self)
            raise
        finally:
            txn.close()

    def _parse_attempt(self) -> AnalysisReport:
        """One straight-line parse + commit, no recovery."""
        if self.tree is None:
            self.tokens = [
                TerminalNode(tok) for tok in self.language.lexer.lex(self.text)
            ]
            stream = InputStream(self.tokens)
        else:
            if self.balanced_sequences:
                repaired = self._attempt_sequence_repair()
                if repaired is not None:
                    return repaired
            stream = InputStream(
                [self.tree.kids[1], self.tree.kids[2]],
                self._build_plan(),
                self.language.grammar.sequence_shapes,
            )
        result = self._parser.parse(stream)
        self._commit(result)
        return self._report(result.stats)

    def fresh_runs(self) -> list[tuple[list[TerminalNode], TerminalNode | None]]:
        """Maximal runs of uncommitted stream nodes, left to right.

        Each run comes with the committed node it precedes, or None when
        it ends the stream.
        """
        runs: list[tuple[list[TerminalNode], TerminalNode | None]] = []
        run: list[TerminalNode] = []
        for node in self.tokens:
            if node.parent is None:
                run.append(node)
            elif run:
                runs.append((run, node))
                run = []
        if run:
            runs.append((run, None))
        return runs

    def _build_plan(self) -> ParsePlan:
        """Convert accumulated token changes into a modification overlay."""
        plan = ParsePlan()
        for node in self._removed_nodes:
            plan.mark_deleted(node)
        for run, anchor in self.fresh_runs():
            if anchor is None:
                plan.add_pending_at_end(run)
            else:
                plan.add_pending_before(anchor, run)
        return plan

    def _attempt_sequence_repair(self) -> AnalysisReport | None:
        """The paper-3.4 fast path: splice reparsed elements in place."""
        from ..parser.sequences import attempt_sequence_repair

        outcome = attempt_sequence_repair(self)
        if outcome is None:
            return None
        self._close_version(
            ParseResult(self.tree.kids[1], outcome.stats, outcome.new_nodes)
        )
        return self._report(outcome.stats)

    def _commit(self, result: ParseResult) -> None:
        with obs.span("doc.commit"):
            obs.incr("doc.commits")
            self._commit_inner(result)

    def _commit_inner(self, result: ParseResult) -> None:
        crash_point("commit:start")
        for node in result.new_nodes:
            # Retention-pool reuse hands an old node, counts included,
            # to a new reduction: recount every new node.
            node.forget_counts()
            if isinstance(node, (ProductionNode, ErrorNode)):
                node.adopt_kids()
        crash_point("commit:adopted")
        if self.balanced_sequences:
            from ..dag.sequences import SequenceNode
            from ..parser.sequences import collapse_sequences

            replacements = collapse_sequences(
                result.new_nodes, self.language.grammar
            )
            replaced_root = replacements.get(id(result.root))
            if replaced_root is not None:
                result.root = replaced_root
            result.new_nodes.extend(replacements.values())
            # Sequence nodes synthesized during breakdown defer their
            # internal adoption until they are known to be in the
            # committed tree; fix the spines of any sequence reachable
            # as a child of new structure.
            for node in result.new_nodes:
                if isinstance(node, (ProductionNode, ErrorNode)):
                    for kid in node.kids:
                        if isinstance(kid, SequenceNode):
                            kid._adopt_spine()
            if isinstance(result.root, SequenceNode):
                result.root._adopt_spine()
        crash_point("commit:collapsed")
        root = ProductionNode(
            self.language.root_production,
            (self._bos_node, result.root, self.tokens[-1]),
        )
        root.adopt_kids()
        self.tree = root
        # Re-adopt along the committed structure: dead GSS branches and
        # discarded alternatives also ran adopt_kids above, and whichever
        # adopter came last owns a shared kid's parent pointer.  Upward
        # navigation (change propagation, sequence repair) needs parents
        # that are *in* the tree, so give in-tree parents the last word.
        # O(new nodes): old subtrees are internally consistent already.
        # New items spliced into a balanced sequence sit under parts
        # built this commit, which are not parse results but are the
        # only parts whose counts are still unknown.
        new_ids = {id(n) for n in result.new_nodes}
        seen: set[int] = set()
        stack: list[Node] = [root]
        while stack:
            node = stack.pop()
            for kid in node.kids:
                touch(kid)
                kid.parent = node
                if id(kid) not in seen and (
                    id(kid) in new_ids
                    or (kid.n_nodes == UNKNOWN and kid.is_sequence_part)
                ):
                    seen.add(id(kid))
                    stack.append(kid)
        crash_point("commit:rooted")
        if self._error_count or any(n.is_error_node for n in result.new_nodes):
            self._error_count = len(error_regions(self.tree))
        else:
            self._error_count = 0
        self._close_version(result)

    def _close_version(self, result: ParseResult) -> None:
        """The bookkeeping every commit ends with: the edits are in."""
        self.last_removed_terminals = self._removed_nodes
        self._removed_nodes = []
        self._edit_log = []
        self.version += 1
        self.last_result = result

    def _report(
        self, stats: ParseStats, recovered: bool = False
    ) -> AnalysisReport:
        return AnalysisReport(
            stats=stats,
            ambiguous_regions=self._choice_count(),
            error_regions=self._error_count,
            recovered=recovered,
        )

    # -- error recovery -----------------------------------------------------------

    def _recover_ladder(self) -> AnalysisReport:
        """Run the recovery ladder after a failed parse attempt.

        The failed attempt has already rolled back, so the document is
        in its pre-parse state.  Ladder, in order (paper 4.3 plus
        isolation):

        1. *History-sensitive reversion* when the committed tree is clean
           and edits are pending: undo the most recent edits one at a
           time until some prefix of the modification history parses;
           reverted edits are reported as unincorporated.
        2. *Isolation* otherwise -- fresh documents, documents whose tree
           already contains error regions (reverting edits cannot reach a
           parseable text), a reparse with nothing to revert -- and as the
           last resort when reversion exhausts the history: the full edit
           history stays applied and the errors are isolated instead of
           losing the user's modifications.
        """
        if self.tree is not None and not self._error_count and self._edit_log:
            try:
                report = self._atomic(self._revert_until_parse)
            except ParseError:
                pass  # history exhausted; the rollback re-applied every edit
            else:
                obs.incr("doc.recoveries")
                return report
        return self.isolate()

    def _revert_until_parse(self) -> AnalysisReport:
        """Undo pending edits, newest first, until a trial parses.

        The trial is the commit: a reverted prefix that parses is
        incorporated by that very attempt.  Each trial rolls back on its
        own, so a failed one leaks no scratch state (fresh terminal
        nodes, clobbered parse states) into the next.  Raises the last
        trial's :class:`ParseError` when the history runs out.
        """
        reverted: list[Edit] = []
        while True:
            edit = self._edit_log.pop()
            inverse = edit.inverse()
            self._apply_edit(
                inverse.offset, len(inverse.removed_text), inverse.inserted_text
            )
            reverted.append(edit)
            crash_point("recover:after-revert")
            try:
                report = self._atomic(self._parse_attempt)
            except ParseError:
                if not self._edit_log:
                    raise
                continue
            report.reverted_edits = reverted
            return report

    def isolate(self) -> AnalysisReport:
        """Commit the current text with its errors isolated (paper 4.3).

        The recovery ladder's isolation rung, callable on its own by a
        client whose text is authoritative: a batch reparse that confines
        unparseable regions to :class:`~repro.dag.nodes.ErrorNode`
        subtrees and keeps every edit (``recovered`` is set).  The
        tolerant parse never raises a syntax error, so this always
        commits; any exception -- an injected fault, or under
        ``REPRO_VALIDATE`` an invariant violation -- leaves the document
        as it was on entry.
        """
        with obs.span("doc.isolate", version=self.version):
            report = self._atomic(self._isolate_attempt)
        obs.incr("doc.recoveries")
        return report

    def _isolate_attempt(self) -> AnalysisReport:
        # Batch re-derivation: the previous tree (if any) is abandoned
        # wholesale, so every token gets a new node.
        if self.tree is None:
            tokens = self.language.lexer.lex(self.text)
        else:
            tokens = [node.token for node in self.tokens]
        self.tokens = [TerminalNode(tok) for tok in tokens]
        self._removed_nodes = []
        crash_point("isolate:reparse")
        result = self._parser.parse_tolerant(self.tokens)
        self._commit(result)
        return self._report(result.stats, recovered=True)

    # -- queries --------------------------------------------------------------------

    @property
    def body(self) -> Node | None:
        """The start-symbol node of the current tree (None before parse)."""
        return self.tree.kids[1] if self.tree is not None else None

    @property
    def is_ambiguous(self) -> bool:
        return self.tree is not None and self._choice_count() > 0

    @property
    def has_errors(self) -> bool:
        """True when the committed tree contains isolated error regions."""
        return self._error_count > 0

    @property
    def dirty(self) -> bool:
        """Edits accepted (or text never parsed) since the last commit.

        A dirty document's ``text`` runs ahead of its committed tree, so
        tree-derived answers (``has_errors``, ``body``...) describe an
        older version of the buffer.
        """
        return bool(self._edit_log) or self.tree is None

    def _choice_count(self) -> int:
        """Live choice points in the committed DAG, read at the root."""
        census(self.tree)
        return self.tree.n_choices

    def tree_node_count(self) -> int:
        """Unique nodes in the committed DAG (shared nodes counted once).

        Read at the root after a census, so the resident-size accounting
        of the analysis service, which asks after every committed batch,
        pays for the nodes the last parse changed, not for the document.
        """
        if self.tree is None:
            return 0
        census(self.tree)
        return self.tree.n_nodes

    # -- lifetime -------------------------------------------------------------

    def release(self) -> None:
        """Let go of the parse DAG so reference counting frees it at once.

        The DAG is parent-linked, so a dropped document is one large
        reference cycle that only a full cyclic collection reclaims.
        This clears the ``parent`` link of every node the document can
        reach through ``kids`` and ``parent`` links, starting from the
        committed tree, the token stream, the last parse's new nodes
        (dead GLR branches included) and the removed terminals.  A link
        is followed before it is cleared, which matters: the structure
        the last edit replaced hangs from the removed terminals, and a
        dead branch or a discarded sequence part hangs from a new node,
        and both still point down into live subtrees.

        The document keeps its text and version; its next :meth:`parse`
        lexes and parses from scratch.  Not journaled: never call this
        inside a transaction.
        """
        stack: list[Node] = [
            *self.tokens, *self.last_removed_terminals, *self._removed_nodes
        ]
        if self.tree is not None:
            stack.append(self.tree)
        if self.last_result is not None:
            stack.extend(self.last_result.new_nodes)
        seen: set[int] = set()
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            if node.parent is not None:
                stack.append(node.parent)
                node.parent = None
            stack.extend(node.kids)
        self.tree = None
        self.tokens = []
        self.last_result = None
        self.last_removed_terminals = []
        self._removed_nodes = []
        self._error_count = 0

    # -- persistence ----------------------------------------------------------

    def snapshot_state(self) -> dict | None:
        """Picklable payload of the committed state, or None.

        The payload carries no :class:`~repro.language.Language`
        reference (languages are rebuilt from their name or DSL source
        on restore, warm-started by the parse-table cache) and only
        describes a *committed* version: a dirty document -- text ahead
        of the tree -- returns None and the caller falls back to a
        text-only snapshot.  The token stream's nodes are the tree's
        terminals, so a single pickle of the returned dict preserves the
        identity structure the incremental parser depends on.
        """
        if self.tree is None or self.dirty:
            return None
        crash_point("persist:doc-capture")
        return {
            "text": self.text,
            "version": self.version,
            "engine": self.engine_name,
            "balanced": self.balanced_sequences,
            "error_count": self._error_count,
            "tree": self.tree,
            "tokens": self.tokens,
        }

    @classmethod
    def restore_state(cls, language: Language, payload: dict) -> "Document":
        """Rebuild a committed document from :meth:`snapshot_state`.

        The restored document is immediately parseable: the next
        :meth:`edit` + :meth:`parse` runs the ordinary incremental
        pipeline against the unpickled tree, so recovery cost after a
        process restart is one incremental pass over whatever changed,
        not a batch reparse.
        """
        crash_point("persist:doc-restore")
        doc = cls(
            language,
            payload["text"],
            engine=payload["engine"],
            balanced_sequences=payload["balanced"],
        )
        tree = payload["tree"]
        if not isinstance(tree, ProductionNode) or len(tree.kids) != 3:
            raise ValueError("snapshot payload has no well-formed root")
        doc.tree = tree
        doc.tokens = payload["tokens"]
        # Future commits wrap the body with the restored bos terminal,
        # keeping the root's first kid stable across the restart.
        doc._bos_node = tree.kids[0]
        doc._error_count = payload["error_count"]
        doc.version = payload["version"]
        return doc

    def source_text(self) -> str:
        """Reconstruct text from the tree (must equal ``self.text``)."""
        if self.tree is None:
            return self.text
        return unparse(self.tree)

    def terminal_for_offset(self, offset: int) -> TerminalNode | None:
        """The committed terminal node whose span contains ``offset``.

        None when no token spans it, or when that token was relexed
        since the last parse and so has no place in the tree yet.
        """
        pos = 0
        for node in self.tokens:
            width = node.token.width
            if pos <= offset < pos + width:
                return node if node.parent is not None else None
            pos += width
        return None
