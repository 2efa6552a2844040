"""Node model for the abstract parse DAG (paper section 2).

Three node kinds:

* :class:`TerminalNode` — wraps a lexical token; the leaves.
* :class:`ProductionNode` — an instance of a grammar production.  It plays
  both roles of Rekers' split representation at once: in unambiguous
  regions it *is* the symbol, avoiding the per-node overhead of always
  splitting symbols from rules (Figure 2c/f).
* :class:`SymbolNode` — a *choice point*, created only where multiple
  interpretations of the same yield actually exist.  Its children are the
  alternative interpretations; selecting a child is how later passes
  disambiguate (the unselected child is retained, paper section 4.2).

Every node carries the parse state under which it was shifted
(``state``), or :data:`NO_STATE` when it was built while several parsers
were active — the paper's "equivalence class of all non-deterministic
states", which makes any future state-match fail and forces decomposition
(section 3.3).

Every node also carries two synthesized counts next to ``n_terms``:
``n_nodes``, the unique nodes of its subtree, and ``n_choices``, the
live choice points among them.  They are filled lazily, bottom-up, by
:func:`repro.dag.traversal.census`; :data:`UNKNOWN` marks a count that
construction or a mutation left to be (re)computed.
"""

from __future__ import annotations

from typing import Iterator

from .. import obs
from ..grammar.cfg import Production
from ..lexing.tokens import Token
from .journal import touch

# Sentinel state: "built while multiple parsers were active".  Any node
# carrying it fails the state-matching test unconditionally.
NO_STATE = -1

# The pseudo-symbol carried by error nodes.  It is never a grammar
# symbol, so every table lookup (goto, nonterminal actions) misses and
# the parsers are forced to decompose an error region instead of
# shifting it whole -- the same non-reuse discipline as multistate nodes.
ERROR_SYMBOL = "<error>"

# A synthesized count (``n_nodes``/``n_choices``) not yet computed.
UNKNOWN = -1


class Node:
    """Base class for parse-DAG nodes."""

    __slots__ = (
        "parent",
        "state",
        "n_terms",
        "n_nodes",
        "n_choices",
        "annotations",
    )

    def __init__(self, state: int = NO_STATE) -> None:
        self.parent: Node | None = None
        self.state = state
        # Terminal count of the yield; fixed at construction.  Used for
        # cover (yield-range) bookkeeping during GLR context merging.
        self.n_terms = 0
        # Unique nodes and live choice points of the subtree; filled by
        # census(), reset to UNKNOWN whenever the subtree changes.
        self.n_nodes = UNKNOWN
        self.n_choices = UNKNOWN
        # Lazily allocated bag for semantic attributes (bindings, the
        # "filtered" flag of rejected interpretations, error flags...).
        self.annotations: dict | None = None

    # -- structure ---------------------------------------------------------

    @property
    def kids(self) -> tuple["Node", ...]:
        return ()

    @property
    def symbol(self) -> str:
        raise NotImplementedError

    @property
    def is_terminal(self) -> bool:
        return False

    @property
    def is_symbol_node(self) -> bool:
        return False

    @property
    def is_sequence_node(self) -> bool:
        return False

    @property
    def is_sequence_part(self) -> bool:
        return False

    @property
    def is_error_node(self) -> bool:
        return False

    @property
    def arity(self) -> int:
        return len(self.kids)

    # -- synthesized counts ----------------------------------------------------

    def forget_counts(self) -> None:
        """Mark the synthesized counts unknown: the subtree changed.

        Journaled like every other write, so a rollback restores them.
        """
        if self.n_nodes != UNKNOWN:
            touch(self)
            self.n_nodes = self.n_choices = UNKNOWN

    # -- transactional capture ----------------------------------------------

    def _capture_structure(self):
        """The node-kind-specific mutable link bundle, or None.

        Shared by the first-touch mutation journal and the snapshot
        oracle (``repro.testing.oracles``) so both restore
        byte-identical state.
        Terminals and sequence parts have no mutable structure beyond
        the (state, parent, n_terms, n_nodes, n_choices) fields every
        node carries.
        """
        return None

    def _restore_structure(self, structure) -> None:
        """Write back what :meth:`_capture_structure` returned."""

    # -- annotations ------------------------------------------------------------

    def get_annotation(self, key: str, default=None):
        if self.annotations is None:
            return default
        return self.annotations.get(key, default)

    def set_annotation(self, key: str, value) -> None:
        if self.annotations is None:
            self.annotations = {}
        self.annotations[key] = value

    # -- traversal helpers --------------------------------------------------------

    def iter_terminals(self) -> Iterator["TerminalNode"]:
        """All terminal descendants, left to right.

        At choice points only the first alternative is followed (all
        alternatives share the same yield by construction).
        """
        stack: list[Node] = [self]
        while stack:
            node = stack.pop()
            if node.is_terminal:
                yield node  # type: ignore[misc]
            elif node.is_symbol_node:
                stack.append(node.kids[0])
            else:
                stack.extend(reversed(node.kids))

    def walk(self, into_alternatives: bool = True) -> Iterator["Node"]:
        """Preorder walk.  ``into_alternatives=False`` follows only the
        first child of each choice point."""
        stack: list[Node] = [self]
        while stack:
            node = stack.pop()
            yield node
            if node.is_symbol_node and not into_alternatives:
                stack.append(node.kids[0])
            else:
                stack.extend(reversed(node.kids))


class TerminalNode(Node):
    """A leaf wrapping one token."""

    __slots__ = ("token",)

    def __init__(self, token: Token, state: int = NO_STATE) -> None:
        super().__init__(state)
        self.token = token
        self.n_terms = 1
        self.n_nodes = 1
        self.n_choices = 0

    @property
    def symbol(self) -> str:
        return self.token.type

    @property
    def is_terminal(self) -> bool:
        return True

    @property
    def text(self) -> str:
        return self.token.text

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TerminalNode({self.token.type!r}, {self.token.text!r})"


class ProductionNode(Node):
    """An instance of a grammar production.

    ``kids_list`` is mutable only through :meth:`replace_kids` (used by
    sequence rebalancing and error recovery); ordinary parsing treats the
    children as fixed at construction.
    """

    __slots__ = ("production", "_kids")

    def __init__(
        self,
        production: Production,
        kids: tuple[Node, ...],
        state: int = NO_STATE,
    ) -> None:
        super().__init__(state)
        self.production = production
        self._kids = tuple(kids)
        self.n_terms = sum(kid.n_terms for kid in kids)

    @property
    def kids(self) -> tuple[Node, ...]:
        return self._kids

    @property
    def symbol(self) -> str:
        return self.production.lhs

    def replace_kids(self, kids: tuple[Node, ...]) -> None:
        touch(self)
        self._kids = tuple(kids)
        self.n_terms = sum(kid.n_terms for kid in kids)
        self.forget_counts()

    def adopt_kids(self) -> None:
        """Point the children's parent links at this node."""
        for kid in self._kids:
            touch(kid)
            kid.parent = self

    def _capture_structure(self):
        return self._kids

    def _restore_structure(self, structure) -> None:
        self._kids = structure

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ProductionNode({self.production.lhs}->{' '.join(self.production.rhs)})"


class SymbolNode(Node):
    """A choice point: alternative interpretations of one yield.

    The paper's symbol (phylum) node.  Always carries :data:`NO_STATE` —
    it exists only where the parse was ambiguous, so it can never be
    shifted by state matching without decomposition.
    """

    __slots__ = ("_symbol", "_alternatives")

    def __init__(self, first: Node) -> None:
        super().__init__(NO_STATE)
        obs.incr("dag.choice_nodes")
        self._symbol = first.symbol
        self._alternatives: list[Node] = [first]
        self.n_terms = first.n_terms
        touch(first)
        first.parent = self
        # Alternatives belong to a non-deterministic region: they must
        # never be shifted whole by state matching, or the competing
        # interpretation would be silently dropped.  Tagging them with
        # the non-deterministic sentinel forces decomposition, after
        # which GLR reparsing rediscovers every alternative.
        first.state = NO_STATE

    @property
    def kids(self) -> tuple[Node, ...]:
        return tuple(self._alternatives)

    @property
    def alternatives(self) -> list[Node]:
        return self._alternatives

    @property
    def symbol(self) -> str:
        return self._symbol

    @property
    def is_symbol_node(self) -> bool:
        return True

    def add_choice(self, node: Node) -> None:
        """Add an alternative interpretation (idempotent)."""
        if node not in self._alternatives:
            touch(self)
            touch(node)
            obs.incr("dag.choice_alternatives")
            self._alternatives.append(node)
            self.forget_counts()
            node.parent = self
            node.state = NO_STATE  # see __init__: alternatives never match

    def _capture_structure(self):
        return tuple(self._alternatives)

    def _restore_structure(self, structure) -> None:
        self._alternatives = list(structure)

    def selected(self) -> Node | None:
        """The interpretation chosen by disambiguation, if decided.

        Alternatives rejected by a semantic filter carry the
        ``filtered`` annotation; when exactly one survivor remains it is
        the selection.
        """
        live = [
            alt
            for alt in self._alternatives
            if not alt.get_annotation("filtered", False)
        ]
        if len(live) == 1:
            return live[0]
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SymbolNode({self._symbol!r}, {len(self._alternatives)} alts)"


class ErrorNode(Node):
    """An isolated error region (history-sensitive recovery, paper 4.3).

    Panic-mode isolation wraps the input stretch the parser could not
    incorporate -- raw skipped terminals plus any well-formed subtrees
    salvaged around it -- so a malformed program still commits a tree
    covering every token: "program errors leave ambiguities in place
    indefinitely"; here they leave *error regions* in place until an
    edit resolves them.

    Error nodes always carry :data:`NO_STATE` and a non-grammar symbol,
    so state matching, sentential-form goto tests, and the nonterminal
    reduction fast path all fail on them: an error region can never be
    reused whole.  Its *kids* decompose normally, so salvaged structure
    inside the region is still reusable once the text is repaired.
    """

    __slots__ = ("_kids",)

    def __init__(self, kids: tuple[Node, ...]) -> None:
        super().__init__(NO_STATE)
        self._kids = tuple(kids)
        self.n_terms = sum(kid.n_terms for kid in self._kids)

    @property
    def kids(self) -> tuple[Node, ...]:
        return self._kids

    @property
    def symbol(self) -> str:
        return ERROR_SYMBOL

    @property
    def is_error_node(self) -> bool:
        return True

    def replace_kids(self, kids: tuple[Node, ...]) -> None:
        touch(self)
        self._kids = tuple(kids)
        self.n_terms = sum(kid.n_terms for kid in self._kids)
        self.forget_counts()

    def adopt_kids(self) -> None:
        for kid in self._kids:
            touch(kid)
            kid.parent = self

    def _capture_structure(self):
        return self._kids

    def _restore_structure(self, structure) -> None:
        self._kids = structure

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ErrorNode({len(self._kids)} kids, {self.n_terms} terms)"


def count_nodes(root: Node, into_alternatives: bool = True) -> int:
    """Number of nodes reachable from ``root`` (each counted once)."""
    seen: set[int] = set()
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node.is_symbol_node and not into_alternatives:
            stack.append(node.kids[0])
        else:
            stack.extend(node.kids)
    return len(seen)
