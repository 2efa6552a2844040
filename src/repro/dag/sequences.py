"""Balanced representation of associative sequences (paper section 3.4).

Grammars express repetition left-recursively, which makes parse trees of
lists degenerate to linked lists: any incremental algorithm then needs
time linear in the distance from the spine's end.  The paper's remedy:
sequences *declared* in the grammar (regular right parts -- our DSL's
``*``/``+``/``**``/``++``) may be represented however the system likes,
and the system picks a balanced binary tree, guaranteeing logarithmic
node access.

This module provides that representation:

* :class:`SequenceNode` -- stands in for a whole sequence instance where
  the left-recursive spine used to be.  Its ``symbol`` and ``state`` are
  those of the spine root it replaces, so the incremental parser can
  shift it exactly like the spine (and decompose it the same way).
* :class:`SequencePart` -- an internal binary node.  Parts carry
  :data:`~repro.dag.nodes.NO_STATE`: the parser never state-matches a
  part, it only looks *through* them via ``kids``.

Parts are immutable and persistent: replacing an element range builds
O(lg n) new parts along two split paths and shares everything else, which
is what makes sequence repair logarithmic.
"""

from __future__ import annotations

from typing import Sequence

from .. import obs
from .journal import touch
from .nodes import NO_STATE, Node

# Rebuild a subtree whose depth exceeds 2*ceil(log2(size)) + SLACK; keeps
# depth logarithmic under repeated splicing with amortized linear work.
_DEPTH_SLACK = 4

# Splice work accounting for the benchmarks: SequencePart.__init__
# increments this module-level counter.
_PART_COUNTER = [0]


class SequencePart(Node):
    """An internal node of a balanced sequence: exactly two children."""

    __slots__ = ("_kids", "_symbol", "n_items", "depth")

    def __init__(self, symbol: str, left: Node, right: Node) -> None:
        super().__init__(NO_STATE)
        _PART_COUNTER[0] += 1
        obs.incr("seq.parts_created")
        self._symbol = symbol
        self._kids = (left, right)
        self.n_terms = left.n_terms + right.n_terms
        self.n_items = _items_of(left) + _items_of(right)
        self.depth = 1 + max(_depth_of(left), _depth_of(right))

    @property
    def kids(self) -> tuple[Node, ...]:
        return self._kids

    @property
    def symbol(self) -> str:
        return self._symbol

    @property
    def is_sequence_part(self) -> bool:
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SequencePart({self._symbol!r}, {self.n_items} items)"


def _items_of(node: Node) -> int:
    return node.n_items if isinstance(node, SequencePart) else 1


def _depth_of(node: Node) -> int:
    return node.depth if isinstance(node, SequencePart) else 0


def _build(symbol: str, items: Sequence[Node]) -> Node | None:
    """A perfectly balanced tree over ``items``."""
    if not items:
        return None
    if len(items) == 1:
        return items[0]
    mid = len(items) // 2
    return SequencePart(
        symbol, _build(symbol, items[:mid]), _build(symbol, items[mid:])
    )


def _flatten(root: Node | None) -> list[Node]:
    if root is None:
        return []
    out: list[Node] = []
    stack = [root]
    while stack:
        node = stack.pop()
        if isinstance(node, SequencePart):
            stack.extend(reversed(node.kids))
        else:
            out.append(node)
    return out


def _needs_rebuild(node: Node) -> bool:
    if not isinstance(node, SequencePart):
        return False
    size = max(node.n_items, 2)
    return node.depth > size.bit_length() * 2 + _DEPTH_SLACK


def _rebalanced(symbol: str, node: Node | None) -> Node | None:
    """Rebuild ``node`` if it violates the depth bound; else return it.

    Every path that hands a subtree back to callers must pass through
    here (or through :func:`_concat`, which uses it): a half returned
    directly by :func:`_split` is just as able to carry excess depth as
    a freshly joined pair, and skipping the check lets repeated
    split/splice cycles degrade to skewed trees.
    """
    if node is not None and _needs_rebuild(node):
        obs.incr("seq.rebuilds")
        return _build(symbol, _flatten(node))
    return node


def _concat(symbol: str, left: Node | None, right: Node | None) -> Node | None:
    if left is None:
        return right
    if right is None:
        return left
    return _rebalanced(symbol, SequencePart(symbol, left, right))


def _split(
    symbol: str, root: Node | None, count: int
) -> tuple[Node | None, Node | None]:
    """Split off the first ``count`` items; shares untouched subtrees."""
    if root is None or count <= 0:
        return None, root
    if not isinstance(root, SequencePart):
        return root, None
    if count >= root.n_items:
        return _rebalanced(symbol, root), None
    left, right = root.kids
    left_items = _items_of(left)
    if count < left_items:
        first, rest = _split(symbol, left, count)
        return first, _concat(symbol, rest, right)
    if count == left_items:
        return _rebalanced(symbol, left), _rebalanced(symbol, right)
    first, rest = _split(symbol, right, count - left_items)
    return _concat(symbol, left, first), rest


class SequenceNode(Node):
    """A whole sequence instance with balanced internal structure.

    ``items`` are the element subtrees (separators included, in order,
    for separated lists).  The node's ``symbol``/``state`` mirror the
    spine root it replaced so state-matching reuse works unchanged.
    """

    __slots__ = ("_symbol", "_root")

    def __init__(self, symbol: str, root: Node | None, state: int) -> None:
        super().__init__(state)
        self._symbol = symbol
        self._root = root
        self.n_terms = root.n_terms if root is not None else 0

    @classmethod
    def from_items(
        cls, symbol: str, items: Sequence[Node], state: int
    ) -> "SequenceNode":
        seq = cls(symbol, _build(symbol, list(items)), state)
        seq._adopt_spine()
        return seq

    @property
    def kids(self) -> tuple[Node, ...]:
        return (self._root,) if self._root is not None else ()

    @property
    def symbol(self) -> str:
        return self._symbol

    @property
    def is_sequence_node(self) -> bool:
        return True

    def _capture_structure(self):
        return self._root

    def _restore_structure(self, structure) -> None:
        self._root = structure

    @property
    def n_items(self) -> int:
        return _items_of(self._root) if self._root is not None else 0

    def items(self) -> list[Node]:
        """The element subtrees, left to right (O(n))."""
        return _flatten(self._root)

    def item_slice(self, start: int, end: int) -> list[Node]:
        """Items in ``[start, end)`` -- O(lg n + result) via two splits."""
        _, tail = _split(self._symbol, self._root, start)
        mid, _ = _split(self._symbol, tail, end - start)
        return _flatten(mid)

    def item_index_of(self, item: Node) -> int:
        """Position of an item, via parent links -- O(depth).

        The item's parent chain must consist of this node's parts (true
        after a commit set the parents).
        """
        index = 0
        node = item
        parent = node.parent
        while isinstance(parent, SequencePart):
            left, right = parent.kids
            if node is right:
                index += _items_of(left)
            node = parent
            parent = node.parent
        if node is not self._root or parent is not self:
            raise ValueError("item is not part of this sequence")
        return index

    def replace_items(
        self, start: int, end: int, replacement: Sequence[Node]
    ) -> int:
        """Replace items ``[start, end)`` in place; returns parts created.

        Persistent splicing: O(lg n + len(replacement)) new parts; the
        untouched prefix/suffix subtrees are shared with the previous
        version.  Parent pointers along the new path are set here.
        """
        touch(self)
        before = _PART_COUNTER[0]
        prefix, tail = _split(self._symbol, self._root, start)
        _, suffix = _split(self._symbol, tail, end - start)
        middle = _build(self._symbol, list(replacement))
        self._root = _concat(
            self._symbol, _concat(self._symbol, prefix, middle), suffix
        )
        self.n_terms = self._root.n_terms if self._root is not None else 0
        self.forget_counts()
        self._adopt_spine()
        return _PART_COUNTER[0] - before

    def _adopt_spine(self) -> None:
        """Fix parent pointers for every part reachable fresh from the
        root (stops at parts whose parent link is already correct)."""
        if self._root is not None:
            touch(self._root)
            self._root.parent = self
        stack = [p for p in self.kids if isinstance(p, SequencePart)]
        while stack:
            part = stack.pop()
            for kid in part.kids:
                if kid.parent is not part:
                    touch(kid)
                    kid.parent = part
                    if isinstance(kid, SequencePart):
                        stack.append(kid)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SequenceNode({self._symbol!r}, {self.n_items} items)"


def split_for_breakdown(
    seq: SequenceNode, has_changes, shape: tuple[int, int] | None
) -> list[Node]:
    """Decompose a *changed* sequence node for the parser's input stream.

    A prefix of a left-recursive sequence's items is itself an instance
    when it holds ``base + k * step`` items (``shape``, from
    :attr:`Grammar.sequence_shapes`; None reuses no prefix).  The
    unchanged prefix, trimmed to the longest such count, is re-packaged
    as a SequenceNode (same recorded state, so the parser shifts it whole
    and grows it by ordinary ``aux: aux elem`` reductions); the trimmed
    items (a separated list's trailing separator), the subtree holding
    the first change and the suffix parts follow raw, to decompose on
    demand.  O(lg n) nodes are produced.
    """
    root = seq.kids[0] if seq.kids else None
    if root is None:
        return []
    prefix: Node | None = None
    suffix: list[Node] = []
    node = root
    while isinstance(node, SequencePart):
        left, right = node.kids
        if not has_changes(left):
            prefix = _concat(seq.symbol, prefix, left)
            node = right
        else:
            suffix.append(right)
            node = left
    out: list[Node] = []
    keep = 0
    if prefix is not None and shape is not None:
        base, step = shape
        count = _items_of(prefix)
        if count >= base:
            keep = count - (count - base) % step
    instance, rest = _split(seq.symbol, prefix, keep)
    if instance is not None:
        # Deliberately NOT adopted here: parsing may still fail, and
        # mutating the shared parts' parent pointers would corrupt the
        # committed tree's upward chains.  Adoption happens at commit,
        # when the collapse pass extends this prefix (replace_items ->
        # _adopt_spine).
        out.append(SequenceNode(seq.symbol, instance, seq.state))
    if rest is not None:
        out.append(rest)
    out.append(node)
    out.extend(reversed(suffix))
    return out


def parts_created() -> int:
    """Total sequence parts ever created (work metric for benchmarks)."""
    return _PART_COUNTER[0]
