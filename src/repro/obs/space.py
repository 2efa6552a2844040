"""Space accounting for parse DAGs (paper sections 2.1 and 5).

Part of the :mod:`repro.obs` observability subsystem; :mod:`repro.dag`
re-exports its public names.

The paper's space experiments compare an abstract parse dag carrying
explicit ambiguity against the fully disambiguated parse tree a batch
compiler would build, and against the sentential-form representation
that stores no parse states in nodes.  We reproduce both comparisons
with an explicit per-node byte model, so results do not depend on
CPython object-header accidents:

* every node: one word for the type/production, one word per child link,
  one word for the parent link;
* state-matching representations add one word per node for the stored
  parse state (the ~5% figure of section 5);
* terminal nodes add one word for the token reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # avoid a runtime repro.dag import cycle
    from ..dag.nodes import Node

WORD = 8  # bytes per pointer/word in the model


@dataclass(frozen=True)
class SpaceReport:
    """Byte/node counts for one representation of a program."""

    nodes: int
    terminal_nodes: int
    symbol_nodes: int
    child_links: int
    bytes_with_states: int
    bytes_without_states: int

    @property
    def state_overhead_percent(self) -> float:
        """Extra space from storing parse states in nodes (section 5)."""
        if self.bytes_without_states == 0:
            return 0.0
        return 100.0 * (
            self.bytes_with_states / self.bytes_without_states - 1.0
        )


def measure_space(root: "Node") -> SpaceReport:
    """Measure a DAG, counting shared nodes once."""
    seen: set[int] = set()
    stack = [root]
    nodes = terminals = symbols = links = 0
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        nodes += 1
        if node.is_terminal:
            terminals += 1
        elif node.is_symbol_node:
            symbols += 1
        links += len(node.kids)
        stack.extend(node.kids)
    base = nodes * 2 * WORD + links * WORD + terminals * WORD
    return SpaceReport(
        nodes=nodes,
        terminal_nodes=terminals,
        symbol_nodes=symbols,
        child_links=links,
        bytes_with_states=base + nodes * WORD,
        bytes_without_states=base,
    )


def measure_disambiguated(root: "Node") -> SpaceReport:
    """Measure the tree obtained by keeping one alternative per choice.

    This models the parse tree of a batch compiler that resolved every
    ambiguity during parsing (via lexer feedback): choice nodes vanish
    and only the selected (or first) interpretation is counted.
    """
    seen: set[int] = set()
    stack = [root]
    nodes = terminals = links = 0
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node.is_symbol_node:
            chosen = node.selected() or node.kids[0]
            stack.append(chosen)
            continue  # the choice node itself disappears
        nodes += 1
        if node.is_terminal:
            terminals += 1
        kids = node.kids
        links += len(kids)
        stack.extend(kids)
    base = nodes * 2 * WORD + links * WORD + terminals * WORD
    return SpaceReport(
        nodes=nodes,
        terminal_nodes=terminals,
        symbol_nodes=0,
        child_links=links,
        bytes_with_states=base + nodes * WORD,
        bytes_without_states=base,
    )


def ambiguity_overhead_percent(root: "Node") -> float:
    """Space increase of the parse dag over the disambiguated tree.

    This is the quantity of Table 1 and Figure 4: the cost of keeping
    every interpretation explicit, relative to a batch compiler's tree.
    """
    dag = measure_space(root)
    tree = measure_disambiguated(root)
    if tree.bytes_with_states == 0:
        return 0.0
    return 100.0 * (
        dag.bytes_with_states / tree.bytes_with_states - 1.0
    )
