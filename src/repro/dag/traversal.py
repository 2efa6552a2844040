"""Tree navigation helpers over the abstract parse DAG.

These implement the "previous version" navigation the incremental parser
needs (paper Appendix A): walking the yield of the last parsed tree,
finding the terminal that precedes or follows a node, and reconstructing
source text.  All functions treat choice points by following their first
alternative, which is safe because every alternative of a symbol node has
the same terminal yield.
"""

from __future__ import annotations

from typing import Callable, Iterator

from .. import obs
from .nodes import UNKNOWN, Node, SymbolNode, TerminalNode, count_nodes


def yield_tokens(root: Node) -> list:
    """The tokens of a subtree's yield, left to right."""
    return [t.token for t in root.iter_terminals()]


def unparse(root: Node) -> str:
    """Reconstruct exact source text (trivia included) from a subtree."""
    return "".join(
        t.token.trivia + t.token.text for t in root.iter_terminals()
    )


def first_terminal(node: Node) -> TerminalNode | None:
    """Leftmost terminal of a subtree, or None for a null yield."""
    for term in node.iter_terminals():
        return term
    return None


def last_terminal(node: Node) -> TerminalNode | None:
    """Rightmost terminal of a subtree, or None for a null yield."""
    current = node
    while not current.is_terminal:
        kids = (
            (current.kids[0],) if current.is_symbol_node else current.kids
        )
        for kid in reversed(kids):
            if first_terminal(kid) is not None:
                current = kid
                break
        else:
            return None
    return current  # type: ignore[return-value]


def _child_index(parent: Node, node: Node) -> int:
    for i, kid in enumerate(parent.kids):
        if kid is node:
            return i
    raise ValueError("node is not a child of its recorded parent")


def _last_terminal_filtered(
    node: Node, skip: Callable[[TerminalNode], bool]
) -> TerminalNode | None:
    """Rightmost non-skipped terminal of a subtree, or None."""
    stack = [node]
    while stack:
        current = stack.pop()
        if current.is_terminal:
            if not skip(current):  # type: ignore[arg-type]
                return current  # type: ignore[return-value]
            continue
        kids = (current.kids[0],) if current.is_symbol_node else current.kids
        stack.extend(kids)  # natural order: rightmost popped first
    return None


def _first_terminal_filtered(
    node: Node, skip: Callable[[TerminalNode], bool]
) -> TerminalNode | None:
    """Leftmost non-skipped terminal of a subtree, or None."""
    for term in node.iter_terminals():
        if not skip(term):
            return term
    return None


def previous_terminal(
    node: Node, skip: Callable[[TerminalNode], bool] = lambda t: False
) -> TerminalNode | None:
    """The terminal immediately preceding ``node``'s yield, via parents.

    ``skip`` filters out terminals that should be treated as absent
    (e.g. terminals deleted by pending edits).  Returns None at the start
    of the tree.
    """
    current = node
    while current.parent is not None:
        parent = current.parent
        index = _child_index(parent, current)
        if not parent.is_symbol_node:
            for sibling in reversed(parent.kids[:index]):
                found = _last_terminal_filtered(sibling, skip)
                if found is not None:
                    return found
        current = parent
    return None


def next_terminal(
    node: Node, skip: Callable[[TerminalNode], bool] = lambda t: False
) -> TerminalNode | None:
    """The terminal immediately following ``node``'s yield, via parents."""
    current = node
    while current.parent is not None:
        parent = current.parent
        index = _child_index(parent, current)
        if not parent.is_symbol_node:
            for sibling in parent.kids[index + 1 :]:
                found = _first_terminal_filtered(sibling, skip)
                if found is not None:
                    return found
        current = parent
    return None


def ancestors_ending_at(terminal: TerminalNode) -> Iterator[Node]:
    """Ancestors whose yield *ends* with ``terminal``.

    These are exactly the nodes whose construction consumed the terminal
    *after* ``terminal`` as implicit lookahead; when that following
    terminal changes, every node this yields must be invalidated (the
    right-context part of process_modifications_to_parse_dag).
    """
    node: Node = terminal
    parent = node.parent
    while parent is not None:
        if parent.is_symbol_node:
            # An alternative spans its choice node's whole yield, so the
            # choice node ends wherever the alternative ends.
            yield parent
            node = parent
            parent = node.parent
            continue
        kids = parent.kids
        # The node must be the last child with a non-null yield.
        index = _child_index(parent, node)
        trailing = kids[index + 1 :]
        if any(first_terminal(k) is not None for k in trailing):
            return
        yield parent
        node = parent
        parent = node.parent


def choice_points(root: Node) -> list[SymbolNode]:
    """All *live* choice nodes reachable from ``root``.

    A symbol node collapsed to a single alternative by a syntactic
    filter no longer represents a choice and is skipped.
    """
    found: list[SymbolNode] = []
    seen: set[int] = set()
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node.is_symbol_node and len(node.kids) > 1:
            found.append(node)  # type: ignore[arg-type]
        stack.extend(node.kids)
    return found


def census(root: Node) -> None:
    """Fill every unknown ``n_nodes``/``n_choices`` under ``root``.

    Descends only into nodes whose counts are unknown, so after an edit
    the fill costs the new nodes, the changed ancestor chain and any new
    choice regions -- not the document.  The counting rule:

    * a terminal counts (1, 0) (set at construction);
    * a choice point with several alternatives counts its whole region
      once, walking it with an id set (``count_nodes``,
      ``choice_points``): alternatives share subtrees, so summing their
      counts would count the shared nodes twice;
    * every other node counts itself plus the sum over its kids.  The
      sums are exact because, outside a choice region, the kids of a
      node cover disjoint spans and null-yield nodes are never shared.

    Region interiors are left as they are: only the choice node's own
    counts are filled.
    """
    if root.n_nodes != UNKNOWN:
        return
    # The unknown nodes in pre-order; reversed, every node follows its
    # kids.
    order: list[Node] = []
    stack = [root]
    while stack:
        node = stack.pop()
        if node.n_nodes != UNKNOWN:
            continue
        order.append(node)
        kids = node.kids
        if not (isinstance(node, SymbolNode) and len(kids) > 1):
            stack.extend(kids)
    # One per filled node, plus the interior of every region walked.
    filled = len(order)
    for node in reversed(order):
        kids = node.kids
        if isinstance(node, SymbolNode) and len(kids) > 1:
            node.n_nodes = count_nodes(node)
            node.n_choices = len(choice_points(node))
            filled += node.n_nodes - 1
            continue
        nodes, choices = 1, 0
        for kid in kids:
            nodes += kid.n_nodes
            choices += kid.n_choices
        node.n_nodes, node.n_choices = nodes, choices
    obs.incr("dag.census_filled", filled)


def error_regions(root: Node) -> list[Node]:
    """All *innermost* error nodes reachable from ``root``.

    Isolation may nest: a container error node can hold several isolated
    runs alongside salvaged subtrees.  The innermost nodes are the actual
    regions of unincorporated input, which is what reports count.
    """
    found: list[Node] = []
    seen: set[int] = set()
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node.is_error_node:
            inner_errors = [k for k in node.kids if k.is_error_node]
            if not inner_errors:
                found.append(node)
                continue
        stack.extend(node.kids)
    return found


def dump_tree(root: Node, max_depth: int | None = None) -> str:
    """Indented listing of a subtree (debugging and examples)."""
    lines: list[str] = []

    def visit(node: Node, depth: int) -> None:
        if max_depth is not None and depth > max_depth:
            return
        indent = "  " * depth
        if node.is_terminal:
            lines.append(f"{indent}{node.symbol} {node.text!r}")  # type: ignore[attr-defined]
        elif node.is_symbol_node:
            lines.append(f"{indent}<choice {node.symbol}>")
            for kid in node.kids:
                visit(kid, depth + 1)
        else:
            lines.append(f"{indent}{node.symbol}")
            for kid in node.kids:
                visit(kid, depth + 1)

    visit(root, 0)
    return "\n".join(lines)
