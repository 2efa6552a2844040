"""The incremental parser's input: reused subtrees plus fresh tokens.

The paper describes the parser's right-hand (input) stack as "conceptually
on a stack, but actually produced by a directed traversal over the version
of the tree as it existed immediately prior to reparsing" (section 3.2).
We materialize exactly that stack: it starts holding the previous tree's
top-level subtrees, ``left_breakdown`` pops a node and pushes its
children, and ``pop_lookahead`` consumes the node just shifted.  Total
work is proportional to the number of breakdowns performed, which is what
makes incremental parsing sub-linear.

The stack consults a :class:`~repro.parser.plan.ParsePlan` so that

* deleted terminals evaporate when exposed,
* fresh terminals surface immediately before their anchor, and
* any node with plan-recorded changes reports ``has_changes`` truthfully.

A batch parse is the degenerate case: a stack of fresh terminal nodes.
"""

from __future__ import annotations

from ..dag.nodes import Node, TerminalNode
from .plan import ParsePlan


class InputStream:
    """Lookahead management over old subtrees and fresh terminals."""

    def __init__(
        self,
        initial: list[Node],
        plan: ParsePlan | None = None,
        sequence_shapes: dict[str, tuple[int, int]] | None = None,
    ) -> None:
        self._plan = plan if plan is not None else ParsePlan()
        # Grammar.sequence_shapes: which item prefixes of a changed
        # balanced sequence are instances the parser may shift whole.
        self._shapes = sequence_shapes or {}
        # Top of stack = leftmost pending input.
        self._stack: list[Node] = list(reversed(initial))
        self._insertions_done: set[int] = set()
        self.breakdowns = 0  # work counter for the benchmarks
        # Node retention (paper [25], section 3.3): production nodes
        # decomposed during this parse are pooled by (rule, children);
        # a reduction recreating the identical structure reuses the old
        # object, preserving its annotations for later passes.  The pool
        # is a single shared table, as the paper advocates.
        self.reuse_pool: dict[tuple, list[Node]] = {}
        # reduction_terminal cache, valid until the stack next mutates.
        self._red_cache: TerminalNode | None = None
        self._red_cache_valid = False
        self._settle()

    # -- plan-aware state -----------------------------------------------------

    def has_changes(self, node: Node) -> bool:
        return self._plan.has_changes(node)

    def _settle(self) -> None:
        """Normalize the stack top.

        Surfaces pending insertions, drops deleted terminals, and --
        following the paper's pop_lookahead -- eagerly breaks down any
        *changed* subtree the moment it becomes the lookahead, so the
        parser only ever sees reusable subtrees or fresh terminals.
        """
        while self._stack:
            top = self._stack[-1]
            if (
                id(top) not in self._insertions_done
                and self._plan.pending_before(top)
            ):
                self._insertions_done.add(id(top))
                self._stack.extend(
                    reversed(self._plan.pending_before(top))
                )
                continue
            if top.is_terminal:
                if self._plan.is_deleted(top):
                    self._stack.pop()
                    continue
                break
            if self._plan.has_changes(top):
                self._stack.pop()
                self.breakdowns += 1
                self._pool(top)
                if top.is_symbol_node:
                    self._stack.append(top.kids[0])
                elif top.is_sequence_node:
                    # Preserve whole-prefix reuse: a changed balanced
                    # sequence splits into (prefix sequence, changed
                    # subtree, suffix parts) instead of dissolving.
                    from ..dag.sequences import split_for_breakdown

                    self._stack.extend(
                        reversed(
                            split_for_breakdown(
                                top,
                                self._plan.has_changes,
                                self._shapes.get(top.symbol),
                            )
                        )
                    )
                else:
                    self._stack.extend(reversed(top.kids))
                continue
            break
        if not self._stack and self._plan.pending_at_end:
            fresh = self._plan.pending_at_end
            self._plan.pending_at_end = []
            self._stack.extend(reversed(fresh))

    # -- the paper's three input operations --------------------------------------

    @property
    def lookahead(self) -> Node | None:
        """The current lookahead subtree (shiftLa), or None at end."""
        return self._stack[-1] if self._stack else None

    def left_breakdown(self) -> Node | None:
        """Replace the lookahead by its children; return the new lookahead.

        One level of structure is removed per invocation (Appendix A).
        Breaking down a terminal just consumes it.
        """
        # Note: no reduction-terminal cache invalidation here -- breaking
        # a node into its children never changes the effective yield.
        top = self._stack.pop()
        self.breakdowns += 1
        self._pool(top)
        if top.is_symbol_node:
            # Alternatives of a choice node share one yield: decompose
            # through the first interpretation only.
            self._stack.append(top.kids[0])
        elif not top.is_terminal:
            self._stack.extend(reversed(top.kids))
        self._settle()
        return self.lookahead

    def _pool(self, node: Node) -> None:
        from ..dag.nodes import ProductionNode

        if isinstance(node, ProductionNode) and node.kids:
            key = (node.production.index, tuple(map(id, node.kids)))
            self.reuse_pool.setdefault(key, []).append(node)

    def pop_lookahead(self) -> Node | None:
        """Consume the current lookahead (it was shifted); return the next."""
        self._stack.pop()
        self._red_cache_valid = False
        self._settle()
        return self.lookahead

    @property
    def exhausted(self) -> bool:
        return not self._stack

    # -- reduction lookahead ------------------------------------------------------

    def reduction_terminal(self) -> TerminalNode | None:
        """The leftmost *effective* terminal of the remaining input.

        This is the paper's redLa after full refinement: left_breakdown
        applied (virtually -- the stack itself is not disturbed) until a
        terminal surfaces, with the plan's deletions and insertions taken
        into account.  Returns None only when the input is exhausted.

        The result is cached until the stack next mutates: parsers query
        it once per reduction, and reductions do not move the input.
        """
        if self._red_cache_valid:
            return self._red_cache
        result = self._scan_reduction_terminal()
        self._red_cache = result
        self._red_cache_valid = True
        return result

    def _scan_reduction_terminal(self) -> TerminalNode | None:
        frontier: list[Node] = []
        stack_pos = len(self._stack)
        while True:
            if frontier:
                node = frontier.pop()
            else:
                stack_pos -= 1
                if stack_pos < 0:
                    if self._plan.pending_at_end:
                        return self._plan.pending_at_end[0]
                    return None
                node = self._stack[stack_pos]
            if id(node) not in self._insertions_done:
                pending = self._plan.pending_before(node)
                if pending:
                    return pending[0]
            if node.is_terminal:
                if self._plan.is_deleted(node):
                    continue
                return node  # type: ignore[return-value]
            if node.is_symbol_node:
                frontier.append(node.kids[0])
                continue
            # Push children so the leftmost comes out first; null-yield
            # children simply fall through to their right siblings.
            frontier.extend(reversed(node.kids))
