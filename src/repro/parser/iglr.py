"""Incremental generalized LR parsing (paper section 3.3 and Appendix A).

The engine combines:

* **GLR non-determinism** — breadth-first forking over a graph-structured
  stack whenever the (conflict-preserving) LALR table offers several
  actions, with Rekers-style local ambiguity packing;
* **incremental subtree reuse by state matching** — a whole subtree from
  the previous parse is shifted in O(1) when the single active parser's
  state equals the state recorded in the subtree and the subtree (plus
  its right context) is unchanged;
* **dynamic lookahead tracking** — every node built while more than one
  parser was active is tagged :data:`~repro.dag.nodes.NO_STATE`, the
  "equivalence class of all non-deterministic states"; future parses can
  never state-match such a node and therefore decompose it, which is
  exactly the property that lets the parser skip persistent GSS storage
  (unlike Ferro & Dion);
* **sharing** — production nodes are merged per input round by
  (rule, children) and contexts are merged by (symbol, yield cover) with
  lazily instantiated choice nodes.  Null-yield production nodes are
  deliberately *never* shared: the paper achieves the same end state by
  un-sharing them in a post-pass (section 3.5); building them unshared is
  equivalent and keeps semantic attribution per-instance.

A batch GLR parse is the special case of an input stream holding only
fresh terminals (see `repro.parser.glr`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .. import obs
from ..dag.journal import touch
from ..dag.nodes import NO_STATE, Node, ProductionNode, SymbolNode, TerminalNode
from ..grammar.cfg import Production
from ..tables.parse_table import ACCEPT, REDUCE, SHIFT, ParseTable
from .gss import GssLink, GssNode
from .input_stream import InputStream


class ParseError(Exception):
    """No active parser could make progress."""

    def __init__(self, message: str, terminal: TerminalNode | None = None) -> None:
        super().__init__(message)
        self.terminal = terminal


@dataclass
class ParseStats:
    """Work counters for the performance experiments."""

    shifts: int = 0
    subtree_shifts: int = 0
    reductions: int = 0
    nodes_created: int = 0
    nodes_reused: int = 0
    breakdowns: int = 0
    rounds: int = 0
    parser_splits: int = 0
    gss_merges: int = 0
    multistate_nodes: int = 0


def _flush_stats(kind: str, stats: ParseStats) -> None:
    """Mirror one parse's work counters into the observability registry.

    Counters accumulate per event elsewhere; parse work is flushed in
    bulk from the existing :class:`ParseStats` at the end of a parse so
    the hot parsing loops stay untouched.
    """
    if not obs.enabled():
        return
    obs.incr(f"{kind}.parses")
    obs.incr("parse.shifts", stats.shifts)
    obs.incr("parse.subtrees_reused", stats.subtree_shifts)
    obs.incr("parse.subtrees_decomposed", stats.breakdowns)
    obs.incr("parse.reductions", stats.reductions)
    obs.incr("parse.nodes_created", stats.nodes_created)
    obs.incr("parse.nodes_reused", stats.nodes_reused)
    obs.incr("parse.rounds", stats.rounds)
    obs.incr("gss.forks", stats.parser_splits)
    obs.incr("gss.merges", stats.gss_merges)
    obs.incr("parse.multistate_nodes", stats.multistate_nodes)


@dataclass
class ParseResult:
    """A completed parse: the root of the (new) abstract parse DAG."""

    root: Node
    stats: ParseStats
    new_nodes: list[Node] = field(default_factory=list)

    @property
    def is_ambiguous(self) -> bool:
        from ..dag.traversal import choice_points

        return bool(choice_points(self.root))


class IGLRParser:
    """The incremental GLR parser over a conflict-preserving table.

    Args:
        table: LALR(1)/SLR(1) table (conflicts allowed).
        share_nodes: merge identical production nodes per round (the
            subtree-sharing half of the representation; disable only for
            the sharing ablation).
    """

    def __init__(
        self,
        table: ParseTable,
        share_nodes: bool = True,
        reuse_nodes: bool = True,
        tracer=None,
    ) -> None:
        self.table = table
        self.grammar = table.grammar
        self.share_nodes = share_nodes
        self.tracer = tracer  # optional repro.obs.Tracer
        # Node retention (paper [25]): reductions that rebuild a
        # decomposed node identically reuse the old object, so semantic
        # attributes and annotations survive the reparse.
        self.reuse_nodes = reuse_nodes

    # -- public API -----------------------------------------------------------

    def parse(self, stream: InputStream) -> ParseResult:
        """Parse the input stream, returning the new DAG root's body.

        Raises :class:`ParseError` when no parser can shift the lookahead;
        the caller (the document layer) implements recovery.
        """
        with obs.span("parse.iglr"):
            run = _ParseRun(self, stream)
            result = run.execute()
            _flush_stats("parse.iglr", result.stats)
            return result

    def parse_tolerant(self, terminals: list[TerminalNode]) -> ParseResult:
        """Batch parse with panic-mode error isolation (section 4.3).

        Instead of raising on a syntax error, unincorporable input
        stretches are wrapped in :class:`~repro.dag.nodes.ErrorNode`
        regions and well-formed structure around them is salvaged.
        """
        from .recovery import parse_tolerant

        return parse_tolerant(
            lambda nodes: self.parse(InputStream(list(nodes))), terminals
        )


class _ParseRun:
    """State for a single parse invocation."""

    def __init__(self, parser: IGLRParser, stream: InputStream) -> None:
        self.parser = parser
        self.tracer = parser.tracer
        self.table = parser.table
        self.grammar = parser.grammar
        self.stream = stream
        self.stats = ParseStats()
        self.active: list[GssNode] = []
        self.for_actor: list[GssNode] = []
        self.for_shifter: list[tuple[GssNode, int]] = []
        self.multiple_states = False
        self.accepting: GssNode | None = None
        self.pos = 0
        self.new_nodes: list[Node] = []
        # Yield cover of every node touched this parse, keyed by id; the
        # node itself is kept in the value to pin ids against GC reuse.
        self._cover: dict[int, tuple[Node, int, int]] = {}
        # Per-round merge tables (reset by each input symbol round).
        self._round_nodes: dict[tuple, ProductionNode] = {}
        self._round_symbols: dict[tuple, SymbolNode] = {}
        self._round_proxies: dict[tuple, Node] = {}
        self._kid_uses: dict[int, list[ProductionNode]] = {}
        self._link_uses: dict[int, list[GssLink]] = {}
        self._red_terminal: TerminalNode | None = None

    # -- helpers ------------------------------------------------------------

    def _cover_of(self, node: Node) -> tuple[int, int]:
        entry = self._cover[id(node)]
        return (entry[1], entry[2])

    def _set_cover(self, node: Node, cover: tuple[int, int]) -> None:
        self._cover[id(node)] = (node, cover[0], cover[1])

    # -- main loop -----------------------------------------------------------

    def execute(self) -> ParseResult:
        self.active = [GssNode(self.table.start_state)]
        self.multiple_states = False
        while self.accepting is None:
            self._parse_next_symbol()
        root_link = self.accepting.links[0]
        return ParseResult(root_link.node, self.stats, self.new_nodes)

    def _parse_next_symbol(self) -> None:
        self.stats.rounds += 1
        if self._try_subtree_shift():
            return
        self.for_actor = list(self.active)
        self.for_shifter = []
        self._round_nodes.clear()
        self._round_symbols.clear()
        self._round_proxies.clear()
        self._kid_uses.clear()
        self._link_uses.clear()
        self._red_terminal = self.stream.reduction_terminal()
        while self.for_actor:
            parser = self.for_actor.pop()
            self._actor(parser)
        if self.accepting is not None:
            return
        if not self.for_shifter:
            terminal = self._red_terminal
            what = (
                f"{terminal.symbol} ({terminal.text!r})"
                if terminal is not None
                else "end of input"
            )
            raise ParseError(
                f"syntax error: no parser can proceed at {what}", terminal
            )
        before = self.stream.breakdowns
        self._shifter()
        self.stats.breakdowns = self.stream.breakdowns

    def _try_subtree_shift(self) -> bool:
        """Shift a state-matched subtree *before* consulting the table.

        When a single deterministic parser's state equals the state
        recorded under the lookahead subtree (and the subtree plus its
        right context are unchanged), the table actions at this point --
        including any epsilon reductions -- are exactly the first steps
        of re-deriving the subtree's own structure, so the whole subtree
        is shifted instead (section 3.2/3.3; this is the heart of
        incremental reuse).  Any cross-boundary ambiguity would have left
        the subtree tagged multistate or under a choice node, which the
        guards exclude.
        """
        if len(self.active) != 1 or self.multiple_states:
            return False
        la = self.stream.lookahead
        if (
            la is None
            or la.is_terminal
            or la.is_symbol_node
            or la.is_error_node
            or la.state == NO_STATE
            or la.n_terms == 0
            or self.stream.has_changes(la)
        ):
            return False
        parser = self.active[0]
        if la.state != parser.state:
            return False
        target = self.table.goto(parser.state, la.symbol)
        if target is None:
            return False
        self._set_cover(la, (self.pos, self.pos + la.n_terms))
        self.active = [GssNode(target, GssLink(parser, la))]
        self.stats.shifts += 1
        self.stats.subtree_shifts += 1
        if self.tracer is not None:
            self.tracer.shift_subtree(la.symbol, la.n_terms, 1)
        self.pos += la.n_terms
        self.stream.pop_lookahead()
        return True

    # -- the actor: process all reductions for one parser -------------------------

    def _reduction_actions(self, state: int) -> tuple:
        """Actions for the current reduction lookahead in ``state``.

        Uses the nonterminal fast path (precomputed nonterminal
        reductions, section 3.2) when the lookahead subtree is reusable
        and unambiguous; otherwise indexes by the leftmost effective
        terminal.
        """
        la = self.stream.lookahead
        if (
            la is not None
            and not la.is_terminal
            and not la.is_symbol_node
            and not la.is_error_node
            and la.state != NO_STATE
            and la.n_terms > 0
            and not self.stream.has_changes(la)
        ):
            nt_actions = self.table.nt_action(state, la.symbol)
            if nt_actions is not None:
                return nt_actions
        if self._red_terminal is None:
            return ()
        return self.table.action(state, self._red_terminal.symbol)

    def _actor(self, parser: GssNode) -> None:
        actions = self._reduction_actions(parser.state)
        if len(actions) > 1:
            self.multiple_states = True
            self.stats.parser_splits += 1
            if self.tracer is not None:
                self.tracer.split(len(actions))
        for action in actions:
            kind = action[0]
            if kind == ACCEPT:
                self.accepting = parser
                if self.tracer is not None:
                    self.tracer.accept()
            elif kind == REDUCE:
                self._do_reductions(parser, action[1])
            elif kind == SHIFT:
                self.for_shifter.append((parser, action[1]))

    def _do_reductions(self, parser: GssNode, rule: int) -> None:
        production = self.grammar.productions[rule]
        for kids, tail in parser.paths(production.arity):
            self._reduce_path(tail, production, kids)

    def _do_limited_reductions(
        self, parser: GssNode, rule: int, link: GssLink
    ) -> None:
        production = self.grammar.productions[rule]
        for kids, tail in parser.paths_through(production.arity, link):
            self._reduce_path(tail, production, kids)

    def _reduce_path(
        self, tail: GssNode, production: Production, kids: tuple[Node, ...]
    ) -> None:
        target = self.table.goto(tail.state, production.lhs)
        if target is None:
            # A conflicted table can drive a parser into a dead reduce;
            # that parser simply dies here.
            return
        self.stats.reductions += 1
        if self.tracer is not None:
            # "parsers" reports competing analyses, not transient GSS
            # nodes: 2 whenever the dynamic-lookahead flag is up.
            self.tracer.reduce(
                production, 2 if self.multiple_states else 1
            )
        node = self._get_node(production, kids, tail.state)
        existing = self._find_active(target)
        if existing is not None:
            direct = existing.link_to(tail)
            if direct is not None:
                self._add_choice(direct, node)
            else:
                labelled = self._get_symbolnode(node)
                link = GssLink(tail, labelled)
                self._link_uses.setdefault(id(labelled), []).append(link)
                existing.add_link(link)
                self.stats.gss_merges += 1
                # Parsers already processed this round may have further
                # reductions that cross the new link (Appendix A).
                pending = set(map(id, self.for_actor))
                for other in self.active:
                    if id(other) in pending:
                        continue
                    for action in self._reduction_actions(other.state):
                        if action[0] == REDUCE:
                            self._do_limited_reductions(
                                other, action[1], link
                            )
        else:
            labelled = self._get_symbolnode(node)
            link = GssLink(tail, labelled)
            self._link_uses.setdefault(id(labelled), []).append(link)
            fresh = GssNode(target, link)
            self.active.append(fresh)
            self.for_actor.append(fresh)

    def _find_active(self, state: int) -> GssNode | None:
        for parser in self.active:
            if parser.state == state:
                return parser
        return None

    # -- node construction and sharing -----------------------------------------

    def _get_node(
        self,
        production: Production,
        kids: tuple[Node, ...],
        preceding_state: int,
    ) -> ProductionNode:
        """Create or share the production node for a reduction.

        Null-yield nodes are never shared (eager equivalent of the
        paper's epsilon un-sharing post-pass).
        """
        shareable = self.parser.share_nodes and any(
            kid.n_terms for kid in kids
        )
        key = (production.index, tuple(map(id, kids))) if shareable else None
        if key is not None:
            found = self._round_nodes.get(key)
            if found is not None:
                return found
        state = NO_STATE if self.multiple_states else preceding_state
        if self.multiple_states:
            self.stats.multistate_nodes += 1
        if self.parser.reuse_nodes and kids:
            pooled = self.stream.reuse_pool.get(
                (production.index, tuple(map(id, kids)))
            )
            if pooled:
                node = pooled.pop()
                touch(node)
                node.state = state
                self.stats.nodes_reused += 1
                self.new_nodes.append(node)
                if kids:
                    start = self._cover_of(kids[0])[0]
                    end = self._cover_of(kids[-1])[1]
                else:
                    start = end = self.pos
                self._set_cover(node, (start, end))
                for kid in kids:
                    self._kid_uses.setdefault(id(kid), []).append(node)
                if key is not None:
                    self._round_nodes[key] = node
                return node
        node = ProductionNode(production, kids, state)
        self.stats.nodes_created += 1
        self.new_nodes.append(node)
        if kids:
            start = self._cover_of(kids[0])[0]
            end = self._cover_of(kids[-1])[1]
        else:
            start = end = self.pos
        self._set_cover(node, (start, end))
        for kid in kids:
            self._kid_uses.setdefault(id(kid), []).append(node)
        if key is not None:
            self._round_nodes[key] = node
        return node

    def _symbol_key(self, node: Node) -> tuple:
        return (node.symbol, self._cover_of(node))

    def _get_symbolnode(self, node: Node) -> Node:
        """Merge contexts: interpretations of one (symbol, cover) unify.

        Implements the paper's lazy choice-node instantiation: the first
        interpretation acts as a proxy for its symbol node; a second
        interpretation forces a real :class:`SymbolNode` whose first
        child is the proxy, and every use of the proxy is patched.
        """
        key = self._symbol_key(node)
        symbol_node = self._round_symbols.get(key)
        if symbol_node is not None:
            if node is not symbol_node:
                symbol_node.add_choice(node)
            return symbol_node
        proxy = self._round_proxies.get(key)
        if proxy is None:
            self._round_proxies[key] = node
            return node
        if proxy is node:
            return node
        symbol_node = SymbolNode(proxy)
        symbol_node.add_choice(node)
        self.stats.nodes_created += 1
        self.new_nodes.append(symbol_node)
        self._set_cover(symbol_node, self._cover_of(proxy))
        self._round_symbols[key] = symbol_node
        self._patch_proxy_uses(proxy, symbol_node)
        return symbol_node

    def _patch_proxy_uses(self, proxy: Node, symbol_node: SymbolNode) -> None:
        """Replace consumed references to a proxy by its new choice node."""
        for user in self._kid_uses.get(id(proxy), ()):  # production kids
            user.replace_kids(
                tuple(
                    symbol_node if kid is proxy else kid for kid in user.kids
                )
            )
            self._kid_uses.setdefault(id(symbol_node), []).append(user)
        for link in self._link_uses.get(id(proxy), ()):  # GSS labels
            link.node = symbol_node
            self._link_uses.setdefault(id(symbol_node), []).append(link)

    def _add_choice(self, link: GssLink, node: Node) -> None:
        """Attach an alternative interpretation to an existing link."""
        current = link.node
        if current is node:
            return
        if isinstance(current, SymbolNode):
            current.add_choice(node)
            return
        upgraded = self._get_symbolnode(current)
        if upgraded is current:
            # current was the registered proxy; force the real choice node.
            key = self._symbol_key(current)
            upgraded = SymbolNode(current)
            self.stats.nodes_created += 1
            self.new_nodes.append(upgraded)
            self._set_cover(upgraded, self._cover_of(current))
            self._round_symbols[key] = upgraded
            del self._round_proxies[key]
            self._patch_proxy_uses(current, upgraded)
        upgraded.add_choice(node)
        link.node = upgraded

    # -- the shifter ----------------------------------------------------------------

    def _shifter(self) -> None:
        self.active = []
        self.multiple_states = len(self.for_shifter) > 1
        la = self.stream.lookahead
        # Decompose until the lookahead is shiftable: a terminal always
        # is; a subtree only when a single deterministic parser state-
        # matches it and it is unchanged (section 3.3).
        while la is not None and not la.is_terminal:
            if (
                not self.multiple_states
                and not la.is_symbol_node
                and not la.is_error_node
                and la.state != NO_STATE
                and la.n_terms > 0
                and not self.stream.has_changes(la)
                and any(p.state == la.state for p, _ in self.for_shifter)
            ):
                break
            la = self.stream.left_breakdown()
        if la is None:
            raise ParseError("unexpected end of input while shifting", None)
        if la.is_terminal:
            self._set_cover(la, (self.pos, self.pos + 1))
            single = len(self.for_shifter) == 1
            # Terminal-labelled links never become choice alternatives (a
            # state is entered by a unique symbol), so they skip the
            # proxy-use registry.
            for parser, target in self.for_shifter:
                existing = self._find_active(target)
                link = GssLink(parser, la)
                if existing is not None:
                    existing.add_link(link)
                    self.stats.gss_merges += 1
                else:
                    self.active.append(GssNode(target, link))
            touch(la)
            la.state = self.for_shifter[0][0].state if single else NO_STATE
            if not single:
                self.stats.multistate_nodes += 1
            self.stats.shifts += 1
            if self.tracer is not None:
                self.tracer.shift(
                    la.symbol, la.text, len(self.for_shifter)
                )
        else:
            parser, _ = next(
                (p, s) for p, s in self.for_shifter if p.state == la.state
            )
            target = self.table.goto(parser.state, la.symbol)
            assert target is not None, "state match implies goto exists"
            self._set_cover(la, (self.pos, self.pos + la.n_terms))
            link = GssLink(parser, la)
            self.active.append(GssNode(target, link))
            self.stats.shifts += 1
            self.stats.subtree_shifts += 1
            if self.tracer is not None:
                self.tracer.shift_subtree(la.symbol, la.n_terms, 1)
        self.pos += la.n_terms
        self.stream.pop_lookahead()
