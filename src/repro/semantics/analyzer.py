"""Semantic disambiguation of the typedef problem (paper section 4.2).

The analysis follows the paper's staged organization (Figure 8):

1. **Typedef processing** — a forward walk collects ``typedef``
   declarations into per-scope binding contours.
2. **Namespace propagation / disambiguation** — each decl-vs-expr choice
   point is decided by the namespace of its leading identifier: a type
   name selects the declaration, an ordinary binding selects the
   expression statement.  Rejected interpretations are *retained* and
   merely marked filtered, because the decision is reversible.
3. **Error retention** — an unbound leading identifier leaves the choice
   unresolved: all interpretations stay live indefinitely (section 4.3),
   and later edits may resolve them.

Incrementality: dependency recording is first-class.  The full pass
builds a per-name *binding-site index* (every typedef / declaration /
function / parameter site, including declaration sites hiding under
rejected alternatives) plus a per-name decision index.  After an edit,
:meth:`TypedefAnalyzer.update` derives the set of *touched names* from
the mutation journal's outputs — terminals removed from the token
stream, fresh nodes committed by the reparse — and re-decides exactly
the choice points that consulted those names, resolving each against
the site index with the same position/scope rule the batch walk uses.
Cost is proportional to the affected-name fanout, not the tree.

Cross-document semantics: ``external_typedefs`` holds type names
imported from documents this one depends on (see
:mod:`repro.semantics.project`).  A name with no local binding site but
present in the external set resolves as a type;
:meth:`apply_external_delta` re-decides dependent choice points when an
upstream document's exports change.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field

from .. import obs
from ..dag.nodes import Node, ProductionNode, SymbolNode, TerminalNode
from ..langs.minic import (
    declared_name,
    declared_names,
    is_decl_alternative,
    is_stmt_alternative,
    is_typedef_choice,
    leading_identifier,
)
from ..versioned.document import Document
from .filters import reset_choice, semantic_select
from .symtab import Binding, Namespace, Scope

_SCOPE_LHS = ("block", "func_def")


class _FullPassNeeded(Exception):
    """Raised when a targeted update discovers it cannot stay targeted."""


@dataclass
class Decision:
    """One resolved (or unresolved) choice point."""

    choice: SymbolNode
    name: str
    resolved_as: str | None  # "decl" | "stmt" | None (unresolved)


@dataclass
class SemanticReport:
    """Outcome of a semantic analysis pass."""

    decisions: list[Decision] = field(default_factory=list)
    unresolved: list[Decision] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    typedef_names: set[str] = field(default_factory=set)
    sites_refiltered: int = 0
    full_pass: bool = True


class TypedefAnalyzer:
    """Scope-aware disambiguation for MiniC documents."""

    def __init__(self, document: Document) -> None:
        self.document = document
        # name -> {id(choice): latest Decision} so re-decisions replace
        # earlier ones instead of accumulating.
        self._decisions_by_name: dict[str, dict[int, Decision]] = {}
        # name -> {id(site): (site node, namespace)}: every binding site
        # for the name, *including* declaration sites under currently
        # rejected alternatives (visibility is checked at resolve time).
        self._sites: dict[str, dict[int, tuple[Node, Namespace]]] = {}
        # Type names imported from dependency documents (project layer).
        self.external_typedefs: set[str] = set()
        # Document version the indices describe; -1 = never analyzed.
        self._analyzed_version = -1
        self._typedef_view: set[str] = set()
        # Per-pass memo caches: liveness, visibility, position, scope.
        # Visibility is additionally cleared whenever a selection flips.
        self._intree_cache: dict[int, bool] = {}
        self._vis_cache: dict[int, bool] = {}
        self._pos_cache: dict[int, tuple[int, ...]] = {}
        self._scope_cache: dict[int, Node] = {}

    # -- full analysis -----------------------------------------------------

    def analyze(self) -> SemanticReport:
        """Run the full staged pass over the current tree."""
        if self.document.body is None:
            raise ValueError("document has not been parsed")
        with obs.span("sem.analyze", version=self.document.version):
            obs.incr("sem.full_passes")
            self._decisions_by_name = {}
            self._sites = {}
            self._begin_pass()
            report = SemanticReport()
            globals_ = Scope()
            self._walk(self.document.body, globals_, report)
            report.typedef_names = {
                name
                for name, sites in self._sites.items()
                if any(ns is Namespace.TYPE for _, ns in sites.values())
            }
            self._typedef_view = set(report.typedef_names)
            self._analyzed_version = self.document.version
        return report

    def _walk(self, node: Node, scope: Scope, report: SemanticReport) -> None:
        if node.is_terminal:
            return
        if node.is_symbol_node:
            self._decide_choice(node, scope, report)  # type: ignore[arg-type]
            return
        if not isinstance(node, ProductionNode):
            # Balanced-sequence containers: recurse transparently.
            for kid in node.kids:
                self._walk(kid, scope, report)
            return
        lhs = node.production.lhs
        if lhs == "typedef_decl":
            self._bind_typedef(node, scope, report)
            return
        if lhs == "decl":
            self._bind_decl(node, scope, report)
            # Walk the initializer for uses.
            for kid in node.kids[1:]:
                self._walk(kid, scope, report)
            return
        if lhs == "func_def":
            self._bind_func(node, scope, report)
            return
        if lhs == "block":
            inner = Scope(scope)
            for kid in node.kids:
                self._walk(kid, inner, report)
            return
        if lhs == "type_name":
            name = node.kids[0]
            assert isinstance(name, TerminalNode)
            if not scope.is_type_name(name.text) and (
                name.text not in self.external_typedefs
            ):
                report.errors.append(f"unknown type name {name.text!r}")
            return
        for kid in node.kids:
            self._walk(kid, scope, report)

    # -- binding builders --------------------------------------------------

    def _register_site(self, name: str, namespace: Namespace, node: Node) -> None:
        self._sites.setdefault(name, {})[id(node)] = (node, namespace)

    def _bind_typedef(
        self, node: ProductionNode, scope: Scope, report: SemanticReport
    ) -> None:
        name = declared_name(node.kids[2])
        if name is None:
            report.errors.append("typedef without a name")
            return
        binding = Binding(name.text, Namespace.TYPE, "typedef", node)
        scope.bind(binding)
        self._register_site(name.text, Namespace.TYPE, node)

    def _bind_decl(
        self, node: ProductionNode, scope: Scope, report: SemanticReport
    ) -> None:
        # One decl can carry several binding sites (``int a, *b, c[4];``).
        names = declared_names(node.kids[1])
        if not names:
            report.errors.append("declaration without a name")
            return
        for name in names:
            binding = Binding(name.text, Namespace.ORDINARY, "var", node)
            scope.bind(binding)
            self._register_site(name.text, Namespace.ORDINARY, node)
        self._walk(node.kids[0], scope, report)  # validate the type_spec

    def _bind_func(
        self, node: ProductionNode, scope: Scope, report: SemanticReport
    ) -> None:
        # func_def : type_spec ID '(' params ')' block
        name = node.kids[1]
        assert isinstance(name, TerminalNode)
        scope_binding = Binding(name.text, Namespace.ORDINARY, "func", node)
        scope.bind(scope_binding)
        self._register_site(name.text, Namespace.ORDINARY, node)
        self._walk(node.kids[0], scope, report)
        inner = Scope(scope)
        params = node.kids[3]
        for param in self._iter_params(params):
            pname = declared_name(param.kids[1])
            if pname is not None:
                inner.bind(
                    Binding(pname.text, Namespace.ORDINARY, "param", param)
                )
                self._register_site(pname.text, Namespace.ORDINARY, param)
        self._walk(node.kids[5], inner, report)

    def _iter_params(self, node: Node):
        if node.is_terminal:
            return
        if isinstance(node, ProductionNode) and node.production.lhs == "param":
            yield node
            return
        for kid in node.kids:
            yield from self._iter_params(kid)

    # -- choice resolution -------------------------------------------------

    def _decide_choice(
        self, choice: SymbolNode, scope: Scope, report: SemanticReport
    ) -> None:
        if not is_typedef_choice(choice):
            # Unknown ambiguity: leave it; walk the first alternative for
            # binding effects so analysis can continue (section 4.3).
            report.errors.append(
                f"unhandled ambiguity at {choice.symbol!r}"
            )
            return
        name_term = leading_identifier(choice)
        if name_term is None:
            report.errors.append("ambiguous item without an identifier")
            return
        name = name_term.text
        # The declaration interpretation is a binding site even while
        # rejected — a later re-decision may select it, which is exactly
        # what the incremental resolver's visibility check captures.
        for alternative in choice.alternatives:
            if is_decl_alternative(alternative):
                decl = self._find_decl(alternative)
                if decl is not None:
                    for term in declared_names(decl.kids[1]):
                        self._register_site(
                            term.text, Namespace.ORDINARY, decl
                        )
        decision = self._apply_namespace(choice, name, scope)
        report.decisions.append(decision)
        self._decisions_by_name.setdefault(name, {})[id(choice)] = decision
        if decision.resolved_as is None:
            report.unresolved.append(decision)
            report.errors.append(
                f"cannot resolve {name!r}: no binding in scope"
            )
            return
        selected = choice.selected()
        if selected is not None:
            self._walk_selected(selected, scope, report)

    @staticmethod
    def _find_decl(alternative: Node) -> ProductionNode | None:
        """The ``decl`` production down a 1-ary spine, if any."""
        node = alternative
        while isinstance(node, ProductionNode):
            if node.production.lhs == "decl":
                return node
            if len(node.kids) == 1 and not node.kids[0].is_terminal:
                node = node.kids[0]
            else:
                return None
        return None

    def _apply_namespace(
        self, choice: SymbolNode, name: str, scope: Scope
    ) -> Decision:
        binding = scope.lookup(name)
        if binding is None:
            if name in self.external_typedefs:
                semantic_select(
                    choice, is_decl_alternative, f"{name} is an imported type"
                )
                return Decision(choice, name, "decl")
            reset_choice(choice)
            return Decision(choice, name, None)
        if binding.namespace is Namespace.TYPE:
            semantic_select(choice, is_decl_alternative, f"{name} is a type")
            return Decision(choice, name, "decl")
        semantic_select(
            choice, is_stmt_alternative, f"{name} is an ordinary identifier"
        )
        return Decision(choice, name, "stmt")

    def _walk_selected(
        self, selected: Node, scope: Scope, report: SemanticReport
    ) -> None:
        # The selected interpretation may introduce bindings (a resolved
        # declaration binds its declarator).
        self._walk(selected, scope, report)

    # -- incremental re-disambiguation -------------------------------------

    def update(self) -> SemanticReport:
        """Re-analyze after an edit/reparse cycle.

        Derive the touched names from the last commit's outputs --
        terminals removed from the token stream and fresh binding
        productions -- and re-decide only the choice points that
        consulted those names, in document order, resolving each
        against the binding-site index.  Falls back to :meth:`analyze`
        when the reparse changed choice-point or scope *structure* (new
        symbol nodes, error regions, a fresh scope adopting reused
        subtrees, skipped versions).
        """
        if self._analyzed_version < 0:
            return self.analyze()
        doc = self.document
        with obs.span("sem.update", version=doc.version):
            if doc.version == self._analyzed_version:
                # Nothing committed since the indices were built.
                obs.incr("sem.fast_updates")
                return SemanticReport(
                    typedef_names=set(self._typedef_view),
                    full_pass=False,
                )
            result = doc.last_result
            if (
                result is None
                or doc.version != self._analyzed_version + 1
                or doc.has_errors
            ):
                return self.analyze()
            for node in result.new_nodes:
                if node.is_symbol_node or node.is_error_node:
                    return self.analyze()
                parent = node.parent
                if parent is not None and parent.is_symbol_node:
                    # A fresh alternative grafted onto an existing choice.
                    return self.analyze()
            self._begin_pass()
            if self._scope_structure_changed(result.new_nodes):
                return self.analyze()
            candidates = self._collect_candidates(result.new_nodes)
            return self._apply_candidates(candidates)

    def _apply_candidates(self, names: set[str]) -> SemanticReport:
        """Re-decide every live decision consulting ``names``, in
        document order, cascading through bindings that selection flips
        expose or hide.  Raises into a full pass when the cascade
        reaches structure the targeted resolver cannot handle (nested
        choice points under a flipped alternative).
        """
        report = SemanticReport(full_pass=False)
        obs.incr("sem.fast_updates")
        heap: list[tuple[tuple[int, ...], int, Decision]] = []
        queued: set[int] = set()
        order = itertools.count()

        def queue_name(name: str) -> None:
            obs.incr("sem.names_examined")
            decisions = self._decisions_by_name.get(name)
            if not decisions:
                return
            for key, decision in list(decisions.items()):
                choice = decision.choice
                if not self._still_in_tree(choice):
                    # Spliced out with its subtree: drop, don't re-decide.
                    del decisions[key]
                    obs.incr("sem.decisions_dropped")
                    continue
                if not self._visible(choice):
                    continue  # dormant under a rejected alternative
                if id(choice) in queued:
                    continue
                queued.add(id(choice))
                heapq.heappush(
                    heap, (self._position(choice), next(order), decision)
                )

        try:
            for name in sorted(names):
                queue_name(name)
            while heap:
                _pos, _n, decision = heapq.heappop(heap)
                queued.discard(id(decision.choice))
                new_decision, flipped_names = self._redecide(decision)
                report.decisions.append(new_decision)
                if new_decision.resolved_as is None:
                    report.unresolved.append(new_decision)
                report.sites_refiltered += 1
                obs.incr("sem.redecisions")
                for flip in sorted(flipped_names):
                    queue_name(flip)
        except _FullPassNeeded:
            return self.analyze()
        for name in names:
            if self._has_visible_type_site(name):
                self._typedef_view.add(name)
            else:
                self._typedef_view.discard(name)
        report.typedef_names = set(self._typedef_view)
        self._analyzed_version = self.document.version
        return report

    def _redecide(self, decision: Decision) -> tuple[Decision, set[str]]:
        """Resolve one choice against the site index; report names whose
        binding sites a selection flip exposed or hid."""
        choice = decision.choice
        name = decision.name
        old_selected = choice.selected()
        namespace = self._effective_namespace(choice, name)
        if namespace is Namespace.TYPE:
            semantic_select(choice, is_decl_alternative, f"{name} is a type")
            new = Decision(choice, name, "decl")
        elif namespace is Namespace.ORDINARY:
            semantic_select(
                choice, is_stmt_alternative, f"{name} is an ordinary identifier"
            )
            new = Decision(choice, name, "stmt")
        elif name in self.external_typedefs:
            semantic_select(
                choice, is_decl_alternative, f"{name} is an imported type"
            )
            new = Decision(choice, name, "decl")
        else:
            reset_choice(choice)
            new = Decision(choice, name, None)
        self._decisions_by_name.setdefault(name, {})[id(choice)] = new
        flipped: set[str] = set()
        new_selected = choice.selected()
        if new_selected is not old_selected:
            # Bindings under the alternatives changed visibility.
            self._vis_cache.clear()
            for alternative in (old_selected, new_selected):
                if alternative is None:
                    continue
                if self._contains_choice(alternative):
                    raise _FullPassNeeded(
                        "nested choice point under a flipped alternative"
                    )
                flipped |= self._names_bound_under(alternative)
        return new, flipped

    def _effective_namespace(
        self, choice: SymbolNode, name: str
    ) -> Namespace | None:
        """Namespace of the binding a batch walk would consult here.

        The winning site is the latest-position live, visible site whose
        scope node is an ancestor of the use and which precedes the use
        textually — positional order over nested scope intervals is
        exactly innermost-scope-then-latest-binding (dict-overwrite
        shadowing), because sites of an outer scope cannot interleave an
        inner scope's interval.
        """
        entries = self._sites.get(name)
        if not entries:
            return None
        use_pos = self._position(choice)
        ancestors = self._ancestor_ids(choice)
        best_pos: tuple[int, ...] | None = None
        best_ns: Namespace | None = None
        dead: list[int] = []
        for key, (site, namespace) in entries.items():
            obs.incr("sem.sites_considered")
            if not self._still_in_tree(site):
                dead.append(key)
                continue
            if not self._visible(site):
                continue
            if id(self._scope_node(site)) not in ancestors:
                continue
            pos = self._position(site)
            if pos >= use_pos:
                continue  # forward walk: a use sees only earlier bindings
            if best_pos is None or pos > best_pos:
                best_pos, best_ns = pos, namespace
        for key in dead:
            del entries[key]
            obs.incr("sem.sites_dropped")
        return best_ns

    def _names_bound_under(self, alternative: Node) -> set[str]:
        names: set[str] = set()
        stack: list[Node] = [alternative]
        while stack:
            node = stack.pop()
            if node.is_terminal or node.is_symbol_node:
                continue
            if isinstance(node, ProductionNode):
                lhs = node.production.lhs
                terms: list[TerminalNode] = []
                if lhs == "typedef_decl":
                    term = declared_name(node.kids[2])
                    terms = [term] if term is not None else []
                elif lhs == "decl":
                    terms = declared_names(node.kids[1])
                elif lhs == "func_def":
                    kid = node.kids[1]
                    terms = [kid] if isinstance(kid, TerminalNode) else []
                elif lhs == "param":
                    term = declared_name(node.kids[1])
                    terms = [term] if term is not None else []
                names.update(term.text for term in terms)
            stack.extend(node.kids)
        return names

    @staticmethod
    def _contains_choice(node: Node) -> bool:
        stack = [node]
        while stack:
            current = stack.pop()
            if current.is_terminal:
                continue
            if current.is_symbol_node:
                return True
            stack.extend(current.kids)
        return False

    # -- change detection ---------------------------------------------------

    def _scope_structure_changed(self, new_nodes: list[Node]) -> bool:
        """A fresh scope node adopting reused subtrees re-parents binding
        sites without them appearing in the journal: bail to a full pass.
        """
        new_ids = {id(node) for node in new_nodes}
        for node in new_nodes:
            if (
                not isinstance(node, ProductionNode)
                or node.production.lhs not in _SCOPE_LHS
            ):
                continue
            stack = list(node.kids)
            while stack:
                kid = stack.pop()
                if kid.is_terminal:
                    continue
                if id(kid) not in new_ids:
                    return True
                stack.extend(kid.kids)
        return False

    def _collect_candidates(self, new_nodes: list[Node]) -> set[str]:
        """Touched names: removed ID terminals, fresh ID terminals (their
        parents are always new nodes), and fresh binding productions —
        which are also registered into the site index here."""
        names: set[str] = set()
        for term in self.document.last_removed_terminals:
            if term.symbol == "ID":
                names.add(term.text)
        for node in new_nodes:
            if isinstance(node, ProductionNode):
                lhs = node.production.lhs
                if lhs == "typedef_decl":
                    term = declared_name(node.kids[2])
                    if term is not None:
                        self._register_site(term.text, Namespace.TYPE, node)
                        names.add(term.text)
                elif lhs == "decl":
                    for term in declared_names(node.kids[1]):
                        self._register_site(
                            term.text, Namespace.ORDINARY, node
                        )
                        names.add(term.text)
                elif lhs == "func_def":
                    kid = node.kids[1]
                    if isinstance(kid, TerminalNode):
                        self._register_site(
                            kid.text, Namespace.ORDINARY, node
                        )
                        names.add(kid.text)
                    for param in self._iter_params(node.kids[3]):
                        term = declared_name(param.kids[1])
                        if term is not None:
                            self._register_site(
                                term.text, Namespace.ORDINARY, param
                            )
                            names.add(term.text)
                elif lhs == "param":
                    term = declared_name(node.kids[1])
                    if term is not None:
                        self._register_site(
                            term.text, Namespace.ORDINARY, node
                        )
                        names.add(term.text)
            for kid in node.kids:
                if kid.is_terminal and kid.symbol == "ID":
                    names.add(kid.text)
        return names

    # -- structural predicates (memoized per pass) ---------------------------

    def _begin_pass(self) -> None:
        self._intree_cache = {}
        self._vis_cache = {}
        self._pos_cache = {}
        self._scope_cache = {}

    def _still_in_tree(self, node: Node) -> bool:
        """Liveness, memoized along the parent chain for the whole pass.

        Each step also checks that the node is still among its parent's
        kids: a balanced-sequence splice detaches the replaced spine
        parts without clearing their parent pointers, which still lead
        into the live tree.
        """
        cache = self._intree_cache
        chain: list[Node] = []
        current: Node | None = node
        while True:
            if current is None:
                alive = False
                break
            hit = cache.get(id(current))
            if hit is not None:
                alive = hit
                break
            if current is self.document.tree:
                alive = True
                break
            chain.append(current)
            parent = current.parent
            if parent is not None and current not in parent.kids:
                alive = False
                break
            current = parent
        for item in chain:
            cache[id(item)] = alive
        return alive

    def _visible(self, node: Node) -> bool:
        """Liveness *and* every enclosing choice currently selects the
        branch this node sits on.  Cleared when a selection flips."""
        cache = self._vis_cache
        chain: list[Node] = []
        current: Node | None = node
        while True:
            if current is None:
                visible = False
                break
            hit = cache.get(id(current))
            if hit is not None:
                visible = hit
                break
            if current is self.document.tree:
                visible = True
                break
            chain.append(current)
            parent = current.parent
            if (
                parent is not None
                and parent.is_symbol_node
                and parent.selected() is not current
            ):
                visible = False
                break
            current = parent
        for item in chain:
            cache[id(item)] = visible
        return visible

    def _position(self, node: Node) -> tuple[int, ...]:
        """Kid-index path from the root: document order, prefix-sorted
        (a binder precedes everything inside it, matching the batch
        walk's bind-before-descend rule)."""
        cache = self._pos_cache
        hit = cache.get(id(node))
        if hit is not None:
            return hit
        chain: list[tuple[Node, int]] = []
        current: Node = node
        base: tuple[int, ...] | None = None
        while current is not self.document.tree:
            cached = cache.get(id(current))
            if cached is not None:
                base = cached
                break
            parent = current.parent
            if parent is None:
                raise _FullPassNeeded("position of a detached node")
            kids = parent.kids
            for index, kid in enumerate(kids):
                if kid is current:
                    break
            else:
                raise _FullPassNeeded("node not among its parent's kids")
            chain.append((current, index))
            current = parent
        path = list(base) if base is not None else []
        for item, index in reversed(chain):
            path.append(index)
            cache[id(item)] = tuple(path)
        return cache.get(id(node), ())

    def _ancestor_ids(self, node: Node) -> set[int]:
        ids: set[int] = set()
        current = node.parent
        while current is not None:
            ids.add(id(current))
            current = current.parent
        return ids

    def _scope_node(self, site: Node) -> Node:
        """The node owning the scope a site binds into: the enclosing
        ``func_def`` for parameters, else the nearest ``block`` ancestor,
        else the document root (global scope)."""
        cached = self._scope_cache.get(id(site))
        if cached is not None:
            return cached
        is_param = (
            isinstance(site, ProductionNode) and site.production.lhs == "param"
        )
        wanted = "func_def" if is_param else "block"
        current = site.parent
        scope: Node = self.document.tree
        while current is not None and current is not self.document.tree:
            if (
                isinstance(current, ProductionNode)
                and current.production.lhs == wanted
            ):
                scope = current
                break
            current = current.parent
        self._scope_cache[id(site)] = scope
        return scope

    def _has_visible_type_site(self, name: str) -> bool:
        return any(
            namespace is Namespace.TYPE
            and self._still_in_tree(site)
            and self._visible(site)
            for site, namespace in self._sites.get(name, {}).values()
        )

    def decision_summary(self) -> dict[str, int]:
        """Live decision totals (pruning dead entries as it counts).

        Valid right after :meth:`analyze`/:meth:`update`, like
        :meth:`exported_typedefs`.
        """
        totals = {"decisions": 0, "unresolved": 0, "decl": 0, "stmt": 0}
        for decisions in self._decisions_by_name.values():
            for key, decision in list(decisions.items()):
                if not self._still_in_tree(decision.choice):
                    del decisions[key]
                    obs.incr("sem.decisions_dropped")
                    continue
                if not self._visible(decision.choice):
                    continue
                totals["decisions"] += 1
                if decision.resolved_as is None:
                    totals["unresolved"] += 1
                else:
                    totals[decision.resolved_as] += 1
        return totals

    # -- project-level queries ----------------------------------------------

    def exported_typedefs(self) -> set[str]:
        """Type names this document exports: global-scope typedefs.

        Valid immediately after :meth:`analyze`/:meth:`update` (the
        structural caches describe the analyzed version).
        """
        exported: set[str] = set()
        for name, entries in self._sites.items():
            for site, namespace in entries.values():
                if namespace is not Namespace.TYPE:
                    continue
                if not self._still_in_tree(site) or not self._visible(site):
                    continue
                if self._scope_node(site) is self.document.tree:
                    exported.add(name)
                    break
        return exported

    def apply_external_delta(
        self, added: set[str], removed: set[str]
    ) -> SemanticReport:
        """An upstream document's exports changed: re-decide dependents.

        Only names whose membership actually changes are processed, and
        of those only choice points with no overriding *local* binding
        can flip (the resolver prefers local sites).
        """
        added = set(added) - self.external_typedefs
        removed = set(removed) & self.external_typedefs
        self.external_typedefs |= added
        self.external_typedefs -= removed
        names = added | removed
        if self._analyzed_version < 0 or self.document.body is None:
            return SemanticReport(
                typedef_names=set(self._typedef_view), full_pass=False
            )
        if self.document.version != self._analyzed_version:
            self.update()
        if not names:
            return SemanticReport(
                typedef_names=set(self._typedef_view), full_pass=False
            )
        with obs.span(
            "sem.external_delta", added=len(added), removed=len(removed)
        ):
            self._begin_pass()
            report = self._apply_candidates(names)
            obs.incr("sem.external_redecisions", report.sites_refiltered)
        return report
