"""Unit tests for parse-DAG nodes."""

from repro.dag import NO_STATE, Node, ProductionNode, SymbolNode, TerminalNode, count_nodes
from repro.grammar import Production
from repro.lexing import Token


def term(text, type_=None):
    return TerminalNode(Token(type_ or text, text), state=1)


def prod(lhs, *kids, rhs=None, state=2):
    rhs = rhs if rhs is not None else tuple(k.symbol for k in kids)
    return ProductionNode(Production(0, lhs, tuple(rhs)), tuple(kids), state)


class TestTerminalNode:
    def test_symbol_is_token_type(self):
        node = term("x", "ID")
        assert node.symbol == "ID" and node.text == "x"

    def test_n_terms_is_one(self):
        assert term("x").n_terms == 1

    def test_is_terminal(self):
        node = term("x")
        assert node.is_terminal and not node.is_symbol_node
        assert node.kids == ()


class TestProductionNode:
    def test_kids_and_symbol(self):
        a, b = term("a"), term("b")
        node = prod("S", a, b)
        assert node.symbol == "S"
        assert node.kids == (a, b)
        assert node.arity == 2

    def test_n_terms_sums_kids(self):
        node = prod("S", term("a"), prod("T", term("b"), term("c")))
        assert node.n_terms == 3

    def test_epsilon_production(self):
        node = prod("S", rhs=())
        assert node.n_terms == 0 and node.arity == 0

    def test_adopt_kids_sets_parents(self):
        a, b = term("a"), term("b")
        node = prod("S", a, b)
        node.adopt_kids()
        assert a.parent is node and b.parent is node

    def test_replace_kids_updates_n_terms(self):
        node = prod("S", term("a"))
        node.replace_kids((term("b"), term("c")))
        assert node.n_terms == 2


class TestSymbolNode:
    def test_first_alternative_constructor(self):
        alt = prod("S", term("a"))
        choice = SymbolNode(alt)
        assert choice.symbol == "S"
        assert choice.kids == (alt,)
        assert alt.parent is choice

    def test_alternatives_forced_to_no_state(self):
        alt = prod("S", term("a"), state=7)
        choice = SymbolNode(alt)
        assert alt.state == NO_STATE
        other = prod("S", term("a"), state=9)
        choice.add_choice(other)
        assert other.state == NO_STATE

    def test_add_choice_idempotent(self):
        alt = prod("S", term("a"))
        choice = SymbolNode(alt)
        choice.add_choice(alt)
        assert len(choice.alternatives) == 1

    def test_n_terms_from_first_alternative(self):
        alt = prod("S", term("a"), term("b"))
        assert SymbolNode(alt).n_terms == 2

    def test_selected_requires_unique_survivor(self):
        a = prod("S", term("a"))
        b = prod("S", term("a"))
        choice = SymbolNode(a)
        choice.add_choice(b)
        assert choice.selected() is None
        b.set_annotation("filtered", True)
        assert choice.selected() is a

    def test_symbol_node_state_is_sentinel(self):
        assert SymbolNode(prod("S", term("a"))).state == NO_STATE


class TestAnnotations:
    def test_default_annotation(self):
        assert term("a").get_annotation("k", 42) == 42

    def test_set_and_get(self):
        node = term("a")
        node.set_annotation("k", "v")
        assert node.get_annotation("k") == "v"

    def test_lazy_allocation(self):
        node = term("a")
        assert node.annotations is None
        node.set_annotation("k", 1)
        assert node.annotations == {"k": 1}


class TestWalksAndCounts:
    def build(self):
        a, b = term("a"), term("b")
        alt1 = prod("S", a, b)
        alt2 = prod("S", a, b)
        choice = SymbolNode(alt1)
        choice.add_choice(alt2)
        return choice, a, b, alt1, alt2

    def test_count_nodes_counts_shared_once(self):
        choice, a, b, alt1, alt2 = self.build()
        # choice + 2 alts + 2 shared terminals
        assert count_nodes(choice) == 5

    def test_count_nodes_first_alternative_only(self):
        choice, *_ = self.build()
        assert count_nodes(choice, into_alternatives=False) == 4

    def test_iter_terminals_follows_first_alternative(self):
        choice, a, b, *_ = self.build()
        assert [t for t in choice.iter_terminals()] == [a, b]

    def test_walk_visits_all_alternatives(self):
        choice, a, b, alt1, alt2 = self.build()
        seen = {id(n) for n in choice.walk()}
        assert id(alt1) in seen and id(alt2) in seen
