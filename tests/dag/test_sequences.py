"""Unit tests for the balanced sequence representation."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dag.nodes import NO_STATE, TerminalNode
from repro.dag.sequences import (
    SequenceNode,
    SequencePart,
    parts_created,
    split_for_breakdown,
)
from repro.lexing import Token


def term(text):
    return TerminalNode(Token("ID", str(text)))


def seq_of(n, state=7):
    return SequenceNode.from_items("L", [term(i) for i in range(n)], state)


class TestConstruction:
    def test_items_roundtrip(self):
        seq = seq_of(9)
        assert [t.text for t in seq.items()] == [str(i) for i in range(9)]

    def test_empty_sequence(self):
        seq = seq_of(0)
        assert seq.n_items == 0 and seq.kids == () and seq.n_terms == 0

    def test_single_item(self):
        seq = seq_of(1)
        assert seq.n_items == 1
        assert seq.kids[0].text == "0"

    def test_depth_is_logarithmic(self):
        seq = seq_of(1024)
        root = seq.kids[0]
        assert isinstance(root, SequencePart)
        assert root.depth <= math.ceil(math.log2(1024)) + 1

    def test_n_terms(self):
        assert seq_of(12).n_terms == 12

    def test_state_preserved(self):
        assert seq_of(3, state=42).state == 42

    def test_parts_have_no_state(self):
        seq = seq_of(8)
        assert seq.kids[0].state == NO_STATE

    def test_parents_set(self):
        seq = seq_of(8)
        for item in seq.items():
            node = item
            while node is not seq:
                assert node.parent is not None
                node = node.parent


class TestIndexing:
    def test_item_slice(self):
        seq = seq_of(10)
        assert [t.text for t in seq.item_slice(3, 6)] == ["3", "4", "5"]

    def test_item_index_of(self):
        seq = seq_of(10)
        for i, item in enumerate(seq.items()):
            assert seq.item_index_of(item) == i

    def test_slice_bounds(self):
        seq = seq_of(5)
        assert seq.item_slice(0, 5) == seq.items()
        assert seq.item_slice(2, 2) == []


class TestSplice:
    def test_replace_middle(self):
        seq = seq_of(10)
        seq.replace_items(4, 6, [term("x"), term("y"), term("z")])
        texts = [t.text for t in seq.items()]
        assert texts == ["0", "1", "2", "3", "x", "y", "z", "6", "7", "8", "9"]
        assert seq.n_items == 11

    def test_delete_range(self):
        seq = seq_of(10)
        seq.replace_items(2, 8, [])
        assert [t.text for t in seq.items()] == ["0", "1", "8", "9"]

    def test_insert_without_removal(self):
        seq = seq_of(4)
        seq.replace_items(2, 2, [term("new")])
        assert [t.text for t in seq.items()] == ["0", "1", "new", "2", "3"]

    def test_append(self):
        seq = seq_of(4)
        seq.replace_items(4, 4, [term("tail")])
        assert seq.items()[-1].text == "tail"

    def test_splice_is_logarithmic(self):
        seq = seq_of(4096)
        before = parts_created()
        seq.replace_items(2000, 2001, [term("x")])
        created = parts_created() - before
        assert created <= 4 * (12 + 4)  # ~O(lg 4096) with slack

    def test_untouched_subtrees_shared(self):
        seq = seq_of(64)
        old_items = seq.items()
        seq.replace_items(60, 61, [term("x")])
        new_items = seq.items()
        shared = {id(t) for t in old_items} & {id(t) for t in new_items}
        assert len(shared) == 63

    def test_repeated_splices_keep_depth_bounded(self):
        seq = seq_of(256)
        for i in range(200):
            seq.replace_items(i % 200, i % 200 + 1, [term(f"r{i}")])
        root = seq.kids[0]
        assert root.depth <= 2 * (seq.n_items.bit_length()) + 6

    def test_index_correct_after_splice(self):
        seq = seq_of(32)
        seq.replace_items(10, 12, [term("a"), term("b"), term("c")])
        for i, item in enumerate(seq.items()):
            assert seq.item_index_of(item) == i


# Grammar.sequence_shapes of ``X +`` (aux -> X | aux X) and of
# ``X ++ ','`` (aux -> X | aux ',' X).
PLUS = (1, 1)
SEPARATED = (1, 2)


class TestSplitForBreakdown:
    def test_split_around_changed_item(self):
        seq = seq_of(16)
        target = seq.items()[10]
        pieces = split_for_breakdown(
            seq, lambda n: _contains(n, target), PLUS
        )
        # First piece: prefix sequence of items 0..9.
        assert pieces[0].is_sequence_node
        assert pieces[0].n_items == 10
        assert pieces[0].state == seq.state
        # Remaining pieces cover items 10..15 in order.
        rest = []
        for piece in pieces[1:]:
            rest.extend(_leaf_texts(piece))
        assert rest == [str(i) for i in range(10, 16)]

    def test_change_in_first_item_has_no_prefix(self):
        seq = seq_of(8)
        target = seq.items()[0]
        pieces = split_for_breakdown(
            seq, lambda n: _contains(n, target), PLUS
        )
        assert not pieces[0].is_sequence_node

    @pytest.mark.parametrize("changed", [1, 2, 9, 10, 15])
    def test_separated_prefix_ends_on_an_element(self, changed):
        """``[a, ',', b, ',']`` is no instance of ``X ++ ','``: the
        prefix keeps an odd item count, the trimmed separator follows
        it raw."""
        seq = seq_of(17)
        target = seq.items()[changed]
        pieces = split_for_breakdown(
            seq, lambda n: _contains(n, target), SEPARATED
        )
        kept = pieces[0].n_items if pieces[0].is_sequence_node else 0
        assert kept % 2 == 1 and changed - 1 <= kept <= changed
        rest = []
        for piece in pieces[1 if kept else 0:]:
            rest.extend(_leaf_texts(piece))
        assert rest == [str(i) for i in range(kept, 17)]

    def test_no_shape_reuses_no_prefix(self):
        seq = seq_of(16)
        target = seq.items()[10]
        pieces = split_for_breakdown(
            seq, lambda n: _contains(n, target), None
        )
        assert not pieces[0].is_sequence_node
        rest = [text for piece in pieces for text in _leaf_texts(piece)]
        assert rest == [str(i) for i in range(16)]

    def test_piece_count_logarithmic(self):
        seq = seq_of(2048)
        target = seq.items()[1024]
        pieces = split_for_breakdown(
            seq, lambda n: _contains(n, target), PLUS
        )
        assert len(pieces) <= 2 * 11 + 8

    def test_empty_sequence(self):
        assert split_for_breakdown(seq_of(0), lambda n: True, PLUS) == []


def _contains(node, target):
    if node is target:
        return True
    return any(_contains(kid, target) for kid in node.kids)


def _leaf_texts(node):
    return [t.token.text for t in node.iter_terminals()]


def _check_depth_invariant(node):
    """Every part must satisfy the module's own rebalance bound."""
    if not isinstance(node, SequencePart):
        return
    size = max(node.n_items, 2)
    bound = size.bit_length() * 2 + 4  # mirrors sequences._needs_rebuild
    assert node.depth <= bound, (
        f"part with {node.n_items} items has depth {node.depth} > {bound}"
    )
    for kid in node.kids:
        _check_depth_invariant(kid)


@given(st.integers(2, 64), st.data())
@settings(max_examples=60, deadline=None)
def test_depth_invariant_survives_random_splices(n, data):
    """Property: no splice sequence can leave an over-deep part behind.

    Exercises the _split direct-return paths (splice boundaries landing
    exactly on subtree edges), which previously skipped rebalancing and
    let repeated edits accumulate skew.
    """
    seq = seq_of(n)
    for step in range(8):
        start = data.draw(st.integers(0, seq.n_items))
        end = data.draw(st.integers(start, seq.n_items))
        count = data.draw(st.integers(0, 4))
        seq.replace_items(
            start, end, [term(f"s{step}i{k}") for k in range(count)]
        )
        for kid in seq.kids:
            _check_depth_invariant(kid)


def test_edge_aligned_splices_keep_depth_bounded():
    # Deterministic regression for the _split direct-return bug: always
    # splice at position 0 so one half of every split is returned
    # as-is.  Without rebalancing those halves, depth grows linearly.
    seq = seq_of(64)
    for i in range(300):
        seq.replace_items(0, 1, [term(f"r{i}"), term(f"q{i}")])
        seq.replace_items(0, 2, [term(f"p{i}")])
    for kid in seq.kids:
        _check_depth_invariant(kid)


@given(
    st.integers(2, 40),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_splice_matches_list_semantics(n, data):
    """Property: replace_items behaves exactly like Python list splicing."""
    seq = seq_of(n)
    mirror = [t.text for t in seq.items()]
    for step in range(3):
        start = data.draw(st.integers(0, len(mirror)))
        end = data.draw(st.integers(start, len(mirror)))
        count = data.draw(st.integers(0, 3))
        new = [f"s{step}i{k}" for k in range(count)]
        seq.replace_items(start, end, [term(x) for x in new])
        mirror[start:end] = new
        assert [t.text for t in seq.items()] == mirror
        assert seq.n_items == len(mirror)
