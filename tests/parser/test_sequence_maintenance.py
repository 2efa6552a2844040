"""Unit tests for spine collapsing and sequence repair plumbing."""

import pytest

from repro import Document, Language
from repro.dag.sequences import SequenceNode
from repro.parser.sequences import attempt_sequence_repair, collapse_sequences

LANG = Language.from_dsl(
    """
%token NUM /[0-9]+/
%token ID /[a-z]+/
s : item* ;
item : ID '=' NUM ';' ;
"""
)

SEP_LANG = Language.from_dsl(
    "%token ID /[a-z]+/\ncall : ID '(' args ')' ;\nargs : ID ** ',' ;"
)


def balanced(text, lang=LANG):
    doc = Document(lang, text, balanced_sequences=True)
    doc.parse()
    return doc


class TestRecursiveSymbolDetection:
    def test_star_spine_detected(self):
        shapes = LANG.grammar.sequence_shapes
        assert len(shapes) == 1
        assert all("@seq" in s for s in shapes)
        # item* : aux -> eps | aux item
        assert list(shapes.values()) == [(0, 1)]

    def test_separated_star_wrapper_excluded(self):
        shapes = SEP_LANG.grammar.sequence_shapes
        # The eps|spine wrapper is a sequence production but not
        # self-recursive; only the spine symbol qualifies.
        spine_prods = [
            p
            for p in SEP_LANG.grammar.productions
            if p.is_sequence and p.lhs in p.rhs
        ]
        assert set(shapes) == {p.lhs for p in spine_prods}
        # ID ** ',' : spine -> ID | spine ',' ID, so only odd item counts
        # (an element last) form an instance.
        assert list(shapes.values()) == [(1, 2)]


class TestCollapse:
    def test_batch_parse_collapses(self):
        doc = balanced("a = 1; b = 2; c = 3;")
        seq = doc.body.kids[0]
        assert isinstance(seq, SequenceNode) and seq.n_items == 3

    def test_append_extends_existing_sequence(self):
        doc = balanced("a = 1; b = 2;")
        items_before = doc.body.kids[0].items()
        doc.insert(len(doc.text), " c = 3;")
        doc.parse()
        seq_after = doc.body.kids[0]
        assert seq_after.n_items == 3
        # Only the last old element (whose right context changed) is
        # rebuilt; earlier items keep identity via the grown prefix.
        assert seq_after.items()[0] is items_before[0]

    def test_items_keep_identity_on_append(self):
        doc = balanced("a = 1; b = 2;")
        first_item = doc.body.kids[0].items()[0]
        doc.insert(len(doc.text), " c = 3;")
        doc.parse()
        assert doc.body.kids[0].items()[0] is first_item

    def test_empty_list_collapse(self):
        doc = balanced("")
        seq = doc.body.kids[0]
        assert isinstance(seq, SequenceNode)
        assert seq.n_items == 0

    def test_collapse_no_sequences_is_noop(self):
        lang = Language.from_dsl("%token ID /[a-z]+/\ns : ID ;")
        doc = Document(lang, "x", balanced_sequences=True)
        doc.parse()
        assert doc.body.symbol == "s"


class TestRepairApplicability:
    def test_repair_declines_outside_sequence(self):
        doc = balanced("f(a, b, c)", lang=SEP_LANG)
        doc.edit(0, 1, "g")  # the callee name is outside the args list
        assert attempt_sequence_repair(doc) is None
        doc.parse()
        assert doc.source_text() == "g(a, b, c)"

    def test_repair_declines_at_tail(self):
        doc = balanced("a = 1; b = 2; c = 3;")
        doc.edit(doc.text.index("3"), 1, "9")  # inside the last element
        assert attempt_sequence_repair(doc) is None
        doc.parse()
        assert doc.source_text() == "a = 1; b = 2; c = 9;"

    def test_repair_declines_on_end_insertion(self):
        doc = balanced("a = 1; b = 2;")
        doc.insert(len(doc.text), " c = 3;")
        assert attempt_sequence_repair(doc) is None
        doc.parse()
        assert doc.body.kids[0].n_items == 3

    def test_repair_succeeds_in_middle(self):
        doc = balanced("a = 1; b = 2; c = 3; d = 4;")
        doc.edit(doc.text.index("2"), 1, "9")
        outcome = attempt_sequence_repair(doc)
        assert outcome is not None
        assert outcome.items_replaced >= 1
        assert doc.source_text() == "a = 1; b = 9; c = 3; d = 4;"

    def test_repair_covers_nearby_damage(self):
        doc = balanced("a = 1; b = 2; c = 3; d = 4; e = 5; f = 6;")
        doc.edit(doc.text.index("2"), 1, "7")
        doc.edit(doc.text.index("4"), 1, "8")  # one guard apart
        assert attempt_sequence_repair(doc) is not None
        assert doc.source_text() == "a = 1; b = 7; c = 3; d = 8; e = 5; f = 6;"

    def test_repair_declines_for_distant_damaged_regions(self):
        """Two regions with undamaged elements between them: reparsing
        the span would rebuild those elements, so the ordinary parse
        (which reuses them) runs instead."""
        text = " ".join(f"{name} = 1;" for name in "abcdefghij")
        doc = balanced(text)
        items_before = doc.body.kids[0].items()
        doc.edit(doc.text.index("b ="), 1, "x")
        doc.edit(doc.text.index("h ="), 1, "y")
        assert attempt_sequence_repair(doc) is None
        doc.parse()
        assert doc.source_text() == text.replace("b =", "x =").replace(
            "h =", "y ="
        )
        # The undamaged elements between the regions were reused.
        assert doc.body.kids[0].items()[4] is items_before[4]

    def test_repair_declines_without_pending_changes(self):
        doc = balanced("a = 1; b = 2; c = 3;")
        assert attempt_sequence_repair(doc) is None

    def test_repair_handles_multi_element_replacement(self):
        doc = balanced("a = 1; b = 2; c = 3; d = 4; e = 5;")
        start = doc.text.index("b =")
        end = doc.text.index("d =")
        doc.edit(start, end - start, "x = 7; ")
        doc.parse()
        assert doc.source_text() == "a = 1; x = 7; d = 4; e = 5;"
        assert doc.body.kids[0].n_items == 4

    def test_failed_parse_leaves_tree_intact(self):
        doc = balanced("a = 1; b = 2; c = 3; d = 4;")
        items_before = doc.body.kids[0].items()
        doc.edit(doc.text.index("b"), 1, "((")
        report = doc.parse()  # recovery reverts
        assert report.reverted_edits
        assert doc.source_text() == "a = 1; b = 2; c = 3; d = 4;"
        # Elements outside the repaired range keep their identity.
        assert doc.body.kids[0].items()[-1] is items_before[-1]
        # The tree's upward chains are still intact: another edit works.
        doc.edit(doc.text.index("1"), 1, "8")
        doc.parse()
        assert doc.source_text() == "a = 8; b = 2; c = 3; d = 4;"
