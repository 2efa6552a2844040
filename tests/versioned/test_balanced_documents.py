"""Integration tests for balanced-sequence documents (paper 3.4)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Document, Language
from repro.bench.workloads import numeric_token_sites
from repro.dag.sequences import SequenceNode, parts_created
from repro.langs.calc import calc_language, evaluate
from repro.langs.generators import generate_calc_program
from repro.langs.minic import minic_language
from repro.parser import enumerate_trees


def balanced_doc(text, lang=None):
    doc = Document(lang or calc_language(), text, balanced_sequences=True)
    doc.parse()
    return doc


def total_work(report, parts_before):
    return (
        report.stats.shifts
        + report.stats.reductions
        + report.stats.breakdowns
        + (parts_created() - parts_before)
    )


class TestCollapsing:
    def test_spine_collapses_to_sequence_node(self):
        doc = balanced_doc("a = 1; b = 2; c = 3;")
        seq = doc.body.kids[0]
        assert isinstance(seq, SequenceNode)
        assert seq.n_items == 3

    def test_empty_sequence(self):
        doc = balanced_doc("")
        assert doc.body.n_terms == 0

    def test_unparse_roundtrip(self):
        text = "a = 1;  b = 2;\nc = a + b;\n"
        doc = balanced_doc(text)
        assert doc.source_text() == text

    def test_nested_sequences_collapse(self):
        doc = balanced_doc(
            "int f() { int a; int b; int c; }", lang=minic_language()
        )
        seqs = [
            n
            for n in doc.body.walk()
            if isinstance(n, SequenceNode) and n.n_items > 0
        ]
        assert len(seqs) >= 2  # external list and the block's item list

    def test_separated_list_collapses(self):
        lang = Language.from_dsl(
            "%token ID /[a-z]+/\ncall : ID '(' args ')' ;\nargs : ID ** ',' ;"
        )
        doc = Document(lang, "f(a, b, c, d)", balanced_sequences=True)
        doc.parse()
        seqs = [n for n in doc.body.walk() if isinstance(n, SequenceNode)]
        assert seqs and seqs[0].n_items == 7  # 4 ids + 3 commas

    def test_semantics_still_evaluate(self):
        doc = balanced_doc("a = 2; b = a * 5;")
        assert evaluate(doc.body)["b"] == 10.0


class TestRepairPath:
    def test_middle_edit_repaired(self):
        doc = balanced_doc(generate_calc_program(60, seed=3))
        v = doc.version
        offset = doc.text.index("= ", len(doc.text) // 2) + 2
        doc.edit(offset, 1, "777")
        doc.parse()
        assert doc.version == v + 1
        assert doc.source_text() == doc.text

    def test_repair_matches_fresh_parse(self):
        doc = balanced_doc(generate_calc_program(40, seed=5))
        offset = doc.text.index("= ") + 2
        doc.edit(offset, 1, "88")
        doc.parse()
        fresh = balanced_doc(doc.text)
        assert enumerate_trees(doc.body) == enumerate_trees(fresh.body)

    def test_statement_insertion_repaired(self):
        doc = balanced_doc("a = 1; b = 2; c = 3; d = 4;")
        offset = doc.text.index("c =")
        doc.insert(offset, "zz = 9; ")
        doc.parse()
        assert doc.source_text() == "a = 1; b = 2; zz = 9; c = 3; d = 4;"
        assert evaluate(doc.body)["zz"] == 9.0

    def test_statement_deletion_repaired(self):
        doc = balanced_doc("a = 1; b = 2; c = 3; d = 4;")
        offset = doc.text.index("b =")
        doc.delete(offset, len("b = 2; "))
        doc.parse()
        assert doc.source_text() == "a = 1; c = 3; d = 4;"
        seq = doc.body.kids[0]
        assert seq.n_items == 3

    def test_edit_changing_element_count(self):
        doc = balanced_doc("a = 1; b = 2; c = 3; d = 4;")
        offset = doc.text.index("b = 2;")
        doc.edit(offset, len("b = 2;"), "x = 7; y = 8; z = 9;")
        doc.parse()
        assert doc.body.kids[0].n_items == 6
        assert evaluate(doc.body)["y"] == 8.0

    def test_work_independent_of_position_and_size(self):
        works = []
        for n in (100, 800):
            doc = balanced_doc(generate_calc_program(n, seed=13))
            for frac in (0.1, 0.5, 0.9):
                offset = doc.text.index("= ", int(len(doc.text) * frac)) + 2
                before = parts_created()
                doc.edit(offset, 1, "55")
                report = doc.parse()
                works.append(total_work(report, before))
        assert max(works) < 250  # bounded, not O(document)

    def test_unbalanced_edit_falls_back(self):
        # An edit outside any sequence (the function header) cannot be
        # repaired; the ordinary incremental parse must handle it.
        doc = balanced_doc(
            "int foo() { int a; int b; }", lang=minic_language()
        )
        offset = doc.text.index("foo")
        doc.edit(offset, 3, "bar")
        doc.parse()
        assert "bar" in doc.source_text()

    def test_sequence_of_length_one_falls_back(self):
        doc = balanced_doc("a = 1;")
        doc.edit(4, 1, "9")
        doc.parse()
        assert doc.source_text() == "a = 9;"

    def test_repair_then_error_recovery(self):
        doc = balanced_doc("a = 1; b = 2; c = 3;")
        doc.edit(doc.text.index("b ="), 1, "((")
        report = doc.parse()
        assert report.reverted_edits
        assert doc.source_text() == "a = 1; b = 2; c = 3;"


class TestBalancedVsUnbalancedEquivalence:
    @given(st.integers(0, 999), st.integers(5, 25), st.integers(0, 4))
    @settings(max_examples=40, deadline=None)
    def test_random_edits_agree(self, value, n_statements, edit_pos):
        text = generate_calc_program(n_statements, seed=11)
        balanced = Document(
            calc_language(), text, balanced_sequences=True
        )
        plain = Document(calc_language(), text)
        balanced.parse()
        plain.parse()
        # Replace the edit_pos-th numeric literal in both documents.
        sites = numeric_token_sites(balanced)
        offset, length = sites[edit_pos % len(sites)]
        for doc in (balanced, plain):
            doc.edit(offset, length, str(value))
            doc.parse()
        assert balanced.text == plain.text
        assert balanced.source_text() == plain.source_text()
        assert [
            _normalize(t) for t in enumerate_trees(balanced.body)
        ] == [_normalize(t) for t in enumerate_trees(plain.body)]
        assert evaluate(balanced.body) == evaluate(plain.body)


def _normalize(tree):
    """Flatten left-recursive sequence spines so balanced and plain
    representations of the same program compare equal."""
    if not isinstance(tree, tuple) or not tree:
        return tree
    head = tree[0]
    if isinstance(head, str) and "@seq" in head:
        items = []

        def gather(node):
            for kid in node[1:]:
                if isinstance(kid, tuple) and kid and kid[0] == head:
                    gather(kid)
                else:
                    items.append(_normalize(kid))

        gather(tree)
        return (head, *items)
    return (head, *[_normalize(kid) for kid in tree[1:]])
